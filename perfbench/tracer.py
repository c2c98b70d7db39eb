"""Layer wrappers installed from outside the taskgrid package.

Each layer boundary is a public function or method looked up at call time,
so replacing the attribute on its module or class intercepts every caller,
including callers inside the package. Two modes:

``count``
    Count calls and the work they report (actions scanned, profiles
    enumerated, ...). No clock reads, so counts are exact and cheap.
``trace``
    Also time every call and attribute self time (duration minus the
    duration of nested wrapped calls) to the layer. Coarse boundaries
    additionally keep a span ``(id, parent, name, start, end, op)`` in
    memory; hot functions (``ValueFunction.evaluate``, ``ProfileState.switch``,
    ``Grid.distances_from``) are timed without a span record.

With no mode installed the package runs unwrapped.
"""

import gzip
import time
from collections import defaultdict


def _station_actions(game):
    """Total action count over the game's distinct stations."""
    first = {}
    for robot_id, number in zip(game.robot_ids, game.robot_stations):
        first.setdefault(number, robot_id)
    return sum(game.n_actions(r) for r in first.values())


SPAN, HOT, LEAF = "span", "hot", "leaf"


def _boundaries(tg):
    """(owner, attribute, layer, kind, extra counter, extra fn).

    ``SPAN`` boundaries keep a span per call. ``HOT`` ones are timed without
    a span record, because a record per call would cost more than the call.
    ``LEAF`` ones are hot and call no other boundary, so they skip even the
    frame that lets nested calls be subtracted.
    """
    return (
        (tg.scenario, "parse_scenario", "scenario.parse", SPAN, None, None),
        (tg.scenario, "scenario_digest", "scenario.digest", SPAN, None, None),
        (tg.Grid, "__init__", "grid.init", SPAN, None, None),
        (tg.Grid, "distances_from", "grid.bfs", LEAF, None, None),
        (tg.GameInstance, "__init__", "game.init", SPAN,
         "actions.actions", lambda args, r: _station_actions(args[0])),
        (tg.actions, "build_minimal_action_set", "actions.realize", SPAN, None, None),
        (tg.actions, "achievable_signatures", "actions.signatures", SPAN,
         "actions.slots", lambda args, r: len(r[1])),
        (tg.actions, "extend_action_set", "actions.extend", SPAN, None, None),
        (tg.ProfileState, "__init__", "game.state_init", SPAN, None, None),
        (tg.ProfileState, "utilities_over_actions", "game.utilities", SPAN,
         "game.actions_scanned", lambda args, r: len(r)),
        (tg.ProfileState, "switch", "game.switch", HOT, None, None),
        (tg.ValueFunction, "evaluate", "tasks.evaluate", LEAF, None, None),
        (tg.analysis, "brute_force_optimum", "analysis.optimum", SPAN, None, None),
        (tg.analysis, "enumerate_nash", "analysis.nash", SPAN, None, None),
        (tg.analysis, "profile_values", "analysis.profile_values", SPAN,
         "analysis.profiles", lambda args, r: int(r.size)),
        (tg.analysis, "lll_stationary_distribution", "analysis.solve", SPAN, None, None),
        (tg.analysis, "lll_transition_matrix", "analysis.transition", SPAN,
         "analysis.transition_nnz", lambda args, r: int(r[0].nnz)),
        (tg.learning, "run_batch", "learning.self", SPAN, None, None),
        (tg.report, "write_series_csv", "report.write", SPAN, None, None),
        (tg.report, "write_report_json", "report.write", SPAN, None, None),
    )


class Tracer:
    """Counts, self times and spans for one benchmark process."""

    def __init__(self, tg):
        self._tg = tg
        self._saved = []
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self._stack = []
        self._hot_acc = {}
        self._next_id = 0
        self.op = None

    # -- installation ----------------------------------------------------

    def install(self, mode):
        """Wrap every layer boundary for ``mode`` ("count" or "trace")."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, kind, extra_name, extra_fn in _boundaries(self._tg):
            fn = owner.__dict__[attr]
            if mode == "count":
                wrapper = self._counting(fn, layer, extra_name, extra_fn)
            elif kind == SPAN:
                wrapper = self._timing(fn, layer, extra_name, extra_fn)
            else:
                wrapper = self._hot(fn, layer, kind == LEAF)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []
        for layer, (seconds, calls) in self._hot_acc.items():
            self.self_s[layer] += seconds
            self.counts[layer + "_calls"] += calls
        self._hot_acc = {}

    def reset(self):
        """Clear counts and self times (spans are kept for the run's file)."""
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)

    def _counting(self, fn, layer, extra_name, extra_fn):
        key = layer + "_calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            result = fn(*args, **kwargs)
            if extra_fn is not None:
                self.counts[extra_name] += extra_fn(args, result)
            return result

        return wrapper

    def _timing(self, fn, layer, extra_name, extra_fn):
        key = layer + "_calls"
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[0]
                parent[0] += duration
                self.counts[key] += 1
                self.spans.append((sid, parent[1], layer, start, end, self.op))
            if extra_fn is not None:
                self.counts[extra_name] += extra_fn(args, result)
            return result

        return wrapper

    def _hot(self, fn, layer, leaf):
        """Timed, kept only as a running total (self time, calls) per layer."""
        clock = time.perf_counter
        stack = self._stack
        acc = [0.0, 0]
        self._hot_acc[layer] = acc

        if leaf:
            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                duration = clock() - start
                acc[0] += duration
                acc[1] += 1
                stack[-1][0] += duration
                return result

            return wrapper

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                acc[0] += duration - frame[0]
                acc[1] += 1
                stack[-1][0] += duration
            return result

        return wrapper

    # -- roots -----------------------------------------------------------

    def root(self, name, op):
        """Context manager for one op (or set-up) root span."""
        return _Root(self, name, op)

    def write_spans(self, path):
        """Write every kept span as gzip CSV: id,parent,name,start,end,op."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id,parent,name,start_s,end_s,op\n")
            for sid, parent, name, start, end, op in self.spans:
                out.write(f"{sid},{parent},{name},{start:.9f},{end:.9f},{op}\n")


class _Root:
    def __init__(self, tracer, name, op):
        self.tracer = tracer
        self.name = name
        self.op = op
        self.duration = None

    def __enter__(self):
        tr = self.tracer
        tr.op = self.op
        self.sid = tr._next_id
        tr._next_id += 1
        self.frame = [0.0, self.sid]
        tr._stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        self.duration = end - self.start
        tr.self_s[self.name] += self.duration - self.frame[0]
        tr.spans.append((self.sid, -1, self.name, self.start, end, self.op))
        tr.op = None
        return False
