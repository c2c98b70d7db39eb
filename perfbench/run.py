"""taskgrid benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload plan_cs2 --seed 1 --seconds 24 --trace 0

The package is imported from ``src/`` of the checkout, never from an installed
copy. A run:

1. sets up the workload from the seed, and again between timed passes, so
   that the reported median (``setup_s``) samples the whole run;
2. runs one pass over the op pool with counting wrappers (exact work
   counters), then checks each output against an independent oracle;
3. runs whole passes over the pool, unwrapped, for about ``--seconds``
   (``--trace 0``), or half of it unwrapped and half with timing wrappers
   (``--trace 1``); every op's output must match the checked pass.

It prints a readable summary, then one JSON line with the metrics named in
BENCHMARK.json, and keeps a record of the run under ``perfbench/.out/``.
Native thread pools are pinned to one thread: the ops are serial.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

MIN_OPS = 100  # p90 needs ten samples beyond it
SETUPS = 5  # one before the checked pass, the rest spread over the timed passes
TIMED_UNTIL_S = 120.0  # no pass starts this long after the process started
STARTED = time.perf_counter()

# counters that must repeat exactly for the same code and seed
EXACT = (
    "tasks.evaluate_calls",
    "game.utilities_calls",
    "game.actions_scanned",
    "game.switch_calls",
    "game.state_init_calls",
    "game.init_calls",
    "actions.actions",
    "actions.slots",
    "grid.bfs_calls",
    "analysis.profile_values_calls",
    "analysis.profiles",
    "analysis.transition_nnz",
    "learning.rounds",
    "learning.switches",
    "analysis.replaced_games",
)

# per-op self time (ms/op) of each layer: metric name -> tracer layer
LAYER_MS = {
    "tasks.evaluate_ms": "tasks.evaluate",
    "game.utilities_ms": "game.utilities",
    "game.switch_ms": "game.switch",
    "game.state_init_ms": "game.state_init",
    "game.init_ms": "game.init",
    "actions.signatures_ms": "actions.signatures",
    "actions.realize_ms": "actions.realize",
    "actions.extend_ms": "actions.extend",
    "grid.init_ms": "grid.init",
    "grid.bfs_ms": "grid.bfs",
    "scenario.parse_ms": "scenario.parse",
    "scenario.digest_ms": "scenario.digest",
    "analysis.profile_values_ms": "analysis.profile_values",
    "analysis.optimum_ms": "analysis.optimum",
    "analysis.nash_ms": "analysis.nash",
    "analysis.transition_ms": "analysis.transition",
    "analysis.solve_ms": "analysis.solve",
    "learning.self_ms": "learning.self",
    "report.write_ms": "report.write",
}

# per-op work counts (count/op), named as their counters
LAYER_COUNTS = (
    "tasks.evaluate_calls",
    "game.utilities_calls",
    "game.actions_scanned",
    "game.switch_calls",
    "game.state_init_calls",
    "actions.slots",
    "actions.actions",
    "grid.bfs_calls",
    "analysis.profile_values_calls",
    "analysis.profiles",
    "analysis.transition_nnz",
    "learning.rounds",
)

# self time of one traced set-up (ms): metric name -> tracer layers
SETUP_MS = {
    "setup.parse_ms": ("scenario.parse",),
    "setup.grid_ms": ("grid.init", "grid.bfs"),
    "setup.signatures_ms": ("actions.signatures",),
    "setup.realize_ms": ("actions.realize",),
    "setup.extend_ms": ("actions.extend",),
    "setup.game_init_ms": ("game.init",),
}


def load_package():
    """Import taskgrid from the checkout's ``src/`` or exit with an error."""
    if not (SRC / "taskgrid" / "__init__.py").is_file():
        print(f"error: taskgrid sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import taskgrid

    if Path(taskgrid.__file__).resolve().parent != (SRC / "taskgrid").resolve():
        print(f"error: imported taskgrid from {taskgrid.__file__}", file=sys.stderr)
        sys.exit(2)
    return taskgrid


def code_digest():
    """Digest of the package and benchmark sources: same digest, same work."""
    h = hashlib.sha256()
    for base, pattern in ((SRC / "taskgrid", "**/*"), (HERE, "*.py")):
        for path in sorted(base.glob(pattern)):
            if path.is_file() and path.suffix in (".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    def __init__(self, workload, tracer, seed, setups):
        self.wl = workload
        self.tracer = tracer
        self.seed = seed
        self.setups = setups
        self.setup_times = []
        self.state = None
        self.reference = []  # digest of each pool entry's checked output
        self.bad = []  # pool entries whose checked output failed a check
        self.failed = 0
        self.attempted = 0

    # -- set-up ----------------------------------------------------------

    def timed_setup(self):
        """Set up from the seed once; the ops keep the first set-up's state."""
        start = time.perf_counter()
        state = self.wl.setup(self.seed)
        self.setup_times.append(time.perf_counter() - start)
        if self.state is None:
            self.state = state
        else:
            del state
            gc.collect()

    def traced_setup(self):
        tr = self.tracer
        tr.reset()
        tr.install("trace")
        try:
            with tr.root("setup", -1):
                self.state = self.wl.setup(self.seed)
        finally:
            tr.uninstall()
        return dict(tr.self_s), dict(tr.counts)

    # -- the counted, checked pass ----------------------------------------

    def checked_pass(self):
        """Run each pool entry once under counting wrappers, then check it.

        The wrappers come off around each check, so oracle calls are not
        counted, and each output is dropped once checked. An entry whose op
        raises may be swapped by the workload for another input (see
        ``replace``); the raising op's counts are then dropped.
        """
        wl, st, tr = self.wl, self.state, self.tracer
        tr.reset()
        stats, details = {}, []
        for i in range(wl.pool):
            while True:
                kept = dict(tr.counts)
                tr.install("count")
                try:
                    out, error = wl.op(st, i), None
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    out, error = None, exc
                finally:
                    tr.uninstall()
                if error is None or not wl.replace(st, i, error):
                    break
                tr.counts = defaultdict(int, kept)
            if error is not None:
                traceback.print_exception(error)
            if out is None:
                problems = ["op raised"]
            else:
                try:
                    problems = wl.check(st, i, out)
                except Exception as exc:  # a check that raises marks the output bad
                    problems = [f"check raised {exc!r}"]
            for p in problems:
                print(f"{wl.name}[{i}]: {p}", file=sys.stderr)
            self.bad.append(bool(problems))
            self.reference.append(None if out is None else wl.digest(st, out))
            if out is not None:
                for k, v in wl.stats(st, i, out).items():
                    stats[k] = stats.get(k, 0) + v
                details.append(wl.detail(st, i, out))
        counts = dict(tr.counts)
        counts.update(stats)
        return counts, details

    # -- timed passes -------------------------------------------------------

    def timed_passes(self, budget_s, min_ops, traced, setups=0):
        """Whole passes for about ``budget_s`` of op time.

        ``setups`` more timed set-ups run between passes, one at a time, as
        the op time crosses evenly spaced marks; any not yet due run last.
        """
        wl, st, tr = self.wl, self.state, self.tracer
        latencies, work = [], 0
        due = [budget_s * j / (setups + 1) for j in range(1, setups + 1)]
        op_s = 0.0
        if traced:
            tr.reset()
            tr.install("trace")
        try:
            while True:
                pass_start = time.perf_counter()
                for i in range(wl.pool):
                    out = None
                    root = tr.root("op", self.attempted) if traced else None
                    t0 = time.perf_counter()
                    with root or contextlib.nullcontext():
                        try:
                            out = wl.op(st, i)
                        except Exception:  # a raising op is a failed op
                            traceback.print_exc()
                    latency = root.duration if traced else time.perf_counter() - t0
                    self.attempted += 1
                    latencies.append(latency)
                    if out is None or self.bad[i] or wl.digest(st, out) != self.reference[i]:
                        self.failed += 1
                    else:
                        work += wl.work(st, i, out)
                now = time.perf_counter()
                pass_s = now - pass_start
                op_s += pass_s
                if due and op_s >= due[0]:
                    due.pop(0)
                    self.timed_setup()
                if len(latencies) >= min_ops and op_s + pass_s / 2 >= budget_s:
                    break
                if now - STARTED >= TIMED_UNTIL_S:
                    break
        finally:
            if traced:
                tr.uninstall()
        for _ in due:
            self.timed_setup()
        return latencies, work


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_repeatable(name, seed, tiny, counts, digest):
    """Compare exact counters with an earlier run of the same code and seed."""
    exact = {k: counts.get(k, 0) for k in EXACT}
    key = f"{code_digest()}-{name}-seed{seed}{'-tiny' if tiny else ''}.json"
    path = OUT / "counters" / key
    record = {"counters": exact, "output_digest": digest}
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != record:
            diff = {
                k: (earlier["counters"].get(k), v)
                for k, v in exact.items()
                if earlier["counters"].get(k) != v
            }
            return f"work counters or outputs differ from an earlier run: {diff or 'output digest'}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    tg = load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
    scratch = OUT / "scratch" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, tg, workloads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, tg, workloads, scratch):
    wl = workloads.WORKLOADS[args.workload](args.tiny, scratch)
    tracer = Tracer(tg)
    runner = Runner(wl, tracer, args.seed, 1 if args.tiny else SETUPS)
    min_ops = 1 if args.tiny else MIN_OPS
    metrics = {}

    if args.trace:
        setup_self, setup_counts = runner.traced_setup()
    else:
        runner.timed_setup()
    # set-up objects live for the whole run; keep them out of the collector's
    # scans so that collections inside ops cost the same on every run
    gc.collect()
    gc.freeze()
    counts, details = runner.checked_pass()
    digest = hashlib.sha256("".join(d or "-" for d in runner.reference).encode()).hexdigest()

    if not args.trace:
        lat, work = runner.timed_passes(
            args.seconds, min_ops, traced=False, setups=runner.setups - 1)
        lat_ms = [x * 1e3 for x in lat]
        metrics["setup_s"] = (statistics.median(runner.setup_times), "s")
        metrics["op_ms.p50"] = (statistics.median(lat_ms), "ms")
        metrics["op_ms.p90"] = (percentile(lat_ms, 90), "ms")
        metrics["work_per_s"] = (work / sum(lat), "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        untraced, _ = runner.timed_passes(args.seconds / 2, 1, traced=False)
        setup_spans = len(tracer.spans)
        traced, _ = runner.timed_passes(args.seconds / 2, 1, traced=True)
        n = len(traced)
        per_pass = n / wl.pool
        for key in EXACT:
            if key in tracer.counts and tracer.counts[key] != counts.get(key, 0) * per_pass:
                print(f"error: traced {key} {tracer.counts[key]} != "
                      f"{counts.get(key, 0)} x {per_pass:g} passes", file=sys.stderr)
                runner.failed += 1
        for name, layer in LAYER_MS.items():
            metrics[name] = (tracer.self_s.get(layer, 0.0) * 1e3 / n, "ms/op")
        for name in LAYER_COUNTS:
            metrics[name] = (counts.get(name, 0) / wl.pool, "count/op")
        rounds = counts.get("learning.rounds", 0)
        metrics["learning.switch_frac"] = (
            counts.get("learning.switches", 0) / rounds if rounds else 0.0, "ratio")
        metrics["report.bytes"] = (counts.get("report.bytes", 0) / wl.pool, "bytes/op")
        metrics["analysis.replaced_games"] = (counts.get("analysis.replaced_games", 0), "count")
        for name, layers in SETUP_MS.items():
            metrics[name] = (sum(setup_self.get(x, 0.0) for x in layers) * 1e3, "ms")
        metrics["setup.actions"] = (setup_counts.get("actions.actions", 0), "count")
        layer_sum = sum(v for k, v in tracer.self_s.items() if k != "op") / n
        traced_ms = [x * 1e3 for x in traced]
        untraced_ms = [x * 1e3 for x in untraced]
        metrics["trace.op_ms.p50"] = (statistics.median(traced_ms), "ms")
        metrics["trace.untraced_op_ms.p50"] = (statistics.median(untraced_ms), "ms")
        metrics["trace.overhead_ms"] = (
            metrics["trace.op_ms.p50"][0] - metrics["trace.untraced_op_ms.p50"][0], "ms")
        metrics["trace.op_ms.mean"] = (statistics.fmean(traced_ms), "ms")
        metrics["trace.untraced_op_ms.mean"] = (statistics.fmean(untraced_ms), "ms")
        metrics["trace.layer_sum_ms"] = (layer_sum * 1e3, "ms/op")
        metrics["trace.unattributed_ms"] = (tracer.self_s.get("op", 0.0) * 1e3 / n, "ms/op")
        metrics["trace.spans"] = ((len(tracer.spans) - setup_spans) / n, "count/op")
        spans_path = OUT / "spans" / f"{wl.name}-seed{args.seed}.csv.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)

    problem = check_repeatable(wl.name, args.seed, args.tiny, counts, digest)
    if problem:
        print(f"error: {wl.name} seed {args.seed}: {problem}", file=sys.stderr)
        return 3

    fail_frac = runner.failed / runner.attempted
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {runner.attempted} timed ops "
          f"over a pool of {wl.pool}")
    for name, (value, unit) in metrics.items():
        alias = f"  ({wl.work_name}, n={len(lat)} ops)" if name == "work_per_s" else ""
        print(f"  {name:30s} {value:14.6g} {unit}{alias}")
    print(f"  {'fail_frac':30s} {fail_frac:14.6g} ratio  "
          f"({runner.failed} of {runner.attempted} ops failed)")
    replaced = counts.get("analysis.replaced_games", 0)
    if replaced:
        print(f"  {replaced} pool entries replaced after a ConvergenceError (see stderr)")
    print(f"  output digest {digest}")
    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "code_digest": code_digest(),
        "output_digest": digest,
        "counters_per_pass": counts,
        "pool": details,
        "fail_frac": fail_frac,
        "metrics": result_metrics,
    }
    record_path = OUT / "runs" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    # a pool entry that failed its check fails every timed op of it
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
