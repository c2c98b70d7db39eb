"""The three benchmark workloads: input generation, the timed op, and its checks.

Every workload turns the benchmark seed into a fixed pool of op inputs during
set-up; the package only ever sees those generated inputs. One pass runs every
pool entry once, in pool order, and every pass does the same work, so work
counters per pass are exact and a later pass must reproduce the outputs of the
first, checked one.

Checks run outside the timed region against oracles that do not share the fast
path: the naive ``global_value`` and ``utility`` of ``taskgrid.game``, the
trajectory feasibility and signature functions, and read-back of written
reports.
"""

import dataclasses
import hashlib
import json
import math
import random
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import taskgrid as tg
from taskgrid import analysis, learning, report, scenario

FIXTURE = "case_study_2.json"
EPSILON = 0.2


def _fixture_text():
    return tg.fixture_path(FIXTURE).read_text(encoding="utf-8")


def _spread(low, high, n):
    """``n`` integers spread evenly from ``low`` to ``high``."""
    return [low + round((high - low) * j / max(1, n - 1)) for j in range(n)]


def _action_counts(sc, tasks, stations):
    """Minimal action-set size per station, from the signature search alone."""
    counts = []
    for number in stations:
        masks, _ = tg.actions.achievable_signatures(
            sc.grid, sc.grid.station(number), sc.horizon, tasks
        )
        counts.append(max(1, len(masks - {0})))
    return counts


def _closest(candidates, low, high, n):
    """Pick ``n`` of ``(cost, item)`` candidates nearest log-spaced cost targets.

    Every seed then gets the same spread of op sizes; only which inputs
    realize each size differs.
    """
    candidates = list(candidates)
    chosen = []
    for j in range(n):
        target = low * (high / low) ** ((j + 0.5) / n)
        best = min(
            range(len(candidates)),
            key=lambda c: abs(math.log(candidates[c][0] / target)),
        )
        chosen.append(candidates.pop(best)[1])
    return chosen


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class PlanCS2:
    """``taskgrid plan`` jobs on case_study_2 after one build of the game."""

    name = "plan_cs2"
    work_name = "rounds_per_s"

    def __init__(self, tiny, scratch):
        self.pool = 3 if tiny else 24
        self.runs = 2
        self.rounds = 4 if tiny else 20
        self.scratch = Path(scratch)

    def setup(self, seed):
        sc = scenario.parse_scenario(_fixture_text())
        game = scenario.build_game(sc)
        rng = random.Random(seed)
        seeds = [rng.randrange(2**31) for _ in range(self.pool)]
        return {"sc": sc, "game": game, "seeds": seeds}

    def _paths(self, i):
        return self.scratch / f"job{i}_series.csv", self.scratch / f"job{i}_report.json"

    def op(self, st, i):
        game, seed = st["game"], st["seeds"][i]
        config = learning.LearningConfig(
            algorithm=learning.LOG_LINEAR, rounds=self.rounds, seed=seed, epsilon=EPSILON
        )
        csv_path, json_path = self._paths(i)
        timings = {}
        start = perf_counter()
        result = learning.run_batch(game, config, self.runs, base_seed=seed)
        timings["learning_s"] = perf_counter() - start
        report.write_series_csv(csv_path, result.series)
        run_report = report.RunReport(
            scenario_digest=scenario.scenario_digest(st["sc"]),
            config={
                "algorithm": config.algorithm,
                "rounds": config.rounds,
                "epsilon": config.epsilon,
                "seed": config.seed,
                "runs": self.runs,
            },
            action_set_sizes=list(game.action_set_sizes()),
            series=result.series,
            terminal_histogram=result.terminal_histogram,
            timings=timings,
            traces=result.traces,
        )
        report.write_report_json(json_path, run_report)
        return result

    def work(self, st, i, out):
        return sum(len(t.records) for t in out.traces)

    def check(self, st, i, out):
        problems = []
        for j, trace in enumerate(out.traces):
            naive = tg.global_value(st["game"], trace.final_plan)
            if trace.final_value != naive:
                problems.append(
                    f"run {j}: final value {trace.final_value} != naive global_value {naive}"
                )
        csv_path, json_path = self._paths(i)
        rows = csv_path.read_text(encoding="utf-8").splitlines()
        if len(rows) != self.rounds + 2 or rows[0] != "round,min,avg,max":
            problems.append(f"series CSV has {len(rows)} lines, want {self.rounds + 2}")
        written = json.loads(json_path.read_text(encoding="utf-8"))
        if len(written["traces"]) != self.runs:
            problems.append("JSON report does not hold every trace")
        elif [t["records"] for t in written["traces"]] != [
            [list(r) for r in t.records] for t in out.traces
        ]:
            problems.append("JSON report traces differ from the run's traces")
        return problems

    def digest(self, st, out):
        return _sha(
            [
                [list(t.initial_plan.action_ids), t.initial_value, t.records]
                for t in out.traces
            ]
            + [out.series]
        )

    def replace(self, st, i, exc):
        return False

    def stats(self, st, i, out):
        switches = 0
        for trace in out.traces:
            ids = list(trace.initial_plan.action_ids)
            for _, robot_id, action_id, _ in trace.records:
                switches += action_id != ids[robot_id - 1]
                ids[robot_id - 1] = action_id
        size = sum(p.stat().st_size for p in self._paths(i))
        return {
            "learning.rounds": self.work(st, i, out),
            "learning.switches": switches,
            "report.bytes": size,
        }

    def detail(self, st, i, out):
        return {"learning_seed": st["seeds"][i], "terminal": out.terminal_values}


class Analyze3Robot:
    """``taskgrid analyze --optimum --nash --stationary`` on generated 3-robot games."""

    name = "analyze_3robot"
    work_name = "profiles_per_s"
    stations = (1, 2, 3)

    def __init__(self, tiny, scratch):
        self.pool = 4 if tiny else 72
        self.low, self.high = (200, 2000) if tiny else (300, 30_000)
        self.candidates = 40 if tiny else 400
        self.spot_checks = 16
        self.max_replaced = 2

    def setup(self, seed):
        sc = scenario.parse_scenario(_fixture_text())
        rng = random.Random(seed)
        candidates = []
        for c in range(self.candidates):
            # 4 to 8 tasks, in turn, so that every seed searches alike; about
            # half of these subsets land in the cost range
            picked = sorted(rng.sample(range(len(sc.tasks)), 4 + c % 5))
            counts = _action_counts(sc, [sc.tasks[j] for j in picked], self.stations)
            if min(counts) >= 2:
                # transition-matrix entries: profiles times summed action counts
                candidates.append((math.prod(counts) * sum(counts), picked))
        chosen = _closest(candidates, self.low, self.high, self.pool)
        rng.shuffle(chosen)
        return {
            "sc": sc,
            "games": [self._game(sc, p) for p in chosen],
            "subsets": [[sc.tasks[j].id for j in p] for p in chosen],
            "spare": [c for c in candidates if c[1] not in chosen],
            "replaced": [],
        }

    def _game(self, sc, picked):
        return scenario.build_game(
            dataclasses.replace(
                sc, robot_stations=self.stations, tasks=tuple(sc.tasks[j] for j in picked)
            )
        )

    def replace(self, st, i, exc):
        """Swap entry ``i`` for the spare game of nearest cost if its solve raised.

        ``lll_stationary_distribution`` raises ``ConvergenceError`` on about
        one game in a thousand drawn here: roundoff in its direct solve
        leaves mass below its -1e-10 floor on profiles whose exact mass is
        near 1e-20, and its power refinement does not lift it. That is a
        defect of the solver, not of the game. Up to ``max_replaced`` entries
        per pool are swapped; each is reported as ``analysis.replaced_games``
        and in the run record. Past that the op fails as any other.
        """
        spare = st["spare"]
        if (
            not isinstance(exc, tg.ConvergenceError)
            or len(st["replaced"]) >= self.max_replaced
            or not spare
        ):
            return False
        sizes = st["games"][i].action_set_sizes()
        cost = math.prod(sizes) * sum(sizes)
        k = min(range(len(spare)), key=lambda c: abs(math.log(spare[c][0] / cost)))
        picked = spare.pop(k)[1]
        st["replaced"].append({"entry": i, "tasks": st["subsets"][i], "error": str(exc)})
        st["games"][i] = self._game(st["sc"], picked)
        st["subsets"][i] = [st["sc"].tasks[j].id for j in picked]
        print(f"{self.name}[{i}]: replaced: {exc}", file=sys.stderr)
        return True

    def op(self, st, i):
        game = st["games"][i]
        optimum, witnesses = analysis.brute_force_optimum(game)
        eq = analysis.enumerate_nash(game)
        pi = analysis.lll_stationary_distribution(game, EPSILON, budget=10_000)
        values = analysis.profile_values(game, budget=10_000)
        mass = float(pi[(values == values.max()).ravel()].sum())
        return {"optimum": optimum, "witnesses": witnesses, "eq": eq, "pi": pi,
                "values": values, "mass": mass}

    def work(self, st, i, out):
        return int(out["values"].size)

    def check(self, st, i, out):
        game, eq, pi, values = st["games"][i], out["eq"], out["pi"], out["values"]
        problems = []
        memo = {}  # equilibria share most of their unilateral deviations

        def utility(plan, robot_id):
            key = (plan.action_ids, robot_id)
            if key not in memo:
                memo[key] = tg.utility(game, plan, robot_id)
            return memo[key]

        def improvable(plan):
            for robot_id in game.robot_ids:
                own = utility(plan, robot_id)
                for a in range(game.n_actions(robot_id)):
                    if utility(plan.replace(robot_id - 1, a), robot_id) > own:
                        return robot_id, a
            return None

        for plan in eq.equilibria:
            move = improvable(plan)
            if move:
                problems.append(
                    f"equilibrium {plan.action_ids}: robot {move[0]} improves "
                    f"by switching to {move[1]}"
                )
        for w in out["witnesses"]:
            if tg.global_value(game, w) != out["optimum"]:
                problems.append(f"witness {w.action_ids} does not reach {out['optimum']}")
        if eq.optimum != out["optimum"] or max(eq.values) != out["optimum"]:
            problems.append("optimum disagrees with the equilibrium report")
        # spot checks of the profile walk against the naive global value, and
        # of equilibrium membership against naive unilateral deviations
        rng = random.Random(i)
        equilibria = {p.action_ids for p in eq.equilibria}
        for k in range(self.spot_checks):
            flat = rng.randrange(values.size)
            plan = tg.JointPlan(tuple(int(x) for x in np.unravel_index(flat, values.shape)))
            if tg.global_value(game, plan) != values[plan.action_ids]:
                problems.append(f"profile value of {plan.action_ids} is wrong")
            if k < self.spot_checks // 4 and (improvable(plan) is None) != (
                plan.action_ids in equilibria
            ):
                problems.append(f"equilibrium membership of {plan.action_ids} is wrong")
        # the log-linear chain of an exact-potential game is reversible with
        # stationary law proportional to exp(potential / epsilon)
        gibbs = np.exp((values.ravel() - values.max()) / EPSILON)
        gibbs /= gibbs.sum()
        tv = 0.5 * float(np.abs(pi - gibbs).sum())
        if tv > 1e-3:
            problems.append(f"stationary vector is {tv:.3g} in total variation from Gibbs")
        return problems

    def digest(self, st, out):
        eq = out["eq"]
        return _sha(
            [
                out["optimum"],
                [list(w.action_ids) for w in out["witnesses"]],
                [list(p.action_ids) for p in eq.equilibria],
                eq.values,
                str(eq.poa),
                out["values"].ravel().tolist(),
                np.round(out["pi"], 12).tolist(),
            ]
        )

    def stats(self, st, i, out):
        return {"analysis.replaced_games": sum(r["entry"] == i for r in st["replaced"])}

    def detail(self, st, i, out):
        return {
            "tasks": st["subsets"][i],
            "action_set_sizes": list(st["games"][i].action_set_sizes()),
            "equilibria": len(out["eq"].equilibria),
            "replaced": [r for r in st["replaced"] if r["entry"] == i],
        }


class BuildMix:
    """``taskgrid actions`` equivalents: parse generated scenario text, build the game."""

    name = "build_mix"
    work_name = "games_per_s"

    def __init__(self, tiny, scratch):
        self.pool = 5 if tiny else 132
        self.max_tasks = 10 if tiny else 30
        self.low, self.high = (4, 40) if tiny else (10, 300)
        self.candidates = 12 if tiny else 360

    def setup(self, seed):
        text = _fixture_text()
        base = json.loads(text)
        sc = scenario.parse_scenario(text)
        stations = sorted(set(sc.robot_stations))
        rng = random.Random(seed)
        # fifteen sixteenths of the pool hold 5..14 tasks, chosen by action
        # count so that p50 and p90 fall among many cheap games of a fixed
        # spread of sizes; the rest spread evenly up to max_tasks and dominate
        # the pass time. Every fourth entry adds an overlapping window, which
        # forces extended mode.
        n_tail = max(1, self.pool // 16)
        band_top = min(14, self.max_tasks - 1)
        candidates = []
        for c in range(self.candidates):
            picked = rng.sample(range(len(sc.tasks)), 5 + c % (band_top - 4))
            counts = _action_counts(sc, [sc.tasks[j] for j in picked], stations)
            candidates.append((sum(counts), picked))
        subsets = _closest(candidates, self.low, self.high, self.pool - n_tail)
        subsets += [
            rng.sample(range(len(sc.tasks)), k)
            for k in _spread(band_top + 1, self.max_tasks, n_tail)
        ]
        entries = []
        for j, picked in enumerate(subsets):
            tasks = [dict(base["tasks"][i]) for i in picked]
            overlap = j % 4 == 3
            if overlap:
                tasks.append(self._overlapping_task(rng, tasks, base["horizon"]))
            text = json.dumps(
                {
                    "environment": base["environment"],
                    "horizon": base["horizon"],
                    "robots": base["robots"],
                    "tasks": tasks,
                },
                indent=2,
            )
            entries.append((text, overlap))
        rng.shuffle(entries)
        return {"texts": [t for t, _ in entries], "overlap": [o for _, o in entries]}

    @staticmethod
    def _overlapping_task(rng, tasks, horizon):
        shared = rng.choice(tasks)
        arrival = rng.randrange(shared["arrival"], shared["departure"])
        departure = rng.randint(arrival + 1, horizon)
        kind = rng.choice(("simple", "threshold_max", "threshold_sum"))
        value = {"kind": kind, "max_value": rng.randint(1, 4)}
        if kind != "simple":
            value["threshold"] = rng.randint(1, 3)
        return {
            "id": max(t["id"] for t in tasks) + 1000,
            "location": shared["location"],
            "arrival": arrival,
            "departure": departure,
            "value": value,
        }

    def op(self, st, i):
        return scenario.build_game(scenario.parse_scenario(st["texts"][i]))

    def work(self, st, i, out):
        return 1

    @staticmethod
    def _stations(game):
        first = {}
        for robot_id, number in zip(game.robot_ids, game.robot_stations):
            first.setdefault(number, robot_id)
        return sorted(first.items())

    def check(self, st, i, game):
        problems = []
        want = tg.game.EXTENDED if st["overlap"][i] else tg.game.PLAIN
        if game.mode != want:
            problems.append(f"mode {game.mode}, want {want}")
        for number, robot_id in self._stations(game):
            aset = game.station_action_sets[number]
            station = game.grid.station(number)
            for traj, sig in zip(aset.trajectories, aset.signatures):
                if not tg.is_feasible_trajectory(game.grid, station, traj):
                    problems.append(f"station {number}: infeasible trajectory {traj}")
                if tg.signature(traj, game.tasks) != sig:
                    problems.append(f"station {number}: signature mismatch for {traj}")
            sigs = list(aset.signatures)
            if len(sigs) > 1 and any(
                a <= b for x, a in enumerate(sigs) for y, b in enumerate(sigs) if x != y
            ):
                problems.append(f"station {number}: signatures are not an antichain")
            if game.mode == tg.game.EXTENDED:
                for action in game.actions_of(robot_id):
                    for t, c in enumerate(action.commitments):
                        served = tg.theta(action.trajectory, game.tasks, t)
                        if (c is None) != (not served) or (c is not None and c not in served):
                            problems.append(f"station {number}: bad commitment at {t}")
        return problems

    def digest(self, st, game):
        stations = []
        for number, robot_id in self._stations(game):
            aset = game.station_action_sets[number]
            stations.append(
                [
                    number,
                    [list(map(list, t)) for t in aset.trajectories],
                    [sorted(map(list, s)) for s in aset.signatures],
                    [
                        list(a.commitments)
                        for a in game.actions_of(robot_id)
                    ]
                    if game.mode == tg.game.EXTENDED
                    else None,
                ]
            )
        return _sha([game.mode, stations])

    def replace(self, st, i, exc):
        return False

    def stats(self, st, i, game):
        return {}

    def detail(self, st, i, game):
        return {
            "tasks": len(game.tasks),
            "mode": game.mode,
            "station_action_set_sizes": {
                str(number): game.n_actions(robot_id)
                for number, robot_id in self._stations(game)
            },
        }


WORKLOADS = {w.name: w for w in (PlanCS2, Analyze3Robot, BuildMix)}
