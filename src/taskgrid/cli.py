"""Command-line interface.

Subcommands:

validate
    Parse scenario files and print a one-line summary per game.
actions
    Build the action sets and print per-robot sizes; optionally dump the
    trajectories.
plan
    Run best-response or log-linear learning, possibly many seeded runs,
    and write the aggregate CSV series, per-run traces, and a JSON report.
analyze
    Desk-scale exact analysis: optimum, equilibria, price of anarchy, and
    the stationary distribution of the log-linear chain.
batch
    Execute a JSON manifest of plan jobs.

Budgets for exhaustive computations default to module constants and may be
overridden by ``--budget`` or the ``TASKGRID_BUDGET`` environment variable.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, analysis, learning, report, scenario
from .errors import TaskgridError, ValidationError

BUDGET_ENV = "TASKGRID_BUDGET"


def _resolve_budget(args, default):
    """``--budget``, else ``TASKGRID_BUDGET``, else ``default``: a positive integer."""
    if args.budget is not None:
        name, value = "--budget", args.budget
    elif BUDGET_ENV in os.environ:
        name, value = BUDGET_ENV, os.environ[BUDGET_ENV]
    else:
        return default
    try:
        budget = int(value)
    except ValueError:
        budget = None
    if budget is None or budget < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return budget


def _load_games(path, episode=None, field="--episode"):
    """Yield (label, scenario) pairs for the file at ``path``, honoring ``episode``.

    An error about the episode names ``field``, where the episode was given.
    """
    loaded = scenario.load_any(path)
    if not isinstance(loaded, scenario.EpisodeSuite):
        if episode is not None:
            raise ValidationError(f"{field}: {path} is not an episode-suite file")
        yield str(path), loaded
        return
    try:
        chosen = None if episode is None else loaded.get(episode)
    except ValidationError as exc:
        raise ValidationError(f"{field}: {exc}") from None
    for name, sc in loaded.episodes:
        if chosen is None or sc is chosen:
            yield f"{path}:{name}", sc


def _single_game(args):
    # a batch job names its own episode field
    field = getattr(args, "episode_field", "--episode")
    pairs = list(_load_games(args.scenario, args.episode, field))
    if len(pairs) > 1:
        raise ValidationError(
            f"{args.scenario} holds {len(pairs)} episodes; pick one with {field}"
        )
    return pairs[0]


def cmd_validate(args):
    for path in args.scenarios:
        for label, sc in _load_games(path):
            _print_summary(label, sc)
    return 0


def _print_summary(label, sc):
    game = scenario.build_game(sc)
    grid = sc.grid
    print(
        f"{label}: OK ({grid.width}x{grid.height} grid, "
        f"{len(grid.obstacles)} obstacles, {len(grid.stations)} stations, "
        f"{sc.n_robots} robots, {len(sc.tasks)} tasks, horizon {sc.horizon}, "
        f"{game.mode} mode)"
    )


def cmd_actions(args):
    for label, sc in _load_games(args.scenario, args.episode):
        game = scenario.build_game(sc)
        sizes = game.action_set_sizes()
        print(f"{label} ({game.mode} mode)")
        for robot_id, size in zip(game.robot_ids, sizes):
            number = game.robot_stations[robot_id - 1]
            cell = game.grid.station(number)
            print(f"  robot {robot_id} (station {number} at {cell}): {size} actions")
        if args.full:
            for robot_id in game.robot_ids:
                print(f"  robot {robot_id} trajectories:")
                for a in range(game.n_actions(robot_id)):
                    traj = game.trajectory_of(robot_id, a)
                    cells = " ".join(f"({x},{y})" for x, y in traj)
                    print(f"    [{a}] {cells}")
    return 0


# plan's learning options, each also a scenario default and a batch job field
_LEARNING_OPTIONS = ("algorithm", "rounds", "epsilon", "seed", "runs")


def _learning_config(args, sc):
    # a flag overrides the scenario default; LearningConfig fills in the rest
    given = sc.defaults_dict
    for key in _LEARNING_OPTIONS:
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    if "algorithm" not in given:
        raise ValidationError("no algorithm given and the scenario has no default")
    if "rounds" not in given:
        raise ValidationError("no round count given and the scenario has no default")
    runs = given.pop("runs", 1)
    return learning.LearningConfig(**given), runs


def cmd_plan(args):
    label, sc = _single_game(args)
    config, runs = _learning_config(args, sc)
    game = scenario.build_game(sc)
    timings = {}
    start = time.perf_counter()
    result = learning.run_batch(game, config, runs, base_seed=config.seed)
    timings["learning_s"] = time.perf_counter() - start
    terminal = result.terminal_values
    print(
        f"{label}: {config.algorithm} x{runs} runs, {config.rounds} rounds, "
        f"seed {config.seed}"
        + (f", epsilon {config.epsilon}" if config.algorithm == "lll" else "")
    )
    print(
        f"  terminal value min/avg/max: {min(terminal)}/"
        f"{sum(terminal) / len(terminal):.3f}/{max(terminal)}"
    )
    if args.out:
        report.write_series_csv(args.out, result.series)
        print(f"  series written to {args.out}")
    if args.trace_dir:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for j, trace in enumerate(result.traces):
            report.write_trace_csv(
                trace_dir / f"run_{config.seed + j}.csv", trace
            )
        print(f"  {runs} trace files written to {trace_dir}")
    if args.json:
        run_report = report.RunReport(
            scenario_digest=scenario.scenario_digest(sc),
            config={
                "algorithm": config.algorithm,
                "rounds": config.rounds,
                "epsilon": config.epsilon,
                "seed": config.seed,
                "runs": runs,
            },
            action_set_sizes=list(game.action_set_sizes()),
            series=result.series,
            terminal_histogram=result.terminal_histogram,
            timings=timings,
            traces=result.traces,
        )
        report.write_report_json(args.json, run_report)
        print(f"  JSON report written to {args.json}")
    return 0


def cmd_analyze(args):
    if args.stationary:
        learning._check_epsilon(args.epsilon)
    budget = _resolve_budget(args, analysis.DEFAULT_PROFILE_BUDGET)
    label, sc = _single_game(args)
    game = scenario.build_game(sc)
    wants_all = not (args.nash or args.optimum or args.poa or args.stationary)
    out = {"scenario": label}
    if args.optimum or wants_all:
        value, witnesses = analysis.brute_force_optimum(game, budget=budget)
        out["optimum"] = value
        out["optimum_witnesses"] = len(witnesses)
        print(f"{label}: optimum {value} ({len(witnesses)} witness plans)")
    if args.nash or args.poa or wants_all:
        eq = analysis.enumerate_nash(game, budget=budget)
        out["equilibria"] = [list(p.action_ids) for p in eq.equilibria]
        out["equilibrium_values"] = eq.values
        out["poa"] = str(eq.poa)
        print(
            f"{label}: {len(eq.equilibria)} equilibria, "
            f"values {sorted(eq.values)}, price of anarchy {eq.poa}"
        )
    if args.stationary:
        stationary_budget = _resolve_budget(args, analysis.CHAIN_PROFILE_BUDGET)
        pi = analysis.lll_stationary_distribution(
            game, args.epsilon, budget=stationary_budget
        )
        values = analysis.profile_values(game, budget=stationary_budget)
        optimal_mass = float(pi[(values == values.max()).ravel()].sum())
        out["stationary_epsilon"] = args.epsilon
        out["stationary_optimal_mass"] = optimal_mass
        print(
            f"{label}: stationary mass on optimal plans at epsilon "
            f"{args.epsilon}: {optimal_mass:.6f}"
        )
    if args.json:
        Path(args.json).write_text(
            json.dumps(out, indent=2) + "\n", encoding="utf-8"
        )
        print(f"  JSON written to {args.json}")
    return 0


# a batch job's fields are plan's options; its paths are relative to the manifest
_JOB_FIELDS = ("scenario", "episode", *_LEARNING_OPTIONS, "out", "trace_dir", "json")
_JOB_PATHS = ("scenario", "out", "trace_dir", "json")


def cmd_batch(args):
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"{args.manifest}: cannot read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{args.manifest}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("jobs"), list):
        raise ValidationError(f"{args.manifest}: expected an object with a 'jobs' list")
    base = Path(args.manifest).parent
    failures = 0
    for i, job in enumerate(manifest["jobs"]):
        where = f"jobs[{i}]"
        try:
            if not isinstance(job, dict):
                raise ValidationError(f"{where}: expected an object")
            scenario._only(job, _JOB_FIELDS, where)
            if "scenario" not in job:
                raise ValidationError("missing field 'scenario'")
            fields = {key: job.get(key) for key in _JOB_FIELDS}
            for key in _JOB_PATHS:
                if key in job:
                    if not isinstance(job[key], str):
                        raise ValidationError(f"{where}.{key}: expected a string")
                    fields[key] = base / job[key]
            for key in _LEARNING_OPTIONS:
                if key in job:
                    learning._check_input(key, job[key], f"{where}.{key}")
            cmd_plan(argparse.Namespace(**fields, episode_field=f"{where}.episode"))
        except TaskgridError as exc:
            failures += 1
            print(f"{where}: FAILED: {exc}", file=sys.stderr)
    if failures:
        print(f"{failures} of {len(manifest['jobs'])} jobs failed", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="taskgrid",
        description=(
            "Trajectory planning and game-theoretic learning for "
            "cooperative tasks on obstacle grids."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate scenario files")
    p.add_argument("scenarios", nargs="+", metavar="SCENARIO")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("actions", help="build action sets and print sizes")
    p.add_argument("scenario", metavar="SCENARIO")
    p.add_argument("--episode", help="episode name or 1-based index")
    p.add_argument("--full", action="store_true", help="dump trajectories")
    p.set_defaults(func=cmd_actions)

    p = sub.add_parser("plan", help="run learning and write reports")
    p.add_argument("scenario", metavar="SCENARIO")
    p.add_argument("--episode", help="episode name or 1-based index")
    p.add_argument("--algorithm", choices=("br", "lll"))
    p.add_argument("--rounds", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="aggregate series CSV path")
    p.add_argument("--trace-dir", help="directory for per-run trace CSVs")
    p.add_argument("--json", help="JSON report path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("analyze", help="exact desk-scale analysis")
    p.add_argument("scenario", metavar="SCENARIO")
    p.add_argument("--episode", help="episode name or 1-based index")
    p.add_argument("--nash", action="store_true", help="enumerate equilibria")
    p.add_argument("--optimum", action="store_true", help="brute-force optimum")
    p.add_argument("--poa", action="store_true", help="price of anarchy")
    p.add_argument(
        "--stationary", action="store_true", help="exact log-linear chain limit"
    )
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--budget", type=int, help="profile budget override")
    p.add_argument("--json", help="JSON output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("batch", help="run a JSON manifest of plan jobs")
    p.add_argument("manifest", metavar="MANIFEST")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TaskgridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
