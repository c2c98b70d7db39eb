"""Scenario files: JSON ingestion, validation, serialization, fixtures.

A scenario file is a JSON object with the environment (grid size, obstacles,
stations), the horizon, the robots (a list of 1-based station numbers, one
per robot), the tasks, and optional learning defaults:

    {
      "environment": {"width": 7, "height": 5,
                      "obstacles": [[4, 2], ...],
                      "stations": [[2, 2], [6, 3], [4, 5]]},
      "horizon": 8,
      "robots": [1, 1, 2, 3],
      "tasks": [
        {"id": 1, "location": [3, 3], "arrival": 1, "departure": 7,
         "value": {"kind": "threshold_sum", "max_value": 4, "threshold": 6}},
        ...
      ],
      "defaults": {"algorithm": "lll", "epsilon": 0.2,
                   "rounds": 300, "runs": 100, "seed": 7}
    }

Value kinds and parameters: ``simple`` (max_value), ``threshold_max`` and
``threshold_sum`` (max_value, threshold), ``sequential_heavy_light``
(max_value, heavy, follow), ``table`` (max_value, entries, optional
default). Table variants must pass the monotonicity gate at parse time.

An episode-suite file shares one environment and robot list across several
task subsets, referencing a task file by id instead of duplicating specs:

    {
      "environment_from": "case_study_2.json",
      "tasks_from": "case_study_2.json",
      "horizon": 8,
      "robots": [1, 2, 3],
      "episodes": [{"name": "episode-1", "tasks": [1, 2, 6, 8]}, ...]
    }

Parsing is strict: every violation is reported with the offending field.
Serialization is canonical, so parse -> serialize -> parse is the identity.
"""

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import tasks as tasks_mod
from .errors import DomainError, ValidationError
from .game import GameInstance
from .grid import Grid
from .tasks import Task, ValueFunction

_LEARNING_DEFAULT_KEYS = {"algorithm", "epsilon", "rounds", "runs", "seed"}


@dataclass(frozen=True)
class Scenario:
    """A parsed, validated scenario."""

    grid: Grid
    horizon: int
    robot_stations: tuple
    tasks: tuple
    defaults: tuple = ()  # sorted (key, value) pairs

    @property
    def defaults_dict(self):
        return dict(self.defaults)

    @property
    def n_robots(self):
        return len(self.robot_stations)


@dataclass(frozen=True)
class EpisodeSuite:
    """A shared environment with named per-episode task subsets."""

    episodes: tuple  # of (name, Scenario)

    def names(self):
        return tuple(name for name, _ in self.episodes)

    def get(self, key):
        """Episode by name, or by 1-based index given as int or digits."""
        for name, scenario in self.episodes:
            if name == str(key):
                return scenario
        try:
            index = int(key)
        except (TypeError, ValueError):
            index = None
        if index is not None and 1 <= index <= len(self.episodes):
            return self.episodes[index - 1][1]
        raise ValidationError(
            f"no episode {key!r}; have {', '.join(self.names())}"
        )


def _need(obj, key, kind, where):
    if key not in obj:
        raise ValidationError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ValidationError(f"{where}.{key}: must be an integer")
    if not isinstance(value, kind):
        raise ValidationError(
            f"{where}.{key}: expected {getattr(kind, '__name__', kind)}"
        )
    return value


def _cell(value, where):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise ValidationError(f"{where}: expected a [x, y] integer pair")
    return tuple(value)


def _parse_value(obj, where):
    kind = _need(obj, "kind", str, where)
    max_value = _need(obj, "max_value", int, where)
    known = {"kind", "max_value", "threshold", "heavy", "follow", "entries", "default"}
    for key in obj:
        if key not in known:
            raise ValidationError(f"{where}.{key}: unknown field")
    try:
        if kind == "simple":
            return ValueFunction.simple(max_value)
        if kind == "threshold_max":
            return ValueFunction.threshold_max(
                max_value, _need(obj, "threshold", int, where)
            )
        if kind == "threshold_sum":
            return ValueFunction.threshold_sum(
                max_value, _need(obj, "threshold", int, where)
            )
        if kind == "sequential_heavy_light":
            return ValueFunction.sequential_heavy_light(
                max_value,
                _need(obj, "heavy", int, where),
                _need(obj, "follow", int, where),
            )
        if kind == "table":
            entries = _need(obj, "entries", list, where)
            parsed = []
            for i, pair in enumerate(entries):
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ValidationError(
                        f"{where}.entries[{i}]: expected [counter, value]"
                    )
                counter, val = pair
                if not (
                    isinstance(counter, list)
                    and all(isinstance(e, int) and not isinstance(e, bool) for e in counter)
                ):
                    raise ValidationError(
                        f"{where}.entries[{i}]: counter must be an integer list"
                    )
                if not isinstance(val, int) or isinstance(val, bool):
                    raise ValidationError(
                        f"{where}.entries[{i}]: value must be an integer"
                    )
                parsed.append((tuple(counter), val))
            default = obj.get("default")
            if default is not None:
                default = _need(obj, "default", int, where)
            return ValueFunction.table(parsed, max_value, default=default)
    except ValidationError as exc:
        if str(exc).startswith(where):
            raise
        raise ValidationError(f"{where}: {exc}") from None
    raise ValidationError(f"{where}.kind: unknown value kind {kind!r}")


def parse_scenario(data):
    """Parse and validate scenario JSON given as bytes or str."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError("scenario: top level must be an object")
    return _scenario_from_object(obj)


def _scenario_from_object(obj):
    known = {"environment", "horizon", "robots", "tasks", "defaults"}
    for key in obj:
        if key not in known:
            raise ValidationError(f"scenario.{key}: unknown field")
    env = _need(obj, "environment", dict, "scenario")
    width = _need(env, "width", int, "environment")
    height = _need(env, "height", int, "environment")
    obstacles = [
        _cell(c, f"environment.obstacles[{i}]")
        for i, c in enumerate(_need(env, "obstacles", list, "environment"))
    ]
    stations = [
        _cell(c, f"environment.stations[{i}]")
        for i, c in enumerate(_need(env, "stations", list, "environment"))
    ]
    if not stations:
        raise ValidationError("environment.stations: at least one station required")
    grid = Grid(width, height, obstacles=obstacles, stations=stations)

    horizon = _need(obj, "horizon", int, "scenario")
    if horizon < 1:
        raise ValidationError("scenario.horizon: must be at least 1")

    robots = _need(obj, "robots", list, "scenario")
    if not robots:
        raise ValidationError("scenario.robots: at least one robot required")
    for i, s in enumerate(robots):
        if not isinstance(s, int) or isinstance(s, bool):
            raise ValidationError(f"robots[{i}]: expected a station number")
        if not 1 <= s <= len(stations):
            raise ValidationError(
                f"robots[{i}]: station number {s} outside 1..{len(stations)}"
            )

    raw_tasks = _need(obj, "tasks", list, "scenario")
    parsed_tasks = []
    for i, t in enumerate(raw_tasks):
        where = f"tasks[{i}]"
        if not isinstance(t, dict):
            raise ValidationError(f"{where}: expected an object")
        for key in t:
            if key not in {"id", "location", "arrival", "departure", "value"}:
                raise ValidationError(f"{where}.{key}: unknown field")
        if "id" not in t:
            raise ValidationError(f"{where}: missing required field 'id'")
        location = _cell(_need(t, "location", list, where), f"{where}.location")
        arrival = _need(t, "arrival", int, where)
        departure = _need(t, "departure", int, where)
        value = _parse_value(_need(t, "value", dict, where), f"{where}.value")
        if arrival >= departure:
            raise ValidationError(
                f"{where}: departure {departure} must be greater than arrival {arrival}"
            )
        if departure > horizon:
            raise ValidationError(
                f"{where}: departure {departure} exceeds the horizon {horizon}"
            )
        if not grid.is_feasible(location):
            raise ValidationError(
                f"{where}: location {location} is an obstacle or out of bounds"
            )
        try:
            task = Task(t["id"], location, arrival, departure, value)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        if value.kind == "table":
            if not tasks_mod.validate_monotonicity(
                value, task.window_length, len(robots)
            ):
                raise ValidationError(
                    f"{where}.value: table is not monotone over caps 0..{len(robots)}"
                )
        parsed_tasks.append(task)
    ids = [task.id for task in parsed_tasks]
    if len(set(ids)) != len(ids):
        dupes = sorted({str(i) for i in ids if ids.count(i) > 1})
        raise ValidationError(f"tasks: duplicate ids {', '.join(dupes)}")

    defaults = obj.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValidationError("scenario.defaults: expected an object")
    for key in defaults:
        if key not in _LEARNING_DEFAULT_KEYS:
            raise ValidationError(f"defaults.{key}: unknown field")

    return Scenario(
        grid=grid,
        horizon=horizon,
        robot_stations=tuple(robots),
        tasks=tuple(parsed_tasks),
        defaults=tuple(sorted(defaults.items())),
    )


def _value_to_object(vf):
    out = {"kind": vf.kind, "max_value": vf.max_value}
    if vf.kind in ("threshold_max", "threshold_sum"):
        out["threshold"] = vf.threshold
    elif vf.kind == "sequential_heavy_light":
        out["heavy"] = vf.heavy
        out["follow"] = vf.follow
    elif vf.kind == "table":
        out["entries"] = [[list(c), v] for c, v in vf.entries]
        if vf.default is not None:
            out["default"] = vf.default
    return out


def scenario_to_object(scenario):
    """The canonical JSON object form of a scenario."""
    return {
        "environment": {
            "width": scenario.grid.width,
            "height": scenario.grid.height,
            "obstacles": [list(c) for c in sorted(scenario.grid.obstacles)],
            "stations": [list(c) for c in scenario.grid.stations],
        },
        "horizon": scenario.horizon,
        "robots": list(scenario.robot_stations),
        "tasks": [
            {
                "id": task.id,
                "location": list(task.location),
                "arrival": task.arrival,
                "departure": task.departure,
                "value": _value_to_object(task.value),
            }
            for task in scenario.tasks
        ],
        "defaults": scenario.defaults_dict,
    }


def serialize_scenario(scenario):
    """Canonical JSON text (fixed field order, two-space indent)."""
    return json.dumps(scenario_to_object(scenario), indent=2) + "\n"


def scenario_digest(scenario):
    """Hex digest identifying the scenario content."""
    return hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc}") from None


def load_scenario(path):
    """Load a plain scenario file from disk."""
    text = _read_text(path)
    try:
        return parse_scenario(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def is_episode_object(obj):
    return isinstance(obj, dict) and "episodes" in obj


def load_episodes(path):
    """Load an episode-suite file, resolving task references."""
    path = Path(path)
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not is_episode_object(obj):
        raise ValidationError(f"{path}: not an episode-suite file (no 'episodes')")
    known = {"environment_from", "tasks_from", "horizon", "robots", "episodes", "defaults"}
    for key in obj:
        if key not in known:
            raise ValidationError(f"{path}: episodes.{key}: unknown field")
    env_ref = _need(obj, "environment_from", str, "episodes")
    tasks_ref = _need(obj, "tasks_from", str, "episodes")
    base = load_scenario(path.parent / env_ref)
    task_source = (
        base if tasks_ref == env_ref else load_scenario(path.parent / tasks_ref)
    )
    by_id = {task.id: task for task in task_source.tasks}
    horizon = _need(obj, "horizon", int, "episodes")
    robots = _need(obj, "robots", list, "episodes")
    raw_eps = _need(obj, "episodes", list, "episodes")
    defaults = tuple(sorted(obj.get("defaults", {}).items()))
    episodes = []
    seen = set()
    for i, ep in enumerate(raw_eps):
        where = f"episodes[{i}]"
        if not isinstance(ep, dict):
            raise ValidationError(f"{path}: {where}: expected an object")
        name = _need(ep, "name", str, where)
        if name in seen:
            raise ValidationError(f"{path}: {where}: duplicate name {name!r}")
        seen.add(name)
        task_ids = _need(ep, "tasks", list, where)
        chosen = []
        for tid in task_ids:
            if tid not in by_id:
                raise ValidationError(
                    f"{path}: {where}: task id {tid!r} not found in {tasks_ref}"
                )
            chosen.append(by_id[tid])
        scenario = Scenario(
            grid=base.grid,
            horizon=horizon,
            robot_stations=tuple(robots),
            tasks=tuple(chosen),
            defaults=defaults,
        )
        # re-validate the assembled episode through the canonical parser
        scenario = parse_scenario(serialize_scenario(scenario))
        episodes.append((name, scenario))
    if not episodes:
        raise ValidationError(f"{path}: episodes: at least one episode required")
    return EpisodeSuite(episodes=tuple(episodes))


def load_any(path):
    """Load either file kind: returns a Scenario or an EpisodeSuite."""
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if is_episode_object(obj):
        return load_episodes(path)
    try:
        return _scenario_from_object(obj)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def build_game(scenario, mode="auto", **budgets):
    """Construct the game instance a scenario describes."""
    if isinstance(scenario, EpisodeSuite):
        raise DomainError(
            "build_game needs one scenario, not an episode suite; pick an "
            f"episode with EpisodeSuite.get (have {', '.join(scenario.names())})"
        )
    return GameInstance(
        scenario.grid,
        scenario.horizon,
        scenario.robot_stations,
        scenario.tasks,
        mode=mode,
        **budgets,
    )


def fixture_names():
    """Names of the scenario files shipped with the package."""
    root = resources.files("taskgrid.data")
    return tuple(
        sorted(
            entry.name for entry in root.iterdir() if entry.name.endswith(".json")
        )
    )


def fixture_path(name):
    """Filesystem path of a shipped scenario file."""
    candidate = resources.files("taskgrid.data") / name
    if not candidate.is_file():
        raise ValidationError(
            f"no shipped scenario {name!r}; have {', '.join(fixture_names())}"
        )
    return Path(str(candidate))


def load_fixture(name):
    """Load a shipped scenario (or episode suite) by file name."""
    return load_any(fixture_path(name))
