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
default). A field that the kind does not take is rejected. Table variants
must pass the monotonicity gate at parse time.

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
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import DomainError, ValidationError
from .game import GameInstance, _check_frame, _check_setup, _check_tasks
from .grid import Grid, _as_integer
from .learning import _INPUT_RULES, _check_input
from .tasks import VALUE_FIELDS, Task, ValueFunction


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
        """Episode by name, or by 1-based index: an integer or a string of digits."""
        if isinstance(key, str):
            for name, scenario in self.episodes:
                if name == key:
                    return scenario
            index = int(key) if key.isascii() and key.isdigit() else None
        else:
            index = _as_integer(key)
        if index is not None and 1 <= index <= len(self.episodes):
            return self.episodes[index - 1][1]
        raise ValidationError(
            f"no episode {key!r}; have {', '.join(self.names())}"
        )


def _need(obj, key, where, kind=object):
    """``obj[key]``; a ValidationError names a missing field or one of another kind."""
    if key not in obj:
        raise ValidationError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ValidationError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _only(obj, known, where):
    """Reject a field of ``obj`` outside ``known``, naming ``where.field``."""
    for key in obj:
        if key not in known:
            raise ValidationError(f"{where}.{key}: unknown field")


@contextmanager
def _within(prefix):
    """Prefix the message of a ValidationError raised inside with ``prefix``."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{prefix}{exc}") from None


_VALUE_KEYS = {"kind", "max_value"}.union(*VALUE_FIELDS.values())


def _parse_value(obj, where):
    kind = _need(obj, "kind", where, str)
    _only(obj, _VALUE_KEYS, where)
    # an unknown kind takes no more fields; ValueFunction rejects it
    takes = ("max_value",) + VALUE_FIELDS.get(kind, ())
    for key in obj:
        if kind in VALUE_FIELDS and key not in ("kind", *takes):
            raise ValidationError(f"{where}.{key}: not used by a {kind} value")
    fields = {
        key: obj.get(key) if key == "default" else _need(obj, key, where)
        for key in takes
    }
    with _within(f"{where}."):
        return ValueFunction(kind, **fields)


def _json_object(data):
    """Decode JSON text, as str or UTF-8 bytes, whose top level is an object."""
    try:
        obj = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ValidationError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError("top level must be an object")
    return obj


def parse_scenario(data):
    """Parse and validate scenario JSON given as bytes or str."""
    return _scenario_from_object(_json_object(data))


def _scenario_from_object(obj):
    _only(obj, {"environment", "horizon", "robots", "tasks", "defaults"}, "scenario")
    env = _need(obj, "environment", "scenario", dict)
    _only(env, {"width", "height", "obstacles", "stations"}, "environment")
    width, height = (_need(env, key, "environment") for key in ("width", "height"))
    obstacles = _need(env, "obstacles", "environment", list)
    stations = _need(env, "stations", "environment", list)
    if not stations:
        raise ValidationError("environment.stations: at least one station required")
    with _within("environment."):
        grid = Grid(width, height, obstacles=obstacles, stations=stations)

    horizon = _need(obj, "horizon", "scenario")
    robots = _need(obj, "robots", "scenario", list)
    raw_tasks = _need(obj, "tasks", "scenario", list)
    parsed_tasks = []
    for i, t in enumerate(raw_tasks):
        where = f"tasks[{i}]"
        if not isinstance(t, dict):
            raise ValidationError(f"{where}: expected an object")
        _only(t, {"id", "location", "arrival", "departure", "value"}, where)
        fields = [
            _need(t, key, where) for key in ("id", "location", "arrival", "departure")
        ]
        value = _parse_value(_need(t, "value", where, dict), f"{where}.value")
        with _within(f"{where}."):
            parsed_tasks.append(Task(*fields, value))
    _check_setup(grid, horizon, robots, parsed_tasks)
    return Scenario(
        grid=grid,
        horizon=horizon,
        robot_stations=tuple(robots),
        tasks=tuple(parsed_tasks),
        defaults=_learning_defaults(obj, "scenario"),
    )


def _learning_defaults(obj, where):
    """The optional ``defaults`` object as sorted (key, value) pairs."""
    defaults = obj.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValidationError(f"{where}.defaults: expected an object")
    for key, value in defaults.items():
        if key not in _INPUT_RULES:
            raise ValidationError(f"{where}.defaults.{key}: unknown field")
        _check_input(key, value, f"{where}.defaults.{key}")
    return tuple(sorted(defaults.items()))


def _value_to_object(vf):
    out = {"kind": vf.kind, "max_value": vf.max_value}
    for key in VALUE_FIELDS[vf.kind]:
        value = getattr(vf, key)
        if key == "entries":
            value = [[list(c), v] for c, v in value]
        if value is not None:  # a table without a default
            out[key] = value
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


def _load(path, build):
    """``build(obj, directory)`` on the JSON object that ``path`` holds.

    The file is read once, and every error is prefixed with the path.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc}") from None
    with _within(f"{path}: "):
        return build(_json_object(data), Path(path).parent)


def load_scenario(path):
    """Load a plain scenario file from disk."""
    return _load(path, lambda obj, _: _scenario_from_object(obj))


def is_episode_object(obj):
    return isinstance(obj, dict) and "episodes" in obj


def load_episodes(path):
    """Load an episode-suite file, resolving task references."""
    return _load(path, _episodes_from_object)


def _episodes_from_object(obj, directory):
    if not is_episode_object(obj):
        raise ValidationError("not an episode-suite file (no 'episodes')")
    known = {"environment_from", "tasks_from", "horizon", "robots", "episodes", "defaults"}
    _only(obj, known, "episodes")
    env_ref = _need(obj, "environment_from", "episodes", str)
    tasks_ref = _need(obj, "tasks_from", "episodes", str)
    base = load_scenario(directory / env_ref)
    task_source = (
        base if tasks_ref == env_ref else load_scenario(directory / tasks_ref)
    )
    by_id = {task.id: task for task in task_source.tasks}
    horizon = _need(obj, "horizon", "episodes")
    robots = _need(obj, "robots", "episodes", list)
    _check_frame(base.grid, horizon, robots, "episodes")
    raw_eps = _need(obj, "episodes", "episodes", list)
    if not raw_eps:
        raise ValidationError("episodes: at least one episode required")
    defaults = _learning_defaults(obj, "episodes")
    episodes = []
    seen = set()
    for i, ep in enumerate(raw_eps):
        where = f"episodes[{i}]"
        if not isinstance(ep, dict):
            raise ValidationError(f"{where}: expected an object")
        _only(ep, {"name", "tasks"}, where)
        name = _need(ep, "name", where, str)
        if name in seen:
            raise ValidationError(f"{where}: duplicate name {name!r}")
        seen.add(name)
        chosen = []
        for k, tid in enumerate(_need(ep, "tasks", where, list)):
            try:
                chosen.append(by_id[tid])
            except (KeyError, TypeError):
                raise ValidationError(
                    f"{where}.tasks[{k}]: task id {tid!r} not found in {tasks_ref}"
                ) from None
        with _within(f"{where}: "):
            _check_tasks(base.grid, horizon, len(robots), chosen)
        scenario = Scenario(
            grid=base.grid,
            horizon=horizon,
            robot_stations=tuple(robots),
            tasks=tuple(chosen),
            defaults=defaults,
        )
        episodes.append((name, scenario))
    return EpisodeSuite(episodes=tuple(episodes))


def _scenario_or_episodes(obj, directory):
    if is_episode_object(obj):
        return _episodes_from_object(obj, directory)
    return _scenario_from_object(obj)


def load_any(path):
    """Load either file kind: returns a Scenario or an EpisodeSuite."""
    return _load(path, _scenario_or_episodes)


def build_game(scenario, **budgets):
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
