import dataclasses
import json

import numpy as np
import pytest

from taskgrid import (
    BudgetExceededError,
    DomainError,
    EpisodeSuite,
    GameInstance,
    Grid,
    Scenario,
    Task,
    ValidationError,
    ValueFunction,
    build_game,
    fixture_names,
    fixture_path,
    load_any,
    load_episodes,
    load_fixture,
    load_scenario,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
)
from taskgrid.scenario import is_episode_object, scenario_to_object

PLAIN_FIXTURES = (
    "example_1.json",
    "example_2.json",
    "example_3.json",
    "case_study_1.json",
    "case_study_2.json",
)


def minimal_object():
    return {
        "environment": {
            "width": 3,
            "height": 3,
            "obstacles": [[3, 1]],
            "stations": [[2, 2]],
        },
        "horizon": 3,
        "robots": [1],
        "tasks": [
            {
                "id": 1,
                "location": [1, 1],
                "arrival": 0,
                "departure": 3,
                "value": {"kind": "simple", "max_value": 1},
            }
        ],
        "defaults": {"algorithm": "br", "rounds": 10},
    }


def parse_object(obj):
    return parse_scenario(json.dumps(obj))


class TestRoundTrip:
    @pytest.mark.parametrize("name", PLAIN_FIXTURES)
    def test_parse_serialize_parse_is_identity(self, name):
        scenario = load_fixture(name)
        text = serialize_scenario(scenario)
        again = parse_scenario(text)
        assert again == scenario
        assert serialize_scenario(again) == text
        assert scenario_digest(again) == scenario_digest(scenario)

    def test_a_directly_built_value_of_each_kind_round_trips(self):
        base = parse_object(minimal_object())
        for value in (
            ValueFunction("simple", 3),
            ValueFunction("threshold_max", 3, threshold=2),
            ValueFunction("threshold_sum", 3, threshold=4),
            ValueFunction("sequential_heavy_light", 3, heavy=2, follow=1),
            ValueFunction("table", 3, entries=(((0, 0, 0), 0),), default=3),
            ValueFunction("table", 1, entries=[((a, b, c), int(a + b + c > 0))
                                               for a in (0, 1) for b in (0, 1)
                                               for c in (0, 1)]),
        ):
            scenario = dataclasses.replace(
                base, tasks=(dataclasses.replace(base.tasks[0], value=value),)
            )
            assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_serialization_is_canonical(self):
        obj = minimal_object()
        a = parse_object(obj)
        obj["environment"]["obstacles"] = [[3, 1]]
        obj["tasks"][0]["value"] = {"max_value": 1, "kind": "simple"}
        b = parse_object(obj)
        assert serialize_scenario(a) == serialize_scenario(b)
        assert serialize_scenario(a).endswith("\n")

    def test_digest_is_content_addressed(self):
        a = parse_object(minimal_object())
        obj = minimal_object()
        obj["horizon"] = 4
        obj["tasks"][0]["departure"] = 4
        b = parse_object(obj)
        assert len(scenario_digest(a)) == 64
        assert scenario_digest(a) != scenario_digest(b)

    def test_bytes_input_accepted(self):
        scenario = parse_scenario(json.dumps(minimal_object()).encode("utf-8"))
        assert isinstance(scenario, Scenario)
        assert scenario.defaults_dict == {"algorithm": "br", "rounds": 10}


class TestDiagnostics:
    def test_invalid_json(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            parse_scenario("{nope")

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ValidationError, match="top level"):
            parse_scenario("[1, 2]")

    def test_bytes_that_are_not_utf8(self, tmp_path):
        with pytest.raises(ValidationError, match="not valid JSON"):
            parse_scenario(b"\xff")
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff")
        for loader in (load_scenario, load_any, load_episodes):
            with pytest.raises(ValidationError, match="latin1.json: not valid JSON"):
                loader(bad)

    def test_unknown_top_level_field(self):
        obj = minimal_object()
        obj["name"] = "x"
        with pytest.raises(ValidationError, match="scenario.name: unknown field"):
            parse_object(obj)

    def test_missing_environment_field(self):
        obj = minimal_object()
        del obj["environment"]["width"]
        with pytest.raises(ValidationError, match="missing required field 'width'"):
            parse_object(obj)

    def test_booleans_are_not_integers(self):
        obj = minimal_object()
        obj["horizon"] = True
        with pytest.raises(ValidationError, match="scenario.horizon"):
            parse_object(obj)

    def test_fractional_values_rejected(self):
        # a 0.5 cap once reached ProfileState as 0.5 but the int64 profile
        # array as 0, so brute force and equilibria disagreed with global_value
        obj = minimal_object()
        obj["environment"] = {
            "width": 3, "height": 1, "obstacles": [], "stations": [[1, 1]]
        }
        obj["tasks"][0]["location"] = [3, 1]
        obj["tasks"][0]["value"]["max_value"] = 0.5
        with pytest.raises(ValidationError, match=r"tasks\[0\]\.value\.max_value"):
            parse_object(obj)
        obj["tasks"][0]["value"] = {
            "kind": "table",
            "max_value": 2,
            "entries": [[[0, 0, 0], 0], [[1, 0, 0], 1.5]],
        }
        with pytest.raises(ValidationError, match=r"tasks\[0\]\.value\.entries\[1\]"):
            parse_object(obj)
        obj["tasks"][0]["value"] = {
            "kind": "table",
            "max_value": 2,
            "entries": [[[0, 0, 0], 0]],
            "default": 2.0,
        }
        with pytest.raises(ValidationError, match=r"tasks\[0\]\.value\.default"):
            parse_object(obj)

    def test_bad_cell_shape(self):
        obj = minimal_object()
        obj["environment"]["obstacles"] = [[1, 2, 3]]
        with pytest.raises(ValidationError, match=r"obstacles\[0\]"):
            parse_object(obj)

    def test_at_least_one_station(self):
        obj = minimal_object()
        obj["environment"]["stations"] = []
        obj["robots"] = []
        with pytest.raises(ValidationError, match="at least one station"):
            parse_object(obj)

    def test_robot_station_number_range(self):
        obj = minimal_object()
        obj["robots"] = [2]
        with pytest.raises(ValidationError, match=r"robots\[0\]"):
            parse_object(obj)

    def test_empty_window_rejected(self):
        obj = minimal_object()
        obj["tasks"][0]["arrival"] = 3
        with pytest.raises(ValidationError, match="greater than arrival"):
            parse_object(obj)

    def test_departure_capped_by_horizon(self):
        obj = minimal_object()
        obj["tasks"][0]["departure"] = 4
        with pytest.raises(ValidationError, match="exceeds the horizon"):
            parse_object(obj)

    def test_task_on_obstacle(self):
        obj = minimal_object()
        obj["tasks"][0]["location"] = [3, 1]
        with pytest.raises(ValidationError, match="obstacle or out of bounds"):
            parse_object(obj)

    @pytest.mark.parametrize("bad_id", [[1], True, 1.5, None])
    def test_task_id_must_be_an_integer_or_a_string(self, bad_id):
        obj = minimal_object()
        obj["tasks"][0]["id"] = bad_id
        rule = r"tasks\[0\]\.id: must be an integer or a string"
        with pytest.raises(ValidationError, match=rule):
            parse_object(obj)
        task = Task(bad_id, (1, 1), 0, 3, ValueFunction.simple(1))
        with pytest.raises(ValidationError, match=rule):
            GameInstance(Grid(3, 3, stations=[(2, 2)]), 3, [1], [task])

    def test_duplicate_task_ids_listed(self):
        obj = minimal_object()
        obj["tasks"].append(dict(obj["tasks"][0], location=[1, 2]))
        with pytest.raises(ValidationError, match="duplicate ids 1"):
            parse_object(obj)

    def test_unknown_environment_field(self):
        obj = minimal_object()
        obj["environment"]["colour"] = "red"
        with pytest.raises(ValidationError, match=r"^environment\.colour: unknown field"):
            parse_object(obj)

    def test_unknown_task_field(self):
        obj = minimal_object()
        obj["tasks"][0]["priority"] = 3
        with pytest.raises(ValidationError, match=r"tasks\[0\].priority"):
            parse_object(obj)

    def test_unknown_value_kind(self):
        obj = minimal_object()
        obj["tasks"][0]["value"]["kind"] = "bonus"
        with pytest.raises(ValidationError, match="unknown value kind"):
            parse_object(obj)

    def test_unknown_value_field(self):
        obj = minimal_object()
        obj["tasks"][0]["value"]["scale"] = 2
        with pytest.raises(ValidationError, match=r"value.scale"):
            parse_object(obj)

    @pytest.mark.parametrize(
        "value, field",
        [
            (
                {"kind": "simple", "max_value": 1, "threshold": 0.5, "entries": "x"},
                "threshold",
            ),
            (
                {"kind": "threshold_sum", "max_value": 1, "threshold": 1,
                 "entries": "x"},
                "entries",
            ),
            (
                {"kind": "table", "max_value": 1, "entries": [[[0, 0, 0], 0]],
                 "default": 1, "heavy": 2},
                "heavy",
            ),
        ],
        ids=["simple+threshold", "threshold_sum+entries", "table+heavy"],
    )
    def test_a_value_field_the_kind_does_not_take_is_rejected(self, value, field):
        obj = minimal_object()
        obj["tasks"][0]["value"] = value
        kind = value["kind"]
        with pytest.raises(
            ValidationError,
            match=rf"^tasks\[0\]\.value\.{field}: not used by a {kind} value$",
        ):
            parse_object(obj)

    def test_threshold_kind_requires_threshold(self):
        obj = minimal_object()
        obj["tasks"][0]["value"] = {"kind": "threshold_sum", "max_value": 2}
        with pytest.raises(ValidationError, match="threshold"):
            parse_object(obj)

    def test_table_entry_shape(self):
        obj = minimal_object()
        obj["tasks"][0]["value"] = {
            "kind": "table",
            "max_value": 2,
            "entries": [[1, 2]],
        }
        with pytest.raises(ValidationError, match=r"entries\[0\]"):
            parse_object(obj)

    def test_duplicate_table_counter_rejected(self):
        obj = minimal_object()
        obj["tasks"][0]["value"] = {
            "kind": "table",
            "max_value": 2,
            "entries": [[[0, 0, 0], 0], [[0, 0, 0], 1]],
            "default": 1,
        }
        with pytest.raises(
            ValidationError,
            match=r"tasks\[0\]\.value\.entries\[1\]: duplicate counter \(0, 0, 0\)",
        ):
            parse_object(obj)

    def test_non_monotone_table_rejected_at_parse(self):
        obj = minimal_object()
        obj["tasks"][0]["value"] = {
            "kind": "table",
            "max_value": 2,
            "entries": [[[0, 0, 0], 2], [[1, 0, 0], 0]],
            "default": 0,
        }
        with pytest.raises(ValidationError, match="monotone"):
            parse_object(obj)

    def test_table_without_an_entry_or_default_names_the_field(self):
        obj = minimal_object()
        obj["tasks"][0].update(
            arrival=1,
            value={"kind": "table", "max_value": 1, "entries": [[[0, 0], 0]]},
        )
        with pytest.raises(
            ValidationError, match=r"tasks\[0\]\.value: .*counter \(1, 0\)"
        ):
            parse_object(obj)

    def test_unknown_defaults_key(self):
        obj = minimal_object()
        obj["defaults"]["retries"] = 2
        with pytest.raises(ValidationError, match="defaults.retries"):
            parse_object(obj)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rounds", 2.0),
            ("rounds", True),
            ("rounds", 0),
            ("runs", "3"),
            ("runs", 0),
            ("seed", -1),
            ("seed", 1.5),
            ("epsilon", "0.2"),
            ("epsilon", 0),
            ("algorithm", "greedy"),
        ],
    )
    def test_defaults_follow_the_learning_input_rules(self, key, value):
        obj = minimal_object()
        obj["defaults"][key] = value
        with pytest.raises(
            ValidationError, match=rf"^scenario\.defaults\.{key} must be"
        ):
            parse_object(obj)

    def test_max_value_sum_must_fit_int64(self):
        obj = json.loads(fixture_path("example_3.json").read_text(encoding="utf-8"))
        for task in obj["tasks"]:
            task["value"]["max_value"] = 2**62
        with pytest.raises(
            ValidationError, match=r"^tasks: the max_value sum must be below 2\*\*63"
        ):
            parse_object(obj)

    def test_load_errors_carry_the_path(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"horizon": 1}', encoding="utf-8")
        with pytest.raises(ValidationError, match="broken.json"):
            load_scenario(bad)

    def test_missing_file_is_a_validation_error(self, tmp_path):
        for loader in (load_scenario, load_any, load_episodes):
            with pytest.raises(ValidationError, match="cannot read"):
                loader(tmp_path / "absent.json")


def _task(**changes):
    spec = dict(id=1, location=(1, 1), arrival=0, departure=3,
                value=ValueFunction.simple(1))
    spec.update(changes)
    return Task(**spec)


ONE_RULE_CASES = {
    "bad station": ({"robot_stations": (2,)}, r"robots\[0\]: station number 2"),
    "duplicate id": (
        {"tasks": (_task(), _task(location=(1, 2)))}, "tasks: duplicate ids 1"
    ),
    "bad id type": ({"tasks": (_task(id=1.5),)}, r"tasks\[0\]\.id: must be"),
    "infeasible location": (
        {"tasks": (_task(location=(3, 1)),)}, "obstacle or out of bounds"
    ),
    "departure past the horizon": (
        {"tasks": (_task(departure=4),)}, "departure 4 exceeds the horizon 3"
    ),
    "non-monotone table": (
        {"tasks": (_task(value=ValueFunction.table(
            [((0, 0, 0), 2), ((1, 0, 0), 0)], 2, default=0)),)},
        r"tasks\[0\]\.value: table is not monotone",
    ),
    "table missing an entry": (
        {"tasks": (_task(arrival=1, value=ValueFunction.table(
            [((0, 0), 0)], 1)),)},
        r"tasks\[0\]\.value: .*no entry for counter \(1, 0\)",
    ),
    "table counter of the wrong length": (
        {"tasks": (_task(arrival=1, value=ValueFunction.table(
            [((1,), 5)], 5, default=0)),)},
        r"tasks\[0\]\.value: table counter \(1,\) has 1 entries for a window "
        "of 2 steps",
    ),
    "max_value sum past int64": (
        {"tasks": (_task(value=ValueFunction.simple(2**62)),
                   _task(id=2, location=(1, 2), value=ValueFunction.simple(2**62)))},
        r"tasks: the max_value sum must be below 2\*\*63",
    ),
}


@pytest.mark.parametrize("case", ONE_RULE_CASES)
def test_file_and_constructor_break_a_rule_with_one_message(case):
    """A bad input fails alike as a scenario file and as a direct game."""
    changes, rule = ONE_RULE_CASES[case]
    base = parse_object(minimal_object())
    bad = dataclasses.replace(base, **changes)
    with pytest.raises(ValidationError, match=rule) as from_file:
        parse_scenario(serialize_scenario(bad))
    with pytest.raises(ValidationError, match=rule) as from_game:
        GameInstance(bad.grid, bad.horizon, bad.robot_stations, bad.tasks)
    assert str(from_file.value) == str(from_game.value)


def _value(**fields):
    return lambda obj: obj["tasks"][0].update(value=fields)


# rules a constructor owns: (change to the file, the path the parser adds,
# the same input built directly, the constructor's message)
CONSTRUCTOR_RULE_CASES = {
    "station out of bounds": (
        lambda obj: obj["environment"].update(stations=[[9, 9]]),
        "environment",
        lambda: Grid(3, 3, obstacles=[(3, 1)], stations=[(9, 9)]),
        r"stations\[0\]: \(9, 9\) is out of bounds",
    ),
    "obstacle out of bounds": (
        lambda obj: obj["environment"].update(obstacles=[[3, 1], [4, 1]]),
        "environment",
        lambda: Grid(3, 3, obstacles=[(3, 1), (4, 1)], stations=[(2, 2)]),
        r"obstacles\[1\]: \(4, 1\) is out of bounds",
    ),
    "width 0": (
        lambda obj: obj["environment"].update(width=0),
        "environment",
        lambda: Grid(0, 3, obstacles=[(3, 1)], stations=[(2, 2)]),
        "width: must be at least 1",
    ),
    "fractional arrival": (
        lambda obj: obj["tasks"][0].update(arrival=0.5),
        "tasks[0]",
        lambda: _task(arrival=0.5),
        "arrival: must be an integer",
    ),
    "threshold 0": (
        _value(kind="threshold_sum", max_value=1, threshold=0),
        "tasks[0].value",
        lambda: ValueFunction.threshold_sum(1, 0),
        "threshold: must be at least 1",
    ),
    "field the kind does not take": (
        _value(kind="simple", max_value=1, threshold=2),
        "tasks[0].value",
        lambda: ValueFunction("simple", 1, threshold=2),
        "threshold: not used by a simple value",
    ),
    "fractional table value": (
        _value(kind="table", max_value=2, entries=[[[0, 0, 0], 0], [[1, 0, 0], 1.5]]),
        "tasks[0].value",
        lambda: ValueFunction.table([((0, 0, 0), 0), ((1, 0, 0), 1.5)], 2),
        r"entries\[1\]: value 1\.5 must be an integer",
    ),
}


@pytest.mark.parametrize("case", CONSTRUCTOR_RULE_CASES)
def test_a_constructor_rule_fails_a_file_under_the_field_path(case):
    """A file's message is the field path, a dot, and the constructor's message."""
    change, path, build, rule = CONSTRUCTOR_RULE_CASES[case]
    with pytest.raises(ValidationError, match=f"^{rule}$") as direct:
        build()
    obj = minimal_object()
    change(obj)
    with pytest.raises(ValidationError) as from_file:
        parse_object(obj)
    assert str(from_file.value) == f"{path}.{direct.value}"


@pytest.mark.parametrize(
    "build, stored",
    [
        (
            lambda n: Grid(n(3), n(2), obstacles=[(n(3), n(1))], stations=[[n(2), n(2)]]),
            lambda g: [g.width, g.height, *next(iter(g.obstacles)), *g.stations[0]],
        ),
        (
            lambda n: Task(1, [n(1), n(1)], n(0), n(3), ValueFunction.simple(1)),
            lambda t: [*t.location, t.arrival, t.departure],
        ),
        (
            lambda n: ValueFunction.table([((n(0),), n(1))], n(2), default=n(1)),
            lambda v: [v.max_value, v.default, *v.entries[0][0], v.entries[0][1]],
        ),
        (
            lambda n: GameInstance(Grid(3, 3, stations=[(2, 2)]), n(3), [n(1)], []),
            lambda g: [g.horizon, *g.robot_stations],
        ),
    ],
    ids=["Grid", "Task", "ValueFunction", "GameInstance"],
)
def test_the_one_integer_rule(build, stored):
    """numpy integers are kept as plain ints; bools are not integers."""
    values = stored(build(np.int64))
    assert values and all(type(v) is int for v in values)
    with pytest.raises(ValidationError, match="integer"):
        build(bool)


class TestEpisodeSuites:
    def test_shipped_suite_resolves_task_references(self, episode_suite):
        assert episode_suite.names() == (
            "episode-1",
            "episode-2",
            "episode-3",
            "episode-4",
            "episode-5",
        )
        first = episode_suite.get("episode-1")
        assert [t.id for t in first.tasks] == [1, 2, 6, 8]
        assert first.robot_stations == (1, 2, 3)
        base = load_fixture("case_study_2.json")
        assert first.grid == base.grid
        assert first.tasks[0] == base.tasks[0]

    def test_lookup_by_index_or_name(self, episode_suite):
        assert episode_suite.get(2) is episode_suite.get("episode-2")
        assert episode_suite.get("2") is episode_suite.get("episode-2")
        with pytest.raises(ValidationError, match="episode-1"):
            episode_suite.get("episode-9")

    def test_numpy_integer_index(self, episode_suite):
        assert episode_suite.get(np.int64(3)) is episode_suite.get("episode-3")

    @pytest.mark.parametrize(
        "key",
        [True, False, 2.7, 2.0, "2.0", " 2", "+2", "\u00b2", None, 0, 6, "6"],
        ids=repr,
    )
    def test_a_key_that_is_no_name_or_index_is_rejected(self, episode_suite, key):
        with pytest.raises(ValidationError, match=r"^no episode .*; have episode-1"):
            episode_suite.get(key)

    def test_suite_defaults_apply_to_every_episode(self, episode_suite):
        for _, scenario in episode_suite.episodes:
            assert scenario.defaults_dict["algorithm"] == "br"

    def write_suite(self, tmp_path, episodes, **overrides):
        base = tmp_path / "base.json"
        base.write_text(
            serialize_scenario(load_fixture("example_3.json")), encoding="utf-8"
        )
        suite = {
            "environment_from": "base.json",
            "tasks_from": "base.json",
            "horizon": 3,
            "robots": [1],
            "episodes": episodes,
        }
        suite.update(overrides)
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite), encoding="utf-8")
        return path

    def test_relative_references_resolve_against_the_suite_file(self, tmp_path):
        path = self.write_suite(tmp_path, [{"name": "one", "tasks": [1, 3]}])
        suite = load_episodes(path)
        assert isinstance(suite, EpisodeSuite)
        assert [t.id for t in suite.get("one").tasks] == [1, 3]

    def test_unknown_task_reference(self, tmp_path):
        path = self.write_suite(tmp_path, [{"name": "one", "tasks": [9]}])
        with pytest.raises(ValidationError, match="task id 9"):
            load_episodes(path)

    def test_unhashable_task_reference(self, tmp_path):
        path = self.write_suite(tmp_path, [{"name": "one", "tasks": [1, [1]]}])
        with pytest.raises(
            ValidationError,
            match=r"suite\.json: episodes\[0\]\.tasks\[1\]: task id \[1\]",
        ):
            load_episodes(path)

    @pytest.mark.parametrize(
        "tasks, robots, rule",
        [
            ([1, 1], [1], r"\[0\]: tasks: duplicate ids 1"),
            # the suite's robots are checked before its episodes
            ([1], [5], r"\.robots\[0\]: station number 5 outside 1\.\.1"),
        ],
        ids=["duplicate id", "bad station"],
    )
    def test_an_episode_breaking_a_rule_is_named(self, tmp_path, tasks, robots, rule):
        path = self.write_suite(
            tmp_path, [{"name": "one", "tasks": tasks}], robots=robots
        )
        with pytest.raises(ValidationError, match=r"suite\.json: episodes" + rule):
            load_episodes(path)

    @pytest.mark.parametrize(
        "field, rule",
        [
            ({"robots": [5]}, r"robots\[0\]: station number 5 outside 1\.\.1"),
            ({"horizon": 2.5}, "horizon: must be an integer"),
        ],
        ids=["bad station", "fractional horizon"],
    )
    @pytest.mark.parametrize("n_episodes", [2, 0], ids=["two episodes", "no episodes"])
    def test_a_suite_field_breaking_a_rule_is_named(
        self, tmp_path, field, rule, n_episodes
    ):
        # checked once, before the episodes: with none, or with several
        episodes = [{"name": f"e{k}", "tasks": [1]} for k in range(n_episodes)]
        path = self.write_suite(tmp_path, episodes, **field)
        with pytest.raises(ValidationError, match=r"suite\.json: episodes\." + rule):
            load_episodes(path)

    def test_defaults_must_be_an_object(self, tmp_path):
        path = self.write_suite(
            tmp_path, [{"name": "one", "tasks": [1]}], defaults=[1, 2]
        )
        with pytest.raises(
            ValidationError,
            match=r"suite\.json: episodes\.defaults: expected an object",
        ):
            load_episodes(path)

    def test_duplicate_episode_names(self, tmp_path):
        path = self.write_suite(
            tmp_path,
            [{"name": "one", "tasks": [1]}, {"name": "one", "tasks": [2]}],
        )
        with pytest.raises(ValidationError, match="duplicate name"):
            load_episodes(path)

    def test_at_least_one_episode(self, tmp_path):
        path = self.write_suite(tmp_path, [])
        with pytest.raises(ValidationError, match="at least one episode"):
            load_episodes(path)

    def test_unknown_suite_field(self, tmp_path):
        path = self.write_suite(
            tmp_path, [{"name": "one", "tasks": [1]}], comment="x"
        )
        with pytest.raises(ValidationError, match="unknown field"):
            load_episodes(path)
        path = self.write_suite(tmp_path, [{"name": "one", "tasks": [1], "seed": 2}])
        with pytest.raises(ValidationError, match=r"episodes\[0\]\.seed: unknown field"):
            load_episodes(path)

    def test_non_suite_file_rejected(self, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text(
            serialize_scenario(load_fixture("example_3.json")), encoding="utf-8"
        )
        with pytest.raises(ValidationError, match="episodes"):
            load_episodes(plain)


class TestDispatchAndFixtures:
    def test_load_any_picks_the_file_kind(self):
        assert isinstance(load_any(fixture_path("example_1.json")), Scenario)
        assert isinstance(
            load_any(fixture_path("experiment_episodes.json")), EpisodeSuite
        )

    def test_is_episode_object(self):
        assert is_episode_object({"episodes": []})
        assert not is_episode_object(minimal_object())

    def test_shipped_fixture_catalog(self):
        names = fixture_names()
        assert set(PLAIN_FIXTURES) <= set(names)
        assert "experiment_episodes.json" in names
        with pytest.raises(ValidationError, match="no shipped scenario"):
            fixture_path("missing.json")

    def test_scenario_to_object_mirrors_the_file(self):
        scenario = load_fixture("example_3.json")
        obj = scenario_to_object(scenario)
        assert obj["robots"] == [1, 1]
        assert obj["tasks"][2]["value"] == {
            "kind": "threshold_max",
            "max_value": 10,
            "threshold": 2,
        }

    def test_build_game_wires_the_scenario(self):
        scenario = load_fixture("example_2.json")
        game = build_game(scenario)
        assert game.mode == "extended"
        assert game.horizon == scenario.horizon
        assert game.tasks == scenario.tasks

    def test_build_game_rejects_an_episode_suite(self, episode_suite):
        with pytest.raises(DomainError, match="EpisodeSuite.get"):
            build_game(episode_suite)

    def test_build_game_passes_budgets_through(self):
        scenario = load_fixture("case_study_1.json")
        with pytest.raises(BudgetExceededError):
            build_game(scenario, signature_budget=5)
