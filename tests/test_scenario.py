import json

import pytest

from taskgrid import (
    BudgetExceededError,
    DomainError,
    EpisodeSuite,
    Scenario,
    ValidationError,
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

    def test_duplicate_task_ids_listed(self):
        obj = minimal_object()
        obj["tasks"].append(dict(obj["tasks"][0], location=[1, 2]))
        with pytest.raises(ValidationError, match="duplicate ids 1"):
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

    def test_unknown_defaults_key(self):
        obj = minimal_object()
        obj["defaults"]["retries"] = 2
        with pytest.raises(ValidationError, match="defaults.retries"):
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
