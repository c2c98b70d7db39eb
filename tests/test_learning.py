import hashlib
import json
import math

import numpy as np
import pytest
from support import random_game

from taskgrid import (
    DomainError,
    GameInstance,
    Grid,
    JointPlan,
    LearningConfig,
    Task,
    ValidationError,
    ValueFunction,
    best_response_set,
    global_value,
    is_nash,
    lll_distribution,
    run,
    run_batch,
    run_best_response,
    run_log_linear,
)


@pytest.fixture(scope="module")
def two_action_game():
    """One robot, two actions with utilities exactly (1, 0)."""
    grid = Grid(3, 3, stations=[(2, 2)])
    tasks = (
        Task(1, (1, 1), 0, 3, ValueFunction.simple(1)),
        Task(2, (1, 3), 0, 3, ValueFunction.threshold_max(10, 2)),
    )
    return GameInstance(grid, 3, [1], tasks)


@pytest.fixture(scope="module")
def tie_game():
    """One robot, three actions with utilities (1, 1, 0)."""
    grid = Grid(3, 3, stations=[(2, 2)])
    tasks = (
        Task(1, (1, 1), 0, 3, ValueFunction.simple(1)),
        Task(2, (1, 2), 0, 3, ValueFunction.simple(1)),
        Task(3, (1, 3), 0, 3, ValueFunction.threshold_max(10, 2)),
    )
    return GameInstance(grid, 3, [1], tasks)


class TestConfig:
    def test_algorithm_and_rounds_validated(self):
        with pytest.raises(ValidationError):
            LearningConfig(algorithm="greedy", rounds=5)
        with pytest.raises(ValidationError):
            LearningConfig(algorithm="br", rounds=0)
        with pytest.raises(ValidationError):
            LearningConfig(algorithm="lll", rounds=5, epsilon=0.0)
        # one epsilon rule for both algorithms
        with pytest.raises(ValidationError, match="^epsilon must be positive"):
            LearningConfig(algorithm="br", rounds=5, epsilon=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rounds", True),
            ("rounds", 2.5),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", None),
            ("epsilon", "0.2"),
            ("epsilon", float("nan")),
        ],
    )
    def test_each_input_fails_naming_its_field(self, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            LearningConfig(**{"algorithm": "lll", "rounds": 5, name: value})

    @pytest.mark.parametrize("n_runs", [0, True, 2.5])
    def test_run_count_follows_the_same_rule(self, games, n_runs):
        config = LearningConfig(algorithm="br", rounds=3)
        with pytest.raises(ValidationError, match="^runs must be"):
            run_batch(games["example_3.json"], config, n_runs)

    def test_dispatchers_enforce_their_algorithm(self, games):
        game = games["example_3.json"]
        with pytest.raises(ValidationError):
            run_best_response(game, LearningConfig(algorithm="lll", rounds=3))
        with pytest.raises(ValidationError):
            run_log_linear(game, LearningConfig(algorithm="br", rounds=3))

    def test_initial_plan_options(self, games):
        game = games["example_3.json"]
        fixed = JointPlan((2, 2))
        trace = run(game, LearningConfig(algorithm="br", rounds=3, initial=fixed))
        assert trace.initial_plan == fixed
        with pytest.raises(ValidationError):
            run(game, LearningConfig(algorithm="br", rounds=3, initial="center"))
        with pytest.raises(DomainError):
            run(
                game,
                LearningConfig(algorithm="br", rounds=3, initial=JointPlan((0,))),
            )


class TestTraces:
    def test_record_shape_and_round_numbers(self, games):
        game = games["example_3.json"]
        trace = run(game, LearningConfig(algorithm="lll", rounds=40, seed=5))
        assert len(trace.records) == 40
        assert [r[0] for r in trace.records] == list(range(1, 41))
        assert trace.final_plan == trace.plans()[-1]
        assert trace.final_value == trace.values()[-1]
        assert len(trace.values()) == 41
        assert len(trace.plans()) == 41

    def test_recorded_values_match_the_plans(self, games):
        game = games["example_3.json"]
        trace = run(game, LearningConfig(algorithm="lll", rounds=25, seed=8))
        for plan, value in zip(trace.plans(), trace.values()):
            assert global_value(game, plan) == value

    def test_identical_seeds_reproduce_identical_traces(self, games):
        game = games["case_study_1.json"]
        config = LearningConfig(algorithm="lll", rounds=50, seed=123, epsilon=0.2)
        a = run(game, config)
        b = run(game, config)
        assert a.initial_plan == b.initial_plan
        assert a.records == b.records

    def test_different_seeds_differ(self, games):
        game = games["case_study_1.json"]
        a = run(game, LearningConfig(algorithm="lll", rounds=50, seed=1))
        b = run(game, LearningConfig(algorithm="lll", rounds=50, seed=2))
        assert a.records != b.records


    @pytest.mark.parametrize("algorithm", ["br", "lll"])
    def test_records_hold_plain_ints(self, games, algorithm):
        game = games["case_study_1.json"]
        trace = run(game, LearningConfig(algorithm=algorithm, rounds=30, seed=4))
        assert all(type(a) is int for a in trace.initial_plan.action_ids)
        assert all(type(x) is int for record in trace.records for x in record)
        assert all(type(a) is int for a in trace.final_plan.action_ids)


class TestBestResponse:
    def test_argmax_set_is_exact(self, tie_game, games):
        assert best_response_set(tie_game, JointPlan((2,)), 1) == {0, 1}
        game = games["example_3.json"]
        assert best_response_set(game, JointPlan((0, 2)), 1) == {2}
        assert best_response_set(game, JointPlan((0, 0)), 1) == {1}
        assert all(type(a) is int for a in best_response_set(tie_game, JointPlan((2,)), 1))

    def test_current_action_wins_ties(self, tie_game):
        trace = run_best_response(
            tie_game,
            LearningConfig(algorithm="br", rounds=10, seed=0, initial=JointPlan((1,))),
        )
        # action 0 ties action 1, but the incumbent is never abandoned
        assert all(r[2] == 1 for r in trace.records)

    def test_values_never_decrease(self, games):
        for name in ("example_1.json", "example_2.json", "example_3.json"):
            game = games[name]
            for seed in range(5):
                trace = run_best_response(
                    game, LearningConfig(algorithm="br", rounds=30, seed=seed)
                )
                values = trace.values()
                assert all(a <= b for a, b in zip(values, values[1:]))

    def test_terminal_plans_are_equilibria(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            game = random_game(rng)
            trace = run_best_response(
                game,
                LearningConfig(algorithm="br", rounds=30 * game.n_robots, seed=seed),
            )
            assert is_nash(game, trace.final_plan)


class TestLogLinear:
    def test_softmax_closed_form(self, two_action_game):
        probs = lll_distribution(two_action_game, JointPlan((0,)), 1, epsilon=0.5)
        e2 = math.exp(2.0)
        assert probs[0] == pytest.approx(e2 / (1 + e2), abs=1e-12)
        assert probs[1] == pytest.approx(1 / (1 + e2), abs=1e-12)

    def test_distribution_has_full_support(self, games):
        game = games["example_3.json"]
        probs = lll_distribution(game, JointPlan((0, 0)), 2, epsilon=0.1)
        assert probs.shape == (3,)
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0)

    def test_extreme_utilities_stay_finite(self):
        grid = Grid(3, 3, stations=[(2, 2)])
        tasks = (
            Task(1, (1, 1), 0, 3, ValueFunction.simple(5000)),
            Task(2, (1, 3), 0, 3, ValueFunction.simple(1)),
        )
        game = GameInstance(grid, 3, [1], tasks)
        probs = lll_distribution(game, JointPlan((0,)), 1, epsilon=0.001)
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("epsilon", [1e-300, 1e-309, 1e-310, 5e-324])
    def test_tiny_epsilon_keeps_all_mass_on_the_best_actions(self, tie_game, epsilon):
        probs = lll_distribution(tie_game, JointPlan((0,)), 1, epsilon)
        assert probs.tolist() == [0.5, 0.5, 0.0]

    def test_tiny_epsilon_runs(self, games):
        config = LearningConfig(algorithm="lll", rounds=6, seed=3, epsilon=1e-310)
        trace = run(games["example_3.json"], config)
        assert len(trace.records) == 6

    def test_infinite_epsilon_is_the_uniform_law(self, tie_game):
        probs = lll_distribution(tie_game, JointPlan((0,)), 1, math.inf)
        assert probs.tolist() == [1 / 3] * 3

    def test_high_noise_visits_every_profile(self, games):
        game = games["example_3.json"]
        trace = run_log_linear(
            game, LearningConfig(algorithm="lll", rounds=3000, seed=2, epsilon=5.0)
        )
        assert len(set(trace.plans())) == 9


class TestBatch:
    def test_series_aggregates_the_traces(self, games):
        game = games["example_3.json"]
        config = LearningConfig(algorithm="lll", rounds=20, seed=7, epsilon=0.2)
        batch = run_batch(game, config, 6)
        assert len(batch.traces) == 6
        assert len(batch.series) == 21
        matrix = np.array([t.values() for t in batch.traces])
        for k, mn, avg, mx in batch.series:
            assert mn == matrix[:, k].min()
            assert avg == pytest.approx(matrix[:, k].mean())
            assert mx == matrix[:, k].max()

    def test_runs_use_consecutive_seeds(self, games):
        game = games["example_3.json"]
        config = LearningConfig(algorithm="lll", rounds=15, seed=40, epsilon=0.2)
        batch = run_batch(game, config, 3)
        for j in range(3):
            single = run(
                game,
                LearningConfig(algorithm="lll", rounds=15, seed=40 + j, epsilon=0.2),
            )
            assert batch.traces[j].records == single.records

    def test_explicit_base_seed_overrides_config(self, games):
        game = games["example_3.json"]
        config = LearningConfig(algorithm="lll", rounds=15, seed=40, epsilon=0.2)
        batch = run_batch(game, config, 2, base_seed=100)
        single = run(
            game, LearningConfig(algorithm="lll", rounds=15, seed=101, epsilon=0.2)
        )
        assert batch.traces[1].records == single.records

    def test_single_run_collapses_the_envelope(self, games):
        game = games["example_3.json"]
        batch = run_batch(
            game, LearningConfig(algorithm="br", rounds=10, seed=3), 1
        )
        for _, mn, avg, mx in batch.series:
            assert mn == avg == mx

    def test_histogram_counts_terminal_values(self, games):
        game = games["example_3.json"]
        batch = run_batch(
            game, LearningConfig(algorithm="br", rounds=20, seed=0), 25
        )
        assert sum(batch.terminal_histogram.values()) == 25
        assert sorted(batch.terminal_histogram) == list(batch.terminal_histogram)
        assert set(batch.terminal_values) == set(batch.terminal_histogram)

    def test_run_count_validated(self, games):
        with pytest.raises(ValidationError):
            run_batch(
                games["example_3.json"],
                LearningConfig(algorithm="br", rounds=5),
                0,
            )

    # sha256 of the records and series of 2 runs x 50 rounds; any kernel
    # change must keep these traces byte-identical
    @pytest.mark.parametrize(
        "name, algorithm, digest",
        [
            (
                "case_study_1.json",
                "br",
                "8633be5f95a517d37403e94bf88ca550243753d0e6b3c9b2a242ee4603d8829a",
            ),
            (
                "case_study_2.json",
                "lll",
                "53105c3e2a0efaad3f96d7e14b73f96b61bf40b9f728830f29f2e1ca6ef72e3b",
            ),
        ],
    )
    def test_traces_are_pinned(self, games, name, algorithm, digest):
        config = LearningConfig(algorithm=algorithm, rounds=50, seed=11, epsilon=0.2)
        batch = run_batch(games[name], config, 2)
        payload = {
            "records": [
                [list(t.initial_plan.action_ids), t.initial_value, t.records]
                for t in batch.traces
            ],
            "series": batch.series,
        }
        text = json.dumps(payload, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
