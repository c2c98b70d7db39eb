import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from support import random_game, walk_values

from taskgrid import (
    BudgetExceededError,
    ConvergenceError,
    DomainError,
    EquilibriumReport,
    GameInstance,
    Grid,
    InapplicableError,
    JointPlan,
    ProfileState,
    Task,
    ValueFunction,
    brute_force_optimum,
    check_poa_bound,
    empirical_occupancy,
    enumerate_nash,
    full_space_optimum,
    global_value,
    is_nash,
    lll_distribution,
    lll_stationary_distribution,
    price_of_anarchy,
    profile_values,
    run_log_linear,
    total_variation,
)
from taskgrid.analysis import INFINITE_POA, _walk_profiles, lll_transition_matrix
from taskgrid.learning import LearningConfig


def gibbs(game, epsilon):
    values = profile_values(game).ravel().astype(float)
    weights = np.exp((values - values.max()) / epsilon)
    return weights / weights.sum()


class TestProfileValues:
    def test_matches_naive_evaluation(self, games):
        game = games["example_3.json"]
        values = profile_values(game)
        assert values.shape == (3, 3)
        for ids in product(range(3), repeat=2):
            assert values[ids] == global_value(game, JointPlan(ids))

    def test_matches_naive_on_random_games(self):
        rng = np.random.default_rng(6)
        game = random_game(rng, max_robots=2, profile_cap=400)
        values = profile_values(game)
        for ids in product(*(range(s) for s in game.action_set_sizes())):
            assert values[ids] == global_value(game, JointPlan(ids))

    def test_totals_just_below_the_int64_bound_stay_exact(self, games):
        base = games["example_3.json"]
        caps = (2**61, 2**61, 2**62 - 1)  # the largest sum the setup check allows
        tasks = [
            dataclasses.replace(
                task, value=dataclasses.replace(task.value, max_value=cap)
            )
            for task, cap in zip(base.tasks, caps)
        ]
        game = GameInstance(base.grid, base.horizon, base.robot_stations, tasks)
        values = profile_values(game)
        naive = {ids: global_value(game, JointPlan(ids)) for ids in np.ndindex(3, 3)}
        assert all(values[ids] == v for ids, v in naive.items())
        assert brute_force_optimum(game)[0] == max(naive.values())
        # gaps of 1 between totals near 2**62 still weigh exp(-1 / 0.2)
        top = max(naive.values())
        weights = [math.exp((naive[ids] - top) / 0.2) for ids in np.ndindex(3, 3)]
        expected = np.array(weights) / sum(weights)
        pi = lll_stationary_distribution(game, 0.2)
        assert pi == pytest.approx(expected, abs=1e-12)

    def test_equals_the_walk_on_every_shipped_game_in_budget(self, all_games):
        walked = 0
        for name, game in all_games.items():
            try:
                values = profile_values(game)
            except BudgetExceededError:
                continue
            assert values.dtype == np.int64
            assert np.array_equal(values, walk_values(game)), name
            walked += 1
        assert walked == 8  # the examples and the five episodes

    def test_values_each_counter_some_plan_reaches_once(
        self, episode_games, monkeypatch
    ):
        # every action of robot 1 serves the first task, so no plan reaches a
        # counter without robot 1 there
        game = episode_games["episode-1"]
        for _, state in _walk_profiles(game, game.action_set_sizes()):
            pass
        reached = sum(map(len, state._memo))  # the walk's distinct counters
        calls = []
        evaluate = ValueFunction.evaluate
        monkeypatch.setattr(
            ValueFunction, "evaluate", lambda vf, c: calls.append(c) or evaluate(vf, c)
        )
        profile_values(game)
        assert len(calls) == reached

    def test_entries_at_the_max_value_bound_are_exact(self):
        # the max_value sum is 2**63 - 1, the largest int64; each robot serves
        # the first task and then the second or the third, and the plan where
        # the two robots split reaches the bound itself
        grid = Grid(3, 1, stations=[(2, 1)])
        tasks = [
            Task(1, (1, 1), 1, 2, ValueFunction.simple(2**62)),
            Task(2, (3, 1), 4, 5, ValueFunction.simple(2**62 - 2)),
            Task(3, (1, 1), 4, 5, ValueFunction.simple(1)),
        ]
        game = GameInstance(grid, 6, [1, 1], tasks)
        values = profile_values(game)
        assert values.shape == (2, 2)
        for ids in np.ndindex(values.shape):
            assert values[ids].item() == global_value(game, JointPlan(ids))
        assert values.max().item() == 2**63 - 1

    def test_budget_guard(self, games):
        with pytest.raises(BudgetExceededError):
            profile_values(games["case_study_1.json"])
        with pytest.raises(BudgetExceededError):
            profile_values(games["example_3.json"], budget=8)


class TestOptima:
    def test_brute_force_optimum_with_witnesses(self, games):
        value, witnesses = brute_force_optimum(games["example_3.json"])
        assert value == 10
        assert witnesses == [JointPlan((2, 2))]

    def test_full_space_agrees_with_action_space(self, games):
        game = games["example_3.json"]
        assert full_space_optimum(game) == brute_force_optimum(game)[0]

    def test_full_space_agrees_on_random_games(self):
        rng = np.random.default_rng(13)
        for _ in range(4):
            game = random_game(rng, max_side=4, max_horizon=4)
            assert full_space_optimum(game) == brute_force_optimum(game)[0]

    def test_full_space_rejects_extended_mode(self, games):
        with pytest.raises(DomainError):
            full_space_optimum(games["example_2.json"])


class TestEquilibria:
    def test_enumeration_on_the_three_task_example(self, games):
        report = enumerate_nash(games["example_3.json"])
        assert report.equilibria == [
            JointPlan((0, 1)),
            JointPlan((1, 0)),
            JointPlan((2, 2)),
        ]
        assert report.values == [2, 2, 10]
        assert report.optimum == 10
        assert report.poa == Fraction(5)

    def test_enumeration_agrees_with_the_predicate(self, games):
        game = games["example_3.json"]
        report = enumerate_nash(game)
        members = set(report.equilibria)
        for ids in product(range(3), repeat=2):
            assert is_nash(game, JointPlan(ids)) == (JointPlan(ids) in members)

    def test_predicate_on_random_games(self):
        rng = np.random.default_rng(31)
        game = random_game(rng, profile_cap=300)
        report = enumerate_nash(game)
        assert report.equilibria  # finite potential games always have one
        for plan in report.equilibria:
            assert is_nash(game, plan)


class TestPriceOfAnarchy:
    def test_ratio_of_best_to_worst(self):
        report = EquilibriumReport([], [4, 2, 3], 4, None)
        assert price_of_anarchy(report) == Fraction(2)

    def test_all_zero_equilibria_give_one(self):
        assert price_of_anarchy(EquilibriumReport([], [0, 0], 0, None)) == Fraction(1)

    def test_zero_worst_below_positive_best_is_infinite(self):
        assert price_of_anarchy(EquilibriumReport([], [0, 5], 5, None)) == INFINITE_POA
        assert math.isinf(INFINITE_POA)

    def test_empty_report_rejected(self):
        with pytest.raises(DomainError):
            price_of_anarchy(EquilibriumReport([], [], 0, None))


class TestBoundCheck:
    def make_single_station_game(self, n_robots, m_tasks):
        grid = Grid(4, 4, stations=[(2, 2)])
        cells = [(1, 1), (1, 3), (3, 1), (3, 3), (1, 2)]
        tasks = [
            Task(i + 1, cells[i], 0, 4, ValueFunction.simple(i + 1))
            for i in range(m_tasks)
        ]
        return GameInstance(grid, 4, [1] * n_robots, tasks)

    def test_bound_holds_on_a_crowded_station(self):
        game = self.make_single_station_game(2, 4)
        report = enumerate_nash(game)
        assert check_poa_bound(game, report)
        assert report.poa <= Fraction(4, 2)

    def test_multiple_stations_are_out_of_scope(self, games):
        game = games["case_study_1.json"]
        report = EquilibriumReport([], [1], 1, Fraction(1))
        with pytest.raises(InapplicableError):
            check_poa_bound(game, report)

    def test_non_simple_tasks_are_out_of_scope(self, games):
        game = games["example_3.json"]
        report = enumerate_nash(game)
        with pytest.raises(InapplicableError, match=r"\[3\]"):
            check_poa_bound(game, report)

    def test_infinite_ratio_fails_the_bound(self):
        game = self.make_single_station_game(1, 2)
        report = EquilibriumReport([], [0, 5], 5, INFINITE_POA)
        assert not check_poa_bound(game, report)


class TestChain:
    def test_rows_are_distributions(self, games):
        P, shape = lll_transition_matrix(games["example_3.json"], epsilon=0.3)
        assert shape == (3, 3)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert P.min() >= 0

    def test_matches_a_direct_dense_build(self, games):
        cases = [(games["example_3.json"], 0.7)]
        # three robots on two stations with action sets of unequal sizes, so
        # every stride of the C-order profile walk is exercised
        for seed in (3, 38, 91):
            game = random_game(
                np.random.default_rng(seed), max_robots=3, n_stations=2,
                max_tasks=5, max_horizon=6, profile_cap=200,
            )
            assert game.n_robots == 3 and len(set(game.action_set_sizes())) > 1
            cases.append((game, 0.4))
        for game, epsilon in cases:
            P, shape = lll_transition_matrix(game, epsilon)
            assert shape == game.action_set_sizes()
            n = game.n_robots
            size = math.prod(shape)
            dense = np.zeros((size, size))
            for s, ids in enumerate(product(*(range(k) for k in shape))):
                for robot_id in game.robot_ids:
                    probs = lll_distribution(game, JointPlan(ids), robot_id, epsilon)
                    for a, p in enumerate(probs):
                        nxt = list(ids)
                        nxt[robot_id - 1] = a
                        dense[s, np.ravel_multi_index(nxt, shape)] += p / n
            assert np.allclose(P.toarray(), dense, atol=1e-14)

    def test_stationary_is_the_gibbs_distribution(self, games):
        game = games["example_3.json"]
        pi = lll_stationary_distribution(game, epsilon=0.5)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert total_variation(pi, gibbs(game, 0.5)) < 1e-10

    def test_stationary_is_invariant_under_the_chain(self, games):
        cases = [games["example_3.json"]]
        for seed in (18, 54, 91):
            game = random_game(
                np.random.default_rng(seed), max_robots=3, n_stations=2,
                max_tasks=5, max_horizon=6, profile_cap=400,
            )
            assert game.n_robots == 3 and min(game.action_set_sizes()) > 1
            cases.append(game)
        for game in cases:
            for epsilon in (0.5, 0.2, 0.05):
                P, _ = lll_transition_matrix(game, epsilon)
                pi = lll_stationary_distribution(game, epsilon)
                assert np.abs(P.T @ pi - pi).sum() < 1e-10

    def test_a_utility_off_the_potential_fails_the_chain_check(
        self, games, monkeypatch
    ):
        kernel = ProfileState.utilities_over_actions
        # shift action 0 everywhere, or only while the robot's current action
        # is 1, which a check at one plan per line would miss
        for only_at in (None, 1):

            def shifted(state, robot_id, only_at=only_at):
                utilities = kernel(state, robot_id)
                if only_at in (None, state.action_ids[robot_id - 1]):
                    utilities[0] += 1
                return utilities

            monkeypatch.setattr(ProfileState, "utilities_over_actions", shifted)
            for epsilon in (0.5, 0.2, 0.05):
                with pytest.raises(
                    ConvergenceError, match="break the potential identity"
                ):
                    lll_stationary_distribution(games["example_3.json"], epsilon)

    @pytest.mark.parametrize("robot_id", [2, 3])
    def test_one_utility_off_at_one_plan_is_named(
        self, episode_games, monkeypatch, robot_id
    ):
        game = episode_games["episode-1"]  # three robots, 8 * 6 * 6 plans
        plan = (3, 4, 2)
        # later breaks in walk order: higher robots at the plan, a later plan
        breaks = {(r, plan) for r in range(robot_id, 4)}
        breaks |= {(r, (7, 5, 5)) for r in (1, robot_id)}
        kernel = ProfileState.utilities_over_actions

        def shifted(state, rid):
            utilities = kernel(state, rid)
            if (rid, tuple(state.action_ids)) in breaks:
                utilities[-1] += 1
            return utilities

        monkeypatch.setattr(ProfileState, "utilities_over_actions", shifted)
        for epsilon in (0.5, 0.05):
            with pytest.raises(
                ConvergenceError,
                match=rf"^robot {robot_id} at plan \(3, 4, 2\): .* not constant",
            ):
                lll_stationary_distribution(game, epsilon)

    @pytest.mark.parametrize("epsilon", [0, -0.2])
    @pytest.mark.parametrize(
        "chain", [lll_stationary_distribution, lll_transition_matrix]
    )
    def test_epsilon_must_be_positive(self, games, chain, epsilon):
        with pytest.raises(DomainError, match="epsilon must be positive"):
            chain(games["example_3.json"], epsilon)

    def test_stationary_solve_keeps_near_zero_mass_above_the_floor(self, scenarios):
        # masses reach down to 1e-20 here; a linear solve of the chain left
        # roundoff of -1.1e-7 below zero on this game
        sc = scenarios["case_study_2.json"]
        keep = {5, 12, 23, 25, 26, 28, 30}
        game = GameInstance(
            sc.grid, sc.horizon, (1, 2, 3), [t for t in sc.tasks if t.id in keep]
        )
        pi = lll_stationary_distribution(game, epsilon=0.2)
        assert total_variation(pi, gibbs(game, 0.2)) < 1e-3

    def test_single_robot_chain_reduces_to_the_softmax(self, games):
        game = games["example_2.json"]
        pi = lll_stationary_distribution(game, epsilon=0.4)
        probs = lll_distribution(game, JointPlan((0,)), 1, epsilon=0.4)
        assert np.allclose(pi, probs, atol=1e-12)

    def test_budget_guard(self, games):
        with pytest.raises(BudgetExceededError):
            lll_transition_matrix(games["case_study_1.json"], 0.2)
        with pytest.raises(BudgetExceededError):
            lll_stationary_distribution(games["example_3.json"], 0.2, budget=4)


class TestOccupancy:
    def test_replays_the_seeded_run(self, games):
        game = games["example_3.json"]
        occupancy = empirical_occupancy(game, 0.3, rounds=2000, seed=9)
        assert occupancy.sum() == pytest.approx(1.0)
        trace = run_log_linear(
            game, LearningConfig(algorithm="lll", rounds=2000, seed=9, epsilon=0.3)
        )
        counts = np.zeros(9)
        for plan in trace.plans()[1:]:
            counts[np.ravel_multi_index(plan.action_ids, (3, 3))] += 1
        assert np.array_equal(occupancy, counts / 2000)

    def test_total_variation_basics(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert total_variation(p, p) == 0.0
        assert total_variation(p, q) == 1.0
        assert total_variation(q, p) == 1.0

    def test_total_variation_needs_one_shape(self):
        with pytest.raises(DomainError, match=r"shapes \(2,\) and \(1,\)"):
            total_variation([0.5, 0.5], [1.0])
