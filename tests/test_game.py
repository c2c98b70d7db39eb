import re

import numpy as np
import pytest
from support import (
    assert_contributions_are_counter_differences,
    random_game,
    random_plan_walk,
)

from taskgrid import (
    DomainError,
    GameInstance,
    Grid,
    JointPlan,
    ProfileState,
    Task,
    ValidationError,
    ValueFunction,
    best_response_set,
    brute_force_optimum,
    build_game,
    counters,
    enumerate_nash,
    extend_action_set,
    global_value,
    is_nash,
    local_robots,
    local_tasks,
    profile_values,
    theta,
    utility,
    verify_potential_identity,
)


class TestWorkedThreeRobotInstance:
    """The three-robot single-task game shipped as example_1.json."""

    def test_action_sets_collapse_to_one_trajectory_each(self, games):
        game = games["example_1.json"]
        assert game.action_set_sizes() == (1, 1, 1)
        assert game.trajectory_of(1, 0) == (
            (2, 2), (3, 3), (3, 3), (3, 3), (3, 3), (3, 3), (2, 2)
        )
        assert game.trajectory_of(3, 0) == (
            (4, 5), (3, 4), (3, 3), (3, 3), (3, 3), (3, 4), (4, 5)
        )

    def test_counters_and_marginal_utilities(self, games):
        game = games["example_1.json"]
        plan = JointPlan((0, 0, 0))
        task = game.tasks[0]
        assert counters(game, plan, task) == (0, 2, 3, 3, 2, 0)
        assert counters(game, plan, task, exclude_robot=3) == (0, 2, 2, 2, 2, 0)
        assert global_value(game, plan) == 1
        assert [utility(game, plan, r) for r in game.robot_ids] == [0, 0, 0]

    def test_the_oracles_reject_an_unknown_robot_id(self, games):
        # example_3 has robots 1 and 2
        game = games["example_3.json"]
        plan = JointPlan((0, 0))
        task = game.tasks[0]
        for robot_id in (0, 3, 99, 1.5, True):
            with pytest.raises(DomainError, match="unknown robot id"):
                utility(game, plan, robot_id)
            with pytest.raises(DomainError, match="unknown robot id"):
                counters(game, plan, task, exclude_robot=robot_id)
        assert counters(game, plan, task, exclude_robot=None) == counters(game, plan, task)
        assert utility(game, plan, np.int64(2)) == utility(game, plan, 2)

    def test_exclusion_removes_at_most_one_robot_per_step(self, games):
        game = games["example_1.json"]
        plan = JointPlan((0, 0, 0))
        task = game.tasks[0]
        full = counters(game, plan, task)
        for robot_id in game.robot_ids:
            rest = counters(game, plan, task, exclude_robot=robot_id)
            assert all(f - r in (0, 1) for f, r in zip(full, rest))


class TestExtendedMode:
    def test_auto_mode_resolution(self, games):
        assert games["example_2.json"].mode == "extended"
        assert games["example_3.json"].mode == "plain"

    def test_extension_without_overlap_commits_each_stay_to_its_one_task(self, games):
        game = games["example_3.json"]
        for aset in game.station_action_sets.values():
            extended = extend_action_set(aset, game.tasks)
            assert [a.trajectory for a in extended] == list(aset.trajectories)
            for action in extended:
                assert len(action.commitments) == game.horizon
                for t, commitment in enumerate(action.commitments):
                    served = theta(action.trajectory, game.tasks, t)
                    assert len(served) <= 1
                    assert commitment == next(iter(served), None)

    def test_commitments_decide_which_task_is_served(self, games):
        game = games["example_2.json"]
        task_1, task_2 = game.tasks
        stay_on_first = JointPlan((0,))  # commitments (None, 1, 1, None)
        split = JointPlan((1,))  # commitments (None, 1, 2, None)
        assert counters(game, stay_on_first, task_1) == (0, 1, 1)
        assert counters(game, stay_on_first, task_2) == (0, 0)
        assert counters(game, split, task_1) == (0, 1, 0)
        assert counters(game, split, task_2) == (1, 0)
        assert global_value(game, stay_on_first) == 1
        assert global_value(game, split) == 2


class TestConstructionValidation:
    def test_duplicate_task_ids(self):
        grid = Grid(3, 3, stations=[(2, 2)])
        vf = ValueFunction.simple(1)
        tasks = [Task(1, (1, 1), 0, 2, vf), Task(1, (1, 2), 0, 2, vf)]
        with pytest.raises(ValidationError, match="duplicate ids 1"):
            GameInstance(grid, 2, [1], tasks)

    def test_departure_beyond_horizon(self):
        grid = Grid(3, 3, stations=[(2, 2)])
        tasks = [Task(1, (1, 1), 0, 5, ValueFunction.simple(1))]
        with pytest.raises(ValidationError, match="exceeds the horizon"):
            GameInstance(grid, 3, [1], tasks)

    def test_task_on_obstacle(self):
        grid = Grid(3, 3, obstacles=[(1, 1)], stations=[(2, 2)])
        tasks = [Task(1, (1, 1), 0, 2, ValueFunction.simple(1))]
        with pytest.raises(ValidationError, match="obstacle or out of bounds"):
            GameInstance(grid, 2, [1], tasks)

    def test_non_monotone_table_rejected(self):
        grid = Grid(3, 3, stations=[(2, 2)])
        decreasing = ValueFunction.table([((0,), 1), ((1,), 0)], 1, default=0)
        tasks = [Task(1, (1, 1), 1, 2, decreasing)]
        with pytest.raises(ValidationError, match="monotone"):
            GameInstance(grid, 3, [1], tasks)

    def test_seven_step_table_on_ten_robots(self):
        grid = Grid(3, 3, stations=[(2, 2)])
        # 11**7 counter vectors: past the brute-force check's budget
        entries = [((0,) * 7, 0), ((10,) * 7, 2)]
        table = ValueFunction.table(entries, 2, default=1)
        game = GameInstance(grid, 8, [1] * 10, [Task(1, (1, 1), 0, 7, table)])
        assert game.n_robots == 10
        # (3, 0, ...) -> 2 drops to the default 1 at (4, 0, ...)
        drop = ValueFunction.table(entries + [((3,) + (0,) * 6, 2)], 2, default=1)
        with pytest.raises(ValidationError, match="not monotone"):
            GameInstance(grid, 8, [1] * 10, [Task(1, (1, 1), 0, 7, drop)])

    def test_table_without_an_entry_or_default_names_the_task(self):
        grid = Grid(3, 1, stations=[(2, 1)])
        partial = ValueFunction.table([((0, 0), 0)], 1)
        tasks = [Task(1, (1, 1), 1, 3, partial)]
        with pytest.raises(
            ValidationError, match=r"tasks\[0\]\.value: .*counter \(1, 0\)"
        ):
            GameInstance(grid, 3, [1], tasks)

    @pytest.mark.parametrize(
        "location", ["ab", (1, 1, 1), (1.5, 1), (True, 1)]
    )
    def test_location_must_be_an_integer_pair(self, location):
        # Task owns the rule, so no game with such a task can be built
        with pytest.raises(
            ValidationError, match=r"^location: expected an \(x, y\) integer"
        ):
            Task(1, location, 0, 2, ValueFunction.simple(1))

    def test_value_must_be_a_value_function(self):
        grid = Grid(3, 3, stations=[(2, 2)])
        vf = ValueFunction.simple(1)
        tasks = [Task(1, (1, 1), 0, 2, vf), Task(2, (1, 2), 0, 2, 5)]
        with pytest.raises(
            ValidationError, match=r"tasks\[1\]\.value: expected a ValueFunction"
        ):
            GameInstance(grid, 2, [1], tasks)

    def test_bad_station_robots_and_horizon(self):
        grid = Grid(3, 3, stations=[(2, 2)])
        with pytest.raises(ValidationError, match=r"robots\[0\]: station number 2"):
            GameInstance(grid, 2, [2], [])
        with pytest.raises(ValidationError):
            GameInstance(grid, 2, [], [])
        with pytest.raises(ValidationError):
            GameInstance(grid, 0, [1], [])
        with pytest.raises(ValidationError, match="horizon: must be an integer"):
            GameInstance(grid, 2.5, [1], [])

    @pytest.mark.parametrize(
        "bad_id",
        [lambda n: -1, lambda n: n, lambda n: 1.0, lambda n: True, lambda n: "0"],
        ids=["-1", "n", "1.0", "True", "'0'"],
    )
    def test_accessors_check_the_action_id(self, games, bad_id):
        # example_3: robot 2 has n actions, ids 0..n-1
        game = games["example_3.json"]
        n = game.n_actions(2)
        action_id = bad_id(n)
        for accessor in (game.trajectory_of, game.contributions_of):
            with pytest.raises(
                DomainError, match=rf"^robot 2: action id {re.escape(repr(action_id))} "
            ):
                accessor(2, action_id)
        last = np.int64(n - 1)
        assert game.trajectory_of(2, last) == game.actions_of(2)[n - 1]
        assert game.contributions_of(2, last) == game.contributions_of(2, n - 1)

    def test_validate_plan(self, games):
        game = games["example_3.json"]
        with pytest.raises(DomainError):
            game.validate_plan(JointPlan((0,)))
        with pytest.raises(DomainError):
            game.validate_plan(JointPlan((0, 3)))
        game.validate_plan(JointPlan((2, 1)))

    def test_random_plan_reproducible(self, games):
        game = games["example_3.json"]
        a = game.random_plan(np.random.default_rng(9))
        b = game.random_plan(np.random.default_rng(9))
        assert a == b
        game.validate_plan(a)

    def test_contributions_are_window_offsets(self, games):
        game = games["example_1.json"]
        assert game.contributions_of(1, 0) == ((0, (1, 2, 3, 4)),)
        assert game.contributions_of(3, 0) == ((0, (2, 3)),)

    def test_contributions_are_counter_differences(self, all_games):
        rng = np.random.default_rng(5)
        for game in all_games.values():
            assert_contributions_are_counter_differences(game, rng)


class TestProfileStateAgainstNaive:
    """The incremental engine must agree with the naive recomputations."""

    def test_utilities_match_on_fixtures(self, all_games):
        rng = np.random.default_rng(21)
        for game in all_games.values():
            plan = game.random_plan(rng)
            state = ProfileState(game, plan)
            robot_id = int(rng.integers(game.n_robots)) + 1
            fast = state.utilities_over_actions(robot_id).tolist()
            slow = [
                utility(game, plan.replace(robot_id - 1, a), robot_id)
                for a in range(game.n_actions(robot_id))
            ]
            assert fast == slow
            assert state.plan() == plan  # evaluation must not disturb the state

    def test_utilities_match_on_random_games(self):
        # only games in which two robots meet and some robot has a choice:
        # with one action per robot a row holds a single number
        rng = np.random.default_rng(33)
        games = []
        for _ in range(100):
            game = random_game(rng, max_tasks=5, max_robots=3, max_horizon=6)
            sizes = game.action_set_sizes()
            if len(sizes) >= 2 and max(sizes) >= 2:
                games.append(game)
            if len(games) == 8:
                break
        assert len(games) == 8
        for game in games:
            plan = game.random_plan(rng)
            state = ProfileState(game, plan)
            for robot_id in game.robot_ids:
                fast = state.utilities_over_actions(robot_id).tolist()
                slow = [
                    utility(game, plan.replace(robot_id - 1, a), robot_id)
                    for a in range(game.n_actions(robot_id))
                ]
                assert fast == slow

    def test_switch_tracks_global_value(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            game = random_game(rng)
            state = ProfileState(game, game.random_plan(rng))
            for robot_id, action_id in random_plan_walk(rng, game, 30):
                state.switch(robot_id, action_id)
                assert state.global_value() == global_value(game, state.plan())

    def test_engine_calls_reject_an_unknown_robot_id(self, games):
        game = games["example_3.json"]
        state = ProfileState(game, JointPlan((0, 0)))
        for robot_id in (0, 3):
            with pytest.raises(DomainError, match=f"unknown robot id {robot_id}"):
                state.switch(robot_id, 1)
            with pytest.raises(DomainError, match=f"unknown robot id {robot_id}"):
                state.utilities_over_actions(robot_id)
        assert state.plan() == JointPlan((0, 0))

    @pytest.mark.parametrize("robot_id", [1.5, "1", None, True, np.float64(1)], ids=repr)
    def test_a_robot_id_that_is_not_an_integer_is_rejected(self, games, robot_id):
        game = games["example_3.json"]
        state = ProfileState(game, JointPlan((0, 0)))
        message = re.escape(f"unknown robot id {robot_id!r}")
        for call in (
            game.n_actions,
            state.utilities_over_actions,
            lambda r: state.switch(r, 1),
            lambda r: best_response_set(game, JointPlan((0, 0)), r),
            lambda r: utility(game, JointPlan((0, 0)), r),
        ):
            with pytest.raises(DomainError, match=message):
                call(robot_id)
        assert state.plan() == JointPlan((0, 0))

    def test_a_numpy_integer_robot_id_is_that_robot(self, games):
        game = games["example_3.json"]
        state = ProfileState(game, JointPlan((0, 0)))
        assert game.n_actions(np.int64(2)) == game.n_actions(2)
        assert (
            state.utilities_over_actions(np.int64(2)).tolist()
            == state.utilities_over_actions(2).tolist()
        )
        state.switch(np.int64(2), 1)
        assert state.plan() == JointPlan((0, 1))

    def test_switch_rejects_an_action_id_out_of_range(self, games):
        game = games["example_3.json"]
        state = ProfileState(game, JointPlan((0, 0)))
        for action_id in (-1, 3, 7):
            with pytest.raises(
                DomainError, match=rf"robot 1: action id {action_id} outside 0\.\.2"
            ):
                state.switch(1, action_id)
        assert state.plan() == JointPlan((0, 0))
        assert state.global_value() == global_value(game, state.plan())

    @pytest.mark.parametrize("action_id", [0.0, 1.0, "0"], ids=repr)
    def test_an_action_id_that_is_not_an_integer_is_rejected(self, games, action_id):
        game = games["example_3.json"]
        message = rf"robot 1: action id {action_id!r} is not an integer"
        plan = JointPlan((action_id, 0))
        for call in (
            lambda: global_value(game, plan),
            lambda: ProfileState(game, plan),
            lambda: is_nash(game, plan),
        ):
            with pytest.raises(DomainError, match=message):
                call()
        state = ProfileState(game, JointPlan((2, 0)))
        with pytest.raises(DomainError, match=message):
            state.switch(1, action_id)
        assert state.plan() == JointPlan((2, 0))

    def test_repeated_evaluation_is_stable(self, games):
        game = games["example_3.json"]
        state = ProfileState(game, JointPlan((0, 1)))
        first = state.utilities_over_actions(1)
        second = state.utilities_over_actions(1)
        assert first.tolist() == second.tolist()
        fresh = ProfileState(game, JointPlan((0, 1)))
        assert state.counters == fresh.counters
        assert state.total == fresh.total


    def test_the_kernel_returns_one_int64_entry_per_action(self, all_games):
        empty = GameInstance(Grid(3, 3, stations=[(1, 1)]), 3, [1, 1], [])
        for game in [*all_games.values(), empty]:
            state = ProfileState(game, JointPlan((0,) * game.n_robots))
            for robot_id in game.robot_ids:
                row = state.utilities_over_actions(robot_id)
                assert isinstance(row, np.ndarray)
                assert row.dtype == np.int64
                assert row.shape == (game.n_actions(robot_id),)


class TestKernelExactness:
    def _game(self):
        # the max_value sum is 2**63 - 1, the largest the int64 kernel holds;
        # the robot serves the first task and then the second or the third
        grid = Grid(3, 1, stations=[(2, 1)])
        tasks = [
            Task(1, (1, 1), 1, 2, ValueFunction.simple(2**62)),
            Task(2, (3, 1), 4, 5, ValueFunction.simple(2**62 - 2)),
            Task(3, (1, 1), 4, 5, ValueFunction.simple(1)),
        ]
        return GameInstance(grid, 6, [1], tasks)

    def test_no_int64_wrap_at_the_max_value_bound(self):
        game = self._game()
        assert game.n_actions(1) == 2
        state = ProfileState(game, JointPlan((0,)))
        for action_id in (1, 0, 1):
            plan = state.plan()
            fast = state.utilities_over_actions(1).tolist()
            assert fast == [utility(game, JointPlan((a,)), 1) for a in (0, 1)]
            assert sorted(fast) == [2**62 + 1, 2**63 - 2]
            assert state.global_value() == global_value(game, plan)
            state.switch(1, action_id)
            assert state.global_value() == global_value(game, state.plan())

    def test_oracles_do_not_read_the_value_memo(self):
        game = self._game()
        plan = JointPlan((0,))
        state = ProfileState(game, plan)
        state.utilities_over_actions(1)
        truth = global_value(game, plan), utility(game, plan, 1)
        for memo in state._memo:
            for key in memo:
                memo[key] += 1
        assert (global_value(game, plan), utility(game, plan, 1)) == truth
        # the engine does read it: switching away and back re-reads each value
        state.switch(1, 1)
        state.switch(1, 0)
        assert state.global_value() == truth[0] + len(game.tasks)

    def test_each_state_starts_with_an_empty_value_memo(self):
        game = self._game()
        plan = JointPlan((0,))
        ProfileState(game, plan).utilities_over_actions(1)
        # a fresh state holds only the values of its own plan's counters
        assert [len(memo) for memo in ProfileState(game, plan)._memo] == [1, 1, 1]


    def test_counter_entries_past_one_byte_decode_exactly(self):
        # 260 robots share one station, so a counter entry passes 255 and a
        # code digit needs two bytes; the first task completes at 257
        grid = Grid(2, 1, stations=[(1, 1)])
        tasks = [
            Task(1, (1, 1), 0, 3, ValueFunction.threshold_max(7, 257)),
            Task(2, (2, 1), 1, 3, ValueFunction.threshold_sum(5, 4)),
        ]
        game = GameInstance(grid, 3, [1] * 260, tasks)
        assert [game.contributions_of(1, a) for a in (0, 1)] == [
            ((0, (0, 1, 2)),),
            ((1, (0,)),),
        ]
        state = ProfileState(game, JointPlan((0,) * 257 + (1,) * 3))
        assert state.counters == [[257, 257, 257], [3, 0]]
        assert state.utilities_over_actions(1).tolist() == [7, 5]
        for robot_id, action_id in ((260, 0), (260, 1), (1, 1), (1, 0)):
            plan = state.plan()
            assert state.counters == [list(counters(game, plan, t)) for t in tasks]
            assert max(state.counters[0]) > 255
            assert state.global_value() == global_value(game, plan)
            for r in (1, 260):
                assert state.utilities_over_actions(r).tolist() == [
                    utility(game, plan.replace(r - 1, a), r) for a in (0, 1)
                ]
            state.switch(robot_id, action_id)


class TestStationTable:
    def test_a_game_without_tasks_has_zero_utilities_and_values(self):
        game = GameInstance(Grid(3, 3, stations=[(1, 1)]), 3, [1, 1], [])
        state = ProfileState(game, JointPlan((0, 0)))
        for robot_id in game.robot_ids:
            zeros = [0] * game.n_actions(robot_id)
            assert state.utilities_over_actions(robot_id).tolist() == zeros
        values = profile_values(game)
        assert values.shape == game.action_set_sizes()
        assert not values.any()

    def test_built_on_the_kernels_first_use_and_not_by_the_analysis(self, scenarios):
        # the exact analysis reads the game's moves, not the kernel's table
        game = build_game(scenarios["example_3.json"])
        assert game._tables == {}
        brute_force_optimum(game)
        enumerate_nash(game)
        assert game._tables == {}
        ProfileState(game, JointPlan((0,) * game.n_robots)).utilities_over_actions(1)
        table = game._tables[game.robot_stations[0]]
        profile_values(game)
        assert game._station_table(game.robot_stations[0]) is table


    def test_case_study_2_tables_are_one_row_per_move_slot(self, games):
        # no action of case_study_2 serves more than 4 tasks
        game = games["case_study_2.json"]
        shapes = {
            number: game._station_table(number).piece_ids.shape
            for number in sorted(set(game.robot_stations))
        }
        assert shapes == {1: (4, 586), 2: (4, 302), 3: (4, 132)}


class TestLocality:
    def test_strict_half_horizon_rule(self):
        grid = Grid(9, 1, stations=[(1, 1)])
        vf = ValueFunction.simple(1)
        near = Task(1, (2, 1), 0, 4, vf)
        boundary = Task(2, (3, 1), 0, 4, vf)
        even = GameInstance(grid, 4, [1], [near, boundary])
        # distance 2 with horizon 4 gives no time to stay: excluded
        assert local_tasks(even, 1) == {near}
        odd = GameInstance(grid, 5, [1], [near, boundary])
        assert local_tasks(odd, 1) == {near, boundary}

    def test_unreachable_task_is_never_local(self):
        grid = Grid(5, 1, obstacles=[(3, 1)], stations=[(1, 1)])
        cutoff = Task(1, (5, 1), 0, 4, ValueFunction.simple(1))
        game = GameInstance(grid, 8, [1], [cutoff])
        assert local_tasks(game, 1) == set()

    def test_robots_linked_by_shared_tasks(self):
        grid = Grid(9, 1, stations=[(1, 1), (5, 1), (9, 1)])
        vf = ValueFunction.simple(1)
        tasks = [Task(1, (3, 1), 0, 6, vf), Task(2, (7, 1), 0, 6, vf)]
        game = GameInstance(grid, 6, [1, 2, 3], tasks)
        # the middle robot reaches both tasks, the outer robots one each
        assert local_robots(game, 1) == {1, 2}
        assert local_robots(game, 2) == {1, 2, 3}
        assert local_robots(game, 3) == {2, 3}

    def test_robot_with_no_reachable_task_is_isolated(self):
        grid = Grid(9, 1, stations=[(1, 1), (9, 1)])
        tasks = [Task(1, (2, 1), 0, 4, ValueFunction.simple(1))]
        game = GameInstance(grid, 4, [1, 2], tasks)
        assert local_robots(game, 2) == set()


class TestPotentialIdentity:
    def test_holds_on_the_shipped_examples(self, games):
        for name in ("example_1.json", "example_2.json", "example_3.json"):
            assert verify_potential_identity(games[name], samples=200, seed=3)

    def test_holds_on_random_games(self):
        rng = np.random.default_rng(77)
        for seed in range(4):
            game = random_game(rng)
            assert verify_potential_identity(game, samples=100, seed=seed)
