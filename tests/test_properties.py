"""Property tests: the fast paths against the naive oracles on drawn games.

Hypothesis draws a seed; ``support.random_game`` turns it into a game, so
every example is reproducible from its seed. The dominance prune's test also
draws a group size and a mask width, and ``support.random_mask_group`` turns
the three into a group. ``derandomize`` fixes the draws, keeping the suite
deterministic.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from support import (
    assert_contributions_are_counter_differences,
    maximal_masks,
    random_game,
    random_mask_group,
    random_plan_walk,
)

from taskgrid import (
    GameInstance,
    ProfileState,
    build_minimal_action_set,
    check_no_overlap,
    counters,
    enumerate_feasible_trajectories,
    global_value,
    profile_values,
    signature,
    utility,
    verify_cover,
)
from taskgrid.actions import _INDEX_FROM, _prune_dominated
from taskgrid.game import EXTENDED

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_fast_paths_match_the_naive_oracles(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, max_robots=3, n_stations=2, profile_cap=400)
    plan = game.random_plan(rng)
    state = ProfileState(game, plan)
    for robot_id in game.robot_ids:
        assert state.utilities_over_actions(robot_id).tolist() == [
            utility(game, plan.replace(robot_id - 1, a), robot_id)
            for a in range(game.n_actions(robot_id))
        ]
    assert profile_values(game)[plan.action_ids] == global_value(game, plan)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_mode_is_extended_iff_two_windows_overlap_at_one_location(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, max_tasks=4, overlap_and_tables=bool(seed % 2))
    assert (game.mode == EXTENDED) == bool(check_no_overlap(game.tasks))
    # the same tasks gathered onto at most two cells, where their windows
    # may overlap, touch or miss
    shared = [task.location for task in game.tasks[:2]]
    assume(shared)
    gathered = GameInstance(
        game.grid,
        game.horizon,
        game.robot_stations,
        [replace(t, location=shared[int(rng.integers(len(shared)))]) for t in game.tasks],
    )
    assert (gathered.mode == EXTENDED) == bool(check_no_overlap(gathered.tasks))


def _overlap_and_table_game(seed):
    """A drawn game with an overlapping window (extended mode) and tables."""
    rng = np.random.default_rng(seed)
    game = random_game(
        rng, max_robots=3, n_stations=2, profile_cap=400, overlap_and_tables=True
    )
    return rng, game


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_kernel_and_switch_match_the_oracles_with_overlaps_and_tables(seed):
    rng, game = _overlap_and_table_game(seed)
    assume(game.mode == EXTENDED)
    plan = game.random_plan(rng)
    state = ProfileState(game, plan)
    for robot_id, action_id in random_plan_walk(rng, game, 4):
        assert state.utilities_over_actions(robot_id).tolist() == [
            utility(game, plan.replace(robot_id - 1, a), robot_id)
            for a in range(game.n_actions(robot_id))
        ]
        state.switch(robot_id, action_id)
        plan = plan.replace(robot_id - 1, action_id)
        assert state.plan() == plan
        assert state.global_value() == global_value(game, plan)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_kernel_matches_the_oracle_on_a_warm_value_memo(seed):
    # the state's value memo persists across its switches, so each check
    # after the first reads values filled at earlier plans of the walk
    rng, game = _overlap_and_table_game(seed)
    state = ProfileState(game, game.random_plan(rng))
    for robot_id, action_id in random_plan_walk(rng, game, 12):
        state.switch(robot_id, action_id)
        plan = state.plan()
        assert state.global_value() == global_value(game, plan)
        for r in game.robot_ids:
            assert state.utilities_over_actions(r).tolist() == [
                utility(game, plan.replace(r - 1, a), r)
                for a in range(game.n_actions(r))
            ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_value_tensor_matches_the_oracle_with_overlaps_and_tables(seed):
    rng, game = _overlap_and_table_game(seed)
    values = profile_values(game)
    for _ in range(4):
        plan = game.random_plan(rng)
        assert values[plan.action_ids] == global_value(game, plan)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_contributions_are_counter_differences(seed):
    # contributions_of decodes the moves' counter codes in either mode
    rng = np.random.default_rng(seed)
    game = random_game(rng, max_robots=3, n_stations=2, profile_cap=400)
    assert_contributions_are_counter_differences(game, rng)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_contributions_are_counter_differences_with_overlaps(seed):
    rng, game = _overlap_and_table_game(seed)
    assume(game.mode == EXTENDED)
    assert_contributions_are_counter_differences(game, rng)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_counter_codes_decode_to_the_oracle_counters(seed):
    rng, game = _overlap_and_table_game(seed)
    state = ProfileState(game, game.random_plan(rng))
    for robot_id, action_id in random_plan_walk(rng, game, 6):
        state.switch(robot_id, action_id)
        plan = state.plan()
        for j, task in enumerate(game.tasks):
            assert state.counters[j] == list(counters(game, plan, task))


def _counter(task, offsets):
    return tuple(offsets.count(o) for o in range(task.window_length))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_station_table_decodes_to_the_contributions(seed):
    # plain and extended draws alike: each action's moves decode to the
    # counters of the offsets contributions_of lists, and each column of the
    # kernel's table, read up to its first -1, lists the ids of that
    # action's moves in order, with only -1 after; the pieces are distinct
    # and all used, and the table is as high as the longest move list
    _, game = _overlap_and_table_game(seed)
    for robot_id, number in zip(game.robot_ids, game.robot_stations):
        moves = game._station_moves[number]
        table = game._station_table(number)
        pieces = table.pieces
        height = max(map(len, moves))
        assert table.piece_ids.shape == (height, game.n_actions(robot_id))
        assert len(pieces) == len(set(pieces))
        used = set()
        for move, column in zip(moves, table.piece_ids.T.tolist()):
            end = column.index(-1) if -1 in column else height
            assert [pieces[i] for i in column[:end]] == list(move)
            assert column[end:] == [-1] * (height - end)
            used.update(column[:end])
        assert used == set(range(len(pieces)))
        for action_id, move in enumerate(moves):
            contribs = game.contributions_of(robot_id, action_id)
            assert [(j, game._decode(j, code)) for j, code in move] == [
                (j, _counter(game.tasks[j], offsets)) for j, offsets in contribs
            ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds)
def test_action_sets_match_the_enumerated_trajectories(seed):
    rng = np.random.default_rng(seed)
    game = random_game(
        rng,
        max_tasks=5,
        max_horizon=6,
        n_stations=2,
        obstacle_rate=0.4,
        overlap_and_tables=bool(seed % 2),
    )
    grid, horizon, tasks = game.grid, game.horizon, game.tasks
    assume(grid.obstacles)
    for station in grid.stations:
        actions = build_minimal_action_set(grid, station, horizon, tasks)
        by_signature = {}
        for traj in enumerate_feasible_trajectories(grid, station, horizon):
            by_signature.setdefault(signature(traj, tasks), []).append(traj)
        for traj, sig in zip(actions.trajectories, actions.signatures):
            if sig:
                assert traj == min(by_signature[sig])
            else:  # nothing servable: the set is the stay-at-station action
                assert traj == (station,) * (horizon + 1)
        assert verify_cover(actions, grid, station, horizon, tasks)
        sigs = actions.signatures
        for i, a in enumerate(sigs):
            assert not any(a <= b for b in sigs[:i] + sigs[i + 1 :])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=seeds,
    size=st.integers(min_value=0, max_value=300),
    width=st.integers(min_value=1, max_value=120),
)
def test_dominance_prune_keeps_exactly_the_maximal_masks(seed, size, width):
    # sizes reach past _INDEX_FROM, so both of the prune's regimes are drawn
    assert _INDEX_FROM < 300
    group = random_mask_group(np.random.default_rng(seed), size, width)
    assert _prune_dominated(group) == maximal_masks(group)
