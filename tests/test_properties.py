"""Property tests: the fast paths against the naive oracles on drawn games.

Hypothesis draws only a seed; ``support.random_game`` turns it into a game,
so every example is reproducible from its seed. ``derandomize`` fixes the
drawn seeds, keeping the suite deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from support import random_game

from taskgrid import ProfileState, global_value, profile_values, utility

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=seeds)
def test_fast_paths_match_the_naive_oracles(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, max_robots=3, n_stations=2, profile_cap=400)
    plan = game.random_plan(rng)
    state = ProfileState(game, plan)
    for robot_id in game.robot_ids:
        assert state.utilities_over_actions(robot_id) == [
            utility(game, plan.replace(robot_id - 1, a), robot_id)
            for a in range(game.n_actions(robot_id))
        ]
    assert profile_values(game)[plan.action_ids] == global_value(game, plan)
