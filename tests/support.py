"""Deterministic random-instance generation shared across test modules.

All generators draw from a caller-provided numpy Generator, so identical
seeds reproduce identical instances. Tasks are placed at distinct locations,
which keeps a generated game in plain mode unless ``overlap_and_tables``
adds a task sharing a location and part of a window with another.
"""

from itertools import product

import numpy as np

from taskgrid import GameInstance, Grid, Task, ValueFunction, counters
from taskgrid.analysis import _walk_profiles
from taskgrid.errors import BudgetExceededError


def random_grid(rng, max_side=5, obstacle_rate=0.2, n_stations=1):
    width = int(rng.integers(2, max_side + 1))
    height = int(rng.integers(2, max_side + 1))
    cells = [
        (x, y) for x in range(1, width + 1) for y in range(1, height + 1)
    ]
    order = [int(i) for i in rng.permutation(len(cells))]
    stations = [cells[i] for i in order[:n_stations]]
    obstacles = [
        cells[i]
        for i in order[n_stations:]
        if rng.random() < obstacle_rate
    ]
    return Grid(width, height, obstacles=obstacles, stations=stations)


def random_table(rng, window_length, robot_cap, max_value):
    """A monotone table: the weighted robot count, capped at ``max_value``.

    Half the draws list every counter up to ``robot_cap``; the others list
    only the counters worth less than ``max_value``, which is the default.
    """
    weights = [int(w) for w in rng.integers(0, 3, size=window_length)]
    with_default = bool(rng.random() < 0.5)
    entries = []
    for counter in product(range(robot_cap + 1), repeat=window_length):
        value = min(max_value, sum(w * c for w, c in zip(weights, counter)))
        if not (with_default and value == max_value):
            entries.append((counter, value))
    return ValueFunction.table(
        entries, max_value, default=max_value if with_default else None
    )


def random_value(rng, simple_only=False, max_value=5, table_shape=None):
    """A random value function.

    ``table_shape``, a (window length, robot cap) pair, adds monotone tables
    to the kinds drawn; without it no table is drawn and the other kinds
    take the same draws.
    """
    v = int(rng.integers(1, max_value + 1))
    if simple_only:
        return ValueFunction.simple(v)
    kind = int(rng.integers(4 if table_shape is None else 5))
    if kind == 4:
        return random_table(rng, *table_shape, v)
    if kind == 0:
        return ValueFunction.simple(v)
    if kind == 1:
        return ValueFunction.threshold_max(v, int(rng.integers(1, 3)))
    if kind == 2:
        return ValueFunction.threshold_sum(v, int(rng.integers(1, 4)))
    return ValueFunction.sequential_heavy_light(
        v, int(rng.integers(1, 3)), int(rng.integers(1, 3))
    )


def random_game(
    rng,
    max_side=5,
    max_robots=2,
    max_tasks=3,
    max_horizon=5,
    n_stations=1,
    simple_only=False,
    profile_cap=20_000,
    max_attempts=50,
    obstacle_rate=0.2,
    overlap_and_tables=False,
):
    """A random game whose joint action space fits ``profile_cap``.

    ``overlap_and_tables`` adds one more task at a drawn task's location
    with an overlapping window, which puts the game in extended mode, and
    adds monotone ``table`` values to the value kinds drawn. Without it the
    game is in plain mode and the draws are unchanged.
    """
    for _ in range(max_attempts):
        grid = random_grid(
            rng, max_side=max_side, obstacle_rate=obstacle_rate, n_stations=n_stations
        )
        horizon = int(rng.integers(2, max_horizon + 1))
        n_robots = int(rng.integers(1, max_robots + 1))
        robots = [
            int(rng.integers(1, len(grid.stations) + 1)) for _ in range(n_robots)
        ]
        cells = list(grid.feasible_cells)
        m = min(int(rng.integers(1, max_tasks + 1)), len(cells) - 1)
        order = [int(i) for i in rng.permutation(len(cells))]
        tasks = []
        locations = [cells[i] for i in order[:m]]
        if overlap_and_tables and m:
            locations.append(locations[int(rng.integers(m))])
        for tid, location in enumerate(locations, start=1):
            if tid > m:  # the overlap task opens inside the shared task's window
                shared = tasks[locations.index(location)]
                arrival = int(rng.integers(shared.arrival, shared.departure))
            else:
                arrival = int(rng.integers(0, horizon))
            departure = int(rng.integers(arrival + 1, horizon + 1))
            shape = (departure - arrival, n_robots) if overlap_and_tables else None
            value = random_value(rng, simple_only=simple_only, table_shape=shape)
            tasks.append(Task(tid, location, arrival, departure, value))
        try:
            game = GameInstance(grid, horizon, robots, tasks)
        except BudgetExceededError:
            continue
        size = 1
        for s in game.action_set_sizes():
            size *= s
        if size <= profile_cap:
            return game
    raise AssertionError("random_game could not produce an instance in budget")


def random_plan_walk(rng, game, steps):
    """A deterministic sequence of (robot_id, action_id) switch moves."""
    moves = []
    for _ in range(steps):
        robot_id = int(rng.integers(game.n_robots)) + 1
        moves.append((robot_id, int(rng.integers(game.n_actions(robot_id)))))
    return moves


def assert_contributions_are_counter_differences(game, rng):
    """Each action's contributions equal the counters its robot adds.

    For the first robot of every station and each of its actions, against
    a random rest of the plan: ``counters(plan) - counters(plan, robot
    excluded)`` is 1 at exactly the window offsets that
    ``contributions_of`` lists for the task, and 0 elsewhere.
    """
    plan = game.random_plan(rng)
    first = {}
    for robot_id, number in zip(game.robot_ids, game.robot_stations):
        first.setdefault(number, robot_id)
    for robot_id in first.values():
        for action_id in range(game.n_actions(robot_id)):
            chosen = plan.replace(robot_id - 1, action_id)
            offsets = dict(game.contributions_of(robot_id, action_id))
            for j, task in enumerate(game.tasks):
                want = [0] * task.window_length
                for o in offsets.get(j, ()):
                    want[o] += 1
                with_robot = counters(game, chosen, task)
                without = counters(game, chosen, task, exclude_robot=robot_id)
                got = [a - b for a, b in zip(with_robot, without)]
                assert got == want, (robot_id, action_id, task.id)


def maximal_masks(group):
    """The masks of ``group`` that no other mask of it contains.

    The definition-level oracle for ``actions._prune_dominated``; it shares
    no code with either of that function's regimes.
    """
    return {m for m in group if not any(m != k and m & k == m for k in group)}


def random_mask_group(rng, size, width):
    """A set of at most ``size + 1`` bitmasks over ``width`` bits.

    The union of a few antichains (distinct masks of one popcount each)
    with loose masks: subsets of drawn masks, which a prune must drop,
    masks of a random density, and, in half the draws, the empty mask.
    """

    def of_popcount(bits):
        return sum(1 << int(i) for i in rng.choice(width, size=bits, replace=False))

    n_chains = int(rng.integers(1, 5))
    n_loose = int(rng.integers(0, size + 1)) // 2
    drawn = []
    for c in range(n_chains):
        bits = int(rng.integers(0, width + 1))
        share = (size - n_loose) // n_chains + (c < (size - n_loose) % n_chains)
        drawn.extend(of_popcount(bits) for _ in range(share))
    for _ in range(n_loose):
        if drawn and rng.random() < 0.5:
            drawn.append(drawn[int(rng.integers(len(drawn)))] & of_popcount(width // 2))
        else:
            density = rng.random()
            drawn.append(sum(1 << i for i in range(width) if rng.random() < density))
    if rng.random() < 0.5:
        drawn.append(0)
    return set(drawn)


def walk_values(game):
    """Global value of every joint plan, read from one ProfileState walk.

    The oracle for ``profile_values``: it visits every plan in C order by
    unilateral switches and reads the state's incremental total.
    """
    shape = game.action_set_sizes()
    values = np.empty(shape, dtype=np.int64)
    for ids, state in _walk_profiles(game, shape):
        values[tuple(ids)] = state.global_value()
    return values
