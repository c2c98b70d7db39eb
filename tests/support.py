"""Deterministic random-instance generation shared across test modules.

All generators draw from a caller-provided numpy Generator, so identical
seeds reproduce identical instances. Tasks are placed at distinct locations,
which keeps every generated game in plain mode.
"""

import numpy as np

from taskgrid import GameInstance, Grid, Task, ValueFunction
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


def random_value(rng, simple_only=False, max_value=5):
    v = int(rng.integers(1, max_value + 1))
    if simple_only:
        return ValueFunction.simple(v)
    kind = int(rng.integers(4))
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
):
    """A random plain-mode game whose joint action space fits ``profile_cap``."""
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
        for tid, i in enumerate(order[:m], start=1):
            arrival = int(rng.integers(0, horizon))
            departure = int(rng.integers(arrival + 1, horizon + 1))
            tasks.append(
                Task(
                    tid,
                    cells[i],
                    arrival,
                    departure,
                    random_value(rng, simple_only=simple_only),
                )
            )
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
