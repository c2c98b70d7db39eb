import re

import numpy as np
import pytest

from taskgrid import (
    BudgetExceededError,
    DomainError,
    Grid,
    ValidationError,
    count_feasible_trajectories,
    enumerate_feasible_trajectories,
    is_feasible_trajectory,
    trajectory_issue,
)
from taskgrid.actions import achievable_signatures

OBSTACLES = [
    (1, 5), (2, 4), (2, 5), (4, 2), (4, 3),
    (4, 4), (5, 3), (5, 4), (6, 1), (7, 1),
]
STATIONS = [(2, 2), (6, 3), (4, 5)]


@pytest.fixture(scope="module")
def env():
    return Grid(7, 5, obstacles=OBSTACLES, stations=STATIONS)


class TestGridConstruction:
    def test_dimensions_must_be_positive_integers(self):
        with pytest.raises(ValidationError):
            Grid(0, 3)
        with pytest.raises(ValidationError):
            Grid(3, -1)
        with pytest.raises(ValidationError):
            Grid(3.0, 3)

    def test_obstacle_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError, match="out of bounds"):
            Grid(3, 3, obstacles=[(4, 1)])

    def test_station_on_obstacle_rejected(self):
        with pytest.raises(ValidationError, match="obstacle"):
            Grid(3, 3, obstacles=[(2, 2)], stations=[(2, 2)])

    def test_station_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError, match="out of bounds"):
            Grid(3, 3, stations=[(0, 1)])

    def test_duplicate_stations_rejected(self):
        with pytest.raises(ValidationError, match="duplicated"):
            Grid(3, 3, stations=[(1, 1), (1, 1)])

    def test_bool_dimension_rejected(self):
        with pytest.raises(ValidationError, match=r"^width: must be an integer"):
            Grid(True, 3)
        with pytest.raises(ValidationError, match=r"^height: must be an integer"):
            Grid(3, False)

    @pytest.mark.parametrize(
        "cell", [(1.5, 1), (1, 1, 1), "ab", (True, 1)], ids=repr
    )
    def test_station_that_is_not_an_integer_pair_rejected(self, cell):
        message = r"stations\[1\]: expected an \(x, y\) integer pair"
        with pytest.raises(ValidationError, match=message):
            Grid(3, 3, stations=[(1, 1), cell])

    def test_obstacle_that_is_not_an_integer_pair_rejected(self):
        message = r"obstacles\[0\]: expected an \(x, y\) integer pair"
        with pytest.raises(ValidationError, match=message):
            Grid(3, 3, obstacles=[(2.5, 2)])

    def test_list_cells_are_stored_as_tuples(self):
        grid = Grid(3, 3, obstacles=[[2, 2]], stations=[[1, 1]])
        assert grid.obstacles == {(2, 2)}
        assert grid.stations == ((1, 1),)

    def test_equality_and_hash(self):
        a = Grid(3, 3, obstacles=[(2, 2)], stations=[(1, 1)])
        b = Grid(3, 3, obstacles=[(2, 2)], stations=[(1, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Grid(3, 3, stations=[(1, 1)])


class TestNeighborhood:
    def test_interior_cell_has_nine_neighbors_including_self(self, env):
        assert env.neighbors((2, 2)) == (
            (1, 1), (1, 2), (1, 3),
            (2, 1), (2, 2), (2, 3),
            (3, 1), (3, 2), (3, 3),
        )

    def test_corner_cell(self):
        grid = Grid(3, 3)
        assert grid.neighbors((1, 1)) == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_obstacles_removed_from_neighborhood(self, env):
        assert env.neighbors((5, 2)) == (
            (4, 1), (5, 1), (5, 2), (6, 2), (6, 3)
        )

    def test_neighbors_of_infeasible_cell_raises(self, env):
        with pytest.raises(DomainError):
            env.neighbors((4, 2))
        with pytest.raises(DomainError):
            env.neighbors((8, 1))

    def test_feasible_cells_sorted_and_complete(self, env):
        cells = env.feasible_cells
        assert list(cells) == sorted(cells)
        assert len(cells) == 7 * 5 - len(OBSTACLES)
        assert not set(OBSTACLES) & set(cells)

    def test_station_lookup_is_one_based(self, env):
        assert env.station(1) == (2, 2)
        assert env.station(3) == (4, 5)
        with pytest.raises(DomainError):
            env.station(0)
        with pytest.raises(DomainError):
            env.station(4)

    @pytest.mark.parametrize("number", [True, 1.5, "1", None])
    def test_station_number_follows_the_integer_rule(self, env, number):
        with pytest.raises(
            DomainError, match=rf"^station number {re.escape(repr(number))} out of range"
        ):
            env.station(number)

    def test_numpy_station_numbers_are_accepted(self, env):
        assert env.station(np.int64(2)) == env.station(2) == (6, 3)


class TestDistances:
    def test_open_grid_distance_is_chebyshev(self):
        grid = Grid(4, 4)
        assert grid.distance((1, 1), (4, 4)) == 3
        assert grid.distance((1, 1), (1, 4)) == 3
        assert grid.distance((2, 2), (2, 2)) == 0

    def test_obstacles_force_detours(self, env):
        # Chebyshev lower bounds are 4, 3, 2; the wall stretches the last one
        assert env.distance((2, 2), (6, 3)) == 4
        assert env.distance((2, 2), (4, 5)) == 3
        assert env.distance((6, 3), (4, 5)) == 3

    def test_unreachable_cell_has_no_distance(self):
        grid = Grid(3, 1, obstacles=[(2, 1)])
        assert grid.distance((1, 1), (3, 1)) is None
        assert (3, 1) not in grid.distances_from((1, 1))

    def test_triangle_inequality(self, env):
        rng = np.random.default_rng(4)
        cells = env.feasible_cells
        for _ in range(200):
            a, b, c = (cells[int(i)] for i in rng.integers(len(cells), size=3))
            assert env.distance(a, c) <= env.distance(a, b) + env.distance(b, c)

    def test_distances_from_infeasible_cell_raises(self, env):
        with pytest.raises(DomainError):
            env.distances_from((4, 3))


class TestTrajectoryChecks:
    def test_valid_trajectory(self, env):
        traj = ((2, 2), (3, 3), (3, 3), (2, 2))
        assert trajectory_issue(env, (2, 2), traj) is None
        assert is_feasible_trajectory(env, (2, 2), traj)

    def test_too_short(self, env):
        assert "too short" in trajectory_issue(env, (2, 2), ((2, 2),))

    def test_wrong_start(self, env):
        issue = trajectory_issue(env, (2, 2), ((3, 3), (2, 2), (2, 2)))
        assert "starts at" in issue

    def test_wrong_end(self, env):
        issue = trajectory_issue(env, (2, 2), ((2, 2), (2, 2), (3, 3)))
        assert "ends at" in issue

    def test_infeasible_cell(self, env):
        issue = trajectory_issue(env, (2, 2), ((2, 2), (4, 2), (2, 2)))
        assert "not a feasible cell" in issue

    def test_illegal_step(self, env):
        issue = trajectory_issue(env, (2, 2), ((2, 2), (5, 5), (2, 2)))
        assert "not a one-step move" in issue


class TestCounting:
    def test_horizon_one_forces_the_stay(self):
        grid = Grid(3, 3, stations=[(2, 2)])
        assert count_feasible_trajectories(grid, (2, 2), 1) == 1
        assert list(enumerate_feasible_trajectories(grid, (2, 2), 1)) == [
            ((2, 2), (2, 2))
        ]

    def test_horizon_two_interior(self):
        # out and back: any of the 9 neighbors works as the midpoint
        grid = Grid(3, 3)
        assert count_feasible_trajectories(grid, (2, 2), 2) == 9

    def test_count_matches_enumeration_on_random_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            width = int(rng.integers(2, 5))
            height = int(rng.integers(2, 5))
            cells = [
                (x, y)
                for x in range(1, width + 1)
                for y in range(1, height + 1)
            ]
            station = cells[int(rng.integers(len(cells)))]
            obstacles = [
                c
                for c in cells
                if c != station and rng.random() < 0.2
            ]
            grid = Grid(width, height, obstacles=obstacles)
            horizon = int(rng.integers(1, 5))
            count = count_feasible_trajectories(grid, station, horizon)
            assert count == sum(
                1 for _ in enumerate_feasible_trajectories(grid, station, horizon)
            )

    def test_counts_on_the_shipping_environment(self, env):
        counts = [
            count_feasible_trajectories(env, env.station(k), 8) for k in (1, 2, 3)
        ]
        assert counts == [405417, 161708, 9254]

    def test_domain_errors(self, env):
        with pytest.raises(DomainError):
            count_feasible_trajectories(env, (4, 2), 3)
        with pytest.raises(DomainError):
            count_feasible_trajectories(env, (2, 2), 0)
        with pytest.raises(DomainError):
            list(enumerate_feasible_trajectories(env, (2, 2), 0))


    @pytest.mark.parametrize(
        "space",
        [
            count_feasible_trajectories,
            lambda grid, station, horizon: list(
                enumerate_feasible_trajectories(grid, station, horizon)
            ),
            # checked on the call, not on the first draw
            enumerate_feasible_trajectories,
            lambda grid, station, horizon: achievable_signatures(
                grid, station, horizon, ()
            ),
        ],
        ids=["count", "enumerate", "enumerate-unconsumed", "signatures"],
    )
    @pytest.mark.parametrize(
        "station, horizon, field",
        [
            ((2, 2), 2.5, "horizon"),
            ((2, 2), True, "horizon"),
            ((2, 2), "3", "horizon"),
            ((1.5, 1), 3, "station"),
            ((True, 1), 3, "station"),
            ((1,), 3, "station"),
        ],
        ids=repr,
    )
    def test_one_start_rule_for_the_trajectory_space(
        self, env, space, station, horizon, field
    ):
        with pytest.raises(DomainError, match=f"^{field} "):
            space(env, station, horizon)


class TestEnumeration:
    def test_lexicographic_order(self):
        grid = Grid(3, 3, obstacles=[(3, 1)])
        trajectories = list(enumerate_feasible_trajectories(grid, (2, 2), 3))
        assert trajectories == sorted(trajectories)
        assert len(trajectories) == len(set(trajectories))

    def test_every_yield_is_feasible(self):
        grid = Grid(3, 3, obstacles=[(3, 1)])
        for traj in enumerate_feasible_trajectories(grid, (2, 2), 3):
            assert is_feasible_trajectory(grid, (2, 2), traj)

    def test_budget_enforced(self):
        grid = Grid(3, 3)
        count = count_feasible_trajectories(grid, (2, 2), 3)
        assert (
            len(list(enumerate_feasible_trajectories(grid, (2, 2), 3, budget=count)))
            == count
        )
        with pytest.raises(BudgetExceededError):
            list(enumerate_feasible_trajectories(grid, (2, 2), 3, budget=count - 1))
