import hashlib
import re

import numpy as np
import pytest
from support import random_game

from taskgrid import (
    BudgetExceededError,
    DomainError,
    Grid,
    Task,
    ValueFunction,
    build_minimal_action_set,
    enumerate_feasible_trajectories,
    extend_action_set,
    service_times,
    signature,
    theta,
    verify_cover,
)
from taskgrid.actions import achievable_signatures


@pytest.fixture(scope="module")
def small():
    """One station, three one-step-away tasks, horizon 3."""
    grid = Grid(3, 3, stations=[(2, 2)])
    vf = ValueFunction.simple(1)
    tasks = (
        Task(1, (1, 1), 0, 3, vf),
        Task(2, (1, 2), 0, 3, vf),
        Task(3, (1, 3), 0, 3, ValueFunction.threshold_max(10, 2)),
    )
    return grid, tasks


class TestSignatures:
    def test_service_times_counts_stays_in_active_windows(self, scenarios):
        sc = scenarios["example_1.json"]
        traj = ((2, 2), (3, 3), (3, 3), (3, 3), (3, 3), (3, 3), (2, 2))
        assert service_times(traj, sc.tasks) == {1, 2, 3, 4}
        side = ((4, 5), (3, 4), (3, 3), (3, 3), (3, 3), (3, 4), (4, 5))
        assert service_times(side, sc.tasks) == {2, 3}

    def test_signature_pairs_time_with_location(self, scenarios):
        sc = scenarios["example_1.json"]
        side = ((4, 5), (3, 4), (3, 3), (3, 3), (3, 3), (3, 4), (4, 5))
        assert signature(side, sc.tasks) == frozenset({(2, (3, 3)), (3, (3, 3))})

    def test_moves_and_inactive_windows_do_not_serve(self):
        task = Task(1, (2, 2), 2, 4, ValueFunction.simple(1))
        grid_traj = ((2, 2), (2, 2), (3, 3), (2, 2), (2, 2))
        # stay at t=0 precedes the window; stay at t=3 is inside it
        assert service_times(grid_traj, [task]) == {3}

    def test_theta_lists_servable_task_ids(self, scenarios):
        sc = scenarios["example_2.json"]
        traj = ((2, 2), (3, 3), (3, 3), (3, 3), (2, 2))
        assert theta(traj, sc.tasks, 0) == set()
        assert theta(traj, sc.tasks, 1) == {1}
        assert theta(traj, sc.tasks, 2) == {1, 2}
        assert theta(traj, sc.tasks, 3) == set()
        with pytest.raises(DomainError):
            theta(traj, sc.tasks, 4)

    @pytest.mark.parametrize("t", [True, 1.5, "1"])
    def test_theta_step_follows_the_integer_rule(self, scenarios, t):
        sc = scenarios["example_2.json"]
        traj = ((2, 2), (3, 3), (3, 3), (3, 3), (2, 2))
        with pytest.raises(DomainError, match=rf"^time step {re.escape(repr(t))} outside"):
            theta(traj, sc.tasks, t)
        assert theta(traj, sc.tasks, np.int64(2)) == {1, 2}


class TestConstruction:
    def test_one_action_per_maximal_signature(self, small):
        grid, tasks = small
        actions = build_minimal_action_set(grid, (2, 2), 3, tasks)
        assert len(actions) == 3
        # horizon 3 from distance 1 allows exactly one stay, at t=1
        assert set(actions.signatures) == {
            frozenset({(1, (1, 1))}),
            frozenset({(1, (1, 2))}),
            frozenset({(1, (1, 3))}),
        }

    def test_signatures_form_an_antichain(self, all_games):
        for game in all_games.values():
            for actions in game.station_action_sets.values():
                sigs = actions.signatures
                for i, a in enumerate(sigs):
                    for j, b in enumerate(sigs):
                        assert i == j or not a <= b

    def test_degenerate_set_stays_at_the_station(self):
        grid = Grid(5, 1, stations=[(1, 1)])
        far = (Task(1, (5, 1), 0, 2, ValueFunction.simple(1)),)
        actions = build_minimal_action_set(grid, (1, 1), 2, far)
        assert actions.trajectories == (((1, 1), (1, 1), (1, 1)),)
        assert actions.signatures == (frozenset(),)

    def test_construction_is_deterministic(self, small):
        grid, tasks = small
        a = build_minimal_action_set(grid, (2, 2), 3, tasks)
        b = build_minimal_action_set(grid, (2, 2), 3, tasks)
        assert a == b

    def test_trajectories_are_lexicographically_smallest_realizers(self, small):
        grid, tasks = small
        cases = [(grid, (2, 2), 3, tasks)]
        rng = np.random.default_rng(17)
        for _ in range(12):
            game = random_game(rng, max_tasks=5, max_horizon=6, n_stations=2)
            for number in sorted(set(game.robot_stations)):
                cell = game.grid.station(number)
                cases.append((game.grid, cell, game.horizon, game.tasks))
        for grid, station, horizon, tasks in cases:
            actions = build_minimal_action_set(grid, station, horizon, tasks)
            by_signature = {}
            for traj in enumerate_feasible_trajectories(grid, station, horizon):
                by_signature.setdefault(signature(traj, tasks), []).append(traj)
            for traj, sig in zip(actions.trajectories, actions.signatures):
                if sig:
                    assert traj == min(by_signature[sig])
                else:  # nothing servable: the set is the stay-at-station action
                    assert traj == (station,) * (horizon + 1)

    def test_signature_budget_enforced(self, scenarios):
        sc = scenarios["case_study_1.json"]
        with pytest.raises(BudgetExceededError):
            achievable_signatures(sc.grid, (2, 2), 8, sc.tasks, budget=5)

    def test_signature_budget_counts_each_pruned_frontier(self, scenarios):
        # the budget counts the states of each step's pruned frontier, so the
        # prune must keep the same set at every step, not only at the end;
        # steps 6 and 7 prune groups of more than _INDEX_FROM masks
        sc = scenarios["case_study_2.json"]
        station = sc.grid.station(1)
        sizes = [9, 12, 41, 105, 292, 758, 1753]
        for step, size in enumerate(sizes, start=1):
            with pytest.raises(BudgetExceededError, match=f"at step {step},") as info:
                achievable_signatures(sc.grid, station, 8, sc.tasks, budget=size - 1)
            assert info.value.size == size
        masks, _ = achievable_signatures(sc.grid, station, 8, sc.tasks, budget=1753)
        assert len(masks - {0}) == 586


class TestCoverAndMinimality:
    def test_cover_on_small_instances(self, small):
        grid, tasks = small
        actions = build_minimal_action_set(grid, (2, 2), 3, tasks)
        assert verify_cover(actions, grid, (2, 2), 3, tasks)

    def test_removing_any_action_breaks_the_cover(self, small):
        grid, tasks = small
        actions = build_minimal_action_set(grid, (2, 2), 3, tasks)
        for drop in range(len(actions)):
            pruned = type(actions)(
                station=actions.station,
                horizon=actions.horizon,
                trajectories=tuple(
                    t for i, t in enumerate(actions.trajectories) if i != drop
                ),
                signatures=tuple(
                    s for i, s in enumerate(actions.signatures) if i != drop
                ),
            )
            assert not verify_cover(pruned, grid, (2, 2), 3, tasks)

    def test_cover_on_a_mixed_task_mix(self):
        grid = Grid(4, 3, obstacles=[(2, 2)], stations=[(1, 1)])
        tasks = (
            Task(1, (3, 1), 1, 4, ValueFunction.threshold_sum(2, 2)),
            Task(2, (1, 3), 0, 5, ValueFunction.simple(1)),
            Task(3, (4, 2), 2, 4, ValueFunction.threshold_max(3, 2)),
        )
        actions = build_minimal_action_set(grid, (1, 1), 5, tasks)
        assert verify_cover(actions, grid, (1, 1), 5, tasks)
        for traj in actions.trajectories:
            assert traj[0] == (1, 1) and traj[-1] == (1, 1)


class TestFrozenSizes:
    def test_first_case_study_sizes(self, games):
        assert games["case_study_1.json"].action_set_sizes() == (
            30, 30, 30, 30, 15, 15, 15, 15, 19, 19
        )

    def test_second_case_study_sizes(self, games):
        assert games["case_study_2.json"].action_set_sizes() == (
            586, 586, 586, 586, 302, 302, 302, 302, 132, 132
        )

    def test_second_case_study_action_sets(self, games):
        # equal sizes alone would not catch a prune that keeps the wrong masks
        digests = {}
        for number, actions in games["case_study_2.json"].station_action_sets.items():
            signatures = tuple(tuple(sorted(sig)) for sig in actions.signatures)
            blob = repr((signatures, actions.trajectories)).encode()
            digests[number] = hashlib.sha256(blob).hexdigest()
        assert digests == {
            1: "034293ec817e1f7ef0c71978436c6c405a2fb8013ae6c38873947a7ca5be3263",
            2: "ed3c685c9a861947eccf2ff78c3ccc61786c4474b53b15a56be317ccd51356f6",
            3: "641b336e641834c0299f0abe2bad214c96c9158963a2010080b6106473d63524",
        }

    def test_ten_task_prefix_sizes(self, scenarios):
        sc = scenarios["case_study_2.json"]
        sizes = [
            len(build_minimal_action_set(sc.grid, sc.grid.station(k), 8, sc.tasks[:10]))
            for k in (1, 2, 3)
        ]
        assert sizes == [52, 35, 26]

    def test_episode_sizes(self, episode_games):
        sizes = {
            name: game.action_set_sizes() for name, game in episode_games.items()
        }
        assert sizes == {
            "episode-1": (8, 6, 6),
            "episode-2": (1, 6, 14),
            "episode-3": (12, 5, 1),
            "episode-4": (6, 6, 13),
            "episode-5": (8, 6, 2),
        }


class TestExtension:
    def test_overlap_splits_into_commitments(self, scenarios):
        sc = scenarios["example_2.json"]
        base = build_minimal_action_set(sc.grid, (2, 2), 4, sc.tasks)
        assert base.trajectories == (
            ((2, 2), (3, 3), (3, 3), (3, 3), (2, 2)),
        )
        extended = extend_action_set(base, sc.tasks)
        assert [(a.trajectory, a.commitments) for a in extended] == [
            (base.trajectories[0], (None, 1, 1, None)),
            (base.trajectories[0], (None, 1, 2, None)),
        ]

    def test_extension_is_identity_sized_without_overlap(self, small):
        grid, tasks = small
        base = build_minimal_action_set(grid, (2, 2), 3, tasks)
        extended = extend_action_set(base, tasks)
        assert len(extended) == len(base)
        for action, traj in zip(extended, base.trajectories):
            assert action.trajectory == traj
            served = [c for c in action.commitments if c is not None]
            assert len(served) == 1

    def test_extension_budget_enforced(self, scenarios):
        sc = scenarios["example_2.json"]
        base = build_minimal_action_set(sc.grid, (2, 2), 4, sc.tasks)
        with pytest.raises(BudgetExceededError):
            extend_action_set(base, sc.tasks, budget=1)
