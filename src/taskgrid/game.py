"""The trajectory game: counters, total value, and marginal-contribution utilities.

Robots choose actions from per-station minimal action sets. A joint plan
induces, for every task, a counter vector: how many robots serve the task's
location at each window step. The global objective ``f`` sums the task values
of these counters. Each robot's utility is its marginal contribution: the
total value with the robot present minus the total value with it removed.
Unilateral utility changes then equal changes of ``f`` exactly, which makes
``f`` a potential for the game and is what the learning dynamics and the
equilibrium analysis rely on.

Module-level operations (``counters``, ``global_value``, ``utility``) are
deliberately naive recomputations used as oracles; ``ProfileState`` is the
incremental engine for learning and enumeration inner loops and is tested
against them.
"""

from dataclasses import dataclass

import numpy as np

from . import actions as actions_mod
from . import tasks as tasks_mod
from .errors import DomainError, ValidationError

PLAIN = "plain"
EXTENDED = "extended"


@dataclass(frozen=True)
class JointPlan:
    """One chosen action id per robot, aligned with the game's robot order."""

    action_ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "action_ids", tuple(self.action_ids))

    def replace(self, index, action_id):
        ids = list(self.action_ids)
        ids[index] = action_id
        return JointPlan(tuple(ids))


class GameInstance:
    """An immutable game: grid, horizon, stationed robots, tasks, action sets.

    Parameters
    ----------
    grid : Grid
    horizon : int
    robot_stations : sequence of int
        1-based station number per robot; robot ids are 1..n in this order.
    tasks : sequence of Task
    mode : str
        "auto" picks plain actions when no two tasks share a location with
        overlapping windows and extended actions otherwise; "plain" and
        "extended" force the choice ("plain" is rejected under overlap).
    """

    def __init__(
        self,
        grid,
        horizon,
        robot_stations,
        tasks,
        mode="auto",
        signature_budget=actions_mod.DEFAULT_SIGNATURE_BUDGET,
        extension_budget=actions_mod.DEFAULT_EXTENSION_BUDGET,
    ):
        if horizon < 1:
            raise ValidationError("horizon must be at least 1")
        self.grid = grid
        self.horizon = horizon
        self.robot_stations = tuple(int(s) for s in robot_stations)
        if not self.robot_stations:
            raise ValidationError("at least one robot is required")
        for s in self.robot_stations:
            grid.station(s)  # range check
        self.tasks = tuple(tasks)
        ids = [task.id for task in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValidationError("task ids must be unique")
        for i, task in enumerate(self.tasks):
            if not grid.is_feasible(task.location):
                raise ValidationError(
                    f"tasks[{i}] (id {task.id}): location {task.location} "
                    "is not a feasible cell"
                )
            if task.departure > horizon:
                raise ValidationError(
                    f"tasks[{i}] (id {task.id}): departure {task.departure} "
                    f"exceeds the horizon {horizon}"
                )
            if task.value.kind == "table":
                if not tasks_mod.validate_monotonicity(
                    task.value, task.window_length, len(self.robot_stations)
                ):
                    raise ValidationError(
                        f"tasks[{i}] (id {task.id}): table value function "
                        "is not monotone"
                    )

        overlaps = tasks_mod.check_no_overlap(self.tasks)
        if mode == "auto":
            mode = EXTENDED if overlaps else PLAIN
        elif mode == PLAIN and overlaps:
            pair = overlaps[0]
            raise ValidationError(
                f"plain mode is invalid: tasks {pair[0].id} and {pair[1].id} "
                f"share location {pair[0].location} with overlapping windows"
            )
        elif mode not in (PLAIN, EXTENDED):
            raise ValidationError(f"unknown mode {mode!r}")
        self.mode = mode

        self._task_index = {task.id: i for i, task in enumerate(self.tasks)}
        # action sets depend only on the station, so co-stationed robots share
        self.station_action_sets = {}
        self._station_actions = {}
        self._station_contribs = {}
        for number in sorted(set(self.robot_stations)):
            cell = grid.station(number)
            base = actions_mod.build_minimal_action_set(
                grid, cell, horizon, self.tasks, budget=signature_budget
            )
            self.station_action_sets[number] = base
            if mode == EXTENDED:
                acts = tuple(
                    actions_mod.extend_action_set(
                        base, self.tasks, budget=extension_budget
                    )
                )
            else:
                acts = base.trajectories
            self._station_actions[number] = acts
            self._station_contribs[number] = tuple(
                self._contributions(a) for a in acts
            )

    # -- structure --------------------------------------------------------

    @property
    def n_robots(self):
        return len(self.robot_stations)

    @property
    def robot_ids(self):
        return tuple(range(1, self.n_robots + 1))

    def robot_index(self, robot_id):
        if not 1 <= robot_id <= self.n_robots:
            raise DomainError(f"unknown robot id {robot_id}")
        return robot_id - 1

    def station_of(self, robot_id):
        return self.grid.station(self.robot_stations[self.robot_index(robot_id)])

    def actions_of(self, robot_id):
        """The robot's ordered actions (trajectories, or extended actions)."""
        return self._station_actions[self.robot_stations[self.robot_index(robot_id)]]

    def n_actions(self, robot_id):
        return len(self.actions_of(robot_id))

    def action_set_sizes(self):
        """Per-robot action-set sizes, aligned with robot ids."""
        return tuple(self.n_actions(i) for i in self.robot_ids)

    def trajectory_of(self, robot_id, action_id):
        action = self.actions_of(robot_id)[action_id]
        if self.mode == EXTENDED:
            return action.trajectory
        return action

    def contributions_of(self, robot_id, action_id):
        """Tuple of (task index, window-offset tuple) pairs for one action."""
        number = self.robot_stations[self.robot_index(robot_id)]
        return self._station_contribs[number][action_id]

    def _contributions(self, action):
        """Which counter entries an action increments, grouped by task."""
        if self.mode == EXTENDED:
            traj, commits = action.trajectory, action.commitments
        else:
            traj, commits = action, None
        per_task = {}
        for t in range(self.horizon):
            if traj[t] != traj[t + 1]:
                continue
            for j, task in enumerate(self.tasks):
                if task.location != traj[t] or not task.active_at(t):
                    continue
                if commits is not None and commits[t] != task.id:
                    continue
                per_task.setdefault(j, []).append(t - task.arrival)
        return tuple((j, tuple(offs)) for j, offs in sorted(per_task.items()))

    def validate_plan(self, plan):
        ids = plan.action_ids
        if len(ids) != self.n_robots:
            raise DomainError(
                f"plan has {len(ids)} actions for {self.n_robots} robots"
            )
        for robot_id, a in zip(self.robot_ids, ids):
            if not 0 <= a < self.n_actions(robot_id):
                raise DomainError(
                    f"robot {robot_id}: action id {a} outside "
                    f"0..{self.n_actions(robot_id) - 1}"
                )

    def random_plan(self, rng):
        """Uniform random action per robot, one draw per robot in id order."""
        return JointPlan(
            tuple(int(rng.integers(self.n_actions(i))) for i in self.robot_ids)
        )


# -- naive reference operations -------------------------------------------


def counters(game, plan, task, exclude_robot=None):
    """Counter vector of a task under a plan, one entry per window step.

    Entry ``t - arrival`` counts the robots whose trajectory stays at the
    task's location at time ``t`` (and, in extended mode, whose commitment
    at ``t`` names this task). ``exclude_robot`` removes one robot from
    every count, which realizes the plan-without-robot used by utilities.
    """
    game.validate_plan(plan)
    if task.id not in game._task_index:
        raise DomainError(f"task id {task.id} is not part of this game")
    vec = [0] * task.window_length
    for robot_id, action_id in zip(game.robot_ids, plan.action_ids):
        if robot_id == exclude_robot:
            continue
        action = game.actions_of(robot_id)[action_id]
        if game.mode == EXTENDED:
            traj, commits = action.trajectory, action.commitments
        else:
            traj, commits = action, None
        for t in range(task.arrival, min(task.departure, game.horizon)):
            if traj[t] != traj[t + 1] or traj[t] != task.location:
                continue
            if commits is not None and commits[t] != task.id:
                continue
            vec[t - task.arrival] += 1
    return tuple(vec)


def global_value(game, plan):
    """Total value of completed tasks under the plan (the potential)."""
    return sum(
        task.value.evaluate(counters(game, plan, task)) for task in game.tasks
    )


def utility(game, plan, robot_id):
    """Marginal contribution of a robot: value with it minus value without it."""
    total = 0
    for task in game.tasks:
        with_robot = task.value.evaluate(counters(game, plan, task))
        without = task.value.evaluate(
            counters(game, plan, task, exclude_robot=robot_id)
        )
        total += with_robot - without
    return total


def local_tasks(game, robot_id):
    """Tasks the robot can serve for at least one step and return in time.

    A task qualifies iff the station-to-location distance is strictly less
    than half the horizon; the comparison ``2 * dist < horizon`` stays in
    integers.
    """
    station = game.station_of(robot_id)
    dist = game.grid.distances_from(station)
    out = set()
    for task in game.tasks:
        d = dist.get(task.location)
        if d is not None and 2 * d < game.horizon:
            out.add(task)
    return out


def local_robots(game, robot_id):
    """Ids of robots sharing at least one reachable task with this robot."""
    mine = {task.id for task in local_tasks(game, robot_id)}
    out = set()
    for other in game.robot_ids:
        theirs = {task.id for task in local_tasks(game, other)}
        if mine & theirs:
            out.add(other)
    return out


def verify_potential_identity(game, samples, seed):
    """Check that unilateral utility changes equal global-value changes.

    Draws ``samples`` random (plan, robot, alternative action) triples and
    compares the utility difference with the ``f`` difference in exact
    integer arithmetic. Returns True iff every sample agrees.
    """
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        plan = game.random_plan(rng)
        robot_id = int(rng.integers(game.n_robots)) + 1
        alt = int(rng.integers(game.n_actions(robot_id)))
        alt_plan = plan.replace(game.robot_index(robot_id), alt)
        du = utility(game, alt_plan, robot_id) - utility(game, plan, robot_id)
        df = global_value(game, alt_plan) - global_value(game, plan)
        if du != df:
            return False
    return True


# -- incremental engine ----------------------------------------------------


class ProfileState:
    """Mutable counters and values for one joint plan.

    Supports the two operations the learning loops need: evaluate the
    utilities of every action of one robot against the fixed rest of the
    plan, and switch one robot's action. All arithmetic is on Python ints,
    so equalities are exact.
    """

    def __init__(self, game, plan):
        game.validate_plan(plan)
        self.game = game
        self.action_ids = list(plan.action_ids)
        self.counters = [[0] * task.window_length for task in game.tasks]
        for robot_id, action_id in zip(game.robot_ids, self.action_ids):
            for j, offsets in game.contributions_of(robot_id, action_id):
                row = self.counters[j]
                for o in offsets:
                    row[o] += 1
        self.values = [
            task.value.evaluate(row)
            for task, row in zip(game.tasks, self.counters)
        ]
        self.total = sum(self.values)

    def plan(self):
        return JointPlan(tuple(self.action_ids))

    def global_value(self):
        return self.total

    def _apply(self, contribs, step):
        for j, offsets in contribs:
            row = self.counters[j]
            for o in offsets:
                row[o] += step

    def utilities_over_actions(self, robot_id):
        """Utility of every action of ``robot_id`` given the others' actions."""
        game = self.game
        current = self.action_ids[game.robot_index(robot_id)]
        cur_contribs = game.contributions_of(robot_id, current)
        self._apply(cur_contribs, -1)  # counters now exclude this robot
        # only the tasks the current action serves lost counts
        base = list(self.values)
        for j, _ in cur_contribs:
            base[j] = game.tasks[j].value.evaluate(self.counters[j])

        utilities = []
        for action_id in range(game.n_actions(robot_id)):
            contribs = game.contributions_of(robot_id, action_id)
            u = 0
            for j, offsets in contribs:
                row = self.counters[j]
                for o in offsets:
                    row[o] += 1
                u += game.tasks[j].value.evaluate(row) - base[j]
                for o in offsets:
                    row[o] -= 1
            utilities.append(u)
        self._apply(cur_contribs, +1)
        return utilities

    def switch(self, robot_id, action_id):
        """Set one robot's action, updating counters and total incrementally."""
        game = self.game
        idx = game.robot_index(robot_id)
        old = self.action_ids[idx]
        if action_id == old:
            return
        old_contribs = game.contributions_of(robot_id, old)
        new_contribs = game.contributions_of(robot_id, action_id)
        touched = {j for j, _ in old_contribs} | {j for j, _ in new_contribs}
        self._apply(old_contribs, -1)
        self._apply(new_contribs, +1)
        for j in touched:
            v = game.tasks[j].value.evaluate(self.counters[j])
            self.total += v - self.values[j]
            self.values[j] = v
        self.action_ids[idx] = action_id
