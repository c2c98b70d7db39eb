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

The engine holds each task's counter as one Python int, its code: entry
``o`` of the counter is digit ``o``, ``8 * w`` bits wide, where ``w`` is the
fewest of 1, 2, 4 or 8 bytes with ``n_robots < 256**w``. No entry exceeds
``n_robots``, which is below the digit base, so the sum of two codes whose
counters sum to a counter of at most ``n_robots`` robots never carries from
one digit into the next: adding or subtracting codes adds or subtracts the
counters. The game states what each action adds once, as its moves: the
``(task index, counter code)`` pairs of the tasks it serves, built with the
action sets. A robot's service is added or removed with one int operation
per task. A code decodes in one step, ``struct.unpack`` of its
little-endian bytes (``GameInstance._decode``).

The engine reads task values through one memo per task of the profile
state, a dict from counter code to value, filled on first use by
``ValueFunction.evaluate`` on the decoded counter and dropped with the
state; the oracles call ``evaluate`` directly and never read it. The kernel
reads the station's table of the distinct moves of its actions: a call
prices each once, as the value gain of adding its code to the code without
the robot, and sums each action's gains over its moves with one gather.
Gains are non-negative (values are monotone) and the ``max_value`` sum is
below 2**63, so the int64 sums are exact.
"""

import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from . import actions as actions_mod
from . import tasks as tasks_mod
from .errors import DomainError, ValidationError
from .grid import _as_integer

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


def _check_setup(grid, horizon, robot_stations, tasks):
    """The rules that tie a game's inputs together, each naming the scenario field.

    ``Grid``, ``Task`` and ``ValueFunction`` check their own fields. Scenario
    files, episode suites and ``GameInstance`` all call this (a suite through
    its two halves), so one bad input fails with one ``ValidationError``
    whichever way it arrives.
    """
    _check_frame(grid, horizon, robot_stations)
    _check_tasks(grid, horizon, len(robot_stations), tasks)


def _check_frame(grid, horizon, robot_stations, where="scenario"):
    """The horizon and robot rules; ``where`` names the object holding both."""
    if _as_integer(horizon) is None:
        raise ValidationError(f"{where}.horizon: must be an integer")
    if horizon < 1:
        raise ValidationError(f"{where}.horizon: must be at least 1")
    if not robot_stations:
        raise ValidationError(f"{where}.robots: at least one robot required")
    n_stations = len(grid.stations)
    for i, s in enumerate(robot_stations):
        if _as_integer(s) is None:
            raise ValidationError(f"{where}.robots[{i}]: expected a station number")
        if not 1 <= s <= n_stations:
            raise ValidationError(
                f"{where}.robots[{i}]: station number {s} outside 1..{n_stations}"
            )


def _check_tasks(grid, horizon, cap, tasks):
    """The task rules, against a valid horizon and ``cap`` robots."""
    for i, task in enumerate(tasks):
        where = f"tasks[{i}]"
        if _as_integer(task.id) is None and not isinstance(task.id, str):
            raise ValidationError(f"{where}.id: must be an integer or a string")
        if not isinstance(task.value, tasks_mod.ValueFunction):
            raise ValidationError(f"{where}.value: expected a ValueFunction")
        if task.departure > horizon:
            raise ValidationError(
                f"{where}: departure {task.departure} exceeds the horizon {horizon}"
            )
        if not grid.is_feasible(task.location):
            raise ValidationError(
                f"{where}: location {task.location} is an obstacle or out of bounds"
            )
        if task.value.kind == "table":
            for counter, _ in task.value.entries:
                if len(counter) != task.window_length:
                    raise ValidationError(
                        f"{where}.value: table counter {counter} has "
                        f"{len(counter)} entries for a window of "
                        f"{task.window_length} steps"
                    )
            try:
                monotone = tasks_mod._table_is_monotone(
                    task.value, task.window_length, cap
                )
            except DomainError as exc:
                raise ValidationError(f"{where}.value: {exc}") from None
            if not monotone:
                raise ValidationError(
                    f"{where}.value: table is not monotone over caps 0..{cap}"
                )
    # the max_value sum bounds every total, utility and gain, which numpy
    # holds in int64
    if sum(task.value.max_value for task in tasks) >= 2**63:
        raise ValidationError("tasks: the max_value sum must be below 2**63")
    ids = [task.id for task in tasks]
    if len(set(ids)) != len(ids):
        dupes = sorted({str(i) for i in ids if ids.count(i) > 1})
        raise ValidationError(f"tasks: duplicate ids {', '.join(dupes)}")


class StationTable(NamedTuple):
    """The kernel's view of a station's moves, slot by slot (``_station_table``)."""

    pieces: tuple
    piece_ids: np.ndarray


class GameInstance:
    """An immutable game: grid, horizon, stationed robots, tasks, action sets.

    Parameters
    ----------
    grid : Grid
    horizon : int
    robot_stations : sequence of int
        1-based station number per robot; robot ids are 1..n in this order.
    tasks : sequence of Task
        The tasks alone decide ``mode``, which no option selects: ``EXTENDED``
        iff some ``(step, cell)`` of the service index lists two tasks (one
        stay could serve either), ``PLAIN`` otherwise.
    """

    def __init__(
        self,
        grid,
        horizon,
        robot_stations,
        tasks,
        signature_budget=actions_mod.DEFAULT_SIGNATURE_BUDGET,
        extension_budget=actions_mod.DEFAULT_EXTENSION_BUDGET,
    ):
        robot_stations, tasks = tuple(robot_stations), tuple(tasks)
        _check_setup(grid, horizon, robot_stations, tasks)
        self.grid = grid
        self.horizon = _as_integer(horizon)
        self.robot_stations = tuple(map(_as_integer, robot_stations))
        self.tasks = tasks
        index = actions_mod._service_index(horizon, self.tasks)
        self.mode = EXTENDED if any(len(js) > 1 for js in index.values()) else PLAIN

        self._task_index = {task.id: i for i, task in enumerate(self.tasks)}
        # per station: its StationTable, built on the kernel's first use
        self._tables = {}
        # action sets depend only on the station, so co-stationed robots share
        self.station_action_sets = {}
        self._station_actions = {}
        # per station: each action's moves, its (task index, counter code) pairs
        self._station_moves = {}
        for number in sorted(set(self.robot_stations)):
            cell = grid.station(number)
            base = actions_mod.build_minimal_action_set(
                grid, cell, horizon, self.tasks, budget=signature_budget
            )
            self.station_action_sets[number] = base
            if self.mode == EXTENDED:
                acts = tuple(
                    actions_mod.extend_action_set(
                        base, self.tasks, budget=extension_budget
                    )
                )
                # (t, index of the task committed at t, or None)
                stays = [enumerate(map(self._task_index.get, a.commitments)) for a in acts]
            else:
                acts = base.trajectories
                # plain: each (t, cell) of the index lists exactly one task
                stays = [
                    [(t, j) for t, cell in sorted(sig) for j in index[t, cell]]
                    for sig in base.signatures
                ]
            self._station_actions[number] = acts
            self._station_moves[number] = tuple(map(self._moves, stays))

    # -- structure --------------------------------------------------------

    @property
    def n_robots(self):
        return len(self.robot_stations)

    @property
    def robot_ids(self):
        return tuple(range(1, self.n_robots + 1))

    def robot_index(self, robot_id):
        """The 0-based index of a robot id, an integer under the one integer rule."""
        number = robot_id if type(robot_id) is int else _as_integer(robot_id)
        if number is None or not 1 <= number <= self.n_robots:
            raise DomainError(f"unknown robot id {robot_id!r}")
        return number - 1

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
        idx = self.robot_index(robot_id)
        self._check_action(idx, action_id)
        action = self._station_actions[self.robot_stations[idx]][action_id]
        return action.trajectory if self.mode == EXTENDED else action

    def contributions_of(self, robot_id, action_id):
        """Tuple of (task index, window-offset tuple) pairs for one action."""
        idx = self.robot_index(robot_id)
        self._check_action(idx, action_id)
        return tuple(
            (j, tuple(o for o, n in enumerate(self._decode(j, code)) if n))
            for j, code in self._station_moves[self.robot_stations[idx]][action_id]
        )

    @cached_property
    def _digit_bits(self):
        """Bits per counter-code digit: the fewest of 8, 16, 32, 64 holding n_robots."""
        return next(b for b in (8, 16, 32, 64) if self.n_robots < 1 << b)

    @cached_property
    def _codecs(self):
        """Per task, the little-endian ``struct.Struct`` of its counter codes."""
        fmt = {8: "B", 16: "H", 32: "I", 64: "Q"}[self._digit_bits]
        return tuple(struct.Struct(f"<{t.window_length}{fmt}") for t in self.tasks)

    def _decode(self, j, code):
        """The counter tuple of task ``j`` that ``code`` encodes."""
        codec = self._codecs[j]
        return codec.unpack(code.to_bytes(codec.size, "little"))

    def _moves(self, stays):
        """The moves, ``(task index, counter code)``, of ``(t, task index)`` stays.

        A stay whose task index is None serves no task and adds nothing.
        """
        codes = {}
        for t, j in stays:
            if j is not None:
                step = 1 << self._digit_bits * (t - self.tasks[j].arrival)
                codes[j] = codes.get(j, 0) + step
        return tuple(sorted(codes.items()))

    def _station_table(self, number):
        """The distinct moves of a station's actions, as the kernel reads them.

        Returns a ``StationTable``, built on the kernel's first use of the
        station. ``pieces`` holds the distinct ``(task index, code)`` moves
        of the station's actions in first-appearance order. Column ``a`` of
        the intp array ``piece_ids``, of shape (most moves of any action,
        actions), lists the indices in ``pieces`` of action ``a``'s moves in
        order, padded with -1, which the kernel maps to a zero gain it
        appends.
        """
        cached = self._tables.get(number)
        if cached is None:
            index = {}
            columns = [
                [index.setdefault(move, len(index)) for move in moves]
                for moves in self._station_moves[number]
            ]
            rows = list(zip_longest(*columns, fillvalue=-1))
            piece_ids = np.array(rows, dtype=np.intp).reshape(len(rows), len(columns))
            cached = self._tables[number] = StationTable(tuple(index), piece_ids)
        return cached

    def validate_plan(self, plan):
        ids = plan.action_ids
        if len(ids) != self.n_robots:
            raise DomainError(
                f"plan has {len(ids)} actions for {self.n_robots} robots"
            )
        for idx, a in enumerate(ids):
            self._check_action(idx, a)

    def _check_action(self, idx, action_id):
        """Check an action id of the robot at index ``idx`` (id ``idx + 1``)."""
        if _as_integer(action_id) is None:
            raise DomainError(
                f"robot {idx + 1}: action id {action_id!r} is not an integer"
            )
        n = len(self._station_actions[self.robot_stations[idx]])
        if not 0 <= action_id < n:
            raise DomainError(
                f"robot {idx + 1}: action id {action_id} outside 0..{n - 1}"
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
    if exclude_robot is not None:
        game.robot_index(exclude_robot)
    return _count(game, _chosen(game, plan), task, exclude_robot)


def _chosen(game, plan):
    """``(robot id, action)`` for each robot of a validated plan."""
    return [
        (robot_id, game.actions_of(robot_id)[action_id])
        for robot_id, action_id in zip(game.robot_ids, plan.action_ids)
    ]


def _count(game, chosen, task, exclude_robot=None):
    """``counters`` over the ``_chosen`` actions, for a task of the game."""
    vec = [0] * task.window_length
    for robot_id, action in chosen:
        if robot_id == exclude_robot:
            continue
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
    game.validate_plan(plan)
    chosen = _chosen(game, plan)
    return sum(task.value.evaluate(_count(game, chosen, task)) for task in game.tasks)


def utility(game, plan, robot_id):
    """Marginal contribution of a robot: value with it minus value without it."""
    game.validate_plan(plan)
    game.robot_index(robot_id)
    chosen = _chosen(game, plan)
    total = 0
    for task in game.tasks:
        with_robot = task.value.evaluate(_count(game, chosen, task))
        without = task.value.evaluate(
            _count(game, chosen, task, exclude_robot=robot_id)
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
    plan, and switch one robot's action. Each task's counter is held as its
    code (see the module docstring), so adding or removing a robot's
    service is one int addition per task. Values are read through the
    state's per-task memo, keyed by code, so each distinct counter of a
    task is evaluated once per state; the memo lives and dies with the
    state. The kernel prices each piece of the station's table once and
    sums each action's gains over its moves. Values are Python ints and the
    int64 sums cannot wrap, so equalities are exact.
    """

    def __init__(self, game, plan):
        game.validate_plan(plan)
        self.game = game
        self.action_ids = list(plan.action_ids)
        codes = [0] * len(game.tasks)
        for number, action_id in zip(game.robot_stations, self.action_ids):
            for j, delta in game._station_moves[number][action_id]:
                codes[j] += delta
        self._codes = codes
        # per task: counter code -> value, filled on first use
        self._memo = tuple({} for _ in game.tasks)
        self.values = [self._value(j, code) for j, code in enumerate(codes)]
        self.total = sum(self.values)

    @property
    def counters(self):
        """Each task's counter, decoded: one list of entries per task."""
        return [list(self.game._decode(j, code)) for j, code in enumerate(self._codes)]

    def plan(self):
        return JointPlan(tuple(self.action_ids))

    def global_value(self):
        return self.total

    def _value(self, j, code):
        """Value of task ``j`` at the counter ``code``, through the task's memo."""
        memo = self._memo[j]
        value = memo.get(code)
        if value is None:
            game = self.game
            value = memo[code] = game.tasks[j].value.evaluate(game._decode(j, code))
        return value

    def utilities_over_actions(self, robot_id):
        """Utility of every action of ``robot_id`` given the rest, as an int64 array."""
        game = self.game
        idx = game.robot_index(robot_id)
        number = game.robot_stations[idx]
        table = game._station_table(number)
        # the codes and values without this robot: only the tasks its
        # current action serves change
        codes, base = list(self._codes), list(self.values)
        for j, delta in game._station_moves[number][self.action_ids[idx]]:
            codes[j] -= delta
            base[j] = self._value(j, codes[j])
        memo = self._memo
        gains = []
        for j, delta in table.pieces:
            code = codes[j] + delta
            value = memo[j].get(code)
            if value is None:
                value = self._value(j, code)
            gains.append(value - base[j])
        gains.append(0)  # read by piece id -1: adding nothing gains nothing
        return np.array(gains, dtype=np.int64)[table.piece_ids].sum(axis=0)

    def switch(self, robot_id, action_id):
        """Set one robot's action, updating counters and total incrementally."""
        game = self.game
        idx = game.robot_index(robot_id)
        old = self.action_ids[idx]
        if action_id == old:
            return
        game._check_action(idx, action_id)
        moves = game._station_moves[game.robot_stations[idx]]
        codes = self._codes
        for j, delta in moves[old]:
            codes[j] -= delta
        for j, delta in moves[action_id]:
            codes[j] += delta
        for j in {j for j, _ in moves[old]} | {j for j, _ in moves[action_id]}:
            v = self._value(j, codes[j])
            self.total += v - self.values[j]
            self.values[j] = v
        self.action_ids[idx] = action_id
