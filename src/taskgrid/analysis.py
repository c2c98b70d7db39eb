"""Desk-scale ground truth: optima, equilibria, price of anarchy, chain limits.

Everything here is exhaustive or exact and intended for small games: the
joint action space is materialized (under an explicit budget), equilibria are
found by per-robot argmax comparisons in integer arithmetic, and the
log-linear chain's stationary distribution is the Gibbs law of the potential,
taken once the potential identity is checked in integers at every joint plan.
These serve as oracles for the learning dynamics and for the price-of-anarchy
bound on single-station games with simple tasks.

The value array over joint plans is built task by task without visiting the
plans: a task's value depends on the plan only through the counter code each
robot's action adds to it, and the actions of a station add few distinct
codes to any one task. Only the identity check walks the plans, because it
must call the learning kernel at each of them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import actions as actions_mod
from . import game as game_mod
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DomainError,
    InapplicableError,
)
from .game import EXTENDED, JointPlan, ProfileState
from .learning import (
    LOG_LINEAR,
    LearningConfig,
    _check_epsilon,
    _softmax,
    run_log_linear,
)

DEFAULT_PROFILE_BUDGET = 200_000
# the log-linear chain functions walk every profile with the kernel
CHAIN_PROFILE_BUDGET = 10_000
INFINITE_POA = math.inf


def _product_within(sizes, budget, space):
    """The product of ``sizes``; raises if it exceeds ``budget``."""
    size = math.prod(sizes)
    if size > budget:
        raise BudgetExceededError(
            f"{space} has {size} profiles, budget {budget}", size=size
        )
    return size


def _profile_shape(game, budget):
    shape = tuple(game.n_actions(i) for i in game.robot_ids)
    return shape, _product_within(shape, budget, "joint action space")


def _walk_profiles(game, shape):
    """Yield ``(ids, state)`` for every joint plan, in C order.

    One ProfileState steps through the product by unilateral switches, the
    last robot fastest. Both yielded objects are reused: read them before
    advancing the generator.
    """
    ids = [0] * len(shape)
    state = ProfileState(game, JointPlan(tuple(ids)))
    while True:
        yield ids, state
        i = len(shape) - 1
        while ids[i] == shape[i] - 1:
            if i == 0:
                return
            ids[i] = 0
            state.switch(i + 1, 0)
            i -= 1
        ids[i] += 1
        state.switch(i + 1, ids[i])


def profile_values(game, budget=DEFAULT_PROFILE_BUDGET):
    """Global value of every joint plan, as an integer array over action ids.

    Axis ``i`` indexes robot ``i + 1``'s actions; entries are exact. No plan
    is visited: for each task, robot ``i``'s axis lists the distinct counter
    codes its actions add to the task (the game's moves, code 0 when an
    action adds nothing) in first-appearance order. Every combination of the
    robots' codes is summed into a counter code and valued once, each
    distinct counter by one ``ValueFunction.evaluate`` call, and the task's
    table of values is added to the array through ``np.ix_``. The
    ``max_value`` sum is below 2**63, so the int64 sums cannot wrap.
    """
    shape, _ = _profile_shape(game, budget)
    adds = [
        [dict(move) for move in game._station_moves[number]]
        for number in game.robot_stations
    ]
    values = np.zeros(shape, dtype=np.int64)
    for j, task in enumerate(game.tasks):
        axes, ids = [], []
        for robot_adds in adds:
            index = {}  # code -> its place on the axis
            row = [index.setdefault(a.get(j, 0), len(index)) for a in robot_adds]
            axes.append(list(index))
            ids.append(row if len(index) > 1 else row[:1])  # [:1] broadcasts
        memo = {}
        table = []
        for combo in product(*axes):
            key = sum(combo)
            value = memo.get(key)
            if value is None:
                value = memo[key] = task.value.evaluate(game._decode(j, key))
            table.append(value)
        table = np.array(table, dtype=np.int64).reshape([len(a) for a in axes])
        values += table[np.ix_(*ids)]
    return values


def brute_force_optimum(game, budget=DEFAULT_PROFILE_BUDGET):
    """Exhaustive maximum of the global value over the joint action space.

    Returns (value, witness plans), witnesses in lexicographic action-id
    order.
    """
    values = profile_values(game, budget)
    best = values.max().item()
    witnesses = [
        JointPlan(tuple(int(i) for i in idx))
        for idx in np.argwhere(values == best)
    ]
    return best, witnesses


def full_space_optimum(game, trajectory_budget=500_000, profile_budget=DEFAULT_PROFILE_BUDGET):
    """Maximum global value over ALL feasible trajectories, not just action sets.

    Exhaustively enumerates each robot's full trajectory space, collapses
    it by service signature (counters, and hence the objective, depend on
    a trajectory only through its signature), and maximizes over the
    product of the collapsed spaces. Independent of the action-set
    construction; the oracle for no-suboptimality checks.
    """
    if game.mode == EXTENDED:
        raise DomainError("full-space optimum is defined for plain mode only")
    signature_sets = []
    for number in game.robot_stations:
        station = game.grid.station(number)
        sigs = set()
        for traj in actions_mod.enumerate_feasible_trajectories(
            game.grid, station, game.horizon, budget=trajectory_budget
        ):
            sigs.add(actions_mod.signature(traj, game.tasks))
        signature_sets.append(sorted(sigs, key=sorted))
    _product_within(
        [len(sigs) for sigs in signature_sets],
        profile_budget,
        "collapsed trajectory space",
    )
    best = 0
    for combo in product(*signature_sets):
        total = 0
        for task in game.tasks:
            vec = [0] * task.window_length
            for sig in combo:
                for t, cell in sig:
                    if cell == task.location and task.active_at(t):
                        vec[t - task.arrival] += 1
            total += task.value.evaluate(vec)
        best = max(best, total)
    return best


@dataclass
class EquilibriumReport:
    """All pure equilibria of a game with their values, optimum, and ratio."""

    equilibria: list
    values: list
    optimum: object
    poa: object


def enumerate_nash(game, budget=DEFAULT_PROFILE_BUDGET):
    """Find every joint plan no robot can improve on by a unilateral switch.

    A plan qualifies iff, for each robot, its global value ties the
    maximum over that robot's axis with the others fixed (utility and
    global-value differences coincide, so the argmax sets agree). Exact
    integer comparisons; ties count as equilibria.
    """
    values = profile_values(game, budget)
    mask = np.ones(values.shape, dtype=bool)
    for axis in range(values.ndim):
        mask &= values == values.max(axis=axis, keepdims=True)
    plans = [
        JointPlan(tuple(int(i) for i in idx)) for idx in np.argwhere(mask)
    ]
    eq_values = [values[plan.action_ids].item() for plan in plans]
    report = EquilibriumReport(
        equilibria=plans,
        values=eq_values,
        optimum=values.max().item(),
        poa=None,
    )
    report.poa = price_of_anarchy(report)
    return report


def is_nash(game, plan):
    """Per-robot argmax check of a single plan, in exact arithmetic."""
    state = ProfileState(game, plan)
    for robot_id in game.robot_ids:
        row = state.utilities_over_actions(robot_id)
        if row[plan.action_ids[robot_id - 1]] != row.max():
            return False
    return True


def price_of_anarchy(report):
    """Best equilibrium value over worst, as an exact Fraction.

    A worst equilibrium of value 0 below a positive best is reported as
    the infinite sentinel; if every equilibrium has value 0 the ratio is
    1 (all equilibria are optimal among equilibria).
    """
    if not report.values:
        raise DomainError("equilibrium list is empty")
    best = max(report.values)
    worst = min(report.values)
    if best == 0:
        return Fraction(1)
    if worst == 0:
        return INFINITE_POA
    return Fraction(best, worst)


def check_poa_bound(game, report):
    """Check PoA <= max(m/n, 1) for single-station games with simple tasks.

    Preconditions (verified structurally): the grid declares exactly one
    station, every robot is assigned to it, and every task's value
    function carries the ``simple`` tag. Returns True iff the bound
    holds for the report's equilibria.
    """
    if len(game.grid.stations) != 1:
        raise InapplicableError(
            "the bound applies only to games with exactly one station"
        )
    if any(s != 1 for s in game.robot_stations):
        raise InapplicableError("every robot must be assigned to the station")
    not_simple = [t.id for t in game.tasks if not t.value.is_simple]
    if not_simple:
        raise InapplicableError(
            f"tasks {not_simple} are not simple; the bound is not claimed"
        )
    n = game.n_robots
    m = len(game.tasks)
    bound = max(Fraction(m, n), Fraction(1))
    if report.poa == INFINITE_POA:
        return False
    return report.poa <= bound


def lll_transition_matrix(game, epsilon, budget=CHAIN_PROFILE_BUDGET):
    """The exact one-round log-linear chain over joint plans.

    Row ``s``: pick each robot with probability 1/n, then move it to each
    of its actions with softmax probability given the others. States are
    flat C-order indices over the action-id product. Rows sum to 1;
    self-loops arise whenever the sampled action is the current one.
    """
    import scipy.sparse  # the only scipy use; kept off the import path

    _check_epsilon(epsilon)
    shape, size = _profile_shape(game, budget)
    n = game.n_robots
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    rows, cols, data = [], [], []
    for flat, (ids, state) in enumerate(_walk_profiles(game, shape)):
        for robot_index in range(n):
            probs = _softmax(state.utilities_over_actions(robot_index + 1), epsilon)
            base = flat - ids[robot_index] * strides[robot_index]
            for a, p in enumerate(probs):
                rows.append(flat)
                cols.append(base + a * strides[robot_index])
                data.append(p / n)
    return (
        scipy.sparse.csr_matrix((data, (rows, cols)), shape=(size, size)),
        shape,
    )


def lll_stationary_distribution(game, epsilon, budget=CHAIN_PROFILE_BUDGET):
    """Exact stationary distribution of the log-linear chain.

    The global value is an exact potential of the marginal-contribution
    utilities, so the chain is reversible and its stationary law is the
    Gibbs law ``exp(value / epsilon) / Z`` over joint plans. That identity
    is checked in integers before the law is taken: at every joint plan, for
    every robot, the learning kernel's utility minus the global value must be
    the same for all of the robot's actions, or this raises, naming the first
    robot and plan in walk order that break it. One walk over the plans calls
    the kernel for every robot at every plan and keeps its rows; each robot's
    rows are then compared with the value array in one numpy step. The check
    does not depend on ``epsilon``.

    Returns a flat probability vector in C order over the action-id
    product, summing to 1.
    """
    _check_epsilon(epsilon)
    values = profile_values(game, budget)
    shape = values.shape
    # rows[i][s]: robot i + 1's kernel utilities at the plan of flat index s
    rows = [np.empty((values.size, n), dtype=np.int64) for n in shape]
    for flat, (_, state) in enumerate(_walk_profiles(game, shape)):
        for i, row in enumerate(rows):
            row[flat] = state.utilities_over_actions(i + 1)
    first = None  # (flat index, robot index, gaps) of the first break
    for i, row in enumerate(rows):
        # gaps[..., a]: utility of action a minus the value of the plan with
        # robot i + 1 switched to a, which must not depend on a
        lines = np.expand_dims(np.moveaxis(values, i, -1), i)
        gaps = row.reshape(*shape, -1) - lines
        broken = np.flatnonzero((gaps != gaps[..., :1]).any(axis=-1))
        if broken.size and (first is None or broken[0] < first[0]):
            first = (broken[0], i, gaps.reshape(values.size, -1)[broken[0]])
    if first is not None:
        flat, i, gaps = first
        plan = tuple(int(k) for k in np.unravel_index(flat, shape))
        raise ConvergenceError(
            f"robot {i + 1} at plan {plan}: utility minus global "
            f"value over its actions is {gaps.tolist()}, not constant; "
            "the utilities break the potential identity"
        )
    return _softmax(values.ravel(), epsilon)


def empirical_occupancy(game, epsilon, rounds, seed, budget=CHAIN_PROFILE_BUDGET):
    """Occupancy frequencies of one long log-linear run, per joint plan.

    Replays the seeded run and counts the plan after each round (the
    initial plan is not counted), normalized by the round count, flat in
    the same C order as the stationary distribution.
    """
    shape, size = _profile_shape(game, budget)
    trace = run_log_linear(
        game,
        LearningConfig(
            algorithm=LOG_LINEAR, rounds=rounds, seed=seed, epsilon=epsilon
        ),
    )
    occupancy = np.zeros(size)
    for plan in trace.plans()[1:]:
        occupancy[int(np.ravel_multi_index(plan.action_ids, shape))] += 1
    return occupancy / rounds


def total_variation(p, q):
    """Total-variation distance between two distributions of one shape."""
    p, q = np.asarray(p), np.asarray(q)
    if p.shape != q.shape:
        raise DomainError(f"distributions of shapes {p.shape} and {q.shape} differ")
    return 0.5 * float(np.abs(p - q).sum())
