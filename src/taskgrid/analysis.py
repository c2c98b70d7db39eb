"""Desk-scale ground truth: optima, equilibria, price of anarchy, chain limits.

Everything here is exhaustive or exact and intended for small games: the
joint action space is materialized (under an explicit budget), equilibria are
found by per-robot argmax comparisons in integer arithmetic, and the
log-linear chain's stationary distribution is solved from its full transition
matrix. These serve as oracles for the learning dynamics and for the
price-of-anarchy bound on single-station games with simple tasks.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import actions as actions_mod
from . import game as game_mod
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DomainError,
    InapplicableError,
)
from .game import EXTENDED, JointPlan, ProfileState
from .learning import LOG_LINEAR, LearningConfig, _softmax, run_log_linear

DEFAULT_PROFILE_BUDGET = 200_000
INFINITE_POA = math.inf


def _profile_shape(game, budget):
    shape = tuple(game.n_actions(i) for i in game.robot_ids)
    size = 1
    for s in shape:
        size *= s
    if size > budget:
        raise BudgetExceededError(
            f"joint action space has {size} profiles, budget {budget}", size=size
        )
    return shape, size


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

    Axis ``i`` indexes robot ``i + 1``'s actions; entries are exact. The
    enumeration walks the profiles with incremental counter updates.
    """
    shape, size = _profile_shape(game, budget)
    return np.fromiter(
        (state.global_value() for _, state in _walk_profiles(game, shape)),
        dtype=np.int64,
        count=size,
    ).reshape(shape)


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
    size = 1
    for sigs in signature_sets:
        size *= len(sigs)
    if size > profile_budget:
        raise BudgetExceededError(
            f"collapsed trajectory space has {size} profiles, "
            f"budget {profile_budget}",
            size=size,
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
        utilities = state.utilities_over_actions(robot_id)
        if utilities[plan.action_ids[robot_id - 1]] != max(utilities):
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


def lll_transition_matrix(game, epsilon, budget=10_000):
    """The exact one-round log-linear chain over joint plans.

    Row ``s``: pick each robot with probability 1/n, then move it to each
    of its actions with softmax probability given the others. States are
    flat C-order indices over the action-id product. Rows sum to 1;
    self-loops arise whenever the sampled action is the current one.
    """
    shape, size = _profile_shape(game, budget)
    n = game.n_robots
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    rows, cols, data = [], [], []
    for flat, (ids, state) in enumerate(_walk_profiles(game, shape)):
        for robot_index in range(n):
            utilities = state.utilities_over_actions(robot_index + 1)
            probs = _softmax(utilities, epsilon)
            base = flat - ids[robot_index] * strides[robot_index]
            for a, p in enumerate(probs):
                rows.append(flat)
                cols.append(base + a * strides[robot_index])
                data.append(p / n)
    return (
        scipy.sparse.csr_matrix((data, (rows, cols)), shape=(size, size)),
        shape,
    )


def lll_stationary_distribution(
    game, epsilon, budget=10_000, residual=1e-12, max_refinement=100_000
):
    """Exact stationary distribution of the log-linear chain.

    Solves the stationary linear system directly, then refines with power
    iterations until the one-step residual drops below ``residual``. The
    chain is irreducible and aperiodic (softmax keeps every action at
    positive probability and self-loops exist), so failure to converge
    signals a bug and raises.

    Any one balance equation is redundant, so which one normalization
    replaces changes only the conditioning. It replaces that of the first
    optimal plan, which carries the most mass; replacing the last plan's
    instead left roundoff below the zero floor on some games.

    Returns a flat probability vector in C order over the action-id
    product, summing to 1.
    """
    P, shape = lll_transition_matrix(game, epsilon, budget)
    size = P.shape[0]
    anchor = int(np.argmax(profile_values(game, budget)))
    A = (P.T - scipy.sparse.identity(size, format="csr")).tolil()
    A[anchor, :] = np.ones(size)
    b = np.zeros(size)
    b[anchor] = 1.0
    pi = scipy.sparse.linalg.spsolve(A.tocsr(), b)
    PT = P.T.tocsr()
    for _ in range(max_refinement):
        nxt = PT @ pi
        if np.abs(nxt - pi).sum() < residual:
            pi = nxt
            break
        pi = nxt
    else:
        raise ConvergenceError(
            f"stationary refinement did not reach residual {residual}"
        )
    if pi.min() < -1e-10:
        raise ConvergenceError(
            f"stationary solve produced mass {pi.min()} below zero"
        )
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return pi


def empirical_occupancy(game, epsilon, rounds, seed, budget=10_000):
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
    """Total-variation distance between two distributions."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())
