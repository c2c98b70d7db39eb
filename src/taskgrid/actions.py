"""Minimal action sets built from service signatures.

The value a joint plan earns depends on each trajectory only through its
service signature: the set of ``(t, cell)`` pairs where the trajectory stays
at a task location while that task's window is active. Two trajectories with
the same signature are interchangeable, and replacing a trajectory by one
whose signature is a superset can never lower any task's counters. A minimal
action set therefore keeps exactly one trajectory per maximal achievable
signature; every feasible trajectory is covered by (its signature is a subset
of) one of them, and no smaller set can cover them all, because distinct
maximal signatures cannot cover each other.

Construction: a forward search over (time, cell, signature-so-far) states
enumerates the achievable signatures, pruning states that cannot return to
the station in the remaining time and, per (time, cell) group, signatures
dominated by a superset (any completion of the dominated signature is also a
completion of the dominating one). Signatures are bitmasks over the slots,
and the slots are sorted by ``(t, cell)``, so bit order is time order. The
dominance test has two regimes, chosen by group size: a small group compares
each mask with the kept masks in turn, and a large one looks the mask's bits
up in a per-bit index of the kept masks, held as Python-int bitsets so that
the slot count has no cap. Each regime is the faster one on its side of the
crossover, and both keep the same set. Each
maximal signature is then realized by its lexicographically smallest
trajectory. Any trajectory that makes all of a maximal signature's stays has
exactly that signature, so a greedy walk finds it: each step takes the first
neighbor from which the next required position is still within reach.

For task sets where one location hosts overlapping windows, a trajectory no
longer determines which task a stay serves; extended actions append a
per-step commitment sequence naming the served task.
"""

from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from math import prod

from .errors import BudgetExceededError, DomainError
from .grid import _as_integer, _trajectory_start, enumerate_feasible_trajectories

DEFAULT_SIGNATURE_BUDGET = 1_000_000
DEFAULT_EXTENSION_BUDGET = 100_000


def service_times(trajectory, tasks):
    """Time steps where the trajectory stays at an active task location."""
    traj = tuple(tuple(c) for c in trajectory)
    out = set()
    for t in range(len(traj) - 1):
        if traj[t] != traj[t + 1]:
            continue
        if any(task.location == traj[t] and task.active_at(t) for task in tasks):
            out.add(t)
    return out


def signature(trajectory, tasks):
    """The service signature: frozenset of (t, cell) task-serving stays."""
    traj = tuple(tuple(c) for c in trajectory)
    return frozenset((t, traj[t]) for t in service_times(traj, tasks))


def theta(trajectory, tasks, t):
    """Ids of tasks a robot on this trajectory can serve at step ``t``, an integer."""
    traj = tuple(tuple(c) for c in trajectory)
    step = t if type(t) is int else _as_integer(t)
    if step is None or not 0 <= step < len(traj) - 1:
        raise DomainError(f"time step {t!r} outside 0..{len(traj) - 2}")
    if traj[step] != traj[step + 1]:
        return set()
    return {
        task.id for task in tasks if task.location == traj[step] and task.active_at(step)
    }


@dataclass(frozen=True)
class ActionSet:
    """Ordered trajectories with their signatures, shared by a station.

    The signatures form an antichain under set inclusion, except for the
    degenerate case where no task is servable and the set is the single
    stay-at-station trajectory with an empty signature.
    """

    station: tuple
    horizon: int
    trajectories: tuple
    signatures: tuple

    def __len__(self):
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)


@dataclass(frozen=True)
class ExtendedAction:
    """A trajectory plus a commitment sequence of length ``horizon``.

    ``commitments[t]`` is the id of the task served at step ``t``, or None
    where the trajectory serves nothing at ``t``.
    """

    trajectory: tuple
    commitments: tuple


def _service_index(horizon, tasks):
    """``(t, cell)`` -> indices of the tasks a stay at ``cell`` serves at step ``t``.

    This is the one place the fast path states the service rule.
    """
    index = {}
    for j, task in enumerate(tasks):
        for t in range(task.arrival, min(task.departure, horizon)):
            index.setdefault((t, task.location), []).append(j)
    return index


def _service_slots(grid, station, horizon, tasks):
    """Reachable (t, cell) pairs some task makes servable from this station.

    A slot is a key of ``_service_index`` whose cell the station can reach
    by ``t`` and return from in the remaining ``horizon - t - 1`` steps.
    """
    dist = grid.distances_from(station)
    return sorted(
        (t, cell)
        for t, cell in _service_index(horizon, tasks)
        if dist.get(cell, horizon) <= min(t, horizon - t - 1)
    )


# measured per group size: the pairwise scan is faster below, the index above
_INDEX_FROM = 96


def _prune_dominated(masks):
    """Drop masks that are subsets of another mask in the group.

    The masks are visited largest popcount first, so every strict superset
    of a mask comes before it, and a mask is kept iff no kept mask holds
    all of its bits. Below ``_INDEX_FROM`` masks, each mask is tested
    against the kept masks in turn. From there on, ``holders`` maps each
    bit, as its power of two, to a bitset of the positions of the kept
    masks that hold it, and a mask is dominated iff the AND of its bits'
    bitsets is non-zero; the empty mask is dominated iff anything is kept.
    Both regimes keep the same set; the index only costs less per mask once
    the group is large.
    """
    if len(masks) <= 1:
        return set(masks)
    ordered = sorted(masks, key=int.bit_count, reverse=True)
    if len(masks) < _INDEX_FROM:
        kept = []
        for m in ordered:
            for k in kept:
                if m & k == m:
                    break
            else:
                kept.append(m)
        return set(kept)
    holders = {}
    kept = set()
    pos = 1  # the bitset bit of the next kept mask
    for m in ordered:
        common = pos - 1
        rest = m
        while rest and common:
            low = rest & -rest
            common &= holders.get(low, 0)
            rest ^= low
        if common:
            continue
        kept.add(m)
        rest = m
        while rest:
            low = rest & -rest
            holders[low] = holders.get(low, 0) | pos
            rest ^= low
        pos <<= 1
    return kept


def achievable_signatures(grid, station, horizon, tasks, budget=DEFAULT_SIGNATURE_BUDGET):
    """Maximal achievable signatures for one robot, as slot bitmasks.

    Returns (masks, slots) where ``slots`` lists the (t, cell) pairs in
    bit-index order and ``masks`` is the set of maximal achievable
    signatures. The empty mask is returned alone iff no slot is servable.
    """
    station, horizon = _trajectory_start(grid, station, horizon)
    slots = _service_slots(grid, station, horizon, tasks)
    bit_of = {slot: i for i, slot in enumerate(slots)}
    dist = grid.distances_from(station)

    frontier = {station: {0}}
    for t in range(horizon):
        nxt = defaultdict(set)
        for cell, masks in frontier.items():
            b = bit_of.get((t, cell))
            for nb in grid.neighbors(cell):
                d = dist.get(nb)
                if d is None or d > horizon - t - 1:
                    continue
                if nb == cell and b is not None:
                    # staying at an active task location is a counted stay
                    add = 1 << b
                    nxt[nb].update(m | add for m in masks)
                else:
                    nxt[nb].update(masks)
        frontier = {cell: _prune_dominated(ms) for cell, ms in nxt.items()}
        size = sum(len(ms) for ms in frontier.values())
        if size > budget:
            raise BudgetExceededError(
                f"signature search reached {size} states at step {t + 1}, "
                f"budget {budget}",
                size=size,
            )
    # staying has distance 0, so the station is in every step's frontier,
    # and that step already pruned its group
    return frontier[station], slots


def _lex_smallest_realizing(grid, station, horizon, signatures):
    """The smallest trajectory with each signature in ``signatures``, in order.

    Smallest is lexicographic over the cell sequence. Each signature is a
    sorted tuple of ``(t, cell)`` stays and must be maximal. Then any
    trajectory that makes all of its stays has exactly that signature: one
    more stay at an active slot would give an achievable superset, which
    maximality rules out. So the smallest realizer is a greedy walk that
    passes through the required positions, both ends ``(t, cell)`` and
    ``(t + 1, cell)`` of each stay in time order and then
    ``(horizon, station)``: each step takes the first neighbor from which
    the next required position is still within reach.
    """
    targets = {station} | {cell for sig in signatures for _, cell in sig}
    dist_to = {cell: grid.distances_from(cell) for cell in targets}
    trajectories = []
    for sig in signatures:
        required = [(when, cell) for t, cell in sig for when in (t, t + 1)]
        required.append((horizon, station))
        positions = [station]
        k = 0
        for t in range(horizon):
            while required[k][0] <= t:
                k += 1
            when, target = required[k]
            dist = dist_to[target]
            for nb in grid.neighbors(positions[-1]):
                if dist.get(nb, horizon) < when - t:
                    positions.append(nb)
                    break
            else:
                raise DomainError(
                    f"no trajectory realizes signature {list(sig)} from {station}"
                )
        trajectories.append(tuple(positions))
    return tuple(trajectories)


def build_minimal_action_set(
    grid, station, horizon, tasks, budget=DEFAULT_SIGNATURE_BUDGET
):
    """Build the minimal action set for a robot stationed at ``station``.

    One trajectory per maximal non-empty achievable signature, each the
    lexicographically smallest realizer, ordered by signature. When no
    task is servable the set degenerates to the single stay-at-station
    trajectory.
    """
    station = tuple(station)
    masks, slots = achievable_signatures(grid, station, horizon, tasks, budget=budget)
    masks.discard(0)
    if not masks:
        stay = (station,) * (horizon + 1)
        return ActionSet(station, horizon, (stay,), (frozenset(),))

    def decode(mask):
        return tuple(slot for i, slot in enumerate(slots) if mask >> i & 1)

    ordered = sorted(map(decode, masks))
    trajectories = _lex_smallest_realizing(grid, station, horizon, ordered)
    signatures = tuple(map(frozenset, ordered))
    return ActionSet(station, horizon, trajectories, signatures)


def verify_cover(action_set, grid, station, horizon, tasks, budget=2_000_000):
    """Brute-force check of the covering property.

    True iff every feasible trajectory's signature is a subset of some
    action's signature, by exhaustive enumeration of the trajectory
    space. The independent oracle for build_minimal_action_set.
    """
    sigs = list(action_set.signatures)
    for traj in enumerate_feasible_trajectories(grid, station, horizon, budget=budget):
        s = signature(traj, tasks)
        if not any(s <= cover for cover in sigs):
            return False
    return True


def extend_action_set(action_set, tasks, budget=DEFAULT_EXTENSION_BUDGET):
    """Expand trajectories into extended actions with explicit commitments.

    For each trajectory, emits one action per admissible commitment
    sequence: at steps where the trajectory can serve several overlapping
    tasks, each choice becomes its own action; where it can serve exactly
    one, that task is committed; elsewhere the commitment is None. The
    result has the same size as the action set when no windows overlap.
    """
    index = _service_index(action_set.horizon, tasks)
    out = []
    total = 0
    for traj, sig in zip(action_set.trajectories, action_set.signatures):
        options = [[None]] * action_set.horizon
        for t, cell in sig:
            options[t] = sorted((tasks[j].id for j in index[t, cell]), key=repr)
        total += prod(map(len, options))
        if total > budget:
            raise BudgetExceededError(
                f"extended-action expansion reached {total}, budget {budget}",
                size=total,
            )
        out.extend(ExtendedAction(traj, combo) for combo in product(*options))
    return out
