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
completion of the dominating one). For each maximal signature the
lexicographically smallest realizing trajectory follows memoized first
moves that can still finish.

For task sets where one location hosts overlapping windows, a trajectory no
longer determines which task a stay serves; extended actions append a
per-step commitment sequence naming the served task.
"""

from collections import defaultdict
from dataclasses import dataclass
from itertools import product

from .errors import BudgetExceededError, DomainError
from .grid import enumerate_feasible_trajectories

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
    """Ids of tasks a robot on this trajectory can serve at step ``t``."""
    traj = tuple(tuple(c) for c in trajectory)
    if not 0 <= t < len(traj) - 1:
        raise DomainError(f"time step {t} outside 0..{len(traj) - 2}")
    if traj[t] != traj[t + 1]:
        return set()
    return {
        task.id for task in tasks if task.location == traj[t] and task.active_at(t)
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


def _service_slots(grid, station, horizon, tasks):
    """Reachable (t, cell) pairs some task makes servable from this station.

    A slot (t, cell) is included iff a task at ``cell`` is active at ``t``,
    a stay is possible (t <= horizon - 1), and the station can reach the
    cell by ``t`` and return in the remaining ``horizon - t - 1`` steps.
    """
    dist = grid.distances_from(station)
    slots = set()
    for task in tasks:
        d = dist.get(task.location)
        if d is None:
            continue
        for t in range(task.arrival, min(task.departure, horizon)):
            if d <= t and d <= horizon - t - 1:
                slots.add((t, task.location))
    return sorted(slots)


def _prune_dominated(masks):
    """Drop masks that are subsets of another mask in the group."""
    if len(masks) <= 1:
        return set(masks)
    by_size = sorted(masks, key=lambda m: -bin(m).count("1"))
    kept = []
    for m in by_size:
        if not any(m | k == k for k in kept):
            kept.append(m)
    return set(kept)


def achievable_signatures(grid, station, horizon, tasks, budget=DEFAULT_SIGNATURE_BUDGET):
    """Maximal achievable signatures for one robot, as slot bitmasks.

    Returns (masks, slots) where ``slots`` lists the (t, cell) pairs in
    bit-index order and ``masks`` is the set of maximal achievable
    signatures. The empty mask is returned alone iff no slot is servable.
    """
    station = tuple(station)
    if not grid.is_feasible(station):
        raise DomainError(f"station {station} is not a feasible cell")
    if horizon < 1:
        raise DomainError("horizon must be at least 1")
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
    final = _prune_dominated(frontier.get(station, {0}))
    return final, slots


def _lex_smallest_realizing(grid, station, horizon, slots, bit_of, mask):
    """Lexicographically smallest trajectory whose signature is ``mask``.

    A memo maps each ``(t, cell, remaining)`` state to its first move, in
    neighbor order, that can still collect the remaining required stays and
    reach the station: ``(next cell, remaining after the move)``, or None
    when no move can. The trajectory follows these moves from the station.
    A stay at a slot in ``mask`` collects its bit; a stay at an active slot
    outside ``mask`` is never taken, since it would enlarge the signature.
    """
    dist = grid.distances_from(station)
    memo = {}
    missing = object()

    def first_move(t, cell, remaining):
        if t == horizon:
            # the empty move marks a finished trajectory
            return () if cell == station and remaining == 0 else None
        key = (t, cell, remaining)
        move = memo.get(key, missing)
        if move is not missing:
            return move
        move = None
        d = dist.get(cell)
        if d is not None and d <= horizon - t:
            b = bit_of.get((t, cell))
            for nb in grid.neighbors(cell):
                rest = remaining
                if nb == cell and b is not None:
                    if not mask >> b & 1:
                        continue
                    rest = remaining & ~(1 << b)
                if first_move(t + 1, nb, rest) is not None:
                    move = (nb, rest)
                    break
        memo[key] = move
        return move

    positions = [station]
    remaining = mask
    for t in range(horizon):
        move = first_move(t, positions[-1], remaining)
        if move is None:
            raise DomainError(
                f"no trajectory realizes signature mask {mask:b} from {station}"
            )
        cell, remaining = move
        positions.append(cell)
    return tuple(positions)


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
    bit_of = {slot: i for i, slot in enumerate(slots)}

    def decode(mask):
        return tuple(slot for slot in slots if mask >> bit_of[slot] & 1)

    ordered = sorted(masks, key=decode)
    trajectories = tuple(
        _lex_smallest_realizing(grid, station, horizon, slots, bit_of, m)
        for m in ordered
    )
    signatures = tuple(frozenset(decode(m)) for m in ordered)
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
    horizon = action_set.horizon
    out = []
    total = 0
    for traj in action_set.trajectories:
        options = []
        for t in range(horizon):
            ids = sorted(theta(traj, tasks, t), key=repr)
            options.append(ids if ids else [None])
        count = 1
        for opt in options:
            count *= len(opt)
        total += count
        if total > budget:
            raise BudgetExceededError(
                f"extended-action expansion reached {total}, budget {budget}",
                size=total,
            )
        for combo in product(*options):
            out.append(ExtendedAction(traj, tuple(combo)))
    return out
