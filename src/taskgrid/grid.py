"""Obstacle grids and the episodic trajectory space of a single robot.

Cells are 1-based ``(x, y)`` integer pairs on a ``width x height`` grid. A
subset of cells is blocked by obstacles; the rest are feasible. In one time
step a robot may move to any feasible cell within Chebyshev distance 1 of its
current cell, which includes staying in place. A trajectory over a horizon
``T`` is a sequence of ``T + 1`` feasible cells that starts and ends at the
robot's station and takes one such step per time index.
"""

import operator
from collections import defaultdict, deque

from .errors import BudgetExceededError, DomainError, ValidationError

Cell = tuple  # (x, y), 1-based
Trajectory = tuple  # of Cell, length horizon + 1


def _as_integers(values):
    """The one integer rule, over a sequence of values.

    A value is an integer when it is not a ``bool`` and ``operator.index``
    accepts it: Python and numpy integers pass; floats, strings and bools
    (numpy's too) do not. Returns the plain ``int`` of every value as a
    tuple, or None when some value is not an integer.
    """
    try:
        ints = tuple(map(operator.index, values))
    except TypeError:
        return None
    return None if bool in map(type, values) else ints


def _as_integer(value):
    """``value`` as a plain ``int`` under the one integer rule, or None."""
    ints = _as_integers((value,))
    return None if ints is None else ints[0]


def _as_cell(value):
    """The one cell rule: a list or tuple of two integers, as an int pair, or None."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return _as_integers(value)
    return None


class Grid:
    """A rectangular grid with obstacles and station cells.

    Parameters
    ----------
    width, height : int
        Grid extent; cells range over x in 1..width, y in 1..height.
    obstacles : iterable of (x, y)
        Blocked cells. Must lie within bounds and avoid all stations.
    stations : iterable of (x, y)
        Designated start/end cells, referenced elsewhere by 1-based index.
    """

    def __init__(self, width, height, obstacles=(), stations=()):
        for name, value in (("width", width), ("height", height)):
            size = _as_integer(value)
            if size is None:
                raise ValidationError(f"{name}: must be an integer")
            if size < 1:
                raise ValidationError(f"{name}: must be at least 1")
            setattr(self, name, size)
        self.obstacles = frozenset(self._checked_cells(obstacles, "obstacles"))
        self.stations = self._checked_cells(stations, "stations")
        seen = set()
        for i, s in enumerate(self.stations):
            if s in self.obstacles:
                raise ValidationError(f"stations[{i}]: {s} sits on an obstacle")
            if s in seen:
                raise ValidationError(f"stations[{i}]: {s} is duplicated")
            seen.add(s)
        self._neighbors = {}
        for c in self.feasible_cells:
            x, y = c
            nbs = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    q = (x + dx, y + dy)
                    if self.is_feasible(q):
                        nbs.append(q)
            self._neighbors[c] = tuple(sorted(nbs))
        self._distances = {}

    def _checked_cells(self, values, where):
        """``values`` as a tuple of in-bounds cells; a ValidationError names ``where[i]``."""
        cells = []
        for i, value in enumerate(values):
            cell = _as_cell(value)
            if cell is None:
                raise ValidationError(f"{where}[{i}]: expected an (x, y) integer pair")
            if not self.in_bounds(cell):
                raise ValidationError(f"{where}[{i}]: {cell} is out of bounds")
            cells.append(cell)
        return tuple(cells)

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.width, self.height, self.obstacles, self.stations) == (
            other.width,
            other.height,
            other.obstacles,
            other.stations,
        )

    def __hash__(self):
        return hash((self.width, self.height, self.obstacles, self.stations))

    def __repr__(self):
        return (
            f"Grid({self.width}x{self.height}, "
            f"{len(self.obstacles)} obstacles, {len(self.stations)} stations)"
        )

    def in_bounds(self, cell):
        x, y = cell
        return 1 <= x <= self.width and 1 <= y <= self.height

    def is_feasible(self, cell):
        return self.in_bounds(cell) and tuple(cell) not in self.obstacles

    @property
    def feasible_cells(self):
        """All feasible cells, sorted by (x, y)."""
        return tuple(
            (x, y)
            for x in range(1, self.width + 1)
            for y in range(1, self.height + 1)
            if (x, y) not in self.obstacles
        )

    def station(self, number):
        """Return the station cell for a 1-based station number, an integer."""
        n = number if type(number) is int else _as_integer(number)
        if n is None or not 1 <= n <= len(self.stations):
            raise DomainError(
                f"station number {number!r} out of range 1..{len(self.stations)}"
            )
        return self.stations[n - 1]

    def neighbors(self, cell):
        """Feasible cells reachable in one step from ``cell``, including itself."""
        cell = tuple(cell)
        if cell not in self._neighbors:
            raise DomainError(f"cell {cell} is not a feasible cell")
        return self._neighbors[cell]

    def distances_from(self, cell):
        """BFS distance map from ``cell`` over the king-move graph.

        Returns a dict mapping every reachable feasible cell to its hop
        count. Unreachable cells are absent.
        """
        cell = tuple(cell)
        if cell not in self._distances:
            if not self.is_feasible(cell):
                raise DomainError(f"cell {cell} is not a feasible cell")
            dist = {cell: 0}
            queue = deque([cell])
            while queue:
                cur = queue.popleft()
                d = dist[cur] + 1
                for nb in self._neighbors[cur]:
                    if nb not in dist:
                        dist[nb] = d
                        queue.append(nb)
            self._distances[cell] = dist
        return self._distances[cell]

    def distance(self, a, b):
        """Shortest number of steps from ``a`` to ``b``, or None if unreachable."""
        return self.distances_from(a).get(tuple(b))


def trajectory_issue(grid, station, trajectory):
    """Explain why a position sequence is not a feasible trajectory.

    Returns None when the trajectory is feasible, otherwise a short
    diagnostic string naming the first violated condition.
    """
    station = tuple(station)
    traj = tuple(tuple(c) for c in trajectory)
    if len(traj) < 2:
        return f"length {len(traj)} is too short, need horizon >= 1"
    if traj[0] != station:
        return f"starts at {traj[0]} instead of the station {station}"
    if traj[-1] != station:
        return f"ends at {traj[-1]} instead of the station {station}"
    for t, cell in enumerate(traj):
        if not grid.is_feasible(cell):
            return f"position {t} at {cell} is not a feasible cell"
    for t in range(len(traj) - 1):
        if traj[t + 1] not in grid.neighbors(traj[t]):
            return f"step {t}: {traj[t]} to {traj[t + 1]} is not a one-step move"
    return None


def is_feasible_trajectory(grid, station, trajectory):
    """True iff the sequence starts/ends at the station and every step is legal."""
    return trajectory_issue(grid, station, trajectory) is None


def _trajectory_start(grid, station, horizon):
    """A trajectory space's station as an int pair and horizon as an int, checked.

    A station that is no feasible integer pair, or a horizon that is no integer
    of at least 1, raises a DomainError naming it.
    """
    cell = _as_cell(station)
    if cell is None or not grid.is_feasible(cell):
        raise DomainError(f"station {station!r} is not a feasible (x, y) integer pair")
    steps = _as_integer(horizon)
    if steps is None or steps < 1:
        raise DomainError(f"horizon must be an integer of at least 1, got {horizon!r}")
    return cell, steps


def count_feasible_trajectories(grid, station, horizon):
    """Exact number of feasible trajectories for one robot.

    Dynamic program over (time, cell): the number of length-``horizon``
    walks from the station back to itself in the king-move graph on
    feasible cells. Cost O(horizon * |cells| * 9), no enumeration.
    """
    station, horizon = _trajectory_start(grid, station, horizon)
    counts = {station: 1}
    for _ in range(horizon):
        nxt = defaultdict(int)
        for cell, k in counts.items():
            for nb in grid.neighbors(cell):
                nxt[nb] += k
        counts = nxt
    return counts.get(station, 0)


def enumerate_feasible_trajectories(grid, station, horizon, budget=None):
    """An iterator over every feasible trajectory, each once, in lexicographic order.

    Ordering is pointwise over the position sequence with cells compared
    as (x, y) pairs. Intended for small instances; ``budget`` caps the
    number of yielded trajectories and raises BudgetExceededError when
    the space is larger. The station and horizon are checked on the call,
    before any trajectory is drawn.
    """
    station, horizon = _trajectory_start(grid, station, horizon)
    dist = grid.distances_from(station)
    yielded = 0
    prefix = [station]

    def extend(t):
        nonlocal yielded
        if t == horizon:
            if prefix[-1] == station:
                yielded += 1
                if budget is not None and yielded > budget:
                    raise BudgetExceededError(
                        f"trajectory enumeration exceeded budget {budget}",
                        size=yielded,
                    )
                yield tuple(prefix)
            return
        remaining = horizon - t - 1
        for nb in grid.neighbors(prefix[-1]):
            # dead branch: cannot return to the station in time
            d = dist.get(nb)
            if d is None or d > remaining:
                continue
            prefix.append(nb)
            yield from extend(t + 1)
            prefix.pop()

    return extend(0)
