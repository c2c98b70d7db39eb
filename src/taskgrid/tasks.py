"""Task specifications and monotone value functions over service counters.

A task is a location, a time window ``{arrival, ..., departure - 1}``, and a
value function. The value function maps a counter vector (how many robots
served the location at each window step) to an integer between 0 and a cap.
Every built-in variant is monotone: adding robots never lowers the value.
"""

from dataclasses import dataclass, fields
from itertools import product

from .errors import BudgetExceededError, DomainError, ValidationError
from .grid import _as_cell, _as_integer, _as_integers

# value kind -> the fields it takes besides kind and max_value, all of them
# required but a table's default; every other field stays at its default
VALUE_FIELDS = {
    "simple": (),
    "threshold_max": ("threshold",),
    "threshold_sum": ("threshold",),
    "sequential_heavy_light": ("heavy", "follow"),
    "table": ("entries", "default"),
}
VALUE_KINDS = tuple(VALUE_FIELDS)


@dataclass(frozen=True)
class ValueFunction:
    """A tagged value-function variant.

    kind
        One of ``simple``, ``threshold_max``, ``threshold_sum``,
        ``sequential_heavy_light``, ``table``.
    max_value
        The cap: the value awarded when the task is completed (and, for the
        table variant, an upper bound on every entry).
    threshold
        ``c*`` for the threshold variants.
    heavy, follow
        For ``sequential_heavy_light``: the task completes iff some window
        step has at least ``heavy`` robots and the later steps together
        provide at least ``follow`` robots.
    entries
        For ``table``: (counter, value) pairs, at most one per counter; kept
        as a tuple of (int tuple, int) pairs sorted by counter.
    default
        For ``table``: value used for counters absent from ``entries``.
        When None, lookups outside the table are a domain error.

    A field that the kind does not take (``VALUE_FIELDS``) must stay at its
    default, so equal values have equal fields.
    """

    kind: str
    max_value: int
    threshold: int = 1
    heavy: int = 0
    follow: int = 0
    entries: tuple = None
    default: int = None

    def __post_init__(self):
        # messages start with the field path within the value function
        if self.kind not in VALUE_KINDS:
            raise ValidationError(f"kind: unknown value kind {self.kind!r}")
        for field in fields(self)[2:]:  # the fields after kind and max_value
            value, default = getattr(self, field.name), field.default
            if value is default or field.name in VALUE_FIELDS[self.kind]:
                continue
            # a numpy integer equal to an int default counts as the default
            if default is None or _as_integer(value) != default:
                raise ValidationError(f"{field.name}: not used by a {self.kind} value")
        for name in ("max_value", "threshold", "heavy", "follow"):
            value = _as_integer(getattr(self, name))
            if value is None:
                raise ValidationError(f"{name}: must be an integer")
            object.__setattr__(self, name, value)
        if self.max_value <= 0:
            raise ValidationError("max_value: must be positive")
        if self.kind in ("threshold_max", "threshold_sum") and self.threshold < 1:
            raise ValidationError("threshold: must be at least 1")
        if self.kind == "sequential_heavy_light":
            for name in ("heavy", "follow"):
                if getattr(self, name) < 1:
                    raise ValidationError(f"{name}: must be at least 1")
        if self.kind == "table":
            self._check_table()

    def _check_table(self):
        # counters become int tuples, since evaluate compares whole tuples
        if not (isinstance(self.entries, (list, tuple)) and self.entries):
            raise ValidationError("entries: a table needs a list of entries")
        # counter -> value; not a field, so equality and hashing see the entries
        lookup = {}
        for i, entry in enumerate(self.entries):
            where = f"entries[{i}]"
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and isinstance(entry[0], (list, tuple))
            ):
                raise ValidationError(f"{where}: expected a (counter, value) pair")
            counter, value = _as_integers(entry[0]), _as_integer(entry[1])
            if counter is None or min(counter, default=0) < 0:
                raise ValidationError(
                    f"{where}: counter {tuple(entry[0])} must hold non-negative integers"
                )
            if value is None:
                raise ValidationError(f"{where}: value {entry[1]!r} must be an integer")
            if not 0 <= value <= self.max_value:
                raise ValidationError(
                    f"{where}: value {value} outside [0, {self.max_value}]"
                )
            if counter in lookup:
                raise ValidationError(f"{where}: duplicate counter {counter}")
            lookup[counter] = value
        if self.default is not None:
            default = _as_integer(self.default)
            if default is None:
                raise ValidationError("default: must be an integer")
            if not 0 <= default <= self.max_value:
                raise ValidationError(
                    f"default: {default} outside [0, {self.max_value}]"
                )
            object.__setattr__(self, "default", default)
        object.__setattr__(self, "entries", tuple(sorted(lookup.items())))
        object.__setattr__(self, "_lookup", lookup)

    # -- constructors ----------------------------------------------------

    @classmethod
    def simple(cls, max_value):
        """Completed by one robot in one time step."""
        return cls("simple", max_value)

    @classmethod
    def threshold_max(cls, max_value, threshold):
        """Completed iff some single window step has >= threshold robots."""
        return cls("threshold_max", max_value, threshold=threshold)

    @classmethod
    def threshold_sum(cls, max_value, threshold):
        """Completed iff the window steps together provide >= threshold robot-steps."""
        return cls("threshold_sum", max_value, threshold=threshold)

    @classmethod
    def sequential_heavy_light(cls, max_value, heavy, follow):
        return cls("sequential_heavy_light", max_value, heavy=heavy, follow=follow)

    @classmethod
    def table(cls, entries, max_value, default=None):
        return cls("table", max_value, entries=tuple(entries), default=default)

    # -- evaluation ------------------------------------------------------

    @property
    def is_simple(self):
        return self.kind == "simple"

    def evaluate(self, counter):
        """Value for a counter vector (one entry per window step)."""
        c = _as_integers(counter)
        if c is None:
            raise DomainError(f"counter {tuple(counter)} must contain integers")
        if any(e < 0 for e in c):
            raise DomainError(f"counter {c} must contain non-negative integers")
        if self.kind == "simple":
            return self.max_value if c and max(c) >= 1 else 0
        if self.kind == "threshold_max":
            return self.max_value if c and max(c) >= self.threshold else 0
        if self.kind == "threshold_sum":
            return self.max_value if sum(c) >= self.threshold else 0
        if self.kind == "sequential_heavy_light":
            for i, e in enumerate(c):
                if e >= self.heavy and sum(c[i + 1 :]) >= self.follow:
                    return self.max_value
            return 0
        value = self._lookup.get(c, self.default)
        if value is not None:
            return value
        raise DomainError(f"table variant has no entry for counter {c} and no default")


@dataclass(frozen=True)
class Task:
    """One cooperative task: location, time window, value function."""

    id: object
    location: tuple
    arrival: int
    departure: int
    value: ValueFunction

    def __post_init__(self):
        # messages start with the field path within the task
        location = _as_cell(self.location)
        if location is None:
            raise ValidationError("location: expected an (x, y) integer pair")
        arrival, departure = _as_integer(self.arrival), _as_integer(self.departure)
        if arrival is None:
            raise ValidationError("arrival: must be an integer")
        if departure is None:
            raise ValidationError("departure: must be an integer")
        if arrival < 0:
            raise ValidationError("arrival: must be non-negative")
        if departure <= arrival:
            raise ValidationError(
                f"departure: {departure} must be greater than arrival {arrival}"
            )
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "arrival", arrival)
        object.__setattr__(self, "departure", departure)

    @property
    def window(self):
        """The window time steps: range(arrival, departure)."""
        return range(self.arrival, self.departure)

    @property
    def window_length(self):
        return self.departure - self.arrival

    def active_at(self, t):
        return self.arrival <= t < self.departure


def check_no_overlap(tasks):
    """Pairs of tasks that share a location with overlapping windows.

    An empty result means every location hosts at most one active task at
    any time, so a trajectory alone determines which task each stay serves.
    A non-empty result is exactly when ``GameInstance`` finds extended mode
    in its service index; this pair scan is the independent check of that.
    """
    violations = []
    tasks = list(tasks)
    for i, a in enumerate(tasks):
        for b in tasks[i + 1 :]:
            if a.location != b.location:
                continue
            if min(a.departure, b.departure) > max(a.arrival, b.arrival):
                violations.append((a, b))
    return violations


def validate_monotonicity(spec, window_len, robot_cap, budget=2_000_000):
    """Brute-force check that a value function is elementwise monotone.

    Enumerates every counter vector with entries in 0..robot_cap and
    verifies that incrementing any single entry never lowers the value.
    True by construction for the built-in variants; the mandatory gate
    for table variants.
    """
    for name, value, least in (("window_len", window_len, 1), ("robot_cap", robot_cap, 0)):
        if _as_integer(value) is None or value < least:
            raise DomainError(f"{name}: {value!r} is not an integer of at least {least}")
    total = (robot_cap + 1) ** window_len
    if total > budget:
        raise BudgetExceededError(
            f"monotonicity check needs {total} vectors, budget {budget}", size=total
        )
    for c in product(range(robot_cap + 1), repeat=window_len):
        base = spec.evaluate(c)
        for i in range(window_len):
            if c[i] < robot_cap:
                bumped = c[:i] + (c[i] + 1,) + c[i + 1 :]
                if spec.evaluate(bumped) < base:
                    return False
    return True


def _table_is_monotone(spec, window_len, robot_cap):
    """``validate_monotonicity`` for a table variant, from its entries alone.

    Gives the same verdict, and raises the same ``DomainError`` for the same
    first missing counter, without enumerating every counter vector. Two
    adjacent counters that are both absent from the table both take the
    default, so only the steps into and out of an in-range entry are
    tested. Without a default every vector must be an entry; if one is
    missing, the brute-force order stops at its first missing counter (or a
    drop before it), and every vector before that is an entry, so that walk
    is short. Every entry's counter must have ``window_len`` entries, which
    ``game._check_setup`` checks first.
    """
    span = range(robot_cap + 1)
    table = {
        counter: value
        for counter, value in spec._lookup.items()
        if all(e in span for e in counter)
    }
    default = spec.default
    if default is None and len(table) < len(span) ** window_len:

        def lookup(c):
            # evaluate raises the missing-entry error for an absent counter
            return table[c] if c in table else spec.evaluate(c)

        for c in product(span, repeat=window_len):
            base = lookup(c)
            for i in range(window_len):
                if c[i] < robot_cap:
                    if lookup(c[:i] + (c[i] + 1,) + c[i + 1 :]) < base:
                        return False
        return True
    for c, value in table.items():
        for i in range(window_len):
            if c[i] < robot_cap:
                if table.get(c[:i] + (c[i] + 1,) + c[i + 1 :], default) < value:
                    return False
            if c[i] > 0:
                if table.get(c[:i] + (c[i] - 1,) + c[i + 1 :], default) > value:
                    return False
    return True
