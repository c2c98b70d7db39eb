"""Task specifications and monotone value functions over service counters.

A task is a location, a time window ``{arrival, ..., departure - 1}``, and a
value function. The value function maps a counter vector (how many robots
served the location at each window step) to an integer between 0 and a cap.
Every built-in variant is monotone: adding robots never lowers the value.
"""

import operator
from dataclasses import dataclass

from .errors import BudgetExceededError, DomainError, ValidationError

VALUE_KINDS = (
    "simple",
    "threshold_max",
    "threshold_sum",
    "sequential_heavy_light",
    "table",
)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


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
        For ``table``: tuple of (counter tuple, value) pairs.
    default
        For ``table``: value used for counters absent from ``entries``.
        When None, lookups outside the table are a domain error.
    """

    kind: str
    max_value: int
    threshold: int = 1
    heavy: int = 0
    follow: int = 0
    entries: tuple = None
    default: int = None

    def __post_init__(self):
        if self.kind not in VALUE_KINDS:
            raise ValidationError(f"unknown value-function kind {self.kind!r}")
        if not _is_int(self.max_value):
            raise ValidationError("max_value must be an integer")
        if self.max_value <= 0:
            raise ValidationError("max_value must be positive")
        if self.kind in ("threshold_max", "threshold_sum") and self.threshold < 1:
            raise ValidationError("threshold must be at least 1")
        if self.kind == "sequential_heavy_light":
            if self.heavy < 1 or self.follow < 1:
                raise ValidationError("heavy and follow must be at least 1")
        if self.kind == "table":
            if not self.entries:
                raise ValidationError("table variant requires entries")
            for counter, value in self.entries:
                if any(e < 0 for e in counter):
                    raise ValidationError(f"table counter {counter} has a negative entry")
                if not _is_int(value):
                    raise ValidationError(
                        f"table value {value!r} for {counter} must be an integer"
                    )
                if not 0 <= value <= self.max_value:
                    raise ValidationError(
                        f"table value {value} for {counter} outside [0, {self.max_value}]"
                    )
            if self.default is not None:
                if not _is_int(self.default):
                    raise ValidationError("default must be an integer")
                if not 0 <= self.default <= self.max_value:
                    raise ValidationError("table default outside [0, max_value]")

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
        canonical = tuple(
            sorted((tuple(c), v) for c, v in dict(
                (tuple(c), v) for c, v in entries
            ).items())
        )
        return cls("table", max_value, entries=canonical, default=default)

    # -- evaluation ------------------------------------------------------

    @property
    def is_simple(self):
        return self.kind == "simple"

    def evaluate(self, counter):
        """Value for a counter vector (one entry per window step)."""
        try:
            c = tuple(operator.index(e) for e in counter)
        except TypeError:
            raise DomainError(f"counter {tuple(counter)} must contain integers") from None
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
        for entry, value in self.entries:
            if entry == c:
                return value
        if self.default is not None:
            return self.default
        raise DomainError(f"table variant has no entry for counter {c} and no default")


def evaluate_value(spec, counter):
    """Evaluate a ValueFunction on a counter vector."""
    return spec.evaluate(counter)


@dataclass(frozen=True)
class Task:
    """One cooperative task: location, time window, value function."""

    id: object
    location: tuple
    arrival: int
    departure: int
    value: ValueFunction

    def __post_init__(self):
        object.__setattr__(self, "location", tuple(self.location))
        if not (isinstance(self.arrival, int) and isinstance(self.departure, int)):
            raise ValidationError(f"task {self.id}: window bounds must be integers")
        if self.arrival < 0:
            raise ValidationError(f"task {self.id}: arrival must be non-negative")
        if self.departure <= self.arrival:
            raise ValidationError(
                f"task {self.id}: departure must be greater than arrival"
            )

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
    A non-empty result means the game must use extended actions that carry
    explicit service commitments.
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
    total = (robot_cap + 1) ** window_len
    if total > budget:
        raise BudgetExceededError(
            f"monotonicity check needs {total} vectors, budget {budget}", size=total
        )

    def vectors(prefix):
        if len(prefix) == window_len:
            yield tuple(prefix)
            return
        for e in range(robot_cap + 1):
            prefix.append(e)
            yield from vectors(prefix)
            prefix.pop()

    for c in vectors([]):
        base = spec.evaluate(c)
        for i in range(window_len):
            if c[i] < robot_cap:
                bumped = c[:i] + (c[i] + 1,) + c[i + 1 :]
                if spec.evaluate(bumped) < base:
                    return False
    return True
