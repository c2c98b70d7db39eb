from itertools import product

import numpy as np
import pytest

from taskgrid import (
    BudgetExceededError,
    DomainError,
    Task,
    ValidationError,
    ValueFunction,
    check_no_overlap,
    validate_monotonicity,
)
from taskgrid.tasks import VALUE_FIELDS, VALUE_KINDS, _table_is_monotone


class TestSimple:
    def test_any_single_stay_completes(self):
        vf = ValueFunction.simple(3)
        assert vf.evaluate((0, 0, 0)) == 0
        assert vf.evaluate((0, 1, 0)) == 3
        assert vf.evaluate((2, 5)) == 3
        assert vf.evaluate(()) == 0

    def test_is_simple_is_a_tag_not_a_shape(self):
        assert ValueFunction.simple(1).is_simple
        # threshold 1 behaves identically but carries a different tag
        assert not ValueFunction.threshold_max(1, 1).is_simple


class TestThresholds:
    def test_max_needs_simultaneous_robots(self):
        vf = ValueFunction.threshold_max(5, 2)
        assert vf.evaluate((1, 1, 1)) == 0
        assert vf.evaluate((0, 2)) == 5
        assert vf.evaluate((3,)) == 5

    def test_sum_accumulates_across_the_window(self):
        vf = ValueFunction.threshold_sum(4, 3)
        assert vf.evaluate((1, 1)) == 0
        assert vf.evaluate((1, 1, 1)) == 4
        assert vf.evaluate((3, 0)) == 4

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValidationError):
            ValueFunction.threshold_max(5, 0)
        with pytest.raises(ValidationError):
            ValueFunction.threshold_sum(5, -1)


class TestSequentialHeavyLight:
    def test_heavy_step_then_followup(self):
        vf = ValueFunction.sequential_heavy_light(1, 2, 2)
        assert vf.evaluate((0, 2, 3, 3, 2, 0)) == 1
        assert vf.evaluate((0, 2, 2, 2, 2, 0)) == 1
        assert vf.evaluate((0, 1, 2, 2, 1, 0)) == 1
        assert vf.evaluate((2, 2)) == 1
        assert vf.evaluate((2, 1)) == 0  # followup too small
        assert vf.evaluate((0, 2)) == 0  # nothing after the heavy step
        assert vf.evaluate((1, 1, 1, 1)) == 0  # no heavy step at all

    def test_parameters_must_be_positive(self):
        with pytest.raises(ValidationError):
            ValueFunction.sequential_heavy_light(1, 0, 2)
        with pytest.raises(ValidationError):
            ValueFunction.sequential_heavy_light(1, 2, 0)


class TestTable:
    def test_lookup_and_default(self):
        vf = ValueFunction.table([((0, 0), 0), ((1, 0), 2)], 4, default=1)
        assert vf.evaluate((1, 0)) == 2
        assert vf.evaluate((9, 9)) == 1

    def test_missing_entry_without_default_raises(self):
        vf = ValueFunction.table([((0,), 0)], 4)
        with pytest.raises(DomainError):
            vf.evaluate((1,))

    def test_entries_are_canonicalized(self):
        a = ValueFunction.table([((1, 0), 2), ((0, 0), 0)], 4)
        b = ValueFunction("table", 4, entries=[[[0, 0], 0], [[1, 0], 2]])
        assert a == b and hash(a) == hash(b)
        assert a.entries == (((0, 0), 0), ((1, 0), 2))

    def test_value_bounds_enforced(self):
        with pytest.raises(ValidationError):
            ValueFunction.table([((0,), 9)], 4)
        with pytest.raises(ValidationError):
            ValueFunction.table([((-1,), 0)], 4)
        with pytest.raises(ValidationError):
            ValueFunction.table([((0,), 0)], 4, default=5)
        with pytest.raises(ValidationError):
            ValueFunction.table([], 4)

    def test_values_must_be_integers(self):
        for make in (
            lambda: ValueFunction.simple(0.5),
            lambda: ValueFunction.simple(True),
            lambda: ValueFunction.threshold_sum(2.0, 1),
            lambda: ValueFunction.table([((0,), 0), ((1,), 1.5)], 2),
            lambda: ValueFunction.table([((0,), 0)], 2, default=1.0),
            lambda: ValueFunction.table([((0,), False)], 2),
            lambda: ValueFunction.threshold_max(2, 1.5),
            lambda: ValueFunction.threshold_sum(2, True),
            lambda: ValueFunction("threshold_sum", 2, threshold=None),
            lambda: ValueFunction.sequential_heavy_light(2, 1.5, 1),
            lambda: ValueFunction.sequential_heavy_light(2, 1, False),
            lambda: ValueFunction.sequential_heavy_light(2, "2", 1),
            lambda: ValueFunction.table([((0.5,), 1)], 1, default=0),
            lambda: ValueFunction.table([(("1",), 1)], 1, default=0),
            lambda: ValueFunction.table([((True,), 1)], 1, default=0),
        ):
            with pytest.raises(ValidationError, match="integer"):
                make()

    def test_a_duplicate_counter_is_rejected(self):
        # both constructors once gave a repeated counter different values
        entries = [((1,), 2), ((0,), 0), ((1,), 3)]
        message = r"^entries\[2\]: duplicate counter \(1,\)$"
        with pytest.raises(ValidationError, match=message):
            ValueFunction("table", 5, entries=tuple(entries))
        with pytest.raises(ValidationError, match=message):
            ValueFunction.table(entries, 5)

    def test_list_counters_become_tuples(self):
        vf = ValueFunction("table", 1, entries=(([0], 1),), default=0)
        assert vf.entries == (((0,), 1),)
        assert vf.evaluate((0,)) == 1

    @pytest.mark.parametrize("entries", [((1,),), (((0,), 1, 2),), ((5, 1),)])
    def test_entries_must_be_counter_value_pairs(self, entries):
        with pytest.raises(
            ValidationError, match=r"^entries\[0\]: expected a \(counter, value\) pair"
        ):
            ValueFunction("table", 1, entries=entries, default=0)


class TestFieldsByKind:
    def test_the_kinds_are_the_keys_of_the_field_table(self):
        assert VALUE_KINDS == tuple(VALUE_FIELDS)

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "simple", "threshold": 2},
            {"kind": "simple", "heavy": -3},
            {"kind": "threshold_max", "threshold": 2, "entries": (((0,), 1),)},
            {"kind": "threshold_sum", "threshold": 2, "follow": 1},
            {"kind": "sequential_heavy_light", "heavy": 1, "follow": 1, "threshold": 0},
            {"kind": "table", "entries": (((0,), 1),), "default": 0, "threshold": 2},
        ],
        ids=lambda fields: f"{fields['kind']}+{list(fields)[-1]}",
    )
    def test_a_field_the_kind_does_not_take_is_rejected(self, fields):
        kind, field = fields["kind"], list(fields)[-1]
        with pytest.raises(
            ValidationError, match=rf"^{field}: not used by a {kind} value$"
        ):
            ValueFunction(max_value=5, **fields)

    def test_a_field_at_its_default_is_accepted(self):
        # numpy integers equal to the default count as the default
        vf = ValueFunction("simple", 5, threshold=np.int64(1), heavy=0, default=None)
        assert vf == ValueFunction.simple(5)
        assert type(vf.threshold) is int


class TestEvaluationDomain:
    def test_numpy_integers_are_accepted(self):
        vf = ValueFunction.simple(1)
        assert vf.evaluate(np.array([0, 1])) == 1
        assert vf.evaluate((np.int64(2),)) == 1

    def test_floats_are_rejected(self):
        with pytest.raises(DomainError):
            ValueFunction.simple(1).evaluate((1.5,))

    @pytest.mark.parametrize("counter", [(True,), (0, np.bool_(True))], ids=repr)
    def test_bools_are_rejected(self, counter):
        with pytest.raises(DomainError, match="must contain integers"):
            ValueFunction.simple(5).evaluate(counter)

    def test_negative_entries_are_rejected(self):
        with pytest.raises(DomainError):
            ValueFunction.simple(1).evaluate((-1,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            ValueFunction("quadratic", 1)
        with pytest.raises(ValidationError):
            ValueFunction.simple(0)


class TestTask:
    def test_window_semantics(self):
        task = Task(7, (3, 3), 2, 5, ValueFunction.simple(1))
        assert list(task.window) == [2, 3, 4]
        assert task.window_length == 3
        assert task.active_at(2) and task.active_at(4)
        assert not task.active_at(5) and not task.active_at(1)

    def test_window_validation(self):
        vf = ValueFunction.simple(1)
        with pytest.raises(ValidationError):
            Task(1, (1, 1), -1, 2, vf)
        with pytest.raises(ValidationError):
            Task(1, (1, 1), 3, 3, vf)
        with pytest.raises(ValidationError):
            Task(1, (1, 1), 0, 2.0, vf)

    def test_a_location_that_is_not_iterable_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^location: expected an \(x, y\)"):
            Task(1, 5, 0, 2, ValueFunction.simple(1))

    def test_bool_window_bounds_are_rejected(self):
        vf = ValueFunction.simple(1)
        for arrival, departure in ((False, True), (0, True), (False, 2)):
            with pytest.raises(ValidationError, match="must be an integer"):
                Task(1, (1, 1), arrival, departure, vf)


class TestOverlap:
    def test_shared_location_with_intersecting_windows(self):
        vf = ValueFunction.simple(1)
        a = Task(1, (3, 3), 0, 3, vf)
        b = Task(2, (3, 3), 2, 4, vf)
        assert check_no_overlap([a, b]) == [(a, b)]

    def test_touching_windows_do_not_overlap(self):
        vf = ValueFunction.simple(1)
        a = Task(1, (3, 3), 0, 3, vf)
        b = Task(2, (3, 3), 3, 5, vf)
        assert check_no_overlap([a, b]) == []

    def test_different_locations_never_overlap(self):
        vf = ValueFunction.simple(1)
        a = Task(1, (3, 3), 0, 3, vf)
        b = Task(2, (3, 4), 0, 3, vf)
        assert check_no_overlap([a, b]) == []

    def test_all_pairs_reported(self):
        vf = ValueFunction.simple(1)
        tasks = [
            Task(1, (3, 3), 0, 3, vf),
            Task(2, (3, 3), 1, 5, vf),
            Task(3, (3, 3), 3, 6, vf),
        ]
        pairs = check_no_overlap(tasks)
        assert {(a.id, b.id) for a, b in pairs} == {(1, 2), (2, 3)}


class TestMonotonicity:
    def test_builtin_variants_are_monotone(self):
        for vf in (
            ValueFunction.simple(2),
            ValueFunction.threshold_max(3, 2),
            ValueFunction.threshold_sum(3, 4),
            ValueFunction.sequential_heavy_light(1, 2, 2),
        ):
            assert validate_monotonicity(vf, window_len=3, robot_cap=3)

    def test_monotone_table_passes(self):
        vf = ValueFunction.table(
            [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 2)], 2
        )
        assert validate_monotonicity(vf, window_len=2, robot_cap=1)

    def test_decreasing_table_fails(self):
        vf = ValueFunction.table(
            [((0, 0), 2), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)], 2
        )
        assert not validate_monotonicity(vf, window_len=2, robot_cap=1)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            validate_monotonicity(
                ValueFunction.simple(1), window_len=10, robot_cap=9, budget=100
            )

    @pytest.mark.parametrize(
        "window_len, robot_cap, name",
        [
            (0, 2, "window_len"),
            (True, 2, "window_len"),
            (1.0, 2, "window_len"),
            (2, -1, "robot_cap"),
            (2, True, "robot_cap"),
            (2, "1", "robot_cap"),
        ],
    )
    def test_window_and_cap_must_be_counts(self, window_len, robot_cap, name):
        with pytest.raises(DomainError, match=f"^{name}: "):
            validate_monotonicity(ValueFunction.simple(1), window_len, robot_cap)
        assert validate_monotonicity(ValueFunction.simple(1), np.int64(2), np.int64(0))

    def test_random_counters_never_lose_value_when_bumped(self):
        rng = np.random.default_rng(2)
        variants = (
            ValueFunction.simple(2),
            ValueFunction.threshold_max(5, 3),
            ValueFunction.threshold_sum(5, 6),
            ValueFunction.sequential_heavy_light(4, 2, 3),
        )
        for _ in range(300):
            vf = variants[int(rng.integers(len(variants)))]
            length = int(rng.integers(1, 7))
            counter = tuple(int(e) for e in rng.integers(0, 4, size=length))
            i = int(rng.integers(length))
            bumped = counter[:i] + (counter[i] + 1,) + counter[i + 1 :]
            assert vf.evaluate(bumped) >= vf.evaluate(counter)


def _verdict(check, spec, window_len, robot_cap):
    try:
        return check(spec, window_len, robot_cap)
    except DomainError as exc:
        return str(exc)


class TestTableGate:
    def test_entry_local_check_agrees_with_the_brute_force(self):
        rng = np.random.default_rng(10)
        seen = set()
        for _ in range(400):
            length = int(rng.integers(1, 4))
            cap = int(rng.integers(1, 4))
            dense = rng.random() < 0.5
            entries = []
            # counters up to cap + 1, so some entries lie out of range
            for counter in product(range(cap + 2), repeat=length):
                if rng.random() < (0.95 if dense else 0.4):
                    value = sum(counter) // 2
                    if rng.random() < 0.1:
                        value += int(rng.integers(-1, 2))
                    entries.append((counter, min(max(value, 0), 5)))
            if not entries:
                continue
            default = None if rng.random() < 0.5 else int(rng.integers(0, 3))
            vf = ValueFunction.table(entries, 5, default=default)
            brute = _verdict(validate_monotonicity, vf, length, cap)
            assert _verdict(_table_is_monotone, vf, length, cap) == brute
            seen.add(brute if isinstance(brute, bool) else "missing")
        assert seen == {True, False, "missing"}
