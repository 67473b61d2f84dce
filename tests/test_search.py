import random
from collections import Counter
from itertools import combinations

import pytest

from irlab.model import transpose
from irlab.search import (
    BudgetExceededError,
    NodeBudget,
    above,
    add,
    at_least,
    counter,
    lift,
    maximum,
    memberships,
    plus,
    settle,
    sub,
)

from instance_gen import random_election
from oracles import counter_by_bytes, counter_by_digits


def _values(slices, n):
    """The per-voter integers a bit-sliced counter holds."""
    digits = [format(s, f"0{n}b")[::-1] for s in slices]  # digits[b][i]: bit b of voter i
    return [sum(int(d[i]) << b for b, d in enumerate(digits)) for i in range(n)]


def _mask(voters):
    return sum(1 << i for i in voters)


def test_counter_kernel_matches_integer_lists():
    # every kernel operation against the same operation on a plain list,
    # at widths inside and well past one machine word
    rng = random.Random(71)
    for _ in range(300):
        n = rng.choice([0, 1, 5, 63, 64, 65, 130, 1000])
        top = rng.choice([1, 2, 7, 8, 40])
        a = [rng.randint(0, top) for _ in range(n)]
        b = [rng.randint(0, top) for _ in range(n)]
        ca, cb = counter(a), counter(b)
        assert _values(ca, n) == a and len(ca) == max(a, default=0).bit_length()
        picked = {i for i in range(n) if rng.random() < 0.5}
        mask = _mask(picked)
        assert _values(plus(ca, [mask]), n) == [v + (i in picked) for i, v in enumerate(a)]
        positive = _mask(i for i in picked if a[i])
        assert _values(sub(ca, positive), n) == [v - (positive >> i & 1) for i, v in enumerate(a)]
        assert _values(plus(ca, cb), n) == [x + y for x, y in zip(a, b)]
        assert at_least(ca, cb, mask) == _mask(i for i in picked if a[i] >= b[i])
        value = rng.randint(0, top + 2)
        assert above(ca, value) == _mask(i for i in range(n) if a[i] > value)


def test_counter_at_least_and_sub_match_plain_integers():
    # the transpose against the bit definition and the digit-string counter,
    # on either side of its 8-column switch, with no rows, one row and
    # repeated rows; the counter against the digit-string and byte-splitting
    # counters it replaced, and the counter, the compare and the subtraction
    # against plain integers: unequal slice counts both ways (zero top slices
    # too, as ``sub`` leaves them), empty counters, values past one byte and
    # masks past one machine word
    rng = random.Random(79)
    seen = Counter()
    for width in (0, 1, 7, 8, 9, 16, 17, 1000):
        for n in (0, 1, 2, 5, 70):
            rows = [rng.getrandbits(width) for _ in range(n)] if width else [0] * n
            rows += rows[: n // 2]  # repeated rows
            columns = transpose(rows, width)
            assert columns == [
                sum(1 << i for i, row in enumerate(rows) if row >> c & 1) for c in range(width)
            ]
            sliced = counter_by_digits(rows)  # no zero top slices
            assert columns == sliced + [0] * (width - len(sliced))
    for _ in range(400):
        n = rng.choice([0, 1, 7, 64, 65, 200, 1000])
        a, b = (
            [rng.randint(0, top) for _ in range(n)]
            for top in rng.sample([0, 1, 3, 8, 40, 255, 256, 1000], 2)
        )
        ca, cb = counter(a), counter(b)
        assert ca == counter_by_digits(a) and cb == counter_by_digits(b)
        assert ca == counter_by_bytes(a) and cb == counter_by_bytes(b)
        assert _values(ca, n) == a and _values(cb, n) == b
        ca += [0] * rng.choice([0, 0, 1, 3])
        voters = rng.getrandbits(n) if n else 0
        for x, y, cx, cy in ((a, b, ca, cb), (b, a, cb, ca)):
            expected = _mask(i for i in range(n) if voters >> i & 1 and x[i] >= y[i])
            assert at_least(cx, cy, voters) == expected
        picked = _mask(i for i in range(n) if a[i] and rng.random() < 0.5)
        assert _values(sub(ca, picked), n) == [v - (picked >> i & 1) for i, v in enumerate(a)]
        seen["a longer"] += len(ca) > len(cb)
        seen["b longer"] += len(cb) > len(ca)
        seen["an empty counter"] += not ca or not cb
        seen["past one byte"] += max(a + b, default=0) > 255
        seen["n > 64"] += n > 64
    assert min(seen.values()) >= 40, seen


def test_counter_kernel_edges():
    # empty counters, a carry past the top slice, and subtracting to zero
    assert counter([]) == [] and counter([0, 0, 0]) == []
    assert _values(plus([], [0]), 3) == [0, 0, 0] and plus([], [0b101]) == [0b101]
    assert plus([], []) == [] and plus([], [0b11]) == [0b11]
    assert at_least([], [], 0b111) == 0b111 and at_least([], [0b010], 0b111) == 0b101
    assert above([], 0) == 0 and above(counter([0, 5]), 4) == 0b10
    full = counter([7, 7, 7, 3])  # voters 0-2 at the top of three slices
    assert _values(plus(full, [0b0111]), 4) == [8, 8, 8, 3]
    assert _values(plus(full, full), 4) == [14, 14, 14, 6]
    down = counter([1, 2, 4])
    for _ in range(4):
        down = sub(down, _mask(i for i, v in enumerate(_values(down, 3)) if v))
    assert _values(down, 3) == [0, 0, 0]
    assert above(down, 0) == 0 and at_least(down, [], 0b111) == 0b111


def test_carry_save_adds_and_maximum_match_integer_lists():
    # scalar additions on lane masks into a carry-save counter, the counter
    # it settles to, and the largest count with its lanes, against plain
    # lists, at widths inside and well past one machine word
    rng = random.Random(73)
    for _ in range(200):
        n = rng.choice([1, 5, 63, 64, 65, 130, 1000])
        columns, values = [], [0] * n
        for _ in range(rng.randint(0, 30)):
            value = rng.choice([0, 1, 1, 3, rng.randint(0, 10**6), 2**40 + rng.randint(0, 9)])
            lanes = rng.getrandbits(n)
            add(columns, value, lanes)
            values = [v + (value if lanes >> i & 1 else 0) for i, v in enumerate(values)]
            assert all(len(col) <= 2 for col in columns)
        slices = settle(columns)
        assert _values(slices, n) == values
        lanes = rng.getrandbits(n) or 1
        picked = [i for i in range(n) if lanes >> i & 1]
        best = max(values[i] for i in picked)
        assert maximum(slices, lanes) == (best, _mask(i for i in picked if values[i] == best))


def test_carry_save_edges():
    assert settle([]) == [] and maximum([], 0b101) == (0, 0b101)
    columns = []
    add(columns, 0, 0b111)
    add(columns, 5, 0)
    assert _values(settle(columns), 3) == [0, 0, 0]
    for _ in range(7):  # a carry through three columns
        add(columns, 1, 0b11)
    assert _values(settle(columns), 2) == [7, 7]
    assert maximum(settle([[0b10]]), 0b01) == (0, 0b01)


def test_lift_matches_direct_counts():
    # the at-least layers lift keeps against each lane's members counted
    # directly, on voter lanes (candidate_voters, random committees) and on
    # block lanes (the r-subsets of memberships(p, r), counted on
    # itertools.combinations); the members arrive in two calls on the same
    # list, as seq-Thiele lifts one pick after another, and either may be
    # empty; ``top`` is often below the largest count
    rng = random.Random(83)
    seen = Counter()
    for trial in range(400):
        if trial % 2:
            e = random_election(rng, n_max=70, m_max=8)
            masks, width = e.candidate_voters, e.m
            lanes = [e.ballot_masks[i] for i in range(e.n)]  # a lane's candidates, as a mask
        else:
            p = rng.randint(1, 8)
            r = rng.randint(1, p)
            masks, width = memberships(p, r), p
            lanes = [_mask(subset) for subset in combinations(range(p), r)]
        top = rng.randint(1, width)
        held = [_mask(range(len(lanes)))]
        done = 0  # the members lifted so far, as a mask
        for _ in range(2):
            part = _mask(c for c in range(width) if rng.random() < 0.4 and not done >> c & 1)
            lift(held, masks, part, top)
            done |= part
            counts = [(lane & done).bit_count() for lane in lanes]
            expected = [_mask(j for j, v in enumerate(counts) if v >= t) for t in range(top + 1)]
            assert held == expected[: done.bit_count() + 1], (trial, top, part, done)
            seen["empty part"] += not part
            seen["top below the largest count"] += top < max(counts)
    assert min(seen.values()) >= 40, seen


def test_node_budget_tick_count_stops_where_single_ticks_stop():
    # tick(count) counts like count single ticks: past the cap it raises
    # with nodes at cap + 1, where the first single tick over the cap stops
    for cap in (1, 2, 5):
        for start in range(cap + 1):
            for count in range(8):
                single, batch = NodeBudget(cap, "single"), NodeBudget(cap, "batch")
                single.nodes = batch.nodes = start
                single_raised = False
                try:
                    for _ in range(count):
                        single.tick()
                except BudgetExceededError:
                    single_raised = True
                if start + count > cap:
                    with pytest.raises(BudgetExceededError) as err:
                        batch.tick(count)
                    assert batch.nodes == err.value.nodes == cap + 1
                else:
                    batch.tick(count)
                assert (batch.nodes, start + count > cap) == (single.nodes, single_raised)
