"""Shared search machinery: the node-count budget of the exponential searches,
the bit-sliced counters they keep, the lane kernel that feeds them
(``memberships``, ``unrank``, ``lift``), the one max-flow routine and the
one quota-assignment network on it.

A counter is one count per lane, held as lane masks: slice b, least
significant first, has bit i set iff bit b of lane i's count is set.  A lane
is a voter in the axiom checks and the cover and deviation searches, and a
committee in the Thiele rules' blocks.  Each operation costs a few whole-mask
operations per slice, whatever the number of lanes, so a search updates and
tests every lane at once; ``lift`` keeps lanes in at-least layers instead."""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import comb
from typing import Iterable, Sequence

from .model import Election, _iter_bits, transpose


class BudgetExceededError(RuntimeError):
    """An exact search hit its node cap before producing a provably correct answer.

    ``stage`` names the search that stopped and ``nodes`` is how many nodes
    it had counted by then.
    """

    def __init__(self, cap: int, nodes: int, stage: str):
        self.cap = cap
        self.nodes = nodes
        self.stage = stage
        super().__init__(
            f"exact computation infeasible within node cap {cap} "
            f"({stage} stopped after {nodes} nodes)"
        )


class NodeBudget:
    """Counts explored search nodes of one ``stage`` and raises once ``cap`` is exceeded."""

    __slots__ = ("cap", "nodes", "stage")

    def __init__(self, cap: int, stage: str):
        if cap <= 0:
            raise ValueError("node cap must be positive")
        self.cap = cap
        self.nodes = 0
        self.stage = stage

    def tick(self, count: int = 1) -> None:
        """Count ``count`` nodes; past the cap, ``nodes`` stops where single
        ticks would have raised."""
        self.nodes += count
        if self.nodes > self.cap:
            self.nodes = max(self.nodes - count, self.cap) + 1
            raise BudgetExceededError(self.cap, self.nodes, self.stage)


DEFAULT_NODE_CAP = 10**7


def counter(values: Sequence[int]) -> list[int]:
    """The counter holding ``values[i]`` for voter i: its slices are the
    columns of the values' bit matrix, one :func:`~irlab.model.transpose`."""
    return transpose(values, max(values, default=0).bit_length())


def sub(slices: Sequence[int], voters: int) -> list[int]:
    """``slices`` minus one for every voter of the mask ``voters``; each of
    them must hold at least 1."""
    out = list(slices)
    b = 0
    while voters:
        s = out[b]
        out[b] = s ^ voters
        voters ^= voters & s  # the borrow
        b += 1
    return out


def plus(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The voter-wise sum of two counters; ``plus(a, [voters])`` adds one
    for every voter of the mask ``voters``."""
    out = []
    carry = 0
    for x, y in zip_longest(a, b, fillvalue=0):
        out.append(x ^ y ^ carry)
        carry = (x & y) | (carry & (x ^ y))
    return out + [carry] if carry else out


def add(columns: list[list[int]], value: int, lanes: int) -> None:
    """Add ``value`` to every lane of the mask ``lanes`` in a carry-save
    counter, in place.

    Column b of ``columns`` holds at most two masks of weight 2^b.  Every set
    bit of ``value`` puts ``lanes`` in its column; a column that reaches
    three masks is folded by a full adder into one, carrying into the next,
    so a long run of additions costs about one full adder each.
    """
    while len(columns) < value.bit_length():
        columns.append([])
    b = 0
    while value:
        if value & 1:
            x, j, col = lanes, b, columns[b]
            while len(col) == 2:
                y, z = col
                half = y ^ z
                col[:] = [half ^ x]
                x = (y & z) | (half & x)
                j += 1
                if j == len(columns):
                    columns.append([])
                col = columns[j]
            col.append(x)
        value >>= 1
        b += 1


def settle(columns: Sequence[Sequence[int]]) -> list[int]:
    """The counter a carry-save counter holds."""
    first = [col[0] if col else 0 for col in columns]
    second = [col[1] if len(col) == 2 else 0 for col in columns]
    return plus(first, second)


def maximum(slices: Sequence[int], lanes: int) -> tuple[int, int]:
    """The largest count among the lanes of the non-empty mask ``lanes``, and
    the mask of the lanes holding it."""
    value = 0
    for b in range(len(slices) - 1, -1, -1):
        hit = lanes & slices[b]
        if hit:
            lanes = hit
            value |= 1 << b
    return value, lanes


def at_least(a: Sequence[int], b: Sequence[int], voters: int) -> int:
    """The mask of the voters of ``voters`` counting at least as much in ``a`` as in ``b``."""
    less = 0  # a < b on the slices seen so far, from the least significant up
    for x, y in zip_longest(a, b, fillvalue=0):
        less ^= (less ^ y) & (x ^ y)  # where the bits differ, b's bit decides
    return voters ^ (voters & less)


def above(slices: Sequence[int], value: int) -> int:
    """The mask of the voters whose count exceeds ``value``."""
    if value >> len(slices):
        return 0
    more = 0  # count > value on the slices seen so far, from the least significant up
    for b, s in enumerate(slices):
        more = more & s if value >> b & 1 else more | s
    return more


@lru_cache(maxsize=32)
def memberships(p: int, r: int) -> tuple[int, ...]:
    """Bit j of masks[c] is set iff c is in the j-th r-subset of range(p), in
    `itertools.combinations` order.

    Built by the lex split, from the last members up: the t-subsets of the
    last q members that take the first of them come first, as a block of
    C(q-1, t-1), and the others follow, shifted up past that block.
    """
    rows: list[list[int]] = [[] for _ in range(r + 1)]  # rows[t]: t-subsets of the last q
    for q in range(1, p + 1):
        for t in range(min(q, r), max(0, r - p + q) - 1, -1):
            if t:
                head = comb(q - 1, t - 1)
                rest = zip_longest(rows[t - 1], rows[t], fillvalue=0)
                rows[t] = [(1 << head) - 1] + [a | b << head for a, b in rest]
            else:
                rows[0] = [0] * q
    return tuple(rows[r])


def unrank(j: int, p: int, r: int) -> list[int]:
    """The j-th r-subset of range(p) in `itertools.combinations` order."""
    out = []
    c = 0
    while r:
        head = comb(p - c - 1, r - 1)  # the subsets that take c next
        if j < head:
            out.append(c)
            r -= 1
        else:
            j -= head
        c += 1
    return out


def lift(held: list[int], masks: Sequence[int], part: int, top: int) -> None:
    """Add the members of the mask ``part`` to the at-least layers ``held``
    in place (held[t]: the lanes holding t members or more; masks[c]: the
    lanes that take member c).  Each member lifts its lanes one layer,
    held[t] |= held[t-1] & masks[c], and opens a new top layer up to held[top]."""
    for c in _iter_bits(part):
        mc = masks[c]
        t = len(held) - 1
        if t < top:
            held.append(held[t] & mc)
        while t:
            held[t] |= held[t - 1] & mc
            t -= 1


def max_flow(
    size: int, arcs: Iterable[tuple[int, int, int]], source: int, sink: int
) -> tuple[int, set[int]]:
    """Maximum ``source``-``sink`` flow over nodes ``0..size-1`` (Edmonds-Karp).

    ``arcs`` lists ``(u, v, capacity)`` with integer capacities.  Returns the
    flow value and the nodes reachable from ``source`` in the final residual
    graph: the source side of the minimum cut nearest the source, which is
    the same set for every maximum flow.  Iterative, so path length is not
    bounded by the recursion limit.
    """
    out: list[list[int]] = [[] for _ in range(size)]
    head: list[int] = []  # arc e ends at head[e]; arc e ^ 1 is its reverse
    residual: list[int] = []
    for u, v, cap in arcs:
        out[u].append(len(head))
        head.append(v)
        residual.append(cap)
        out[v].append(len(head))
        head.append(u)
        residual.append(0)
    total = 0
    # greedy start: fill free source -> u -> v -> sink paths of given arcs
    # (even indices), so the breadth-first phases below only repair what the
    # greedy paths missed
    for e in out[source]:
        u = head[e]
        if e & 1 or u == sink:
            continue
        for e2 in out[u]:
            if not residual[e]:
                break
            if residual[e2] and not e2 & 1:
                for e3 in out[head[e2]]:
                    if residual[e3] and head[e3] == sink and not e3 & 1:
                        push = min(residual[e], residual[e2], residual[e3])
                        for arc in (e, e2, e3):
                            residual[arc] -= push
                            residual[arc ^ 1] += push
                        total += push
                        break
    while True:
        via = [-1] * size  # the arc a node was first reached by; -2 marks the source
        via[source] = -2
        queue = [source]
        for u in queue:
            for e in out[u]:
                if residual[e]:
                    v = head[e]
                    if via[v] == -1:
                        via[v] = e
                        queue.append(v)
            if via[sink] != -1:
                break
        if via[sink] == -1:
            return total, set(queue)
        path = []
        v = sink
        while v != source:
            e = via[v]
            path.append(e)
            v = head[e ^ 1]
        push = min(residual[e] for e in path)
        for e in path:
            residual[e] -= push
            residual[e ^ 1] += push
        total += push


def quota_assignment(election: Election, members: Sequence[int]) -> tuple[int, list[int]]:
    """Monroe's network: each member takes up to floor(n/k) approving voters
    and n mod k members one more, through an extra node.  Returns the flow
    value and, in increasing order, the voters still on the source side:
    when k divides n and the value is short of n, a Hall violator.
    """
    n, k = election.n, election.k
    base, extra = divmod(n, k)
    # source 0, sink 1, the extra node 2, voters 3..n+2, members after them
    arcs = [(0, v + 3, 1) for v in range(n)] + [(2, 1, extra)]
    for node, c in enumerate(members, n + 3):
        arcs += [(node, 1, base), (node, 2, 1)]
        arcs += [(v + 3, node, 1) for v in _iter_bits(election.candidate_voters[c])]
    value, reached = max_flow(n + 3 + len(members), arcs, 0, 1)
    return value, [v for v in range(n) if v + 3 in reached]
