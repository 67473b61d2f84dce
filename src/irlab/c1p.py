"""Consecutive-ones orderings of a set family.

Given subsets of a column universe, find a column order under which every set
occupies consecutive positions, or decide that none exists.  The classic tool
is the PQ-tree; this module uses the equivalent overlap-component
decomposition, which suits the problem sizes in this package:

* two sets *strictly overlap* when they intersect and neither contains the
  other; within a connected component of the strict-overlap graph the column
  arrangement is rigid up to reversal and is built by iterative cell
  refinement;
* the column spans of distinct components form a laminar family, and a
  nested component always fits inside a single cell of its host, so the
  global order is assembled by expanding each component's cells in place
  (with an explicit stack, so deep nesting costs no recursion).

A rejection during cell refinement proves that no valid order exists; every
produced order is re-verified against the full family before being returned.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import is_run, members_mask, position_mask


def is_consecutive_under(order: Sequence[int], masks: Iterable[int]) -> bool:
    """True if every column mask occupies consecutive positions of the column order."""
    return all(is_run(position_mask(mask, order)) for mask in masks)


def _strictly_overlap(a: int, b: int) -> bool:
    """True if the column masks intersect and neither contains the other."""
    both = a & b
    return both != 0 and both != a and both != b


class _Rejected(Exception):
    pass


class _Component:
    """Rigid arrangement (ordered cells) of one strict-overlap component."""

    def __init__(self, seed: frozenset[int], seed_mask: int):
        self.masks: list[int] = [seed_mask]  # the processed sets as column masks
        self.cells: list[set[int]] = [set(seed)]
        self.span: set[int] = set(seed)
        self.span_mask = seed_mask

    def overlaps(self, t_mask: int) -> bool:
        return any(_strictly_overlap(t_mask, s) for s in self.masks)

    def add(self, t: frozenset[int], t_mask: int) -> None:
        """Refine the arrangement with ``t``, which strictly overlaps some
        processed set; raises _Rejected when t cannot be made consecutive."""
        new = t - self.span
        touched = [j for j, cell in enumerate(self.cells) if cell & t]
        if touched != list(range(touched[0], touched[-1] + 1)):
            raise _Rejected  # placed part of t cannot be contiguous
        a, b = touched[0], touched[-1]
        for j in range(a + 1, b):
            if not self.cells[j] <= t:
                raise _Rejected  # a non-member column is trapped inside t
        if not new:
            if a == b:
                raise AssertionError("strictly overlapping set inside a single cell")
            # split the boundary cells, member parts facing inward
            right_cell = self.cells[b]
            self._replace(b, [right_cell & t, right_cell - t])
            left_cell = self.cells[a]
            self._replace(a, [left_cell - t, left_cell & t])
        else:
            # new columns must attach at an end of the arrangement; only the
            # boundary cell facing inward may be partially covered
            can_left = a == 0 and all(self.cells[j] <= t for j in range(a, b))
            can_right = b == len(self.cells) - 1 and all(
                self.cells[j] <= t for j in range(a + 1, b + 1)
            )
            if can_left and can_right:
                if len(self.cells) > 1:
                    raise AssertionError("set contains the whole processed span")
                can_left = False  # mirror-symmetric seed split; fix one side
            if can_right:
                cell = self.cells[a]
                self._replace(a, [cell - t, cell & t])
                self.cells.append(set(new))
            elif can_left:
                cell = self.cells[b]
                self._replace(b, [cell & t, cell - t])
                self.cells.insert(0, set(new))
            else:
                raise _Rejected
            self.span |= new
        self.masks.append(t_mask)
        self.span_mask |= t_mask

    def _replace(self, idx: int, pieces: list[set[int]]) -> None:
        self.cells[idx : idx + 1] = [p for p in pieces if p]


def consecutive_ones_order(
    num_columns: int, sets: Iterable[Iterable[int]]
) -> list[int] | None:
    """A column order making every set consecutive, or None if impossible.

    Deterministic: sets are processed in first-appearance order, nested
    structure and free columns are laid out in ascending column order.
    """
    family: dict[frozenset[int], int] = {}  # set -> column mask, first appearance first
    for s in sets:
        fs = frozenset(s)
        if len(fs) < 2 or len(fs) >= num_columns or fs in family:
            continue  # empty, singleton and full sets are consecutive anywhere
        family[fs] = members_mask(fs)

    try:
        components = _build_components(family)
        order = _compose(num_columns, components)
    except _Rejected:
        return None
    if len(order) != num_columns or not is_consecutive_under(order, family.values()):
        raise AssertionError("internal error: produced order failed verification")
    return order


def _build_components(family: dict[frozenset[int], int]) -> list[_Component]:
    components: list[_Component] = []
    remaining = list(family.items())
    while remaining:
        comp = _Component(*remaining.pop(0))
        grown = True
        while grown:
            grown = False
            span = comp.span_mask
            for idx, (t, t_mask) in enumerate(remaining):
                # a set that misses or holds the whole span overlaps no processed set
                if t_mask & span not in (0, span) and comp.overlaps(t_mask):
                    comp.add(t, t_mask)
                    remaining.pop(idx)
                    grown = True
                    break
        components.append(comp)
    return components


def _compose(num_columns: int, components: list[_Component]) -> list[int]:
    # hosts with larger spans first; single-set components before equal-span
    # refining components so that the latter nest inside the former
    ordered = sorted(
        enumerate(components),
        key=lambda item: (
            -len(item[1].span),
            0 if len(item[1].masks) == 1 else 1,
            min(item[1].span) if item[1].span else 0,
            item[0],
        ),
    )
    comps = [c for _, c in ordered]

    parent: list[int | None] = [None] * len(comps)
    for i, comp in enumerate(comps):
        for j in range(i - 1, -1, -1):  # most recent container = tightest host
            if comp.span <= comps[j].span:
                parent[i] = j
                break

    children_in_cell: list[dict[int, list[int]]] = [dict() for _ in comps]
    roots: list[int] = []
    for i, comp in enumerate(comps):
        p = parent[i]
        if p is None:
            roots.append(i)
            continue
        hosts = [j for j, cell in enumerate(comps[p].cells) if cell & comp.span]
        if len(hosts) != 1 or not comp.span <= comps[p].cells[hosts[0]]:
            raise AssertionError("nested component does not fit inside one host cell")
        children_in_cell[p].setdefault(hosts[0], []).append(i)

    def placed(columns: set[int], comp_ids: list[int]) -> list[tuple[int, int, int | None]]:
        """The free columns and child components laid out directly in
        ``columns``, each anchored at its lowest column, in column order."""
        taken: set[int] = set()
        items: list[tuple[int, int, int | None]] = []
        for cid in comp_ids:
            span = comps[cid].span
            taken |= span
            items.append((min(span), 1, cid))
        for col in columns - taken:
            items.append((col, 0, None))
        return sorted(items, key=lambda it: (it[0], it[1]))

    # a component expands into the items of its cells, in cell order
    out: list[int] = []
    stack = placed(set(range(num_columns)), roots)[::-1]
    while stack:
        anchor, kind, cid = stack.pop()
        if kind == 0:
            out.append(anchor)
            continue
        expansion = []
        for cell_idx, cell in enumerate(comps[cid].cells):
            expansion += placed(cell, children_in_cell[cid].get(cell_idx, []))
        stack.extend(reversed(expansion))
    return out
