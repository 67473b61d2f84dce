"""Consecutive-ones orderings of a set family.

Given subsets of a column universe as column masks (bit c for column c), find
a column order under which every set occupies consecutive positions, or
decide that none exists.  The classic tool is the PQ-tree; this module uses
the equivalent overlap-component decomposition, which suits the problem
sizes in this package:

* two sets *strictly overlap* when they intersect and neither contains the
  other; within a connected component of the strict-overlap graph the column
  arrangement is rigid up to reversal and is built by cell refinement, each
  added set queuing the sets it strictly overlaps (cells and spans are masks);
* the column spans of distinct components form a laminar family, and a
  nested component always fits inside a single cell of its host, so the
  global order is assembled by expanding each component's cells in place
  (with an explicit stack, so deep nesting costs no recursion).

A rejection during cell refinement proves that no valid order exists; every
produced order is re-verified against the full family before being returned.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Sequence

from .model import _iter_bits, is_run, position_masks


def is_consecutive_under(order: Sequence[int], masks: Sequence[int]) -> bool:
    """True if every column mask occupies consecutive positions of the column order."""
    return all(map(is_run, position_masks(masks, order)))


class _Rejected(Exception):
    pass


class _Component:
    """Rigid arrangement (ordered cells) of one strict-overlap component."""

    def __init__(self, seed: int):
        self.cells: list[int] = [seed]
        self.span = seed

    def add(self, t: int) -> None:
        """Refine the arrangement with ``t``, which strictly overlaps some
        added set; raises _Rejected when t cannot be made consecutive."""
        cells = self.cells
        new = t & ~self.span
        touched = [j for j, cell in enumerate(cells) if cell & t]
        if touched != list(range(touched[0], touched[-1] + 1)):
            raise _Rejected  # placed part of t cannot be contiguous
        a, b = touched[0], touched[-1]
        for j in range(a + 1, b):
            if cells[j] & ~t:
                raise _Rejected  # a non-member column is trapped inside t
        if not new:
            if a == b:
                raise AssertionError("strictly overlapping set inside a single cell")
            # split the boundary cells, member parts facing inward
            self._replace(b, [cells[b] & t, cells[b] & ~t])
            self._replace(a, [cells[a] & ~t, cells[a] & t])
        else:
            # new columns must attach at an end of the arrangement; only the
            # boundary cell facing inward may be partially covered
            can_left = a == 0 and not any(cells[j] & ~t for j in range(a, b))
            can_right = b == len(cells) - 1 and not any(
                cells[j] & ~t for j in range(a + 1, b + 1)
            )
            if can_left and can_right:
                if len(cells) > 1:
                    raise AssertionError("set contains the whole processed span")
                can_left = False  # mirror-symmetric seed split; fix one side
            if can_right:
                self._replace(a, [cells[a] & ~t, cells[a] & t])
                cells.append(new)
            elif can_left:
                self._replace(b, [cells[b] & t, cells[b] & ~t])
                cells.insert(0, new)
            else:
                raise _Rejected
        self.span |= t

    def _replace(self, idx: int, pieces: list[int]) -> None:
        self.cells[idx : idx + 1] = [p for p in pieces if p]


def consecutive_ones_order(num_columns: int, masks: Iterable[int]) -> list[int] | None:
    """A column order making every column mask consecutive, or None if impossible.

    Deterministic: sets are processed in first-appearance order, nested
    structure and free columns are laid out in ascending column order.
    """
    # empty, singleton and full sets are consecutive anywhere
    family = [mask for mask in dict.fromkeys(masks) if 2 <= mask.bit_count() < num_columns]
    try:
        order = _compose(num_columns, _build_components(family))
    except _Rejected:
        return None
    if len(order) != num_columns or not is_consecutive_under(order, family):
        raise AssertionError("internal error: produced order failed verification")
    return order


def _build_components(family: list[int]) -> list[_Component]:
    """Strict-overlap components, each grown from its lowest-index set.  Each
    added set queues the unqueued sets it strictly overlaps, and the lowest
    queued index, the lowest-index set overlapping the component, goes next."""
    components: list[_Component] = []
    rest = list(range(len(family)))  # neither added nor queued, ascending
    while rest:
        seed = rest.pop(0)
        comp, queue = _Component(family[seed]), [seed]
        while queue:
            i = heappop(queue)
            if i != seed:
                comp.add(family[i])
            t, left = family[i], []
            for j in rest:
                both = t & family[j]
                if both and both != t and both != family[j]:  # strict overlap
                    heappush(queue, j)
                else:
                    left.append(j)
            rest = left
        components.append(comp)
    return components


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _compose(num_columns: int, components: list[_Component]) -> list[int]:
    # hosts with larger spans first; single-set components (one cell: a first
    # addition adds a cell, and cells never merge) before equal-span refining
    # components so that the latter nest inside the former
    ordered = sorted(
        enumerate(components),
        key=lambda item: (
            -item[1].span.bit_count(),
            0 if len(item[1].cells) == 1 else 1,
            _lowest(item[1].span),
            item[0],
        ),
    )
    comps = [c for _, c in ordered]

    parent: list[int | None] = [None] * len(comps)
    for i, comp in enumerate(comps):
        for j in range(i - 1, -1, -1):  # most recent container = tightest host
            if not comp.span & ~comps[j].span:
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
        if len(hosts) != 1 or comp.span & ~comps[p].cells[hosts[0]]:
            raise AssertionError("nested component does not fit inside one host cell")
        children_in_cell[p].setdefault(hosts[0], []).append(i)

    def placed(columns: int, comp_ids: list[int]) -> list[tuple[int, int, int | None]]:
        """The free columns and child components laid out directly in
        ``columns``, each anchored at its lowest column, in column order."""
        taken = 0
        items: list[tuple[int, int, int | None]] = []
        for cid in comp_ids:
            span = comps[cid].span
            taken |= span
            items.append((_lowest(span), 1, cid))
        items += [(col, 0, None) for col in _iter_bits(columns & ~taken)]
        return sorted(items, key=lambda it: (it[0], it[1]))

    # a component expands into the items of its cells, in cell order
    out: list[int] = []
    stack = placed((1 << num_columns) - 1, roots)[::-1]
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
