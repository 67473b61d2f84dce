"""Core election data types, validation, supporter queries and the .avp file format.

Conventions used throughout the package:

* candidate and voter indices are 0-based in memory and 1-based in ``.avp`` files;
* a ballot is a candidate bitmask (bit c for candidate c): an :class:`Election`
  is built from its ballot masks, which are canonical, and derives the
  frozen-set ``approvals`` on first read;
* all proportionality thresholds are evaluated with exact integer arithmetic,
  i.e. ``|V| >= l*n/k`` is always written as ``|V|*k >= l*n`` (n/k is never
  materialized as a float);
* voter groups are bitmasks (bit i for voter i): a :class:`VoterGroup` holds
  only its mask and derives its member set when it is read;
* "is this set an interval, a prefix or a suffix of that order?" is one
  question: map a family's masks to order positions (:func:`position_masks`,
  two bit-matrix :func:`transpose` calls) and test each with :func:`is_run`;
* every type in this module is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Collection, Iterable, Iterator, Sequence


class ProfileFormatError(ValueError):
    """Raised when a ``.avp`` stream violates the format; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, repr=False)
class Election:
    """An approval-based committee election: n voters, m candidates, committee size k.

    ``ballot_masks[i]`` is voter i's ballot as a candidate bitmask (bit c for
    candidate c); the masks are the canonical data, and equality and hashing
    compare them together with n, m and k.  ``candidate_voters`` is their
    :func:`transpose` (bit i for voter i), built with the election, and
    ``approvals``, the ballots as frozen sets, are derived on first read.
    """

    n: int
    m: int
    k: int
    ballot_masks: tuple[int, ...]
    candidate_voters: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"voter count must be positive, got {self.n}")
        if self.m <= 0:
            raise ValueError(f"candidate count must be positive, got {self.m}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"committee size k={self.k} not in [1, {self.m}]")
        masks, m = self.ballot_masks, self.m
        if len(masks) != self.n:
            raise ValueError(f"expected {self.n} approval sets, got {len(masks)}")
        if min(masks) < 0 or max(masks) >> m:
            for i, mask in enumerate(masks):
                if mask < 0:
                    raise ValueError(f"voter {i}: ballot mask {mask} is negative")
                if mask >> m:
                    raise ValueError(
                        f"voter {i}: candidate index {mask.bit_length() - 1} out of range"
                    )
        object.__setattr__(self, "candidate_voters", tuple(transpose(masks, m)))

    @cached_property
    def approvals(self) -> tuple[frozenset[int], ...]:
        """``approvals[i]``: the candidates voter i approves, one frozen set per
        distinct ballot mask, built when first read."""
        sets = {mask: mask_to_set(mask) for mask in set(self.ballot_masks)}
        return tuple(map(sets.__getitem__, self.ballot_masks))

    def __repr__(self) -> str:
        return f"Election(n={self.n}, m={self.m}, k={self.k}, approvals={self.approvals!r})"

    @staticmethod
    def from_approvals(approvals: Iterable[Iterable[int]], m: int, k: int) -> "Election":
        """The election of these ballots (candidate index collections): one
        mask per distinct ballot; the first voter of a ballot with an index
        outside [0, m) is named in the ``ValueError``."""
        sets = [frozenset(a) for a in approvals]
        masks = dict.fromkeys(sets)
        for ballot in masks:
            for c in ballot:
                if not 0 <= c < m:
                    raise ValueError(f"voter {sets.index(ballot)}: candidate index {c} out of range")
            masks[ballot] = members_mask(ballot)
        return Election(n=len(sets), m=m, k=k, ballot_masks=tuple(map(masks.__getitem__, sets)))

    def all_voters_mask(self) -> int:
        return (1 << self.n) - 1

    def supporters_mask(self, candidates: Iterable[int]) -> int:
        """Bitmask of voters approving every candidate in ``candidates``."""
        mask = self.all_voters_mask()
        for c in candidates:
            if not 0 <= c < self.m:
                raise ValueError(f"candidate index {c} out of range")
            mask &= self.candidate_voters[c]
        return mask


@dataclass(frozen=True)
class Committee:
    """A candidate subset of size at most ``target_size`` under evaluation."""

    members: frozenset[int]
    target_size: int

    def __post_init__(self):
        if len(self.members) > self.target_size:
            raise ValueError(
                f"committee has {len(self.members)} members, target size {self.target_size}"
            )

    @staticmethod
    def of(members: Iterable[int], election: Election) -> "Committee":
        members = frozenset(members)
        for c in members:
            if not 0 <= c < election.m:
                raise ValueError(f"candidate index {c} out of range")
        return Committee(members=members, target_size=election.k)

    def mask(self) -> int:
        return members_mask(self.members)


@dataclass(frozen=True)
class VoterGroup:
    """A set of voter indices, e.g. the supporters N(S) of a candidate set S.

    The group is its voter bitmask (bit i for voter i); ``members``, ``len``
    and iteration (in ascending voter order) are derived from it when read.
    """

    mask: int

    @staticmethod
    def from_mask(mask: int) -> "VoterGroup":
        return VoterGroup(mask)

    @property
    def members(self) -> frozenset[int]:
        return mask_to_set(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.mask)


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members_mask(indices: Iterable[int], width: int = 0) -> int:
    """Bitmask with bit i set for every index i (candidates or voters).

    Each OR costs the width of the mask so far, so a wide mask gives its
    ``width`` (every index is below it): the bits are then set in a bytearray
    and read as one int, in time linear in the width.
    """
    if width:
        bits = bytearray((width + 7) >> 3)
        for i in indices:
            bits[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bits, "little")
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def index_set(ids: object, bound: int) -> bool:
    """Whether ``ids`` is a set of ints in [0, ``bound``), as witness fields are."""
    return isinstance(ids, (set, frozenset)) and all(type(i) is int and 0 <= i < bound for i in ids)


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_iter_bits(mask))


# _DIGITS[c] maps a byte to the character of its bit c, "0" or "1"
_DIGITS = [bytes(48 + (v >> c & 1) for v in range(256)) for c in range(8)]


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The columns of a bit matrix: column c is the mask of the rows with bit
    c set (row i at bit i); every row is below ``2**width``.  The rows are
    read from the last, so each column is a binary numeral: up to 8 columns,
    one translation per column of the rows as one byte string; wider, one
    strided slice per column of one digit row per distinct row, joined (a
    leading 1 bit keeps the row's zeros, ``[3:]`` drops it with '0b')."""
    if width <= 8:
        data = bytes(rows)[::-1]
        return [int(data.translate(_DIGITS[c]) or b"0", 2) for c in range(width)]
    top = 1 << width
    digits = {row: bin(row | top)[3:] for row in set(rows)}
    matrix = "".join(map(digits.__getitem__, reversed(rows)))
    return [int(matrix[width - 1 - c :: width] or "0", 2) for c in range(width)]


def position_masks(masks: Sequence[int], order: Sequence[int]) -> list[int]:
    """The items of each mask (voters or candidates) as a mask over the
    positions of ``order``: bit p of the j-th result is set iff item
    ``order[p]`` is in ``masks[j]``.  Every item is below ``len(order)``."""
    items = transpose(masks, len(order))  # items[i]: the masks holding item i
    return transpose([items[i] for i in order], len(masks))


def is_run(pm: int, side: str = "interval", size: int = 0) -> bool:
    """True if the position mask ``pm`` is empty or one block of consecutive
    positions; for ``side`` "prefix" or "suffix" the block must also start at
    position 0 or end at position ``size - 1``."""
    if side == "interval":
        return pm & (pm + (pm & -pm)) == 0  # adding the lowest bit clears one block
    if side == "suffix":
        pm ^= (1 << size) - 1  # a suffix is the complement of a prefix
    return pm & (pm + 1) == 0


def first_unmet(election: Election, wmask: int, demands: Sequence[int]) -> int | None:
    """The first voter i with fewer than ``demands[i]`` approved members in the
    committee ``wmask``, or None when the committee meets every demand."""
    for i, ballot in enumerate(election.ballot_masks):
        if (ballot & wmask).bit_count() < demands[i]:
            return i
    return None


def padding(election: Election, members: Collection[int]) -> tuple[int, ...]:
    """The lowest-index candidates outside ``members`` that fill it to k seats."""
    unused = (c for c in range(election.m) if c not in members)
    return tuple(islice(unused, election.k - len(members)))


def supporters(election: Election, candidates: Iterable[int]) -> VoterGroup:
    """N(S): the voters whose ballot contains every candidate of ``candidates``.

    ``supporters(e, [])`` is the full electorate.
    """
    return VoterGroup.from_mask(election.supporters_mask(candidates))


MAX_CANDIDATES = 1 << 20
"""The largest m a ``.avp`` header may declare.  Reading a profile costs time
and memory linear in m (one ``candidate_voters`` entry per candidate), so the
header of a tiny file could otherwise ask for gigabytes; at the bound a
one-voter profile parses in about 0.3 s on a 2-core VM, and one whose ballot
lists every candidate in about 2 s."""

MAX_CELLS = 1 << 26
"""The largest n*m a ``.avp`` header or a generator spec may declare.  An
:class:`Election` transposes its ballots through one string of n*m digits
and one m-digit row per distinct ballot, so a small file could otherwise
ask for gigabytes.  At the bound, 1,024 voters over 2^16 candidates parse on
a 2-core VM in about 0.5 s at 80 MB peak RSS with one repeated ballot, and
in 0.7-0.85 s at 160 MB with 1,024 distinct 8-candidate ballots.  It admits
the one-voter profile at :data:`MAX_CANDIDATES`."""


def parse_profile(text: str) -> Election:
    """Parse a ``.avp`` character stream into a validated :class:`Election`.

    Format: line 1 is ``n m k``; the next n non-comment lines hold the 1-based
    candidate indices approved by voters 1..n (an empty line is an empty
    ballot).  ``#`` starts a comment line, trailing whitespace is ignored,
    LF and CRLF are both accepted.  A header m above :data:`MAX_CANDIDATES`
    or n*m above :data:`MAX_CELLS` is refused.

    One pass over the lines, each distinct ballot line read once, into its
    mask alone: ``seen`` maps a read line's text to its mask, and a repeat of
    the line before the n-th ballot appends that mask as it is.  A line is
    read whole through a table of the canonical tokens ``"1"``..``str(m)``
    (one entry per character of ``text`` at most, so a huge m cannot outgrow
    the input): for m <= 1024 it gives each token's candidate bit and the
    mask is their sum; for wider profiles it gives the index and
    :func:`members_mask` sets the bits in a bytearray of width m.  The mask
    stands when every token is in the table and it has one bit per token: t
    one-bit masks summed or ORed give t bits exactly when they are distinct,
    so a repeated index fails.  Any other line (``01``, ``+2``, ``x``, an
    index out of range or repeated) is read token by token, which accepts
    what ``int`` reads and words every error.  The election derives
    ``approvals`` only if it is read.
    """
    header: tuple[int, int, int] | None = None
    masks: list[int] = []  # one per voter
    seen: dict[str, int] = {}  # empty until the header sets n
    for lineno, line in enumerate(text.splitlines(), start=1):
        mask = seen.get(line)
        if mask is not None and len(masks) < n:
            masks.append(mask)
            continue
        tokens = line.split()
        if tokens and tokens[0].startswith("#"):
            continue
        if header is None:
            if not tokens:
                continue  # leading blank lines before the header are harmless
            if len(tokens) != 3:
                raise ProfileFormatError(
                    f"header must be 'n m k', got {line.strip()!r}", lineno
                )
            try:
                n, m, k = [int(p) for p in tokens]
            except ValueError:
                raise ProfileFormatError(
                    f"header must contain integers, got {line.strip()!r}", lineno
                ) from None
            if n <= 0 or m <= 0:
                raise ProfileFormatError(f"n and m must be positive, got n={n} m={m}", lineno)
            if m > MAX_CANDIDATES:
                raise ProfileFormatError(
                    f"m={m} exceeds the limit of {MAX_CANDIDATES} candidates", lineno
                )
            if n * m > MAX_CELLS:
                raise ProfileFormatError(
                    f"n*m={n * m} exceeds the limit of {MAX_CELLS} voter-candidate cells", lineno
                )
            if not 1 <= k <= m:
                raise ProfileFormatError(f"k={k} out of range [1, {m}]", lineno)
            header = (n, m, k)
            labels = map(str, range(1, min(m, len(text)) + 1))
            # a bit table holds m ints of up to m bits: wider profiles map a
            # token to its index and members_mask sets the bits in one pass
            wide = m > 1024
            read = dict(zip(labels, range(m) if wide else [1 << c for c in range(m)])).__getitem__
            continue
        if len(masks) == n:
            raise ProfileFormatError(
                f"unexpected extra content after {n} voter lines: {line.strip()!r}", lineno
            )
        try:
            mask = members_mask(map(read, tokens), m) if wide else sum(map(read, tokens))
        except KeyError:  # a token outside the table
            mask = 0
        if mask.bit_count() != len(tokens):  # such a token or a repeated index
            mask = 0
            for token in tokens:
                try:
                    idx = int(token)
                except ValueError:
                    raise ProfileFormatError(
                        f"invalid candidate index {token!r}", lineno
                    ) from None
                if not 1 <= idx <= m:
                    raise ProfileFormatError(
                        f"candidate index {idx} out of range [1, {m}]", lineno
                    )
                if mask >> (idx - 1) & 1:
                    raise ProfileFormatError(f"duplicate candidate index {idx}", lineno)
                mask |= 1 << (idx - 1)
        masks.append(mask)
        seen[line] = mask
    if header is None:
        raise ProfileFormatError("missing header line 'n m k'")
    n, m, k = header
    if len(masks) < n:
        raise ProfileFormatError(
            f"expected {n} voter lines, found only {len(masks)}"
        )
    return Election(n=n, m=m, k=k, ballot_masks=tuple(masks))


def serialize_profile(election: Election) -> str:
    """Canonical ``.avp`` text: sorted 1-based indices, one voter per line.

    Each distinct ballot mask is formatted once."""
    labels = [str(c + 1) for c in range(election.m)]
    texts = {
        mask: " ".join(map(labels.__getitem__, _iter_bits(mask)))
        for mask in set(election.ballot_masks)
    }
    lines = [f"{election.n} {election.m} {election.k}"]
    lines += map(texts.__getitem__, election.ballot_masks)
    return "\n".join(lines) + "\n"
