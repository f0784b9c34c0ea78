"""Moment and cumulant tables over C_k and the transforms between them.

A table assigns a C_k scalar to every word over {1, ..., num_vars} of
length 1..max_len; the empty word is implicitly the unit.  Moments and
cumulants determine each other through the non-crossing partition sum,
computed by its first-block decomposition: the block B holding position 1
splits the rest of the word into gaps, the maximal runs of positions
outside B, and every other block lies inside one gap.  So

    m(w) = sum over B containing 1 of kappa(w|B) prod m(w|gap),

2^(n-1) terms for a word of length n instead of Catalan(n).  The inverse
direction solves the same identity for its B = [n] term.

Both directions are one call of the trusted whole-table kernel
`ck._first_block_table`, which builds the words of each length and their
first blocks itself.  Each term reads kappa(w|B) first and is dropped when
that cumulant is zero, before any gap moment is looked up: in a free
product every block that mixes colours is dropped this way.  No entry is
checked there, because every given one was validated once already, by the
table constructor, and every computed one was built by the kernel itself;
its outputs become tables through the trusted constructor `_of` that every
value class shares, without the constructor's checks.
"""
from __future__ import annotations

from itertools import product
from typing import Iterator

from ._value import Value
from .ck import CkScalar, _accumulate, _first_block_table
from .partitions import SetPartition, enumerate_nc, partition_join


def all_words(num_vars: int, max_len: int) -> Iterator[tuple]:
    """Non-empty words over {1..num_vars} of length <= max_len, shortlex."""
    for length in range(1, max_len + 1):
        yield from product(range(1, num_vars + 1), repeat=length)


def restrict(w: tuple, block: tuple) -> tuple:
    """Subword of w at the 1-based positions in block, in increasing order."""
    return tuple(w[i - 1] for i in block)


class _WordTable(Value):
    """Dense map from words to C_k scalars; base for laws and cumulant tables."""

    __slots__ = _fields = ("k", "num_vars", "max_len", "values")

    def __init__(self, k: int, num_vars: int, max_len: int, values: dict):
        if num_vars < 1 or max_len < 1 or k < 0:
            raise ValueError("need num_vars >= 1, max_len >= 1, k >= 0")
        # count the words one length at a time, stopping once they outnumber
        # the entries, so a huge num_vars or max_len is refused at once
        count, power = 0, 1
        for _ in range(max_len):
            power *= num_vars
            count += power
            if count > len(values):
                raise ValueError(f"{len(values)} entries cannot cover the words over "
                                 f"{num_vars} variables up to length {max_len}")
        store = {}
        for w in all_words(num_vars, max_len):
            if w not in values:
                raise ValueError(f"missing entry for word {w}")
            v = values[w]
            if not isinstance(v, CkScalar) or v.k != k:
                raise ValueError(f"entry for word {w} is not a C_{k} scalar")
            store[w] = v
        if len(values) != len(store):
            extra = sorted(set(values) - set(store))[:3]
            raise ValueError(f"unexpected word keys: {extra}")
        self._set(k, num_vars, max_len, store)

    def value(self, w: tuple) -> CkScalar:
        if len(w) == 0:
            return CkScalar.one(self.k)
        return self.values[w]

    def words(self) -> Iterator[tuple]:
        return all_words(self.num_vars, self.max_len)

    def __hash__(self):
        return hash((self.k, self.num_vars, self.max_len, tuple(sorted(self.values.items()))))

    def __repr__(self):
        return (f"{type(self).__name__}(k={self.k}, num_vars={self.num_vars}, "
                f"max_len={self.max_len})")


class InfLaw(_WordTable):
    """Infinitesimal law of order k: word w maps to the moment of a_w1...a_wm."""

    __slots__ = ()

    def moment(self, w: tuple) -> CkScalar:
        return self.value(w)


class CumulantTable(_WordTable):
    """Same shape as InfLaw but entries are the free cumulants of the words."""

    __slots__ = ()

    def cumulant(self, w: tuple) -> CkScalar:
        return self.value(w)


def cumulants_to_moments(c: CumulantTable) -> InfLaw:
    """Moment of each word as the sum over non-crossing partitions of the
    block products of cumulants, by the first-block decomposition.  Words
    come shortest first, so the moments of the gaps are already known."""
    out = dict(_first_block_table(c.k, c.values, c.num_vars, c.max_len, False, {}))
    return InfLaw._of(c.k, c.num_vars, c.max_len, out)


def _cumulants_shortlex(m: InfLaw, max_len: int) -> Iterator[tuple]:
    """(word, cumulant) for the words of m up to length max_len, shortlex;
    a caller that stops early pays for no later word."""
    return _first_block_table(m.k, m.values, m.num_vars, max_len, True, {})


def moments_to_cumulants(m: InfLaw) -> CumulantTable:
    """Exact inverse of cumulants_to_moments: the first-block identity
    solved for its B = [n] term, kappa(w) = m(w) minus the sum over the
    proper blocks B, whose cumulants belong to shorter words."""
    return CumulantTable._of(m.k, m.num_vars, m.max_len, dict(_cumulants_shortlex(m, m.max_len)))


def kappa_pi(c: CumulantTable, pi: SetPartition, w: tuple) -> CkScalar:
    """Product over the blocks of pi of the cumulants of the restricted word."""
    if pi.n != len(w):
        raise ValueError(f"partition on [{pi.n}] against a word of length {len(w)}")
    return _accumulate(c.k, ((1, 1, [c.value(restrict(w, b)) for b in pi.blocks]),))


def interval_partition(grouping: tuple, s: int) -> SetPartition:
    """Intervals (1..s1), (s1+1..s2), ... for a strictly increasing grouping
    ending at s."""
    if not grouping or list(grouping) != sorted(set(grouping)) or grouping[-1] != s:
        raise ValueError(f"grouping must be strictly increasing and end at {s}: {grouping}")
    if grouping[0] < 1:
        raise ValueError("grouping entries must be >= 1")
    blocks = []
    lo = 1
    for hi in grouping:
        blocks.append(range(lo, hi + 1))
        lo = hi + 1
    return SetPartition(s, blocks)


def cumulant_of_products(c: CumulantTable, grouping: tuple, w: tuple) -> CkScalar:
    """Cumulant of the grouped products a_{w_1}..a_{w_s1}, a_{w_s1+1}.., ...

    Sum of kappa_pi over the non-crossing pi whose join with the grouping's
    interval partition is the one-block partition.
    """
    s = len(w)
    theta = interval_partition(tuple(grouping), s)
    top = SetPartition(s, [range(1, s + 1)])
    return _accumulate(c.k, (
        (1, 1, [c.value(restrict(w, b)) for b in pi.blocks])
        for pi in enumerate_nc(s) if partition_join(pi, theta) == top
    ))
