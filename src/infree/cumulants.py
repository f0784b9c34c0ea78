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

Both directions are one call of the trusted table core `ck._block_table`
with every variable of one colour: given the moments it solves each
word's cumulant, and given the cumulants it sums each word's moment.  A
free product and the freeness checker make the same one call over a
colouring, where a mixed word visits only the blocks inside one colour.
No entry is checked there, because every given one was validated once
already, by the table constructor, and every computed one was built by
the core itself; its outputs become tables through the trusted
constructor `_of` that every value class shares, without the
constructor's checks.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import index
from typing import TYPE_CHECKING, Iterator

from ._value import Value
from .ck import CkScalar, _accumulate, _block_table, _subword_getter

if TYPE_CHECKING:
    from .partitions import SetPartition


def all_words(num_vars: int, max_len: int) -> Iterator[tuple]:
    """Non-empty words over {1..num_vars} of length <= max_len, shortlex."""
    for length in range(1, max_len + 1):
        yield from product(range(1, num_vars + 1), repeat=length)


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
        try:
            return self.values[w]
        except KeyError:
            raise ValueError(f"word {w} is outside the table of the words over {self.num_vars} "
                             f"variable(s) up to length {self.max_len}") from None

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
    out = {w: x for w, x, _ in _block_table(c.k, c.values, {}, (1,) * c.num_vars, c.max_len)}
    return InfLaw._of(c.k, c.num_vars, c.max_len, out)


def moments_to_cumulants(m: InfLaw) -> CumulantTable:
    """Exact inverse of cumulants_to_moments: the first-block identity
    solved for its B = [n] term, kappa(w) = m(w) minus the sum over the
    proper blocks B, whose cumulants belong to shorter words."""
    out = {w: x for w, _, x in _block_table(m.k, {}, m.values, (1,) * m.num_vars, m.max_len)}
    return CumulantTable._of(m.k, m.num_vars, m.max_len, out)


def kappa_pi(c: CumulantTable, pi: SetPartition, w: tuple) -> CkScalar:
    """Product over the blocks of pi of the cumulants of the restricted word."""
    if pi.n != len(w):
        raise ValueError(f"partition on [{pi.n}] against a word of length {len(w)}")
    return _accumulate(c.k, ((1, 1, [c.value(tuple(w[i - 1] for i in b)) for b in pi.blocks]),))


@lru_cache(maxsize=None)
def _nc_block_getters(n: int) -> tuple:
    """(getters of the blocks of p, getters of the blocks of Kr(p)) for
    every p in NC(n), computed once per length.  A block's getter maps a
    word of length n to its subword on the block, a tuple."""
    from .partitions import enumerate_nc, kreweras

    def getters(blocks):
        return tuple(_subword_getter(tuple(i - 1 for i in b)) for b in blocks)

    return tuple((getters(p.blocks), getters(kreweras(p).blocks)) for p in enumerate_nc(n))


def cumulant_of_products(c: CumulantTable, grouping: tuple, w: tuple) -> CkScalar:
    """Cumulant of the grouped products a_{w_1}..a_{w_s1}, a_{w_s1+1}.., ...

    Sum of kappa_pi over the non-crossing pi whose join with the grouping's
    interval partition theta is the one-block partition.  The grouping
    holds the group ends, and Kr(theta) is one block of them plus
    singletons, so these are the pi with no block of Kr(pi) holding two
    group ends: an identity checked against the join by enumerating every
    pi and grouping, not derived here.  The blocks of pi and Kr(pi) are
    read through the per-length getters, Kr(pi)'s off the 0/1 word that
    marks the group ends.
    """
    w = tuple(w)  # a one-position getter slices, and a list's slice is no key
    s = len(w)
    grouping = tuple(map(index, grouping))
    if not grouping or list(grouping) != sorted(set(grouping)) or grouping[-1] != s:
        raise ValueError(f"grouping must be strictly increasing and end at {s}: {grouping}")
    if grouping[0] < 1:
        raise ValueError("grouping entries must be >= 1")
    ends = tuple(int(i in grouping) for i in range(1, s + 1))
    return _accumulate(c.k, (
        (1, 1, [c.value(on(w)) for on in p_blocks])
        for p_blocks, kr_blocks in _nc_block_getters(s)
        if all(sum(on(ends)) < 2 for on in kr_blocks)
    ))
