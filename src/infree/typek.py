"""Non-crossing partitions of type k.

An element of NC^(k)(n) is a non-crossing partition of [(k+1)n] whose mod-n
reduction, and the reduction of its Kreweras complement, are both
non-crossing partitions of [n].  The fiber over a fixed reduction p is
enumerated directly by a constrained left-to-right scan: a block may only
grow along the successor cycle of its reduced block, and may only close
once its length is a multiple of that block's size.

Fiber elements are built once per (p, k) by the trusted constructor `_of`:
the scan produces only members, so they skip the membership test, and
their shapes share one block index of p.  Only the public
`TypeKPartition(pi, n, k)`, the route for partitions from outside the
library, checks membership.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from operator import index
from typing import Iterator, Sequence

from ._value import Value
from .partitions import (
    NcPartition,
    SetPartition,
    biane_permutation,
    enumerate_nc,
    is_noncrossing,
    kreweras,
    ordered_blocks,
)


def residue(x: int, n: int) -> int:
    return (x - 1) % n + 1


def reduce_mod(p: SetPartition, n: int, k: int) -> tuple:
    """Blockwise image of p under x -> residue mod n, duplicates merged.

    The result is a collection of subsets of [n]; it need not be a partition.
    """
    if p.n != (k + 1) * n:
        raise ValueError(f"ground size {p.n} is not (k+1)n = {(k + 1) * n}")
    images = {tuple(sorted({residue(x, n) for x in b})) for b in p.blocks}
    return tuple(sorted(images))


def reduction_partition(p: SetPartition, n: int, k: int) -> NcPartition | None:
    """reduce_mod as a non-crossing partition of [n], or None if it is not one."""
    images = reduce_mod(p, n, k)
    flat = sorted(x for b in images for x in b)
    if flat != list(range(1, n + 1)):
        return None
    if not is_noncrossing(images):
        return None
    return NcPartition._of(n, images)


def is_type_k(p: NcPartition, n: int, k: int) -> bool:
    """Membership in NC^(k)(n) for a non-crossing p on [(k+1)n]."""
    if p.n != (k + 1) * n:
        raise ValueError(f"ground size {p.n} is not (k+1)n = {(k + 1) * n}")
    return (
        reduction_partition(p, n, k) is not None
        and reduction_partition(kreweras(p), n, k) is not None
    )


def _fiber_scan(p: NcPartition, k: int) -> Iterator[NcPartition]:
    """All pi in NC^(k)(n) with reduction p.

    Scan positions 1..(k+1)n keeping a stack of open blocks.  A position may
    start a new block, or extend an open block whose walk expects its
    residue; extending a non-top block closes everything above it, which is
    only allowed when those blocks have completed whole cycles.
    """
    n = p.n
    m = (k + 1) * n
    t = biane_permutation(p)
    cyc_size = {x: len(b) for b in p.blocks for x in b}

    # stack entries are [elements, expected_next_residue, cycle_size]
    def rec(pos: int, stack: list, closed: list, excess_closed: int):
        if pos > m:
            if all(len(e[0]) % e[2] == 0 for e in stack):
                yield NcPartition._of(m, tuple(sorted([tuple(e[0]) for e in stack] + closed)))
            return
        remaining = m - pos + 1
        # each open block still needs (-len) mod cycle elements to finish
        if sum((-len(e[0])) % e[2] for e in stack) > remaining:
            return
        # blocks of pi contribute len/cycle - 1 each to the excess budget k
        if excess_closed + sum((len(e[0]) - 1) // e[2] for e in stack) > k:
            return
        r = residue(pos, n)
        stack.append([[pos], t[r], cyc_size[r]])
        yield from rec(pos + 1, stack, closed, excess_closed)
        stack.pop()
        popped = []  # completed entries closed over, top-first
        extra = 0
        while stack:
            top = stack[-1]
            if top[1] == r:
                stack.pop()
                elems, _, cyc = top
                elems.append(pos)
                yield from rec(
                    pos + 1,
                    stack + [[elems, t[r], cyc]],
                    closed + [tuple(e[0]) for e in popped],
                    excess_closed + extra,
                )
                elems.pop()
                stack.append(top)
            if len(top[0]) % top[2] != 0:
                break  # an incomplete block cannot be closed over
            popped.append(stack.pop())
            extra += len(top[0]) // top[2] - 1
        while popped:
            stack.append(popped.pop())

    yield from rec(1, [], [], 0)


class TypeKPartition(Value):
    """Element of NC^(k)(n) with its reduction and shape, a tuple, cached."""

    __slots__ = _fields = ("partition", "n", "k", "reduction", "shape")

    def __init__(self, partition: NcPartition, n: int, k: int):
        if not is_type_k(partition, n, k):
            raise ValueError(f"not a type-{k} partition over [{(k + 1) * n}]: {partition!r}")
        reduction = reduction_partition(partition, n, k)
        shape = _compute_shape(partition, _block_index(reduction), n)
        self._set(partition, n, k, reduction, shape)

    def __reduce__(self):
        return TypeKPartition, (self.partition, self.n, self.k)

    def __eq__(self, other) -> bool:
        # over the constructor's arguments alone: the other two follow from them
        return type(other) is TypeKPartition and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        return f"TypeKPartition(n={self.n}, k={self.k}, partition={self.partition!r})"


def _block_index(q: NcPartition) -> dict:
    """Position in the nesting order of each block of q, keyed (False,
    block), and of each block of Kr(q), keyed (True, block)."""
    mix_list, _ = ordered_blocks(q)
    return {(blk[0][1], tuple(x for x, _ in blk)): i for i, blk in enumerate(mix_list)}


def _compute_shape(pi: NcPartition, index_of: dict, n: int) -> tuple:
    """Shape over the n+1 blocks of the reduction q united with Kr(q),
    indexed by `_block_index(q)`: a weak composition of k, as a tuple.

    Entry i collects (multiplicity - 1) over the blocks of pi and Kr(pi)
    reducing to the i-th mixed block; multiplicity is |V| / |reduced V|.
    """
    entries = [0] * (n + 1)
    for barred, part in ((False, pi), (True, kreweras(pi))):
        for b in part.blocks:
            red = tuple(sorted({residue(x, n) for x in b}))
            if len(b) % len(red) != 0:
                raise ValueError(f"block {b} has fractional multiplicity")
            entries[index_of[barred, red]] += len(b) // len(red) - 1
    return tuple(entries)


@lru_cache(maxsize=None)
def fiber_over(p: NcPartition, k: int) -> tuple:
    """All TypeKPartition with reduction p, memoized per (p, k)."""
    index_of = _block_index(p)
    return tuple(TypeKPartition._of(pi, p.n, k, p, _compute_shape(pi, index_of, p.n))
                 for pi in _fiber_scan(p, k))


@lru_cache(maxsize=None)
def enumerate_type_k(n: int, k: int) -> tuple:
    """All of NC^(k)(n), grouped by reduction, memoized."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return tuple(tk for p in enumerate_nc(n) for tk in fiber_over(p, k))


def fiber_size_formula(n: int, k: int) -> int:
    """Common fiber cardinality over any reduction: the Fuss-Catalan count
    C((n+1)(k+1), k+1) / ((k+1)n + 1)."""
    return comb((n + 1) * (k + 1), k + 1) // ((k + 1) * n + 1)


def is_star(tk: TypeKPartition) -> bool:
    """True when every barred entry of the shape vanishes.  A barred entry
    sums (multiplicity - 1) >= 0 over the blocks of the Kreweras complement
    that reduce to one block of Kr(reduction), so it vanishes exactly when
    every such block is simple.  Public, with `enumerate_type_k_star`, as
    the star subfamily the package documents as a feature."""
    return not any(tk.shape[i] for (barred, _), i in _block_index(tk.reduction).items() if barred)


@lru_cache(maxsize=None)
def enumerate_type_k_star(n: int, k: int) -> tuple:
    """The subset NC*^(k)(n): no non-simple blocks in the complement.
    Public as the package's star subfamily, the elements `is_star` keeps."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return tuple(tk for tk in enumerate_type_k(n, k) if is_star(tk))


def r_of_shape(lam: Sequence[int], n: int, k: int) -> int:
    """Number of elements with shape lam in the fiber over any reduction p
    in NC(n): r(lam) = prod over j = 0..n of C(k+1, lam_j), over k+1.

    lam is any sequence of n+1 non-negative ints summing to k; a float
    entry is refused, not truncated.  The count does not depend on p.  The
    product is an identity checked against enumerating the fibers, not
    derived here.  The division is exact: for each prime factor of k+1
    some entry is prime to it, as the entries sum to k, and that entry's
    C(k+1, e) = (k+1)/e C(k, e-1) keeps every power of the prime in k+1.
    Summed over every shape the product gives C((n+1)(k+1), k) / (k+1),
    the fiber size of `fiber_size_formula`.
    """
    if n < 1:
        raise ValueError(f"r_of_shape needs n >= 1, got {n}")
    lam = tuple(map(index, lam))
    if len(lam) != n + 1 or sum(lam) != k or min(lam) < 0:
        raise ValueError(f"shape must have n+1 = {n + 1} non-negative entries summing to k = {k}")
    return prod(comb(k + 1, e) for e in lam) // (k + 1)
