"""Set partitions and non-crossing partitions of [n] = {1, ..., n}.

Blocks are stored as sorted tuples of ints, the partition as a tuple of
blocks sorted by minimum.  Kreweras complements are computed by a cycle
formula on [2n] rather than by search, so both directions are O(n).
A partition the library has just produced, enumerated or complemented, is
canonical already, so it is built by the trusted `_of` and neither its
coverage nor its crossings are checked again.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import index, itemgetter
from typing import Iterable

from ._value import Value


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class SetPartition(Value):
    """Partition of {1, ..., n} into disjoint non-empty blocks."""

    __slots__ = _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        # elements through operator.index: 1.0 == 1 would pass the coverage check
        blocks = tuple(tuple(sorted(map(index, b))) for b in blocks)
        if not all(blocks):
            raise ValueError(f"blocks must be non-empty: {blocks}")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        seen = [x for b in blocks for x in b]
        # the count first, so that a huge n is refused without listing 1..n
        if len(seen) != n or sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n}: {blocks}")
        self._set(n, blocks)

    def num_blocks(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        # a non-crossing partition equals its plain twin
        return isinstance(other, SetPartition) and self.n == other.n and self.blocks == other.blocks

    __hash__ = Value.__hash__

    def __repr__(self):
        body = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"<{type(self).__name__} {self.n}: {body}>"


class NcPartition(SetPartition):
    """Non-crossing partition; the constructor rejects crossings."""

    __slots__ = ()

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        super().__init__(n, blocks)
        if not is_noncrossing(self.blocks):
            raise ValueError(f"partition has a crossing: {self.blocks}")


def is_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """True when no a < b < c < d has a~c in one block and b~d in another.

    Only consecutive-in-block pairs need checking: any crossing between two
    blocks forces a crossing between some pair of consecutive arcs.
    """
    arcs = []
    for b in blocks:
        b = sorted(b)
        for i in range(len(b) - 1):
            arcs.append((b[i], b[i + 1]))
    for i, (a, c) in enumerate(arcs):
        for b, d in arcs[i + 1:]:
            lo, hi = (a, c)
            x, y = (b, d)
            if lo < x < hi < y or x < lo < y < hi:
                return False
    return True


def _nc_scan(n: int):
    """Every non-crossing partition of [n], one at a time, built by the
    trusted `_of`; n < 1 is refused at the call, before any is built.

    Left-to-right scan with a stack of open blocks.  At each position either
    open a new block, or extend one of the open blocks; extending a block
    below the top closes everything above it, so each partition is produced
    exactly once.
    """
    if n < 1:
        raise ValueError("enumerate_nc needs n >= 1")

    def rec(pos: int, stack: list, closed: list):
        if pos > n:
            blocks = sorted((tuple(b) for b in closed + stack), key=lambda b: b[0])
            yield NcPartition._of(n, tuple(blocks))
            return
        stack.append([pos])
        yield from rec(pos + 1, stack, closed)
        stack.pop()
        popped = []
        while stack:
            top = stack.pop()
            top.append(pos)
            yield from rec(pos + 1, stack + [top], closed + popped)
            top.pop()
            popped.append(top)
        while popped:
            stack.append(popped.pop())

    return rec(1, [], [])


@lru_cache(maxsize=None)
def _nc_cache(n: int) -> tuple:
    return tuple(_nc_scan(n))


def enumerate_nc(n: int) -> tuple:
    """All non-crossing partitions of [n], Catalan(n) of them, as a tuple
    memoized per n by `_nc_cache`.  The CLI reads the lazy `_nc_scan`
    instead, in the same order, so that it holds one partition at a time."""
    return _nc_cache(n)


def biane_permutation(p: SetPartition) -> dict:
    """x -> next element of its block, cyclically within the block."""
    t = {}
    for b in p.blocks:
        for i, x in enumerate(b):
            t[x] = b[(i + 1) % len(b)]
    return t


def kreweras(p: NcPartition, direction: str = "forward") -> NcPartition:
    """Kreweras complement of p, or the inverse complement.

    Forward: blocks are the cycles of x -> t^(-1)((x mod n) + 1) where t is
    the cyclic-successor map of p.  Inverse composes the steps the other way
    round, so kreweras(kreweras(p), "inverse") == p.  Each cycle starts at
    its minimum, so the sorted cycles come out canonical.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', not {direction!r}")
    if not isinstance(p, NcPartition):
        p = NcPartition(p.n, p.blocks)  # a plain SetPartition was never checked for crossings
    n = p.n
    t = biane_permutation(p)
    t_inv = {v: k for k, v in t.items()}
    if direction == "forward":
        step = lambda x: t_inv[(x % n) + 1]
    else:
        step = lambda x: (t_inv[x] % n) + 1
    blocks = []
    seen = set()
    for start in range(1, n + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = step(start)
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = step(x)
        blocks.append(tuple(sorted(cyc)))
    return NcPartition._of(n, tuple(blocks))


def ordered_blocks(p: NcPartition) -> tuple:
    """Canonical block lists of p united with its Kreweras complement.

    Returns (mix_list, sep_list).  Both list the same n+1 blocks over the
    doubled alphabet 1 < 1bar < 2 < 2bar < ... < n < nbar, with p living on
    the unbarred copy and the complement on the barred one.  An element i
    is the plain tuple (i, False) and i-bar is (i, True), so tuple order
    is the alternating order.  mix_list sorts all blocks together by the
    nesting order, V before W when max V < min W or W nests around V; on
    these blocks that is the order of their last elements.  sep_list lists
    p's blocks in that order first, then the complement's.
    """
    kr = kreweras(p)
    key = itemgetter(-1)
    p_blocks = [tuple((x, False) for x in b) for b in p.blocks]
    kr_blocks = [tuple((x, True) for x in b) for b in kr.blocks]
    mix_list = sorted(p_blocks + kr_blocks, key=key)
    sep_list = sorted(p_blocks, key=key) + sorted(kr_blocks, key=key)
    return tuple(mix_list), tuple(sep_list)


def partition_join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Least common coarsening in the full partition lattice (union-find)."""
    if p.n != q.n:
        raise ValueError("join needs a common ground set")
    n = p.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for part in (p, q):
        for b in part.blocks:
            for x in b[1:]:
                union(b[0], x)
    groups = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    return SetPartition(n, groups.values())


def mobius_to_top(p: NcPartition) -> int:
    """Mobius function of the interval [p, 1_n] in the non-crossing lattice.

    Product over the Kreweras complement's blocks of the one-block value
    (-1)^(m-1) Catalan(m-1) for a block of size m.
    """
    out = 1
    for b in kreweras(p).blocks:
        m = len(b)
        out *= (-1) ** (m - 1) * catalan(m - 1)
    return out
