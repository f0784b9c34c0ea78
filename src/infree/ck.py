"""Exact arithmetic in the truncated algebra C_k = Q[eps]/(eps^(k+1)).

An element has coordinates (a(0), ..., a(k)) with respect to the basis
(eps^i / i!), so multiplication is the Leibniz rule on coordinates.  It is
stored exactly as integer numerators over one positive denominator, in
lowest terms: a(i) = nums[i] / den with gcd(den, *nums) == 1.  Equal
elements therefore have equal (k, den, nums), and the arithmetic is integer
arithmetic followed by one gcd reduction.  `coords` gives the coordinates as
Fractions; nothing here ever touches floats.

Every sum of C_k products in the package goes through one of the private
cores in this module.  `_accumulate` serves series products and
compositions, and block products of cumulants: it drops a term at its
first zero factor, chains integer Leibniz products over the rest, adds
them over a running lcm denominator and reduces once per output scalar,
not once per term, and returns the sum alone.  The other cores work on
(den, nums) pairs, reduced integer numerators over their denominator, and
build a scalar only for an output.

`_block_table` runs the moment-cumulant first-block recursion over a
whole table.  The non-crossing partitions of a word group by the block B
that holds any one chosen position, the anchor; every other block lies in
an inner gap of B, a run between two of its positions, or in the outer
word, the positions before B followed by those after it (Nica-Speicher,
Lectures on the Combinatorics of Free Probability, Lectures 9-11).  So
for every anchor

    m(w) = sum over B containing the anchor of
           kappa(w|B) prod m(w|inner gap) m(w|outer word).

A word whose moment is given has this solved for its cumulant, and any
other word has its moment summed, a missing cumulant a zero.  A word of
one colour is anchored at its first position and sums all 2^(n-1) of its
blocks.  While the mixed cumulants shorter than a mixed word vanish, only
the blocks inside the anchor's colour count, so the word is anchored at
the first position of its rarest colour, and with c positions of that
colour it sums 2^(c-1) blocks, not 2^(n-1).  A dense table is the case of
one colour.  A block visit reads subwords and gaps by shortlex position,
through the integer index maps of `_block_plan`, built once per
(colouring, length) with list comprehensions and cached, so it builds and
hashes no tuple.

A tracial table, one whose entries are invariant under rotation, as every
free product of one-variable laws is, has rotation-invariant cumulants
too (Nica-Speicher, Lecture 11), so `_block_table` sums each rotation
class once, at its least rotation, its first word in shortlex order.  A
later rotation whose given entries equal the least rotation's, while
every shorter word matched its own, copies that word's entries and
output.  The copy is exact: the outputs at length n read only the
entries of length < n and the word's own, and those, like NC(n), are
invariant under rotation.  The first word that does not match is summed
in full, and so is every word from the next length on.

`_powers` computes the rows of a power chain, [z^m]f^a for every
a, m <= n, and `_boxed_rows` sums the boxed-convolution coefficients
gamma_m over such rows, building only the n outputs.
`_product_tuple_table` sums, for every word of a product tuple, the
products of cumulant entries over the blocks of p and Kr(p) in NC(n),
read by shortlex position through per-length maps.

Each core, and the order-k Leibniz rule `_leibniz_rule(k)` that `ck_mul`
and `ck_inverse` use, is one template in `_TEMPLATES`, compiled by `_core`
once per order k at its first use.  Up to k = _RULE_MAX_K = 16 every
Leibniz product is spelt out inline from the binomial rule, one expression
per coordinate over integer numerators, with no loop, no binomial call and
no zero test, and the k + 1 coordinates of each factor and of the running
sum are locals, so a term pays only for its integer operations.  The blocks
and words stay data, so the compiled functions grow with k alone.  The
text grows as k^2, so above the cap each template compiles once, with
coordinate loops over the generic `_leibniz`, for every order.
`ck_inverse` runs Newton's iteration through the Leibniz rule, at doubling
orders.

Validation happens once, where a value enters the library: the scalar,
series and table constructors.  A scalar the library computes is built by
the trusted `CkScalar._built`, one gcd reduction and no check, and every
series it computes (a sum, product, truncation, composition, inverse or
boxed sum) by the trusted `CkSeries._of`.  So the
cores trust their factors to be order-k scalars and check none of them:
every caller hands `_accumulate` (num, den, chain) terms whose factors come
from validated series and tables.  `ck_prod_many`, the one public product of caller scalars, checks
the type and order of each factor before it calls the same core.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from operator import itemgetter
import re
from typing import Iterable, Iterator, Sequence

from ._value import Value


class NotInvertible(ArithmeticError, ValueError):
    """Raised when an inverse is requested of a non-unit; a ValueError
    too, so that a caller's bad value is one kind of error."""


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class CkScalar(Value):
    """Element of C_k, coordinates (a(0), ..., a(k)) over the basis eps^i/i!,
    stored as integer numerators `nums` over one denominator `den`."""

    __slots__ = _fields = ("k", "den", "nums")

    def __init__(self, k: int, coords: Iterable):
        coords = tuple(_coerce(c) for c in coords)
        if k < 0:
            raise ValueError("order k must be >= 0")
        if len(coords) != k + 1:
            raise ValueError(f"order {k} needs {k + 1} coordinates, got {len(coords)}")
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(*(c.denominator for c in coords))
        self._set(k, den, tuple(c.numerator * (den // c.denominator) for c in coords))

    @classmethod
    def _built(cls, k: int, den: int, nums: Iterable) -> "CkScalar":
        """Trusted construction from integers with den > 0: one gcd
        reduction and no validation.  It runs once per computed scalar, so
        it writes the three slots through their setters, bound once below,
        rather than through `_of`'s loop."""
        nums = tuple(nums)
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple([n // g for n in nums])
        self = _new(cls)
        _set_k(self, k)
        _set_den(self, den)
        _set_nums(self, nums)
        return self

    def __reduce__(self):
        return CkScalar, (self.k, self.coords)

    @property
    def coords(self) -> tuple:
        """The coordinates (a(0), ..., a(k)) as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @classmethod
    def zero(cls, k: int) -> "CkScalar":
        return cls._built(k, 1, (0,) * (k + 1))

    @classmethod
    def one(cls, k: int) -> "CkScalar":
        return cls._built(k, 1, (1,) + (0,) * k)

    @classmethod
    def eps(cls, k: int) -> "CkScalar":
        if k < 1:
            raise ValueError("eps needs k >= 1")
        return cls._built(k, 1, (0, 1) + (0,) * (k - 1))

    @classmethod
    def from_rational(cls, k: int, value) -> "CkScalar":
        value = _coerce(value)
        return cls._built(k, value.denominator, (value.numerator,) + (0,) * k)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __repr__(self):
        return f"CkScalar(k={self.k}, coords={tuple(str(c) for c in self.coords)})"

    def __add__(self, other: "CkScalar") -> "CkScalar":
        _check_order(self, other)
        den, x, y = _common(self, other)
        return CkScalar._built(self.k, den, [a + b for a, b in zip(x, y)])

    def __sub__(self, other: "CkScalar") -> "CkScalar":
        _check_order(self, other)
        den, x, y = _common(self, other)
        return CkScalar._built(self.k, den, [a - b for a, b in zip(x, y)])

    def __neg__(self) -> "CkScalar":
        return CkScalar._built(self.k, self.den, [-a for a in self.nums])

    def __mul__(self, other):
        if isinstance(other, CkScalar):
            return ck_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "CkScalar":
        c = _coerce(c)
        p = c.numerator
        return CkScalar._built(self.k, self.den * c.denominator, [p * a for a in self.nums])

    def inverse(self) -> "CkScalar":
        return ck_inverse(self)


_new = object.__new__
_set_k, _set_den, _set_nums = CkScalar._setters


def _check_order(a, b) -> None:
    """Scalars or series of one order k."""
    if a.k != b.k:
        raise ValueError(f"order mismatch: k={a.k} vs k={b.k}")


def _common(a: CkScalar, b: CkScalar) -> tuple:
    """(den, numerators of a, numerators of b) over the lcm of the two
    denominators."""
    if a.den == b.den:
        return a.den, a.nums, b.nums
    g = gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    return a.den * fa, [n * fa for n in a.nums], [n * fb for n in b.nums]


def _leibniz(k: int, x: Sequence[int], y: Sequence[int]) -> tuple:
    """gamma(i) = sum_j C(i,j) x(j) y(i-j) on integer numerators."""
    out = []
    for i in range(k + 1):
        acc = x[0] * y[i]
        for j in range(1, i + 1):
            if x[j] and y[i - j]:
                term = x[j] * y[i - j]
                acc += term * comb(i, j) if j < i else term  # C(i, j) > 1 iff 0 < j < i
        out.append(acc)
    return tuple(out)


# Orders up to this one get straight-line cores.  Their text grows as k^2,
# so at a high order compiling would cost more than the few products it
# saves: a guard on input size, not a tuned option.  Every order above it
# shares one compile of each core, with coordinate loops.
_RULE_MAX_K = 16
_CORES: dict = {}  # (template name, order or None above the cap) -> function

# Each template is the source of one function over numerator vectors.  A
# field $op(names) stands for a vector operation: at an order k up to the
# cap `_spelt` writes it out over the locals x0, ..., xk, and above the cap
# it is the loop expression of `_LOOP_FIELDS`, which reads k at run time.
# A vector is unpacked by `$vec(x) = ...` and rebuilt by `($vec(x))`.
_TEMPLATES = {
    "leibniz": """
def leibniz(x, y):
    $vec(x) = x
    $vec(y) = y
    return ($mul(x, y))
""",
    "accumulate": """
def accumulate(k, terms):
    den = 1
    $vec(a) = $zeros()
    for weight, tden, chain in terms:
        if not weight:
            continue
        first = True
        for f in chain:
            $vec(y) = f.nums
            if not $any(y):
                break
            tden *= f.den
            if first:
                $vec(z) = $vec(y)
                first = False
            else:
                $vec(z) = $mul(z, y)
        else:
            if first:
                $vec(z) = $unit()
            if den % tden:
                up = tden // gcd(den, tden)
                den *= up
                $vec(a) = $scale(a, up)
            weight *= den // tden
            $vec(a) = $axpy(a, weight, z)
    return CkScalar._built(k, den, ($vec(a)))
""",
    "block_table": """
def block_table(k, cumulants, moments, colors, max_len, plan):
    built = CkScalar._built
    num_vars = len(colors)
    kappa, moment = [None], [None]
    zero = 1, ($zeros())
    shared_zero = CkScalar.zero(k)
    base = 1
    rotations = True
    for n in range(1, max_len + 1):
        kappa += [None] * num_vars ** n
        moment += [None] * num_vars ** n
        every, mixed, index_at, rep = plan(colors, n)
        blocks_at = mixed if n == max_len and len(set(colors)) > 1 else every
        if not rotations:
            rep = None
        held = [None] * num_vars ** n if rep is not None else None
        for j, w in enumerate(product(range(1, num_vars + 1), repeat=n)):
            p = base + j
            x = moments.get(w)
            c = cumulants.get(w)
            blocks = blocks_at[j]
            if blocks is None:
                yield w, x, c
                continue
            if rep is not None and rep[j] != j:
                r = rep[j]
                rx, rc, out = held[r]
                if (x is rx or x == rx) and (c is rc or c == rc):
                    kappa[p] = kappa[base + r]
                    moment[p] = moment[base + r]
                    yield (w, out, c) if x is None else (w, x, out)
                    continue
                rotations = False
            if x is None:
                entry, given, found, sign = c, kappa, moment, 1
            else:
                entry, given, found, sign = x, moment, kappa, -1
            if entry is not None and any(entry.nums):
                given[p] = entry.den, entry.nums
            den, ($vec(a)) = (moment[p] or zero) if sign < 0 else zero
            i = index_at[j]
            for bmap, gmaps in blocks:
                e = kappa[bmap[i]]
                if e is None:
                    continue
                tden, ($vec(z)) = e
                for gmap in gmaps:
                    g = moment[gmap[i]]
                    if g is None:
                        break
                    gden, ($vec(y)) = g
                    tden *= gden
                    $vec(z) = $mul(z, y)
                else:
                    if den % tden:
                        up = tden // gcd(den, tden)
                        den *= up
                        $vec(a) = $scale(a, up)
                    f = sign * (den // tden)
                    $vec(a) = $axpy(a, f, z)
            if $any(a):
                out = built(k, den, ($vec(a)))
                found[p] = out.den, out.nums
            else:
                out = shared_zero
            if held is not None:
                held[j] = x, c, out
            yield (w, out, c) if sign > 0 else (w, x, out)
        base += num_vars ** n
""",
    "product_tuple_table": """
def product_tuple_table(k, kappa, npairs, max_len, maps):
    built = CkScalar._built
    shared_zero = CkScalar.zero(k)
    for n in range(1, max_len + 1):
        terms = maps(n)
        for j, w in enumerate(product(range(1, npairs + 1), repeat=n)):
            den = 1
            $vec(s) = $zeros()
            for first, rest in terms:
                c = kappa[first[j]]
                if c is None:
                    continue
                tden, ($vec(z)) = c
                for m in rest:
                    g = kappa[m[j]]
                    if g is None:
                        break
                    gden, ($vec(y)) = g
                    tden *= gden
                    $vec(z) = $mul(z, y)
                else:
                    if den % tden:
                        up = tden // gcd(den, tden)
                        den *= up
                        $vec(s) = $scale(s, up)
                    f = den // tden
                    $vec(s) = $axpy(s, f, z)
            if $any(s):
                yield w, built(k, den, ($vec(s)))
            else:
                yield w, shared_zero
""",
    "power_rows": """
def power_rows(k, first, n):
    rows = [first]
    prev = first
    for a in range(2, n + 1):
        row = [None] * n
        for m in range(a, n + 1):
            den = 1
            $vec(s) = $zeros()
            for i in range(m - a + 1):
                x = first[i]
                if x is None:
                    continue
                y = prev[m - i - 2]
                if y is None:
                    continue
                tden, ($vec(z)) = x
                yden, ($vec(y)) = y
                tden *= yden
                $vec(z) = $mul(z, y)
                if den % tden:
                    up = tden // gcd(den, tden)
                    den *= up
                    $vec(s) = $scale(s, up)
                f = den // tden
                $vec(s) = $axpy(s, f, z)
            if $any(s):
                g = gcd(den, $args(s))
                if g != 1:
                    den //= g
                    $vec(s) = $div(s, g)
                row[m - 1] = den, ($tuple(s))
        rows.append(row)
        prev = row
    return rows
""",
    "boxed_rows": """
def boxed_rows(k, n, f_rows, g_rows, weights):
    built = CkScalar._built
    out = []
    for m in range(1, n + 1):
        den = 1
        $vec(s) = $zeros()
        for (num, tden), f_row, b in zip(weights[m - 1], f_rows, range(m, 0, -1)):
            x = f_row[m - 1]
            if x is None:
                continue
            xden, ($vec(z)) = x
            tden *= xden
            if g_rows is not None:
                y = g_rows[b - 1][m - 1]
                if y is None:
                    continue
                yden, ($vec(y)) = y
                tden *= yden
                $vec(z) = $mul(z, y)
            if den % tden:
                up = tden // gcd(den, tden)
                den *= up
                $vec(s) = $scale(s, up)
            num *= den // tden
            $vec(s) = $axpy(s, num, z)
        out.append(built(k, den, ($vec(s))))
    return out
""",
}

_LOOP_FIELDS = {
    "vec": "{0}",
    "zeros": "(0,) * (k + 1)",
    "unit": "(1,) + (0,) * k",
    "any": "any({0})",
    "scale": "[c * {1} for c in {0}]",
    "axpy": "[c + {1} * d for c, d in zip({0}, {2})]",
    "mul": "_leibniz(k, {0}, {1})",
    "args": "*{0}",
    "div": "[c // {1} for c in {0}]",
    "tuple": "tuple({0})",
}
# The fields that are comma lists up to the cap, as the text of coordinate i.
_COORD_FIELDS = {
    "vec": "{0}{i},",
    "zeros": "0,",
    "scale": "{0}{i} * {1},",
    "axpy": "{0}{i} + {1} * {2}{i},",
    "args": "{0}{i},",
    "div": "{0}{i} // {1},",
    "tuple": "{0}{i},",
}

_FIELD = re.compile(r"\$(\w+)\(([^)]*)\)")


def _spelt(op: str, args: list, k: int) -> str:
    """The field $op(args) at order k, over the locals x0, ..., xk of each
    vector x: a comma list, an `or` test, or, for mul, the binomial rule as
    one expression per coordinate, with no loop, no comb call and no zero
    test."""
    coords = range(k + 1)
    if op == "unit":
        return "1," + " 0," * k
    if op == "any":
        return "(" + " or ".join(f"{args[0]}{i}" for i in coords) + ")"
    if op == "mul":
        x, y = args
        return " ".join(
            " + ".join(f"{x}{j} * {y}{i - j}" if j in (0, i) else f"{comb(i, j)} * {x}{j} * {y}{i - j}"
                       for j in range(i + 1)) + ","
            for i in coords)
    return " ".join(_COORD_FIELDS[op].format(*args, i=i) for i in coords)


def _core_source(name: str, order: int | None) -> str:
    """The named template with every field spelt out at the order, or as
    its loop expression for order None.  The text holds nothing but the
    template's names, integer indices and binomial literals."""
    def field(m):
        args = [a.strip() for a in m[2].split(",")]
        if order is None:
            return _LOOP_FIELDS[m[1]].format(*args)
        return _spelt(m[1], args, order)

    return _FIELD.sub(field, _TEMPLATES[name])


def _core(name: str, k: int):
    """The named core at order k, compiled at its first use per order and
    cached: straight-line up to _RULE_MAX_K, and one compile with
    coordinate loops shared by every order above.  The function's globals
    are this module's, so it reads `CkScalar._built` and the rest at call
    time."""
    key = (name, k if k <= _RULE_MAX_K else None)
    fn = _CORES.get(key)
    if fn is None:
        namespace: dict = {}
        exec(compile(_core_source(*key), f"<{name} core of order {key[1]}>", "exec"),
             globals(), namespace)
        fn = _CORES[key] = namespace[name]
    return fn


def _leibniz_rule(k: int):
    """The order-k Leibniz product: a callable (x, y) -> the tuple of the
    k + 1 integer numerators of the product of numerator sequences x and y.

    Up to _RULE_MAX_K it is the straight-line `leibniz` core; above, it is
    the `_leibniz` loop bound to k."""
    if k > _RULE_MAX_K:
        return partial(_leibniz, k)
    return _core("leibniz", k)


def ck_mul(a: CkScalar, b: CkScalar) -> CkScalar:
    """Product in C_k: gamma(i) = sum_j C(i,j) a(j) b(i-j)."""
    _check_order(a, b)
    return CkScalar._built(a.k, a.den * b.den, _leibniz_rule(a.k)(a.nums, b.nums))


def ck_prod_many(factors: Sequence[CkScalar]) -> CkScalar:
    """Left fold of the Leibniz product over a non-empty list of uniform
    order, reduced once at the end.  Every factor is type- and
    order-checked, a zero one included, before `_accumulate` multiplies
    them."""
    if not factors:
        raise ValueError("product of an empty list of C_k scalars")
    for f in factors:
        if not isinstance(f, CkScalar):
            raise TypeError(f"expected a C_k scalar, got {type(f).__name__}")
        _check_order(factors[0], f)
    return _accumulate(factors[0].k, ((1, 1, factors),))


def _accumulate(k: int, terms: Iterable) -> CkScalar:
    """The trusted C_k sum-of-products core: the sum of num / den times the
    product of the chain over the terms (num, den, chain).  The chain's
    factors are order-k scalars the library built or validated, so none is
    checked again.

    A term is dropped at its zero weight or its first zero factor, and no
    factor after that one is read.  Each product is a chain of order-k
    Leibniz products over the product of its denominators, and is added
    over a running lcm denominator, so the only gcd reduction is the
    result's."""
    return _core("accumulate", k)(k, terms)


def _built_all(k: int, den: int, rows: Iterable) -> list:
    """The trusted scalars nums / den, each reduced once, for the numerator
    tuples of rows: the outputs of a caller that computes integers itself."""
    return [CkScalar._built(k, den, nums) for nums in rows]


# plans kept: a warm pass over the benchmark's shapes reads 26, and a plan
# of three variables at length 8 alone holds about 19 MB
_PLANS_KEPT = 32


@lru_cache(maxsize=_PLANS_KEPT)
def _block_plan(colors: tuple, n: int) -> tuple:
    """(blocks, mixed, index, rep) for the words of length n over the
    variables 1..len(colors), variable x of colour colors[x - 1], keyed on
    the colouring and the length alone, so every caller of the table core
    shares one plan, and the last _PLANS_KEPT plans used are kept.

    blocks[j] is the tuple of `_pattern_blocks` that every word of the
    j-th word's colour pattern shares, shortlex, and mixed is the same
    list with None at each pure word.  index[j] is the word's place among
    the words of its pattern, the place its blocks' maps are read at.
    rep[j] is the place of the word's least rotation, its rotation class's
    first word, shortlex; rep is None for one variable, where a word's
    rotations are the word.  Every list is one comprehension per letter
    column or rotation, so no Python loop runs per word, and a pattern's
    blocks cost one map entry per word and block visited."""
    v = len(colors)
    palette = sorted(set(colors))
    members = [[x for x in range(1, v + 1) if colors[x - 1] == c] for c in palette]
    # tone[x], rank[x], size[x]: the palette index of variable x, its place
    # among the variables of its colour, and their number
    tone, rank, size = [0] * (v + 1), [0] * (v + 1), [0] * (v + 1)
    for t, variables in enumerate(members):
        for r, x in enumerate(variables):
            tone[x], rank[x], size[x] = t, r, len(variables)
    tones = len(palette)
    pattern, index = [0] * v ** n, [0] * v ** n
    for i in range(n):
        column = [c for c in range(1, v + 1) for _ in range(v ** (n - 1 - i))] * v ** i
        pattern = [tones * p + tone[c] for p, c in zip(pattern, column)]
        index = [size[c] * q + rank[c] for q, c in zip(index, column)]
    # the patterns in the order of their numbers in pattern
    patterns = list(product(range(tones), repeat=n))
    shared = [_pattern_blocks(v, members, pat) for pat in patterns]
    shared_mixed = [b if len(set(pat)) > 1 else None for b, pat in zip(shared, patterns)]
    rep = None
    if v > 1:
        # the place of a word is its value in base v, letter x the digit
        # x - 1, so moving the first letter to the end is one integer map
        top = v ** (n - 1)
        rep = rotated = range(v ** n)
        for _ in range(n - 1):
            rotated = [x % top * v + x // top for x in rotated]
            rep = list(map(min, rep, rotated))
    return [shared[p] for p in pattern], [shared_mixed[p] for p in pattern], index, rep


def _pattern_blocks(num_vars: int, members: list, tones: tuple) -> tuple:
    """The blocks of the words with colour pattern tones, tones[q] the
    palette index of position q and members[t] the variables of colour t:
    (bmap, gmaps) for every block B that holds the anchor, the first
    position of the rarest colour, ties to the colour met first, and lies
    inside that colour.  A pure pattern's anchor is position 0, and its
    blocks are all the first blocks, the full one included.  bmap maps the
    i-th word of the pattern, in shortlex order, to the shortlex position
    of its subword on B, and gmaps holds the same maps for the nonempty
    inner gaps of B and its outer word, the positions before B followed by
    those after it."""
    n = len(tones)
    anchor_tone = min(set(tones), key=lambda t: (tones.count(t), tones.index(t)))
    anchor, *later = [q for q in range(n) if tones[q] == anchor_tone]
    # suffix[q]: the shortlex position of the subword on q..n-1 of each
    # word of the pattern, the words in shortlex order.  A word's position
    # is its value in bijective base num_vars, the sum of u_i
    # num_vars^(r - 1 - i) over its letters, so the run lo..hi-1 has the
    # map (suffix[lo] - suffix[hi]) / num_vars^(n - hi): one comprehension
    # per run, a letter's column included, whatever the run's length.
    count = prod(len(members[t]) for t in tones)
    suffix, tail = [[0] * count], [0]
    for q in range(n - 1, -1, -1):
        scale = num_vars ** (n - 1 - q)
        tail = [x * scale + p for x in members[tones[q]] for p in tail]
        suffix.append(tail * (count // len(tail)))
    suffix.reverse()
    runs: dict = {}

    def run(lo: int, hi: int) -> tuple:
        m = runs.get((lo, hi))
        if m is None:
            d = num_vars ** (n - hi)
            m = runs[lo, hi] = tuple([(x - y) // d for x, y in zip(suffix[lo], suffix[hi])])
        return m

    # outer[last]: the map of the outer word of a block whose largest
    # position is last, None if it is empty
    head = run(0, anchor)
    outer = {last: tuple([h * num_vars ** (n - 1 - last) + t
                          for h, t in zip(head, suffix[last + 1])])
             if anchor or last < n - 1 else None
             for last in (anchor, *later)}
    # depth first, each block (largest position, map, inner gap maps, the
    # positions that may follow) before the blocks that add some of those
    out, stack = [], [(anchor, run(anchor, anchor + 1), (), later)]
    while stack:
        last, bmap, gmaps, rest = stack.pop()
        out.append((bmap, gmaps if outer[last] is None else gmaps + (outer[last],)))
        for i, q in reversed(list(enumerate(rest))):
            stack.append((q, tuple([num_vars * p + c for p, c in zip(bmap, run(q, q + 1))]),
                          gmaps + (run(last + 1, q),) if q > last + 1 else gmaps, rest[i + 1:]))
    return tuple(out)


def _subword_getter(positions: tuple) -> itemgetter:
    """The itemgetter that maps a word to its subword on the 0-based
    positions, a tuple even for one position: itemgetter of one index
    returns the item, not a 1-tuple, so one position gets a slice."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1))


def _block_table(k: int, cumulants: dict, moments: dict, colors: tuple,
                 max_len: int) -> Iterator[tuple]:
    """The trusted moment-cumulant core: (word, moment, cumulant) for the
    words over the variables 1..len(colors), variable x of colour
    colors[x - 1], of length 1..max_len, shortlex, by the anchored
    first-block recursion over the blocks of `_block_plan`.

    A word whose moment is given has its cumulant solved, kappa(w) = m(w)
    minus the sum; any other word has its moment summed over the
    cumulants given or solved so far, a missing one a zero.  A given
    entry is yielded as it is, the same object, a missing one as None.  A
    pure word's blocks keep its full block: a given cumulant is read
    before the sum, and a solved one recorded only after it, so there it
    adds nothing.  A mixed word's blocks all lie inside one colour, so its
    sum is exact while every mixed cumulant shorter than it vanishes.
    With more than one colour the pure words of length max_len, which no
    longer word reads, are yielded as given, unsummed; with one colour
    every word is summed, as the dense transforms need.

    A word of length n that is not its rotation class's first word,
    plan rep[j] != j, is copied while every word shorter than n matched
    its class's first word: if its given moment and cumulant equal that
    word's, in presence and value, it copies that word's stored entries
    and yields that word's output, the same object.  The copy is exact
    wherever the sum is: the exact output is the moment-cumulant relation
    over NC(n), which reads the word's own entries and those of length
    < n, and a rotation maps NC(n) onto itself and, by then, each shorter
    entry onto an equal one.  A word that does not match is summed, and
    so is every word of the lengths after it.  A class's first word comes
    before the rest of its class, so the first failing word, shortlex, of
    a consumer that stops at one is the same as without the copy.

    Each word's entries of cumulants and moments are read once, through
    their get, as it comes up, and a nonzero entry or output is kept as a
    (den, nums) pair at the word's shortlex position.  A block whose
    kappa(w|B) is zero is skipped before any gap moment is read, and a
    term is dropped at its first zero gap moment.  The rest is a chain of
    Leibniz products, gap by gap, added over a running lcm denominator and
    reduced once per word, every zero output one shared scalar.  A caller
    that stops early pays for no later word, and no entry of a later word
    is read."""
    return _core("block_table", k)(k, cumulants, moments, colors, max_len, _block_plan)


def _product_tuple_table(k: int, kappa: list, npairs: int, max_len: int, maps) -> Iterator[tuple]:
    """The trusted product-tuple core: (word, scalar) for every word over
    {1..npairs} of length 1..max_len, shortlex, each the sum over the
    entries maps(n) of the product of kappa's entries at first[j] and at
    every map of rest, j the word's place among the words of its length.
    kappa holds (den, nums) pairs by shortlex position, None for a zero; a
    term is dropped at its first zero entry and no later entry is read.
    The products are added over a running lcm denominator and reduced once
    per word, every zero output one shared scalar."""
    return _core("product_tuple_table", k)(k, kappa, npairs, max_len, maps)


def ck_inverse(a: CkScalar) -> CkScalar:
    """Inverse in C_k by Newton's iteration; needs a(0) != 0.

    With a = N/D for integer numerators N, the integers y and den give
    1/N = y / den in the coordinates y covers: first y = (1) and den = n0.
    A step y (2 den - N y) over den^2 doubles the coordinates covered, and
    coordinates 0..j of a product depend only on coordinates 0..j of its
    factors, so a step takes two products by the order-j Leibniz rule on
    truncations.  The orders double too, so all steps together cost less
    than three order-k products, where summing the geometric series of
    n0 - N term by term would take k.  Between steps a wide y and den are
    divided by their gcd: n0 carries the common denominator of every
    coordinate, so its unreduced powers grow far wider than the inverse
    itself (400-bit coordinates at k = 16: 600 ms unreduced, 130 ms
    reduced)."""
    x = a.nums
    n0 = x[0]
    if n0 == 0:
        raise NotInvertible("first coordinate is zero")
    k = a.k
    y, den = (1,), n0
    while len(y) <= k:
        s = min(2 * len(y), k + 1)
        mul = _leibniz_rule(s - 1)
        y += (0,) * (s - len(y))
        r = mul(x[:s], y)  # den N y
        y = mul(y, (2 * den - r[0],) + tuple(-c for c in r[1:]))
        den *= den
        # the last reduction is _built's, and on narrow integers a gcd
        # between steps costs more than it saves
        g = gcd(den, *y) if s <= k and den.bit_length() > 512 else 1
        if g != 1:
            den //= g
            y = tuple(c // g for c in y)
    sign = -1 if den < 0 else 1
    return CkScalar._built(k, sign * den, [sign * a.den * c for c in y])


def multinomial(total: int, parts: Sequence[int]) -> int:
    """C_total^(parts) = total! / prod(parts_j!); parts must sum to total."""
    if sum(parts) != total:
        raise ValueError("multinomial parts must sum to the top index")
    num = factorial(total)
    for p in parts:
        num //= factorial(p)
    return num


class CkSeries(Value):
    """Truncated power series over C_k.

    Degrees 1..trunc are stored in `coeffs`; `const` is the degree-0 term,
    zero for the moment/R-series world and nonzero only for Fourier images.
    Binary operations truncate to the smaller trunc.
    """

    __slots__ = _fields = ("k", "trunc", "coeffs", "const")

    def __init__(self, k: int, trunc: int, coeffs: Iterable, const: CkScalar | None = None):
        if trunc < 1:
            raise ValueError("trunc must be >= 1")
        coeffs = tuple(coeffs)
        if len(coeffs) != trunc:
            raise ValueError(f"need {trunc} coefficients for degrees 1..{trunc}, got {len(coeffs)}")
        if const is None:
            const = CkScalar.zero(k)
        for c in coeffs + (const,):
            if not isinstance(c, CkScalar):
                raise TypeError("series coefficients must be CkScalar")
            if c.k != k:
                raise ValueError(f"order mismatch in coefficients: k={c.k} vs k={k}")
        self._set(k, trunc, coeffs, const)

    @classmethod
    def zero(cls, k: int, trunc: int) -> "CkSeries":
        return cls(k, trunc, tuple(CkScalar.zero(k) for _ in range(trunc)))

    @classmethod
    def from_rationals(cls, k: int, values: Sequence, trunc: int | None = None) -> "CkSeries":
        """Series with scalar (order-0 embedded) coefficients, degrees 1..len."""
        if trunc is None:
            trunc = len(values)
        coeffs = [CkScalar.from_rational(k, v) for v in values]
        coeffs += [CkScalar.zero(k)] * (trunc - len(coeffs))
        return cls(k, trunc, coeffs)

    def truncate(self, trunc: int) -> "CkSeries":
        """The first trunc coefficients of this validated series, built
        through the trusted `_of`."""
        if not 1 <= trunc <= self.trunc:
            raise ValueError(f"cannot truncate a series of trunc {self.trunc} to {trunc}")
        return CkSeries._of(self.k, trunc, self.coeffs[:trunc], self.const)

    def __repr__(self):
        return f"CkSeries(k={self.k}, trunc={self.trunc}, const={self.const!r}, coeffs={list(self.coeffs)!r})"

    def __add__(self, other: "CkSeries") -> "CkSeries":
        _check_order(self, other)
        coeffs = tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        return CkSeries._of(self.k, len(coeffs), coeffs, self.const + other.const)

    def __sub__(self, other: "CkSeries") -> "CkSeries":
        _check_order(self, other)
        coeffs = tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        return CkSeries._of(self.k, len(coeffs), coeffs, self.const - other.const)

    def __mul__(self, other: "CkSeries") -> "CkSeries":
        return series_mul(self, other)


def _valuation(x: tuple) -> int:
    """Index of the first nonzero scalar of x, or len(x) if there is none."""
    return next((i for i, c in enumerate(x) if any(c.nums)), len(x))


def series_mul(f: CkSeries, g: CkSeries) -> CkSeries:
    """Cauchy product truncated at min(f.trunc, g.trunc); constants included.
    The coefficient of z^m sums only i from the valuation of f to m minus
    the valuation of g, the terms that can be nonzero.  Every coefficient is
    an order-k scalar `_accumulate` just made, so the series is built
    through the trusted `_of`."""
    _check_order(f, g)
    n = min(f.trunc, g.trunc)
    x, y = (f.const,) + f.coeffs, (g.const,) + g.coeffs
    vf, vg = _valuation(x), _valuation(y)
    coeffs = tuple(_accumulate(f.k, ((1, 1, (x[i], y[m - i])) for i in range(vf, m - vg + 1)))
                   for m in range(n + 1))
    return CkSeries._of(f.k, n, coeffs[1:], coeffs[0])


def series_compose(f: CkSeries, g: CkSeries) -> CkSeries:
    """f(g(z)) truncated at min trunc; the inner series must have zero constant.

    No route of the package calls it since the compositional inverse reads
    the power chain directly; it stays public because composition is one of
    the series operations the package offers its users, and tests use it
    to check the inverse."""
    _check_order(f, g)
    if not g.const.is_zero():
        raise ValueError("composition needs a zero constant term in the inner series")
    k = f.k
    n = min(f.trunc, g.trunc)
    pairs = list(zip(f.coeffs, _powers(g, n)))
    out = tuple(_accumulate(k, ((1, 1, (a, CkScalar._built(k, *row[d])))
                                for a, row in pairs if row[d] is not None))
                for d in range(n))
    return CkSeries._of(k, n, out, f.const)


def _powers(f: CkSeries, n: int) -> list:
    """The power chain of f up to n, as rows: rows[a - 1][m - 1] is
    [z^m]f^a for a, m = 1..n, a reduced (den, nums) pair, or None for a
    zero.  The constant term of f is taken to be zero, as it is in every
    caller.

    One call of the `power_rows` core computes every row from the one
    before it, [z^m]f^a = sum over i of [z^i]f [z^(m-i)]f^(a-1), over the
    terms that can be nonzero: m >= a, and a zero coefficient of either
    factor drops its term.  It builds no intermediate scalar or series;
    each entry is reduced once, by one gcd."""
    k = f.k
    first = [(c.den, c.nums) if any(c.nums) else None for c in f.coeffs[:n]]
    return _core("power_rows", k)(k, first, n)


def _boxed_rows(k: int, n: int, f_rows: list, g_rows: list | None, weights: tuple) -> list:
    """The boxed sum over power-chain rows: gamma_m for m = 1..n, the sum
    over a + b = m + 1 of num/den times [z^m]f^a times, unless g_rows is
    None, [z^m]g^b, (num, den) = weights[m - 1][a - 1].  The terms are
    added over a running lcm denominator and only the n outputs are
    built."""
    return _core("boxed_rows", k)(k, n, f_rows, g_rows, weights)


def series_comp_inverse(f: CkSeries) -> CkSeries:
    """Compositional inverse g with f(g(z)) = z up to trunc; the degree-1
    coefficient a_1 must be invertible in C_k and the constant term must
    vanish.

    g is also the left inverse, g(f(w)) = w, so sum over j <= d of
    g_j [w^d] f^j is 1 at d = 1 and 0 above, and [w^d] f^d = a_1^d gives
    g_d = -a_1^(-d) sum over j < d of g_j [w^d] f^j.  That reads the rows
    of one power chain of f and one inverse in C_k.
    """
    if not f.const.is_zero():
        raise ValueError("compositional inverse needs a zero constant term")
    k = f.k
    a1_inv = ck_inverse(f.coeffs[0])  # NotInvertible if leading coefficient is not a unit
    rows = _powers(f, f.trunc)
    g = [a1_inv]
    scale = a1_inv  # a_1^(-d) at degree d
    for d in range(2, f.trunc + 1):
        scale = ck_mul(scale, a1_inv)
        rest = _accumulate(k, ((-1, 1, (g_j, CkScalar._built(k, *row[d - 1])))
                               for g_j, row in zip(g, rows) if row[d - 1] is not None))
        g.append(ck_mul(scale, rest))
    return CkSeries._of(k, f.trunc, tuple(g), CkScalar.zero(k))
