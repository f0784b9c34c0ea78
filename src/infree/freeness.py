"""Infinitesimal freeness: free products, product tuples, the mixed-cumulant
test, derivation upgrades, and derivatives of free convolutions.

Freeness of order k is tested as the paper defines it: every cumulant of a
word that mixes colours vanishes as a C_k scalar.  A C_k scalar with
coordinates (phi^(0), ..., phi^(k)) is phi_t = sum_i phi^(i) t^i / i!
truncated beyond t^k, so the t^i coefficient of a cumulant is its
coordinate i divided by i!.

The test runs by induction on the word length.  While every mixed
cumulant shorter than a word vanishes, the word's non-crossing partitions
that hold a mixed block, other than the one-block partition, add nothing
to its moment.  So a mixed word's cumulant is its moment minus the sum
over the blocks inside its rarest colour that hold the first position of
that colour, times the moments of the gaps and of the outer word around
them.  One call of the table core `ck._block_table` over the law's
moments solves them, with the pure cumulants they read, and a free
product makes the same one call over its factors' moments alone, its
mixed cumulants missing and so zero.  The first nonzero one found is
exact, and the scan ends there.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import factorial, lcm
from operator import index

from ._value import Value
from .ck import _block_table, _built_all, _coerce, _product_tuple_table
from .cumulants import CumulantTable, InfLaw, _nc_block_getters, all_words


class NcPolynomial(Value):
    """Polynomial in non-commuting variables: finite map word -> rational.

    The empty word carries the constant term; zero coefficients are never
    stored.  Multiplication concatenates words bilinearly.  No computation
    in the package uses `+`, `-`, `*`, `scale`, `variable` or `constant`;
    they are public as the way to build derivation images, and the tests
    and the acceptance suite build theirs with them.
    """

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: dict | None = None):
        store = {}
        for w, c in (terms or {}).items():
            c = _coerce(c)
            if c != 0:
                store[tuple(w)] = c
        self._set(store)

    @classmethod
    def variable(cls, v: int) -> "NcPolynomial":
        return cls({(v,): 1})

    @classmethod
    def constant(cls, c) -> "NcPolynomial":
        return cls({(): c})

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        return NcPolynomial(self.terms | {w: self.terms.get(w, 0) + c
                                          for w, c in other.terms.items()})

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "NcPolynomial") -> "NcPolynomial":
        out: dict = {}
        for (w1, c1), (w2, c2) in product(self.terms.items(), other.terms.items()):
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
        return NcPolynomial(out)

    def scale(self, c) -> "NcPolynomial":
        c = _coerce(c)
        return NcPolynomial({w: c * v for w, v in self.terms.items()})

    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __repr__(self):
        body = " + ".join(f"{c}*{w}" for w, c in sorted(self.terms.items()))
        return f"NcPolynomial({body or '0'})"


class Derivation(Value):
    """Linear map fixed by its images on the variables, extended by Leibniz."""

    __slots__ = _fields = ("images",)

    def __init__(self, images: dict):
        store = {}
        for v, p in images.items():
            if not isinstance(p, NcPolynomial):
                raise TypeError("derivation images must be NcPolynomial")
            store[index(v)] = p
        self._set(store)

    def __hash__(self):
        return hash(tuple(sorted(self.images.items())))

    def image(self, v: int) -> NcPolynomial:
        return self.images.get(v, NcPolynomial())

    def growth(self, num_vars: int) -> int:
        """The most letters one derivative adds to a word over the letters
        1..num_vars, whose images alone it reads: their top degree less one, at least 0."""
        return max(max(self.image(x).max_degree() for x in range(1, num_vars + 1)) - 1, 0)


class Coloring(Value):
    """Assignment of each variable 1..num_vars to a subalgebra label."""

    __slots__ = _fields = ("colors",)

    def __init__(self, colors):
        # an ASCII digit string is read as its integer; a float is refused
        colors = tuple(int(c) if isinstance(c, str) else index(c) for c in colors)
        if not colors:
            raise ValueError("coloring must cover at least one variable")
        self._set(colors)

    @property
    def num_vars(self) -> int:
        return len(self.colors)

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    def palette(self) -> tuple:
        return tuple(sorted(set(self.colors)))


def _check_max_len(max_len: int) -> None:
    """A table or a length budget covers the words of length 1 and up."""
    if max_len < 1:
        raise ValueError(f"length budget must be >= 1, got {max_len}")


def free_product_joint(laws: list, max_len: int):
    """Joint law of the disjoint union of the inputs' variables, free by
    construction, and its coloring.

    A free product's pure cumulants are its factors' and its mixed ones
    vanish (Nica-Speicher, Lectures on the Combinatorics of Free
    Probability, Lecture 11).  So its moments come from one call of the
    table core `ck._block_table` over the factors' moments alone, shifted
    onto the joint variables: a pure joint moment is the factor's own
    scalar, a pure word below max_len has its cumulant solved, and a mixed
    word sums only the blocks inside its rarest colour that hold its first
    position of that colour, over those cumulants and the shorter joint
    moments."""
    if not laws:
        raise ValueError("need at least one factor")
    _check_max_len(max_len)
    k = laws[0].k
    if any(law.k != k for law in laws):
        raise ValueError("factors must share the order k")
    if any(law.max_len < max_len for law in laws):
        raise ValueError(f"every factor needs moments up to length {max_len}")
    colors, moments = [], {}
    for idx, law in enumerate(laws, start=1):
        offset = len(colors)
        colors.extend([idx] * law.num_vars)
        for w in all_words(law.num_vars, max_len):
            moments[tuple(v + offset for v in w)] = law.values[w]
    colors = tuple(colors)
    if len(laws) > 1:  # a single factor is its own free product
        moments = {w: x for w, x, _ in _block_table(k, {}, moments, colors, max_len)}
    return InfLaw._of(k, len(colors), max_len, moments), Coloring._of(colors)


def _require_two_equal_colors(coloring: Coloring):
    palette = coloring.palette()
    if len(palette) != 2:
        raise ValueError("product tuples need exactly two colors")
    first, second = ([v for v in range(1, coloring.num_vars + 1) if coloring.color_of(v) == c]
                     for c in palette)
    if len(first) != len(second):
        raise ValueError("the two colors must pair up variable for variable")
    return first, second


def product_tuple_cumulants(joint: CumulantTable, coloring: Coloring, max_len: int) -> CumulantTable:
    """Cumulants of the pairwise products a_j b_j for a free two-color tuple.

    kappa_m of the products is the sum over non-crossing p of the p-indexed
    cumulants of the a's times the complement-indexed cumulants of the b's.
    One call of the product-tuple core `ck._product_tuple_table` sums the
    whole table.  It reads the joint cumulants by shortlex position, through
    the maps of `_product_tuple_maps`, built once per length from the
    per-length block table, so no call after the first at a length
    computes a Kreweras complement or builds a map.
    """
    if coloring.num_vars != joint.num_vars:
        raise ValueError("coloring does not match the table")
    _check_max_len(max_len)
    if max_len > joint.max_len:
        raise ValueError("joint table is too short for the requested length")
    first, second = _require_two_equal_colors(coloring)
    values = joint.values  # the table's own validated scalars, none checked again
    words = list(all_words(joint.num_vars, max_len))
    mixed = _first_mixed(((w, values[w]) for w in words), coloring)
    if mixed is not None:
        raise ValueError(f"mixed cumulant does not vanish on {mixed[0]}")
    kappa = [None] + [(x.den, x.nums) if any(x.nums) else None
                      for x in map(values.__getitem__, words)]
    maps = partial(_product_tuple_maps, tuple(first), tuple(second), joint.num_vars)
    out = dict(_product_tuple_table(joint.k, kappa, len(first), max_len, maps))
    return CumulantTable._of(joint.k, len(first), max_len, out)


@lru_cache(maxsize=None)
def _product_tuple_maps(first: tuple, second: tuple, num_vars: int, n: int) -> tuple:
    """(first map, other maps) for every p in NC(n), for the words of
    length n over the pairs 1..len(first), pair j standing for variable
    first[j - 1] on the a side and second[j - 1] on the b side.  A map
    sends the place of a word among the words of length n, shortlex, to
    the shortlex position, among the words over the num_vars joint
    variables, of its a-word on a block of p or its b-word on a block of
    Kr(p); the first map is that of p's first block.  Each block's
    positions are read off the per-length getters by applying them to the
    positions themselves, and each map is one comprehension per letter,
    shared by every p with that block."""
    pairs = len(first)
    columns = [[c for c in range(pairs) for _ in range(pairs ** (n - 1 - i))] * pairs ** i
               for i in range(n)]
    sides = [[[side[c] for c in column] for column in columns] for side in (first, second)]
    made: dict = {}

    def block_map(side: int, positions: tuple) -> list:
        m = made.get((side, positions))
        if m is None:
            letters = sides[side]
            m = letters[positions[0]]
            for q in positions[1:]:
                m = [num_vars * p + c for p, c in zip(m, letters[q])]
            made[side, positions] = m
        return m

    whole = tuple(range(n))
    out = []
    for p_blocks, kr_blocks in _nc_block_getters(n):
        a_maps = [block_map(0, on(whole)) for on in p_blocks]
        out.append((a_maps[0], (*a_maps[1:], *(block_map(1, on(whole)) for on in kr_blocks))))
    return tuple(out)


class Witness(Value):
    """A failing word, the lowest nonzero coordinate of its cumulant, and
    that coordinate's t^i coefficient."""

    __slots__ = _fields = ("word", "component", "value")

    def __init__(self, word: tuple, component: int, value: Fraction):
        self._set(word, component, value)


class FreenessVerdict(Value):
    """Outcome of the freeness test: passed, or the first failure's witness."""

    __slots__ = _fields = ("passed", "witness")

    def __init__(self, passed: bool, witness: Witness | None):
        self._set(passed, witness)


def _first_mixed(items, coloring: Coloring) -> tuple | None:
    """First (word, value), in the order given, whose word mixes colours
    and whose value is nonzero; a value of None, a word not computed, is
    passed over."""
    color_of = (None, *coloring.colors).__getitem__
    for w, x in items:
        if x is not None and any(x.nums) and len(set(map(color_of, w))) > 1:
            return w, x
    return None


def check_inf_freeness(joint: InfLaw, coloring: Coloring, max_len: int) -> FreenessVerdict:
    """Bounded test of infinitesimal freeness of order k: every cumulant of
    a word of length <= max_len that mixes colours must vanish.

    The witness is the first failing word in shortlex order, the lowest
    nonzero coordinate i of its cumulant, and that coordinate divided by
    i!, its t^i coefficient.  This is also the first nonzero centred
    alternating product phi_t(prod(m_r - phi_t(m_r))) over the word's
    same-colour runs m_r: below the shortest length with a nonzero mixed
    cumulant every such product vanishes, and at that length it equals the
    word's cumulant (Krawczyk-Speicher products as arguments).  Any
    reported failure is a genuine one; a pass certifies freeness up to the
    budget.

    The component is the first failing word's, not the law's order of
    freeness: a later word can fail at a lower coordinate, and a law can
    fail in C_1 at a word that passes in C_2.

    The cumulants come from one call of the table core `ck._block_table`
    over the law's own moments, one word at a time, shortlex, and the scan
    stops at the first nonzero mixed one.  Every moment is given, so each
    word's cumulant is solved, a pure one over all its first blocks as its
    colour's own transform, up to the pure words of length max_len, which
    no mixed word reads.  By induction on the length, each mixed one is
    exact: while every mixed cumulant shorter than a word w vanishes, the
    non-crossing partitions of w with a mixed block other than the full
    one add nothing, so kappa(w) is m(w) minus the sum over the blocks
    inside w's rarest colour that hold its first position of that colour,
    with the gap and outer-word moments around them.  Until the first
    nonzero mixed cumulant that induction holds for every word the scan
    reaches, and at it the scan ends, so an early failure reads no moment
    past its length.  A law of one colour has no mixed word and passes at
    once.
    """
    if coloring.num_vars != joint.num_vars:
        raise ValueError("coloring does not match the law")
    _check_max_len(max_len)
    if max_len > joint.max_len:
        raise ValueError("law is too short for the requested length budget")
    if len(coloring.palette()) < 2:
        return FreenessVerdict(True, None)
    cumulants = _block_table(joint.k, {}, joint.values, coloring.colors, max_len)
    failed = _first_mixed(((w, x) for w, _, x in cumulants), coloring)
    if failed is None:
        return FreenessVerdict(True, None)
    w, cumulant = failed
    i, x = next((i, x) for i, x in enumerate(cumulant.coords) if x != 0)
    return FreenessVerdict(False, Witness(w, i, x / factorial(i)))


def upgraded_law(base: InfLaw, d: Derivation, k: int, max_len: int) -> InfLaw:
    """Order-k law from an order-0 law and a derivation: coordinate i of each
    moment is the base expectation of the i-th derivative of the word.

    That is psi_i(w) for one recursion over words: psi_0 is the base law,
    with psi_0(()) = 1, and for i >= 1 psi_i(()) = 0 and psi_i(u) is the
    sum of c psi_{i-1}(u_{<p} v u_{>p}) over the positions p of u and the
    terms c v of D(x_{u_p}).  Level i covers the words up to length
    max_len + (k - i) g, for images of the base's letters of degree g + 1
    or less, as integers over B E^i, for B the lcm of the base
    denominators and E that of the image coefficients; only the level
    before it is kept.  With u_{<p} fixed, the words u over every suffix
    are one run of a list by shortlex place, and so are the words they
    read, so a term adds c times one slice to another.  The CLI budget counts this work."""
    if base.k != 0:
        raise ValueError("base law must have order 0")
    _check_max_len(max_len)
    for v, image in sorted(d.images.items()):
        for x in sorted({x for word in image.terms for x in word}):
            if not 1 <= x <= base.num_vars:
                raise ValueError(f"derivation image of variable {v} uses variable {x}, "
                                 f"but the base law has {base.num_vars} variable(s)")
    growth = d.growth(base.num_vars)
    needed = max_len + k * growth
    if base.max_len < needed:
        raise ValueError(f"base law supports length {base.max_len}, need {needed} "
                         f"(= {max_len} + {k} * {growth})")
    if k < 0:
        raise ValueError("order k must be >= 0")
    v = base.num_vars
    letters = range(1, v + 1)
    # (letter - 1, coefficient, length and base-v value of the image word)
    terms = [(x - 1, c, len(w), sum((y - 1) * v ** (len(w) - 1 - r) for r, y in enumerate(w)))
             for x in letters for w, c in d.image(x).terms.items()]
    e = lcm(*(c.denominator for _, c, _, _ in terms))
    terms = [(x, c.numerator * (e // c.denominator), size, code) for x, c, size, code in terms]
    rows = [[base.values[w] for w in product(letters, repeat=n)] for n in range(1, needed + 1)]
    b = lcm(*(x.den for row in rows for x in row))
    level = [[b], *([x.nums[0] * (b // x.den) for x in row] for row in rows)]
    coords = [[x * e ** k for row in level[1:max_len + 1] for x in row]]
    for i in range(1, k + 1):
        prev, level = level, [[0]]
        for n in range(1, max_len + (k - i) * growth + 1):
            row = [0] * v ** n
            for p in range(n):
                run = v ** (n - 1 - p)  # the suffixes after position p
                for x, c, size, code in terms:
                    src, stride = prev[n - 1 + size], v ** size
                    for h in range(v ** p):  # the prefix before position p
                        j, t = (h * v + x) * run, (h * stride + code) * run
                        row[j:j + run] = [a + c * y for a, y in zip(row[j:j + run], src[t:t + run])]
            level.append(row)
        coords.append([x * e ** (k - i) for row in level[1:max_len + 1] for x in row])
    table = dict(zip(all_words(v, max_len), _built_all(k, b * e ** k, zip(*coords))))
    return InfLaw._of(k, v, max_len, table)


def derivative_of_convolution(mu: InfLaw, nu: InfLaw, mode: str) -> InfLaw:
    """Derivatives at t=0 of the convolution of two one-parameter families,
    given as the laws of derivative tuples."""
    from .convolve import additive_convolve, multiplicative_convolve

    if mode == "additive":
        return additive_convolve(mu, nu)
    if mode == "multiplicative":
        return multiplicative_convolve(mu, nu)
    raise ValueError(f"mode must be 'additive' or 'multiplicative', not {mode!r}")
