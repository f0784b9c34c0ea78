"""Infinitesimal freeness: free products, product tuples, the mixed-cumulant
test, derivation upgrades, and derivatives of free convolutions.

Freeness of order k is tested as the paper defines it: every cumulant of a
word that mixes colours vanishes as a C_k scalar.  A C_k scalar with
coordinates (phi^(0), ..., phi^(k)) is phi_t = sum_i phi^(i) t^i / i!
truncated beyond t^k, so the t^i coefficient of a cumulant is its
coordinate i divided by i!.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import index, itemgetter

from ._value import Value
from .ck import CkScalar, _accumulate, _coerce, _first_block_table
from .cumulants import CumulantTable, InfLaw, _cumulants_shortlex, all_words
from .convolve import additive_convolve, multiplicative_convolve
from .partitions import enumerate_nc, kreweras


class NcPolynomial(Value):
    """Polynomial in non-commuting variables: finite map word -> rational.

    The empty word carries the constant term; zero coefficients are never
    stored.  Multiplication concatenates words bilinearly.
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

    @classmethod
    def word(cls, w: tuple) -> "NcPolynomial":
        return cls({tuple(w): 1})

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return NcPolynomial(out)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) - c
        return NcPolynomial(out)

    def __mul__(self, other: "NcPolynomial") -> "NcPolynomial":
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
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

    def max_image_degree(self) -> int:
        return max((p.max_degree() for p in self.images.values()), default=0)

    def apply_once(self, p: NcPolynomial) -> NcPolynomial:
        """Leibniz expansion: each letter of each word in turn replaced by its
        image, summed into one map and built once."""
        out: dict = {}
        for w, c in p.terms.items():
            for pos, v in enumerate(w):
                image = self.images.get(v)
                if image is None:
                    continue
                prefix, suffix = w[:pos], w[pos + 1:]
                for w2, c2 in image.terms.items():
                    key = prefix + w2 + suffix
                    out[key] = out.get(key, 0) + c * c2
        return NcPolynomial(out)


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
    Probability, Lecture 11).  So the joint cumulant table is sparse: each
    factor's cumulants up to max_len, on its variables shifted past the
    earlier factors', and a mixed word is missing, which the kernel reads
    as zero.  Its c2m is seeded with each factor's own moment scalars on
    the pure words, so it sums only the mixed words, and a pure joint
    moment is the factor's scalar itself."""
    if not laws:
        raise ValueError("need at least one factor")
    _check_max_len(max_len)
    k = laws[0].k
    if any(law.k != k for law in laws):
        raise ValueError("factors must share the order k")
    if any(law.max_len < max_len for law in laws):
        raise ValueError(f"every factor needs moments up to length {max_len}")
    colors = []
    pure_cumulants = {}
    pure_moments = {}
    for idx, law in enumerate(laws, start=1):
        offset = len(colors)
        colors.extend([idx] * law.num_vars)
        values = law.values
        for w, x in _cumulants_shortlex(law, max_len):
            joint_word = tuple(v + offset for v in w)
            pure_cumulants[joint_word] = x
            pure_moments[joint_word] = values[w]
    num_vars = len(colors)
    table = dict(_first_block_table(k, pure_cumulants, num_vars, max_len, False, pure_moments))
    return InfLaw._of(k, num_vars, max_len, table), Coloring(tuple(colors))


def _require_two_equal_colors(coloring: Coloring):
    palette = coloring.palette()
    if len(palette) != 2:
        raise ValueError("product tuples need exactly two colors")
    first = [v for v in range(1, coloring.num_vars + 1) if coloring.color_of(v) == palette[0]]
    second = [v for v in range(1, coloring.num_vars + 1) if coloring.color_of(v) == palette[1]]
    if len(first) != len(second):
        raise ValueError("the two colors must pair up variable for variable")
    return first, second


@lru_cache(maxsize=None)
def _kreweras_index_blocks(m: int) -> tuple:
    """(getters of the blocks of p, getters of the blocks of Kr(p)) for
    every p in NC(m), computed once per length.  A block's getter maps a
    word of length m to its subword on the block, a tuple."""
    def getters(blocks):
        # itemgetter of one index returns the item, not a 1-tuple
        return tuple(itemgetter(*(i - 1 for i in b)) if len(b) > 1
                     else itemgetter(slice(b[0] - 1, b[0])) for b in blocks)

    return tuple((getters(p.blocks), getters(kreweras(p).blocks)) for p in enumerate_nc(m))


def product_tuple_cumulants(joint: CumulantTable, coloring: Coloring, max_len: int) -> CumulantTable:
    """Cumulants of the pairwise products a_j b_j for a free two-color tuple.

    kappa_m of the products is the sum over non-crossing p of the p-indexed
    cumulants of the a's times the complement-indexed cumulants of the b's.
    A word w is translated once into the word of its a's and the word of
    its b's, and each restriction is read off one of them by a block getter
    from a per-length cache, so no call after the first at a length
    computes a Kreweras complement or builds a getter.
    """
    if coloring.num_vars != joint.num_vars:
        raise ValueError("coloring does not match the table")
    _check_max_len(max_len)
    if max_len > joint.max_len:
        raise ValueError("joint table is too short for the requested length")
    first, second = _require_two_equal_colors(coloring)
    mixed = _first_mixed(joint.values.items(), coloring)
    if mixed is not None:
        raise ValueError(f"mixed cumulant does not vanish on {mixed[0]}")
    npairs = len(first)
    a_of = (None, *first).__getitem__
    b_of = (None, *second).__getitem__
    values = joint.values  # the table's own validated scalars, none checked again
    out = {}
    for w in all_words(npairs, max_len):
        a, b = tuple(map(a_of, w)), tuple(map(b_of, w))
        out[w] = _accumulate(joint.k, (
            (1, 1, [values[on(a)] for on in p_blocks] + [values[on(b)] for on in kr_blocks])
            for p_blocks, kr_blocks in _kreweras_index_blocks(len(w))
        ))
    return CumulantTable._of(joint.k, npairs, max_len, out)


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
    and whose value is nonzero."""
    color_of = (None, *coloring.colors).__getitem__
    for w, x in items:
        if any(x.nums) and len(set(map(color_of, w))) > 1:
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
    budget.  Cumulants are computed one word at a time, shortlex, and the
    scan stops at the first failing word.
    """
    if coloring.num_vars != joint.num_vars:
        raise ValueError("coloring does not match the law")
    _check_max_len(max_len)
    if max_len > joint.max_len:
        raise ValueError("law is too short for the requested length budget")
    mixed = _first_mixed(_cumulants_shortlex(joint, max_len), coloring)
    if mixed is None:
        return FreenessVerdict(True, None)
    w, cumulant = mixed
    i, x = next((i, x) for i, x in enumerate(cumulant.coords) if x != 0)
    return FreenessVerdict(False, Witness(w, i, x / factorial(i)))


def upgraded_law(base: InfLaw, d: Derivation, k: int, max_len: int) -> InfLaw:
    """Order-k law from an order-0 law and a derivation: component i of each
    moment is the base expectation of the i-th derivative of the word."""
    if base.k != 0:
        raise ValueError("base law must have order 0")
    _check_max_len(max_len)
    for v, image in sorted(d.images.items()):
        for x in sorted({x for word in image.terms for x in word}):
            if not 1 <= x <= base.num_vars:
                raise ValueError(
                    f"derivation image of variable {v} uses variable {x}, "
                    f"but the base law has {base.num_vars} variable(s)"
                )
    growth = max(d.max_image_degree() - 1, 0)
    needed = max_len + k * growth
    if base.max_len < needed:
        raise ValueError(
            f"base law supports length {base.max_len}, need {needed} "
            f"(= {max_len} + {k} * {growth})"
        )

    def evaluate(p: NcPolynomial) -> Fraction:
        acc = Fraction(0)
        for word, c in p.terms.items():
            acc += c * base.moment(word).coords[0]
        return acc

    table = {}
    for w in all_words(base.num_vars, max_len):
        comps = []
        p = NcPolynomial.word(w)
        for i in range(k + 1):
            comps.append(evaluate(p))
            if i < k:
                p = d.apply_once(p)
        table[w] = CkScalar(k, comps)
    return InfLaw._of(k, base.num_vars, max_len, table)


def derivative_of_convolution(mu: InfLaw, nu: InfLaw, mode: str) -> InfLaw:
    """Derivatives at t=0 of the convolution of two one-parameter families,
    given as the laws of derivative tuples."""
    if mode == "additive":
        return additive_convolve(mu, nu)
    if mode == "multiplicative":
        return multiplicative_convolve(mu, nu)
    raise ValueError(f"mode must be 'additive' or 'multiplicative', not {mode!r}")
