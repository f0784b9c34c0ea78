"""Exact arithmetic in the truncated algebra C_k = Q[eps]/(eps^(k+1)).

An element has coordinates (a(0), ..., a(k)) with respect to the basis
(eps^i / i!), so multiplication is the Leibniz rule on coordinates.  It is
stored exactly as integer numerators over one positive denominator, in
lowest terms: a(i) = nums[i] / den with gcd(den, *nums) == 1.  Equal
elements therefore have equal (k, den, nums), and the arithmetic is integer
arithmetic followed by one gcd reduction.  `coords` gives the coordinates as
Fractions; nothing here ever touches floats.

Every sum of C_k products in the package goes through one of two private
cores.  `_accumulate` serves series products and compositions, the boxed
gamma_m loop and block products of cumulants: it drops a term at its first
zero factor, chains integer Leibniz products over the rest, adds them over
a running lcm denominator and reduces once per output scalar, not once per
term.  `_first_block_table` does the same for the moment-cumulant
first-block sums of a whole table, in both directions, reading the table's
entries as (den, nums) pairs once rather than scalar by scalar.  Validation
happens once, where a value enters the library: the scalar, series and
table constructors.  So the cores trust their factors to be order-k scalars
and check none of them; callers that hand `_accumulate` mixed scalars and
rational weights go through `_sum_of_products`, which checks every factor
and then feeds the same core.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Iterator, Sequence


class NotInvertible(ArithmeticError):
    """Raised when an inverse is requested of a non-unit."""


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class CkScalar:
    """Element of C_k, coordinates (a(0), ..., a(k)) over the basis eps^i/i!,
    stored as integer numerators `nums` over one denominator `den`."""

    __slots__ = ("k", "den", "nums")

    def __init__(self, k: int, coords: Iterable):
        coords = tuple(_coerce(c) for c in coords)
        if k < 0:
            raise ValueError("order k must be >= 0")
        if len(coords) != k + 1:
            raise ValueError(f"order {k} needs {k + 1} coordinates, got {len(coords)}")
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(*(c.denominator for c in coords))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(c.numerator * (den // c.denominator) for c in coords))

    @classmethod
    def _built(cls, k: int, den: int, nums: Iterable) -> "CkScalar":
        """Trusted construction from integers with den > 0: one gcd
        reduction and no validation."""
        nums = tuple(nums)
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(n // g for n in nums)
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CkScalar is immutable")

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CkScalar)
            and self.k == other.k
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.k, self.den, self.nums))

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


def _leibniz(k: int, x: Sequence[int], y: Sequence[int]) -> list:
    """gamma(i) = sum_j C(i,j) x(j) y(i-j) on integer numerators."""
    out = []
    for i in range(k + 1):
        acc = x[0] * y[i]
        for j in range(1, i + 1):
            if x[j] and y[i - j]:
                term = x[j] * y[i - j]
                acc += term * comb(i, j) if j < i else term  # C(i, j) > 1 iff 0 < j < i
        out.append(acc)
    return out


def ck_mul(a: CkScalar, b: CkScalar) -> CkScalar:
    """Product in C_k: gamma(i) = sum_j C(i,j) a(j) b(i-j)."""
    _check_order(a, b)
    return CkScalar._built(a.k, a.den * b.den, _leibniz(a.k, a.nums, b.nums))


def ck_prod_many(factors: Sequence[CkScalar]) -> CkScalar:
    """Left fold of the Leibniz product over a non-empty list of uniform
    order, reduced once at the end."""
    if not factors:
        raise ValueError("product of an empty list of C_k scalars")
    return _sum_of_products(factors[0].k, (factors,))


def _sum_of_products(k: int, terms: Iterable, start: CkScalar | None = None,
                     subtract: bool = False) -> CkScalar:
    """start (zero if None) plus, or minus if subtract, the sum over terms
    of the product of each term's factors, reduced once.

    A factor is a C_k scalar of order k or an exact rational (int or
    Fraction) weight.  Every factor is type- and order-checked, a zero one
    included; the checked terms then go through `_accumulate`, which skips
    a term with a zero factor before multiplying it out."""
    if start is not None and start.k != k:
        raise ValueError(f"order mismatch: k={start.k} vs k={k}")
    return _accumulate(k, (_checked_term(k, factors) for factors in terms), start, subtract)


def _checked_term(k: int, factors: Iterable) -> tuple:
    """(weight numerator, weight denominator, chain of scalars) for one
    term of `_sum_of_products`, every factor checked."""
    num, den, chain = 1, 1, []
    for f in factors:
        if isinstance(f, CkScalar):
            if f.k != k:
                raise ValueError(f"order mismatch: k={f.k} vs k={k}")
            chain.append(f)
        elif isinstance(f, (int, Fraction)):
            num *= f.numerator
            den *= f.denominator
        else:
            raise TypeError(f"expected a C_k scalar or an exact rational, got {type(f).__name__}")
    return num, den, chain


def _accumulate(k: int, terms: Iterable, start: CkScalar | None = None,
                subtract: bool = False) -> CkScalar:
    """The one trusted C_k sum-of-products core: start (zero if None) plus,
    or minus if subtract, the sum of num / den times the product of the
    chain over the terms (num, den, chain).  The chain's factors are order-k
    scalars the library built, so none is checked again.

    A term is dropped at its zero weight or its first zero factor, before
    anything is multiplied.  Each product is a chain of `_leibniz`
    convolutions over the product of its denominators and is added over a
    running lcm denominator, so the only gcd reduction is the result's."""
    if start is None:
        den, acc = 1, [0] * (k + 1)
    else:
        den, acc = start.den, list(start.nums)
    sign = -1 if subtract else 1
    unit = (1,) + (0,) * k
    coords = range(k + 1)
    for weight, tden, chain in terms:
        if not weight:
            continue
        xs = []
        for f in chain:
            x = f.nums
            if not (x[0] or any(x)):
                break  # a zero factor
            tden *= f.den
            xs.append(x)
        else:
            x = xs[0] if xs else unit
            for i in range(1, len(xs)):
                x = _leibniz(k, x, xs[i])
            if den % tden:
                up = tden // gcd(den, tden)
                den *= up
                acc = [a * up for a in acc]
            weight *= sign * (den // tden)
            for i in coords:
                acc[i] += weight * x[i]
    return CkScalar._built(k, den, acc)


def _first_block_table(k: int, given: dict, levels: Iterable, invert: bool) -> Iterator[tuple]:
    """The trusted moment-cumulant core: (word, scalar) for every word of
    levels, in order, by the first-block recursion
    m(w) = sum over blocks B of kappa(w|B) prod m(w|gap).

    given is the input table of order-k scalars: cumulants, whose moments
    are computed, or, if invert, moments, whose cumulants are computed as
    kappa(w) = m(w) minus the sum over the proper blocks.  levels yields one
    (words, blocks) pair per length, shortest first: the words of that
    length and their blocks (on_b, gaps), on_b mapping a word to its
    subword on B and gaps listing the (start, stop) slices outside B.

    The nonzero entries of given are read once as (den, nums) pairs, and
    every nonzero output joins them as it is computed; a missing word is a
    zero.  A block whose kappa(w|B) is zero is skipped before any gap moment
    is read, and a term is dropped at its first zero gap moment.  The rest is
    a chain of `_leibniz` products, gap by gap, added in place over a running
    lcm denominator and reduced once per word.  A caller that stops early
    pays for no later word."""
    known = {w: (x.den, x.nums) for w, x in given.items() if any(x.nums)}
    found = {}
    kappa, moment = (found, known) if invert else (known, found)
    sign = -1 if invert else 1
    zero = (1, (0,) * (k + 1))
    coords = range(k + 1)
    for words, blocks in levels:
        for w in words:
            den, acc = known.get(w, zero) if invert else zero
            acc = list(acc)
            for on_b, gaps in blocks:
                c = kappa.get(on_b(w))
                if c is None:
                    continue
                tden, x = c
                for lo, hi in gaps:
                    g = moment.get(w[lo:hi])
                    if g is None:
                        break
                    tden *= g[0]
                    x = _leibniz(k, x, g[1])
                else:
                    if den % tden:
                        up = tden // gcd(den, tden)
                        den *= up
                        acc = [a * up for a in acc]
                    f = sign * (den // tden)
                    for i in coords:
                        acc[i] += f * x[i]
            out = CkScalar._built(k, den, acc)
            if any(out.nums):
                found[w] = (out.den, out.nums)
            yield w, out


def ck_inverse(a: CkScalar) -> CkScalar:
    """Inverse in C_k by triangular back-substitution; needs a(0) != 0.

    With a = N/D, the inverse of N has coordinates y(i) / n0^(i+1) for the
    integers y(0) = 1, y(i) = -sum_j C(i,j) N(j) y(i-j) n0^(j-1)."""
    x = a.nums
    n0 = x[0]
    if n0 == 0:
        raise NotInvertible("first coordinate is zero")
    k = a.k
    y = [1]
    for i in range(1, k + 1):
        y.append(-sum(comb(i, j) * x[j] * y[i - j] * n0 ** (j - 1) for j in range(1, i + 1)))
    den = n0 ** (k + 1)
    sign = -1 if den < 0 else 1
    return CkScalar._built(k, sign * den, [sign * a.den * y[i] * n0 ** (k - i) for i in range(k + 1)])


class LambdaVector:
    """Weak composition (lambda_1, ..., lambda_n) of the integer `target`."""

    __slots__ = ("entries", "target")

    def __init__(self, entries, target: int):
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError("lambda entries must be non-negative")
        if sum(entries) != target:
            raise ValueError(f"lambda entries sum to {sum(entries)}, expected {target}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "target", target)

    def __setattr__(self, name, value):
        raise AttributeError("LambdaVector is immutable")

    def __reduce__(self):
        return LambdaVector, (self.entries, self.target)

    def __eq__(self, other) -> bool:
        return (type(other) is LambdaVector and self.entries == other.entries
                and self.target == other.target)

    def __hash__(self):
        return hash((self.entries, self.target))

    def __repr__(self):
        return f"LambdaVector(entries={self.entries!r}, target={self.target!r})"

    def __len__(self):
        return len(self.entries)


def multinomial(total: int, parts: Sequence[int]) -> int:
    """C_total^(parts) = total! / prod(parts_j!); parts must sum to total."""
    if sum(parts) != total:
        raise ValueError("multinomial parts must sum to the top index")
    num = factorial(total)
    for p in parts:
        num //= factorial(p)
    return num


class CkSeries:
    """Truncated power series over C_k.

    Degrees 1..trunc are stored in `coeffs`; `const` is the degree-0 term,
    zero for the moment/R-series world and nonzero only for Fourier images.
    Binary operations truncate to the smaller trunc.
    """

    __slots__ = ("k", "trunc", "const", "coeffs")

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
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CkSeries is immutable")

    def __reduce__(self):
        return CkSeries, (self.k, self.trunc, self.coeffs, self.const)

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
        if trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return CkSeries(self.k, trunc, self.coeffs[:trunc], self.const)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CkSeries)
            and self.k == other.k
            and self.trunc == other.trunc
            and self.const == other.const
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.k, self.trunc, self.const, self.coeffs))

    def __repr__(self):
        return f"CkSeries(k={self.k}, trunc={self.trunc}, const={self.const!r}, coeffs={list(self.coeffs)!r})"

    def __add__(self, other: "CkSeries") -> "CkSeries":
        _check_order(self, other)
        coeffs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return CkSeries(self.k, len(coeffs), coeffs, self.const + other.const)

    def __sub__(self, other: "CkSeries") -> "CkSeries":
        _check_order(self, other)
        coeffs = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        return CkSeries(self.k, len(coeffs), coeffs, self.const - other.const)

    def __mul__(self, other: "CkSeries") -> "CkSeries":
        return series_mul(self, other)


def series_mul(f: CkSeries, g: CkSeries) -> CkSeries:
    """Cauchy product truncated at min(f.trunc, g.trunc); constants included."""
    _check_order(f, g)
    n = min(f.trunc, g.trunc)
    x, y = (f.const,) + f.coeffs, (g.const,) + g.coeffs
    coeffs = [_accumulate(f.k, ((1, 1, (x[i], y[m - i])) for i in range(m + 1)))
              for m in range(n + 1)]
    return CkSeries(f.k, n, coeffs[1:], coeffs[0])


def series_compose(f: CkSeries, g: CkSeries) -> CkSeries:
    """f(g(z)) truncated at min trunc; the inner series must have zero constant."""
    _check_order(f, g)
    if not g.const.is_zero():
        raise ValueError("composition needs a zero constant term in the inner series")
    n = min(f.trunc, g.trunc)
    pairs = list(zip(f.coeffs, _powers(g.truncate(n))))
    out = [_accumulate(f.k, ((1, 1, (a, power.coeffs[d])) for a, power in pairs))
           for d in range(n)]
    return CkSeries(f.k, n, out, f.const)


def _powers(f: CkSeries) -> list:
    """f, f^2, ..., f^trunc."""
    out = [f]
    for _ in range(1, f.trunc):
        out.append(series_mul(out[-1], f))
    return out


def series_comp_inverse(f: CkSeries) -> CkSeries:
    """Compositional inverse g with f(g(z)) = z up to trunc.

    Degree-by-degree triangular solve; the degree-1 coefficient must be
    invertible in C_k and the constant term must vanish.
    """
    if not f.const.is_zero():
        raise ValueError("compositional inverse needs a zero constant term")
    n = f.trunc
    k = f.k
    a1_inv = ck_inverse(f.coeffs[0])  # NotInvertible if leading coefficient is not a unit
    g = [a1_inv]
    for d in range(2, n + 1):
        # with g known below degree d, [z^d] f(g(z)) = a_1 g_d + [z^d] f(g_{<d}(z))
        known = CkSeries(k, d, g + [CkScalar.zero(k)])
        g.append(ck_mul(-a1_inv, series_compose(f.truncate(d), known).coeffs[d - 1]))
    return CkSeries(k, n, g)
