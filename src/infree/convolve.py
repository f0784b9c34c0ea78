"""Boxed convolutions of series and free convolutions of one-variable laws.

One-variable laws take one route, the R-series of free cumulants
(Nica-Speicher, Lectures 11 and 16): additive convolution adds R-series,
multiplicative convolution boxes the R-series of one law with the moment
series of the other, M_{mu boxtimes nu} = R_mu boxed M_nu (Nica-Speicher,
Theorem 14.4), and an example law is a constant R-series pattern.  None
visits the first blocks of the cumulants layer.

Two routes to the same product: the type-A boxed convolution over C_k,
and the type-k sum weighted by shapes.  The first is the production path
and enumerates no partition: counting the p in NC(m) by the block types of
p and Kr(p) (Goulden-Jackson, Europ. J. Combin. 13, 1992, through Biane's
bijection, Nica-Speicher, Lectures on the Combinatorics of Free
Probability, Lecture 18) turns the sum over NC(m) into gamma_m = m sum
over a + b = m + 1 of [z^m]A^a [z^m]B^b / (a b), for A = sum alpha_n z^n
and B = sum beta_n z^n.  The second exists to witness the equality
theorems.  It reads enumerated type-k partitions into grouped descriptors
(weight, f side, g side), each side a sorted tuple of (degree, coordinate)
and equal keys merged by adding their weights (218 instead of 9,240 at
m=6, i=2), and one coordinate sum evaluates them.  The type-B double sum
is that witness at order 1, since NC^(1)(m) is the set of
inversion-invariant partitions of [2m] (Biane-Goodman-Nica, Trans. AMS
355, 2003); reading those partitions by their mirror pairs of blocks is
the test oracle it is checked against.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from .ck import CkScalar, CkSeries, multinomial, series_comp_inverse
from .ck import _accumulate, _check_order, _powers
from .cumulants import InfLaw
from .partitions import catalan, enumerate_nc, ordered_blocks
from .typek import fiber_over, r_of_shape


def special_series(kind: str, k: int, trunc: int) -> CkSeries:
    """The unit (delta), all-ones (zeta) and inverse-of-zeta (moebius)
    series for the boxed convolution.  The moebius coefficient of z^n is
    the Mobius value of [0_n, 1_n] in NC(n), (-1)^(n-1) Catalan(n-1)."""
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    one = CkScalar.one(k)
    zero = CkScalar.zero(k)
    if kind == "delta":
        return CkSeries(k, trunc, (one,) + (zero,) * (trunc - 1))
    if kind == "zeta":
        return CkSeries(k, trunc, (one,) * trunc)
    if kind == "moebius":
        values = [(-1) ** (n - 1) * catalan(n - 1) for n in range(1, trunc + 1)]
        return CkSeries.from_rationals(k, values)
    raise ValueError(f"unknown special series kind: {kind!r}")


def _check_zero_const(*series: CkSeries) -> None:
    if not all(s.const.is_zero() for s in series):
        raise ValueError("boxed convolution needs a zero constant term")


def _check_boxed_pair(f: CkSeries, g: CkSeries) -> None:
    _check_order(f, g)
    _check_zero_const(f, g)


def _boxed_sum(f: CkSeries, n: int, g_power) -> CkSeries:
    """The one gamma_m loop: gamma_m = m sum over a + b = m + 1 of
    [z^m]f^a [z^m]g^b / (a b), where g_power(m, b) gives [z^m]g^b as a
    pair (q, chain): an exact rational q times the product of chain, a
    tuple of at most one C_k scalar.  The powers of f and the scalars of
    g come from validated series, so the terms go to the trusted core, and
    its sums become the series through the trusted `_of`."""
    f_pows = _powers(f.truncate(n))
    out = []
    for m in range(1, n + 1):
        terms = []
        for a, b in zip(range(1, m + 1), range(m, 0, -1)):
            q, chain = g_power(m, b)
            terms.append((m * q.numerator, a * b * q.denominator,
                          (f_pows[a - 1].coeffs[m - 1],) + chain))
        out.append(_accumulate(f.k, terms))
    return CkSeries._of(f.k, n, tuple(out), CkScalar.zero(f.k))


def boxed_conv_ck(f: CkSeries, g: CkSeries) -> CkSeries:
    """gamma_m = sum over NC(m) of prod alpha_{block sizes of p} times
    prod beta_{block sizes of Kr(p)}, computed as m sum over a + b = m + 1
    of [z^m]f^a [z^m]g^b / (a b) (Goulden-Jackson 1992 through Biane's
    bijection, Nica-Speicher Lecture 18).  alpha_1 may be zero or nilpotent."""
    _check_boxed_pair(f, g)
    n = min(f.trunc, g.trunc)
    g_pows = _powers(g.truncate(n))
    return _boxed_sum(f, n, lambda m, b: (1, (g_pows[b - 1].coeffs[m - 1],)))


def _coord_sum(terms: tuple, f: CkSeries, g: CkSeries) -> Fraction:
    """Sum of weight * prod f_d[c] over the f side * prod g_d[c] over the g
    side, for grouped descriptors (weight, f side, g side) of (d, c) pairs."""
    acc = Fraction(0)
    for weight, f_side, g_side in terms:
        num, den = 1, 1
        for series, side in ((f, f_side), (g, g_side)):
            for d, c in side:
                x = series.coeffs[d - 1]
                num *= x.nums[c]
                den *= x.den
        if num:
            acc += weight * Fraction(num, den)
    return acc


@lru_cache(maxsize=None)
def _type_k_terms(m: int, i: int) -> tuple:
    """Grouped descriptors for component i of degree m.  An element with
    shape lambda has weight multinomial(i, lambda) / r(lambda), and its sides
    hold (block size, shape entry) over the blocks of its reduction q (f
    side) and of Kr(q) (g side)."""
    counts = Counter()
    for q in enumerate_nc(m):
        mix_list, sep_list = ordered_blocks(q)
        nb = q.num_blocks()
        for tk in fiber_over(q, i):
            entry_of = dict(zip(mix_list, tk.shape.entries))
            f_side = tuple(sorted((len(blk), entry_of[blk]) for blk in sep_list[:nb]))
            g_side = tuple(sorted((len(blk), entry_of[blk]) for blk in sep_list[nb:]))
            weight = Fraction(multinomial(i, tk.shape.entries), r_of_shape(tk.shape, m, i))
            counts[f_side, g_side] += weight
    return tuple((weight, f_side, g_side) for (f_side, g_side), weight in counts.items())


def boxed_conv_type_k(f: CkSeries, g: CkSeries) -> CkSeries:
    """Componentwise sum over type-i partitions, i = 0..k, weighted by the
    shape multinomial over the shape count r."""
    _check_boxed_pair(f, g)
    n = min(f.trunc, g.trunc)
    return CkSeries._of(f.k, n, tuple(
        CkScalar(f.k, [_coord_sum(_type_k_terms(m, i), f, g) for i in range(f.k + 1)])
        for m in range(1, n + 1)
    ), CkScalar.zero(f.k))


def boxed_conv_type_b(f: CkSeries, g: CkSeries) -> CkSeries:
    """The type-B double sum over NC^(1)(m), the inversion-invariant
    partitions of [2m]; defined only at order 1, where it is the type-k sum:
    a mirror pair of blocks of size s is a reduced block of shape entry 0,
    the zero-block of size 2s one of entry 1, and every weight is 1."""
    if f.k != 1 or g.k != 1:
        raise ValueError("type-B convolution is defined at order k=1")
    return boxed_conv_type_k(f, g)


def _moebius_power(m: int, b: int) -> Fraction:
    """[z^m]M^b = (-1)^(m-b) b/(2m-b) C(2m-b, m-b) for the moebius series M."""
    return Fraction((-1) ** (m - b) * b * comb(2 * m - b, m - b), 2 * m - b)


def r_from_moments(m: CkSeries) -> CkSeries:
    """R-series from the moment series: boxed convolution with moebius, whose
    powers come in closed form."""
    _check_zero_const(m)
    return _boxed_sum(m, m.trunc, lambda d, b: (_moebius_power(d, b), ()))


def moments_from_r(r: CkSeries) -> CkSeries:
    """Moment series from the R-series: boxed convolution with zeta, whose
    powers are [z^m]Z^b = C(m-1, b-1)."""
    _check_zero_const(r)
    return _boxed_sum(r, r.trunc, lambda d, b: (comb(d - 1, b - 1), ()))


def fourier_transform(f: CkSeries) -> CkSeries:
    """(1/z) times the compositional inverse; turns boxed convolution into
    coefficientwise series multiplication.  Needs trunc >= 2 so at least one
    non-constant coefficient survives the shift."""
    if f.trunc < 2:
        raise ValueError("fourier transform needs trunc >= 2")
    inv = series_comp_inverse(f)  # raises NotInvertible on a bad leading term
    return CkSeries._of(f.k, f.trunc - 1, inv.coeffs[1:], inv.coeffs[0])


def s_transform(law: InfLaw) -> CkSeries:
    """Fourier transform of the R-series; needs an invertible first moment."""
    r = r_from_moments(moment_series(law))
    return fourier_transform(r)


def moment_series(law: InfLaw) -> CkSeries:
    """Moments of a one-variable law as a series, degrees 1..max_len: the
    law's own validated scalars, built through the trusted `_of`."""
    if law.num_vars != 1:
        raise ValueError("moment series needs a one-variable law")
    values = law.values
    return CkSeries._of(law.k, law.max_len,
                        tuple(values[(1,) * m] for m in range(1, law.max_len + 1)),
                        CkScalar.zero(law.k))


def law_from_moment_series(m: CkSeries) -> InfLaw:
    return InfLaw._of(
        m.k, 1, m.trunc, {(1,) * d: m.coeffs[d - 1] for d in range(1, m.trunc + 1)}
    )


def _check_pair(mu: InfLaw, nu: InfLaw) -> None:
    if mu.num_vars != 1 or nu.num_vars != 1:
        raise ValueError("convolution acts on one-variable laws")
    if mu.k != nu.k or mu.max_len != nu.max_len:
        raise ValueError("laws must share k and max_len")


def additive_convolve(mu: InfLaw, nu: InfLaw) -> InfLaw:
    """Free additive convolution: R-series add."""
    _check_pair(mu, nu)
    r = r_from_moments(moment_series(mu)) + r_from_moments(moment_series(nu))
    return law_from_moment_series(moments_from_r(r))


def multiplicative_convolve(mu: InfLaw, nu: InfLaw) -> InfLaw:
    """Free multiplicative convolution: the moment series is
    M_{mu boxtimes nu} = R_mu boxed M_nu, the boxed convolution of the
    R-series of mu with the moment series of nu, by the moments of products
    of free variables, phi((ab)^n) = sum over p in NC(n) of kappa_p[a]
    phi_{Kr(p)}[b] (Nica-Speicher, Lectures on the Combinatorics of Free
    Probability, Theorem 14.4).  Works for zero first moments too; the
    S-transform product is a cross-checked secondary route, not this one."""
    _check_pair(mu, nu)
    return law_from_moment_series(
        boxed_conv_ck(r_from_moments(moment_series(mu)), moment_series(nu)))


def example_law(kind: str, params: CkScalar, k: int, max_len: int) -> InfLaw:
    """Named one-variable laws given by constant cumulant patterns, read as
    R-series: semicircular has kappa_2 = params and nothing else;
    free_poisson has kappa_n = params for every n."""
    if params.k != k:
        raise ValueError(f"params has order {params.k}, expected {k}")
    zero = CkScalar.zero(k)
    if kind == "semicircular":
        r = [params if m == 2 else zero for m in range(1, max_len + 1)]
    elif kind == "free_poisson":
        r = [params] * max_len
    else:
        raise ValueError(f"unknown example law kind: {kind!r}")
    return law_from_moment_series(moments_from_r(CkSeries(k, max_len, r)))
