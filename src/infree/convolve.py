"""Boxed convolutions of series and free convolutions of one-variable laws.

One-variable laws take one route, the R-series of free cumulants
(Nica-Speicher, Lectures 11 and 16): additive convolution adds R-series,
multiplicative convolution boxes them, and an example law is a constant
R-series pattern.  None visits the first blocks of the cumulants layer.

Three routes to the same product: the type-A boxed convolution over C_k,
the type-B double sum at k=1, and the type-k sum weighted by shapes.  The
first is the production path and enumerates no partition: counting the p
in NC(m) by the block types of p and Kr(p) (Goulden-Jackson, Europ. J.
Combin. 13, 1992, through Biane's bijection, Nica-Speicher, Lectures on
the Combinatorics of Free Probability, Lecture 18) turns the sum over NC(m)
into gamma_m = m sum over a + b = m + 1 of [z^m]A^a [z^m]B^b / (a b), for
A = sum alpha_n z^n and B = sum beta_n z^n.  The other two routes exist to
witness the equality theorems.  Both read enumerated type-k partitions, the
type-B route taking NC^(1)(m) as the inversion-invariant partitions of
[2m], into grouped descriptors (weight, f side, g side), each side a sorted
tuple of (degree, coordinate) and equal keys merged by adding their weights
(218 instead of 9,240 at m=6, i=2).  One coordinate sum evaluates them.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from .ck import CkScalar, CkSeries, multinomial, series_comp_inverse
from .ck import _check_order, _powers, _sum_of_products
from .cumulants import InfLaw
from .partitions import catalan, enumerate_nc, kreweras, ordered_blocks
from .typek import enumerate_type_k, fiber_over, r_of_shape


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
    [z^m]f^a [z^m]g^b / (a b), where g_power(m, b) is [z^m]g^b, a C_k
    scalar or an exact rational."""
    f_pows = _powers(f.truncate(n))
    return CkSeries(f.k, n, [
        _sum_of_products(f.k, (
            (f_pows[a - 1].coeffs[m - 1], g_power(m, b), Fraction(m, a * b))
            for a, b in zip(range(1, m + 1), range(m, 0, -1))
        ))
        for m in range(1, n + 1)
    ])


def boxed_conv_ck(f: CkSeries, g: CkSeries) -> CkSeries:
    """gamma_m = sum over NC(m) of prod alpha_{block sizes of p} times
    prod beta_{block sizes of Kr(p)}, computed as m sum over a + b = m + 1
    of [z^m]f^a [z^m]g^b / (a b) (Goulden-Jackson 1992 through Biane's
    bijection, Nica-Speicher Lecture 18).  alpha_1 may be zero or nilpotent."""
    _check_boxed_pair(f, g)
    n = min(f.trunc, g.trunc)
    g_pows = _powers(g.truncate(n))
    return _boxed_sum(f, n, lambda m, b: g_pows[b - 1].coeffs[m - 1])


def _mirror(b: tuple, m: int) -> tuple:
    """Image of a block of [2m] under the inversion x -> x +- m."""
    return tuple(sorted(x + m if x <= m else x - m for x in b))


def _mirror_reps(blocks: tuple, m: int) -> tuple:
    """Split an inversion-invariant partition of [2m] into its zero-block
    (None if absent) and one representative per mirror pair of blocks."""
    zero = None
    reps = []
    for b in blocks:
        mirrored = _mirror(b, m)
        if mirrored == b:
            if zero is not None:
                raise ValueError("two inversion-invariant blocks")
            zero = b
        elif min(b) < min(mirrored):
            reps.append(b)
    return zero, tuple(reps)


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


def _grouped(counts: Counter) -> tuple:
    return tuple((weight, f_side, g_side) for (f_side, g_side), weight in counts.items())


@lru_cache(maxsize=None)
def _type_b_terms(m: int) -> tuple:
    """Grouped descriptors of the order-1 double sum at degree m, over the
    inversion-invariant partitions of [2m], which are NC^(1)(m).  On each
    side a mirror pair of blocks of size s gives (s, 0) and the zero-block
    of size 2s gives (s, 1); exactly one side owns a zero-block."""
    counts = Counter()
    for tk in enumerate_type_k(m, 1):
        sides = []
        for part in (tk.partition, kreweras(tk.partition)):
            zero, reps = _mirror_reps(part.blocks, m)
            side = [(len(b), 0) for b in reps]
            if zero is not None:
                side.append((len(zero) // 2, 1))
            sides.append(tuple(sorted(side)))
        if sum(c for side in sides for _, c in side) != 1:
            raise ValueError("exactly one of the pair must own the zero-block")
        counts[tuple(sides)] += 1
    return _grouped(counts)


def boxed_conv_type_b(f: CkSeries, g: CkSeries) -> CkSeries:
    """The two-coordinate double sum over inversion-invariant partitions;
    defined only at order 1.  Coordinate 0 is the type-0 sum over NC(m)."""
    if f.k != 1 or g.k != 1:
        raise ValueError("type-B convolution is defined at order k=1")
    _check_boxed_pair(f, g)
    n = min(f.trunc, g.trunc)
    return CkSeries(1, n, [
        CkScalar(1, (_coord_sum(_type_k_terms(m, 0), f, g), _coord_sum(_type_b_terms(m), f, g)))
        for m in range(1, n + 1)
    ])


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
    return _grouped(counts)


def boxed_conv_type_k(f: CkSeries, g: CkSeries) -> CkSeries:
    """Componentwise sum over type-i partitions, i = 0..k, weighted by the
    shape multinomial over the shape count r."""
    _check_boxed_pair(f, g)
    n = min(f.trunc, g.trunc)
    return CkSeries(f.k, n, [
        CkScalar(f.k, [_coord_sum(_type_k_terms(m, i), f, g) for i in range(f.k + 1)])
        for m in range(1, n + 1)
    ])


def _moebius_power(m: int, b: int) -> Fraction:
    """[z^m]M^b = (-1)^(m-b) b/(2m-b) C(2m-b, m-b) for the moebius series M."""
    return Fraction((-1) ** (m - b) * b * comb(2 * m - b, m - b), 2 * m - b)


def r_from_moments(m: CkSeries) -> CkSeries:
    """R-series from the moment series: boxed convolution with moebius, whose
    powers come in closed form."""
    _check_zero_const(m)
    return _boxed_sum(m, m.trunc, _moebius_power)


def moments_from_r(r: CkSeries) -> CkSeries:
    """Moment series from the R-series: boxed convolution with zeta, whose
    powers are [z^m]Z^b = C(m-1, b-1)."""
    _check_zero_const(r)
    return _boxed_sum(r, r.trunc, lambda d, b: comb(d - 1, b - 1))


def fourier_transform(f: CkSeries) -> CkSeries:
    """(1/z) times the compositional inverse; turns boxed convolution into
    coefficientwise series multiplication.  Needs trunc >= 2 so at least one
    non-constant coefficient survives the shift."""
    if f.trunc < 2:
        raise ValueError("fourier transform needs trunc >= 2")
    inv = series_comp_inverse(f)  # raises NotInvertible on a bad leading term
    return CkSeries(f.k, f.trunc - 1, inv.coeffs[1:], inv.coeffs[0])


def s_transform(law: InfLaw) -> CkSeries:
    """Fourier transform of the R-series; needs an invertible first moment."""
    r = r_from_moments(moment_series(law))
    return fourier_transform(r)


def moment_series(law: InfLaw) -> CkSeries:
    """Moments of a one-variable law as a series, degrees 1..max_len."""
    if law.num_vars != 1:
        raise ValueError("moment series needs a one-variable law")
    return CkSeries(
        law.k, law.max_len, [law.moment((1,) * m) for m in range(1, law.max_len + 1)]
    )


def law_from_moment_series(m: CkSeries) -> InfLaw:
    return InfLaw._built(
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
    """Free multiplicative convolution: R-series compose under the boxed
    convolution.  Works for zero first moments too; the S-transform product
    is a cross-checked secondary route, not this one."""
    _check_pair(mu, nu)
    r = boxed_conv_ck(r_from_moments(moment_series(mu)), r_from_moments(moment_series(nu)))
    return law_from_moment_series(moments_from_r(r))


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
