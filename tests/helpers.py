"""Shared oracles and random builders for the test suite.

Everything here recomputes expected values by a route independent of the
production code under test: brute-force filters, lattice recursions,
direct formula evaluation, polynomial interpolation.
"""
from fractions import Fraction
from functools import lru_cache
from math import factorial

from infree.ck import CkScalar, CkSeries, ck_prod_many, lambda_vectors, multinomial
from infree.cumulants import CumulantTable, InfLaw, all_words, cumulants_to_moments, restrict
from infree.partitions import (
    NcPartition,
    enumerate_nc,
    is_noncrossing,
    kreweras,
    mobius_to_top,
    nc_coarsenings,
    ordered_blocks,
)
from infree.typek import (
    enumerate_type_k_star,
    is_type_k,
    r_of_shape,
    star_shape,
)


def rand_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rand_scalar(rng, k: int) -> CkScalar:
    return CkScalar(k, [rand_fraction(rng) for _ in range(k + 1)])


def rand_sparse_scalar(rng, k: int) -> CkScalar:
    """Zero, nilpotent (first coordinate zero) or general, a third each."""
    kind = rng.randrange(3)
    if kind == 0:
        return CkScalar.zero(k)
    s = rand_scalar(rng, k)
    return CkScalar(k, (0,) + s.coords[1:]) if kind == 1 else s


def rand_series(rng, k: int, trunc: int, invertible: bool = False) -> CkSeries:
    coeffs = [rand_scalar(rng, k) for _ in range(trunc)]
    while invertible and coeffs[0].coords[0] == 0:
        coeffs[0] = rand_scalar(rng, k)
    return CkSeries(k, trunc, coeffs)


def rand_cumulants(rng, k: int, num_vars: int, max_len: int) -> CumulantTable:
    return CumulantTable(
        k, num_vars, max_len, {w: rand_scalar(rng, k) for w in all_words(num_vars, max_len)}
    )


def rand_law(rng, k: int, num_vars: int, max_len: int):
    return cumulants_to_moments(rand_cumulants(rng, k, num_vars, max_len))


def nc_boxed_conv_oracle(f: CkSeries, g: CkSeries) -> CkSeries:
    """Boxed convolution as the plain sum over NC(m): prod alpha over the
    block sizes of p times prod beta over the block sizes of Kr(p)."""
    n = min(f.trunc, g.trunc)
    coeffs = []
    for m in range(1, n + 1):
        acc = CkScalar.zero(f.k)
        for p in enumerate_nc(m):
            factors = [f.coeffs[len(b) - 1] for b in p.blocks]
            factors += [g.coeffs[len(b) - 1] for b in kreweras(p).blocks]
            acc = acc + ck_prod_many(factors)
        coeffs.append(acc)
    return CkSeries(f.k, n, coeffs)


def nc_c2m_oracle(c: CumulantTable) -> InfLaw:
    """Moment of each word as the sum over NC(n) of the block products of
    cumulants."""
    out = {}
    for w in c.words():
        acc = CkScalar.zero(c.k)
        for p in enumerate_nc(len(w)):
            acc = acc + ck_prod_many([c.value(restrict(w, b)) for b in p.blocks])
        out[w] = acc
    return InfLaw(c.k, c.num_vars, c.max_len, out)


def nc_m2c_oracle(m: InfLaw) -> CumulantTable:
    """Cumulant of each word by Mobius inversion of the partition sum."""
    out = {}
    for w in m.words():
        acc = CkScalar.zero(m.k)
        for p in enumerate_nc(len(w)):
            term = ck_prod_many([m.value(restrict(w, b)) for b in p.blocks])
            acc = acc + term.scale(mobius_to_top(p))
        out[w] = acc
    return CumulantTable(m.k, m.num_vars, m.max_len, out)


@lru_cache(maxsize=None)
def mobius_recursive(blocks: tuple, n: int) -> int:
    """Lattice Mobius of [p, top] by the defining recursion
    sum over q in [p, top] of mobius(q, top) = [p == top]."""
    p = NcPartition(n, blocks)
    if p.num_blocks() == 1:
        return 1
    total = 0
    for q in nc_coarsenings(p):
        if q != p:
            total += mobius_recursive(q.blocks, n)
    return -total


def union_noncrossing(p: NcPartition, q: NcPartition) -> bool:
    """Is p on the unbarred copy together with q on the barred copy
    non-crossing for the interleaved order 1 < 1bar < 2 < 2bar < ...?"""
    blocks = [tuple(2 * x - 1 for x in b) for b in p.blocks]
    blocks += [tuple(2 * x for x in b) for b in q.blocks]
    return is_noncrossing(blocks)


def type_k_filter_oracle(n: int, k: int) -> set:
    """Membership by definition: filter all of NC((k+1)n)."""
    return {p for p in enumerate_nc((k + 1) * n) if is_type_k(p, n, k)}


def phi_component_oracle(c: CumulantTable, w: tuple, i: int) -> Fraction:
    """Component i of the moment of w, by the componentwise double sum over
    partitions and weak compositions."""
    total = Fraction(0)
    for p in enumerate_nc(len(w)):
        for lam in lambda_vectors(p.num_blocks(), i):
            term = Fraction(multinomial(i, lam.entries))
            for j, b in enumerate(p.blocks):
                term *= c.value(restrict(w, b)).coords[lam.entries[j]]
                if term == 0:
                    break
            total += term
    return total


def kappa_component_oracle(law, w: tuple, i: int) -> Fraction:
    """Component i of the cumulant of w: Mobius-weighted double sum over
    partitions and weak compositions of moment components."""
    total = Fraction(0)
    for p in enumerate_nc(len(w)):
        mob = mobius_to_top(p)
        for lam in lambda_vectors(p.num_blocks(), i):
            term = Fraction(mob * multinomial(i, lam.entries))
            for j, b in enumerate(p.blocks):
                term *= law.value(restrict(w, b)).coords[lam.entries[j]]
                if term == 0:
                    break
            total += term
    return total


def nc_star_moment_oracle(c: CumulantTable, w: tuple, i: int) -> Fraction:
    """Component i of the moment of w via the star-partition rewrite: sum
    over NC* of order i with multinomial-over-r weights and per-block
    component exponents on the reduction."""
    n = len(w)
    total = Fraction(0)
    for tk in enumerate_type_k_star(n, i):
        weight = Fraction(
            multinomial(i, tk.shape.entries), r_of_shape(tk.shape, n, i)
        )
        mix_list, _ = ordered_blocks(tk.reduction)
        exps = star_shape(tk).entries
        blocks = [
            tuple(e.index for e in blk) for blk in mix_list if not blk[0].barred
        ]
        term = weight
        for blk, e in zip(blocks, exps):
            term *= c.value(restrict(w, blk)).coords[e]
        total += term
    return total


def lagrange_derivative_at_zero(points, i: int) -> Fraction:
    """Exact i-th derivative at 0 of the unique interpolating polynomial
    through the given (t, value) pairs."""
    coeffs = [Fraction(0)] * len(points)
    for idx, (tj, vj) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for m, (tm, _) in enumerate(points):
            if m == idx:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, cd in enumerate(basis):
                nxt[d + 1] += cd
                nxt[d] -= cd * tm
            basis = nxt
            denom *= tj - tm
        for d, cd in enumerate(basis):
            coeffs[d] += Fraction(vj) * cd / denom
    return coeffs[i] * factorial(i) if i < len(coeffs) else Fraction(0)


def jet_of_poly(k: int, coeffs) -> CkScalar:
    """Derivative tuple (f(0), f'(0), ..., f^(k)(0)) of the t-polynomial
    with the given coefficients."""
    coeffs = [Fraction(c) for c in coeffs]
    return CkScalar(
        k,
        [
            factorial(i) * (coeffs[i] if i < len(coeffs) else Fraction(0))
            for i in range(k + 1)
        ],
    )


def eval_poly(coeffs, t) -> Fraction:
    t = Fraction(t)
    return sum((Fraction(c) * t**i for i, c in enumerate(coeffs)), Fraction(0))
