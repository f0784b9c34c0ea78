"""Truncated scalar algebra and series: frozen small values plus laws."""
import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from infree import ck
from infree.ck import (
    CkScalar,
    _sum_of_products,
    CkSeries,
    LambdaVector,
    NotInvertible,
    ck_inverse,
    ck_mul,
    ck_prod_many,
    multinomial,
    series_comp_inverse,
    series_compose,
    series_mul,
)

from helpers import (
    cauchy_series_mul_oracle,
    compositions,
    fraction_ck_inverse_oracle,
    fraction_ck_mul_oracle,
    lambda_vectors,
    rand_scalar,
    rand_series,
    rand_sparse_scalar,
    rand_wide_fraction,
    rand_wide_scalar,
    series_coeff,
    to_toeplitz,
)


def test_product_small_values():
    assert ck_mul(CkScalar(1, (1, 2)), CkScalar(1, (3, 4))).coords == (3, 10)
    e = CkScalar.eps(2)
    assert ck_mul(e, e).coords == (0, 0, 2)
    assert ck_prod_many([CkScalar(1, (1, 1))] * 3).coords == (1, 3)


def test_eps_nilpotent():
    for k in (1, 2, 3):
        e = CkScalar.eps(k)
        power = e
        for _ in range(k):
            power = ck_mul(power, e)
        assert power.is_zero()


def test_unit_and_zero():
    rng = random.Random(1)
    for k in (0, 1, 2, 3):
        x = rand_scalar(rng, k)
        assert ck_mul(x, CkScalar.one(k)) == x
        assert ck_mul(x, CkScalar.zero(k)).is_zero()
        assert x + CkScalar.zero(k) == x
        assert (x - x).is_zero()


def test_commutative_associative_distributive():
    rng = random.Random(2)
    for k in (0, 1, 2, 3):
        a, b, c = (rand_scalar(rng, k) for _ in range(3))
        assert ck_mul(a, b) == ck_mul(b, a)
        assert ck_mul(ck_mul(a, b), c) == ck_mul(a, ck_mul(b, c))
        assert ck_mul(a, b + c) == ck_mul(a, b) + ck_mul(a, c)


def test_inverse():
    assert ck_inverse(CkScalar(1, (2, 4))).coords == (Fraction(1, 2), -1)
    assert ck_inverse(CkScalar(0, (3,))).coords == (Fraction(1, 3),)
    rng = random.Random(3)
    for k in (0, 1, 2, 3):
        x = rand_scalar(rng, k)
        while x.coords[0] == 0:
            x = rand_scalar(rng, k)
        assert ck_mul(x, ck_inverse(x)) == CkScalar.one(k)
    with pytest.raises(NotInvertible):
        ck_inverse(CkScalar.eps(2))


def test_ck_mul_matches_fraction_oracle():
    # the integer-numerator arithmetic against Fraction coordinates, with
    # zero, nilpotent and multi-hundred-bit coordinates
    rng = random.Random(151)
    for k in range(5):
        for _ in range(40):
            a, b, c = (rand_wide_scalar(rng, k) for _ in range(3))
            q = rand_wide_fraction(rng)
            x, y = a.coords, b.coords
            assert ck_mul(a, b).coords == fraction_ck_mul_oracle(a, b)
            ab = CkScalar(k, fraction_ck_mul_oracle(a, b))
            assert ck_prod_many([a, b, c]).coords == fraction_ck_mul_oracle(ab, c)
            assert (a + b).coords == tuple(u + v for u, v in zip(x, y))
            assert (a - b).coords == tuple(u - v for u, v in zip(x, y))
            assert (-a).coords == tuple(-u for u in x)
            assert a.scale(q).coords == tuple(q * u for u in x)
            if x[0] != 0:
                assert ck_inverse(a).coords == fraction_ck_inverse_oracle(a)


_DENOMINATORS = st.one_of(
    st.integers(1, 12),
    st.integers(2**64, 2**256),
    st.sampled_from((2**61 - 1, 3**50, 5**40, 7**30, 2**127)),  # pairwise coprime
)
_RATIONALS = st.builds(
    Fraction, st.one_of(st.integers(-20, 20), st.integers(-2**256, 2**256)), _DENOMINATORS
)


def _scalar_triples(k: int):
    scalar = st.lists(_RATIONALS, min_size=k + 1, max_size=k + 1).map(lambda c: CkScalar(k, c))
    return st.tuples(scalar, scalar, scalar)


def _assert_canonical(x: CkScalar):
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    same = CkScalar(x.k, x.coords)  # the same value through the checked constructor
    assert (same.den, same.nums) == (x.den, x.nums)
    assert hash(same) == hash(x)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 4).flatmap(_scalar_triples))
def test_ring_laws_property(abc):
    a, b, c = abc
    k = a.k
    one, zero = CkScalar.one(k), CkScalar.zero(k)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert hash((a * b) * c) == hash(a * (b * c))
    assert a * (b + c) == a * b + a * c
    assert a * one == a
    assert a + zero == a
    assert (a - a).is_zero()
    assert a - a == zero
    assert (a + b) - b == a
    assert hash((a + b) - b) == hash(a)
    results = [a, a * b, a + b, a - b, -a, a.scale(c.coords[0]), ck_prod_many([a, b, c])]
    if a.coords[0] != 0:
        inv = a.inverse()
        assert a * inv == one
        results.append(inv)
    for x in results:
        _assert_canonical(x)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 4).flatmap(_scalar_triples), _RATIONALS, st.booleans())
def test_sum_of_products_property(abc, q, subtract):
    a, b, c = abc
    k = a.k
    got = _sum_of_products(k, [[a, b], [c, q], [b, c, a]], a, subtract)
    total = a * b + c.scale(q) + ck_prod_many([b, c, a])
    assert got == (a - total if subtract else a + total)
    assert hash(got) == hash(CkScalar(k, got.coords))
    assert _sum_of_products(k, [[a, b], [b, a]]) == (a * b).scale(2)
    assert _sum_of_products(k, [[a, b]], a * b, subtract=True).is_zero()
    _assert_canonical(got)


def _oracle_sum(k, terms, start=None, subtract=False) -> tuple:
    """start +- the sum of the products, folded with fraction_ck_mul_oracle
    on Fraction coordinates."""
    total = list(start.coords) if start is not None else [Fraction(0)] * (k + 1)
    sign = -1 if subtract else 1
    for factors in terms:
        prod = (Fraction(1),) + (Fraction(0),) * k
        for f in factors:
            if isinstance(f, CkScalar):
                prod = fraction_ck_mul_oracle(CkScalar(k, prod), f)
            else:
                prod = tuple(f * x for x in prod)
        total = [t + sign * x for t, x in zip(total, prod)]
    return tuple(total)


def test_sum_of_products_matches_fraction_oracle():
    # zero, nilpotent and 400-bit factors over unequal denominators, rational
    # weights (zero among them), with and without a start, added or subtracted
    rng = random.Random(157)
    for k in range(5):
        for _ in range(60):
            terms = [
                [rand_wide_scalar(rng, k) if rng.random() < 0.8 else rand_wide_fraction(rng)
                 for _ in range(rng.randint(0, 4))]
                for _ in range(rng.randint(0, 5))
            ]
            start = rand_wide_scalar(rng, k) if rng.random() < 0.5 else None
            subtract = rng.random() < 0.5
            got = _sum_of_products(k, terms, start, subtract)
            assert got.k == k
            assert got.coords == _oracle_sum(k, terms, start, subtract)
            _assert_canonical(got)


def test_sum_of_products_edge_cases(monkeypatch):
    rng = random.Random(163)
    for k in range(5):
        a, b = rand_scalar(rng, k), rand_scalar(rng, k)
        assert _sum_of_products(k, []) == CkScalar.zero(k)
        assert _sum_of_products(k, [], a) == a
        assert _sum_of_products(k, [], a, subtract=True) == a
        assert _sum_of_products(k, [[]]) == CkScalar.one(k)  # the empty product
        assert _sum_of_products(k, [[a, b]], a, subtract=True) == a - ck_mul(a, b)
        assert _sum_of_products(k, [[a, Fraction(2, 3)], [3, b]]) == a.scale(Fraction(2, 3)) + b.scale(3)
        for x in (_sum_of_products(k, [[a]], -a), _sum_of_products(k, [[a, b], [-a, b]])):
            assert x == CkScalar.zero(k)
            _assert_canonical(x)
    # a term with a zero factor anywhere is skipped before any product
    calls = []
    leibniz = ck._leibniz
    monkeypatch.setattr(ck, "_leibniz", lambda *args: calls.append(args) or leibniz(*args))
    a, b, zero = rand_scalar(rng, 2), rand_scalar(rng, 2), CkScalar.zero(2)
    for term in ([zero, a, b], [a, zero, b], [a, b, zero], [a, b, 0], [Fraction(0), a, b]):
        assert _sum_of_products(2, [term]) == zero
    assert calls == []
    expected = ck_mul(a, b).scale(5)
    calls.clear()
    assert _sum_of_products(2, [[a, b, 5]]) == expected
    assert len(calls) == 1


def test_sum_of_products_checks_every_factor():
    one1, one2, zero1 = CkScalar.one(1), CkScalar.one(2), CkScalar.zero(1)
    for terms, start in (
        ([[one1, one2]], None),
        ([[zero1, one2]], None),  # after a zero factor, still checked
        ([[zero1], [one1, 2, one2]], None),
        ([[one1]], one2),
        ([], one2),
    ):
        with pytest.raises(ValueError, match="order mismatch"):
            _sum_of_products(1, terms, start)
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            _sum_of_products(1, [[one1, bad]])


def test_invertible_iff_first_coordinate_nonzero():
    # the zero first coordinate makes the element nilpotent up to units
    for k in (1, 2):
        with pytest.raises(NotInvertible):
            ck_inverse(CkScalar(k, (0,) + (5,) * k))


def test_toeplitz_faithful():
    # multiplication of coordinates matches matrix multiplication
    def mat_mul(A, B):
        k = len(A)
        return tuple(
            tuple(sum(A[r][j] * B[j][c] for j in range(k)) for c in range(k))
            for r in range(k)
        )

    rng = random.Random(4)
    for k in (0, 1, 2, 3):
        a, b = rand_scalar(rng, k), rand_scalar(rng, k)
        assert to_toeplitz(ck_mul(a, b)) == mat_mul(to_toeplitz(a), to_toeplitz(b))
    # zero and nilpotent factors take the term-skipping branches of ck_mul
    for k in (0, 1, 2, 3, 4):
        for _ in range(30):
            a, b = rand_sparse_scalar(rng, k), rand_sparse_scalar(rng, k)
            assert to_toeplitz(ck_mul(a, b)) == mat_mul(to_toeplitz(a), to_toeplitz(b))


def test_prod_many_multinomial_formula():
    # coordinate i of a product of n factors is the Lambda_{n,i} sum with
    # multinomial weights
    rng = random.Random(5)
    for k in (1, 2, 3):
        for n in (2, 3, 5):
            factors = [rand_scalar(rng, k) for _ in range(n)]
            prod = ck_prod_many(factors)
            for i in range(k + 1):
                total = Fraction(0)
                for lam in lambda_vectors(n, i):
                    term = Fraction(multinomial(i, lam.entries))
                    for j in range(n):
                        term *= factors[j].coords[lam.entries[j]]
                    total += term
                assert prod.coords[i] == total


def test_lambda_vectors():
    for n, total in [(1, 3), (3, 2), (4, 0), (2, 4)]:
        vecs = list(lambda_vectors(n, total))
        assert len(vecs) == comb(n + total - 1, total)
        assert len(set(v.entries for v in vecs)) == len(vecs)
        assert all(sum(v.entries) == total for v in vecs)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(0, 1)) == []
    with pytest.raises(ValueError):
        LambdaVector((1, 2), 4)


def test_multinomial():
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(0, (0, 0)) == 1
    assert multinomial(3, (3,)) == 1
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))


def test_order_mismatch():
    with pytest.raises(ValueError):
        ck_mul(CkScalar.one(1), CkScalar.one(2))
    with pytest.raises(ValueError):
        series_mul(CkSeries.zero(1, 3), CkSeries.zero(2, 3))


def test_series_mul():
    f = CkSeries.from_rationals(0, [1, 1], trunc=4)  # z + z^2
    sq = series_mul(f, f)
    assert [c.coords[0] for c in sq.coeffs] == [0, 1, 2, 1]


def test_series_mul_skips_zero_terms_exactly():
    # the zero skip changes no coefficient: sparse series, with a nonzero
    # constant on neither, either or both sides
    rng = random.Random(149)
    for k in range(4):
        for trunc in (1, 2, 6):
            for const_f, const_g in ((False, False), (True, False), (False, True), (True, True)):
                for _ in range(5):
                    f, g = (
                        CkSeries(
                            k,
                            trunc,
                            [rand_sparse_scalar(rng, k) for _ in range(trunc)],
                            rand_scalar(rng, k) + CkScalar.one(k) * 7 if has_const else None,
                        )
                        for has_const in (const_f, const_g)
                    )
                    assert series_mul(f, g) == cauchy_series_mul_oracle(f, g), (k, trunc)


def test_series_comp_inverse_known():
    f = CkSeries.from_rationals(0, [1, 1], trunc=4)
    inv = series_comp_inverse(f)
    assert [c.coords[0] for c in inv.coeffs] == [1, -1, 2, -5]
    g = CkSeries(1, 3, [CkScalar(1, (1, 1)), CkScalar.zero(1), CkScalar.zero(1)])
    ginv = series_comp_inverse(g)
    assert ginv.coeffs[0] == ck_inverse(CkScalar(1, (1, 1)))


def test_series_compose_inverse_round_trip():
    rng = random.Random(6)
    for k in (0, 1, 2):
        f = rand_series(rng, k, 5, invertible=True)
        inv = series_comp_inverse(f)
        comp = series_compose(f, inv)
        expected = [CkScalar.one(k)] + [CkScalar.zero(k)] * 4
        assert list(comp.coeffs) == expected
        assert series_compose(inv, f).coeffs == comp.coeffs


def test_series_comp_inverse_needs_unit_lead():
    f = CkSeries(1, 3, [CkScalar.eps(1), CkScalar.one(1), CkScalar.zero(1)])
    with pytest.raises(NotInvertible):
        series_comp_inverse(f)


def test_series_coeff_access_and_truncate():
    f = CkSeries.from_rationals(0, [1, 2, 3])
    assert series_coeff(f, 0).is_zero()
    assert series_coeff(f, 2).coords == (2,)
    with pytest.raises(IndexError):
        series_coeff(f, 4)
    assert f.truncate(2).coeffs == f.coeffs[:2]


def test_scalar_validation():
    with pytest.raises(ValueError):
        CkScalar(1, (1,))
    with pytest.raises(TypeError):
        CkScalar(0, (0.5,))
    with pytest.raises(ValueError):
        CkScalar.eps(0)
