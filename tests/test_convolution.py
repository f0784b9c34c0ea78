"""Boxed convolutions, special series, transforms, and law convolutions."""
from collections import Counter
from fractions import Fraction
from math import comb
import operator
import random

from hypothesis import given, settings, strategies as st
import pytest

from infree import convolve
from infree.ck import (
    CkScalar,
    CkSeries,
    NotInvertible,
    ck_mul,
    series_comp_inverse,
    series_compose,
    series_mul,
)
from infree.convolve import (
    _type_k_terms,
    additive_convolve,
    boxed_conv_ck,
    boxed_conv_type_b,
    boxed_conv_type_k,
    example_law,
    fourier_transform,
    law_from_moment_series,
    moment_series,
    moments_from_r,
    multiplicative_convolve,
    r_from_moments,
    s_transform,
    special_series,
)
from infree.cumulants import InfLaw, all_words, moments_to_cumulants
from infree.partitions import catalan

from helpers import (
    nc_boxed_conv_oracle,
    nc_boxed_inverse_oracle,
    r_boxed_multiplicative_oracle,
    rand_law,
    rand_scalar,
    rand_series,
    rand_sparse_scalar,
    table_additive_convolve_oracle,
    table_example_law_oracle,
    type_b_conv_oracle,
    type_b_terms_oracle,
)


def scalar(k, v):
    return CkScalar.from_rational(k, v)


def test_special_series():
    d = special_series("delta", 0, 4)
    assert [c.coords[0] for c in d.coeffs] == [1, 0, 0, 0]
    z = special_series("zeta", 1, 3)
    assert all(c == CkScalar.one(1) for c in z.coeffs)
    mob = special_series("moebius", 0, 4)
    assert [c.coords[0] for c in mob.coeffs] == [1, -1, 2, -5]
    with pytest.raises(ValueError):
        special_series("gamma", 0, 3)


def test_fixed_series_routes_match_the_boxed_kernel():
    # r_from_moments and moments_from_r take the powers of moebius and zeta
    # in closed form; alpha_1 zero, nilpotent or general
    rng = random.Random(157)
    for k in range(4):
        for trunc in range(1, 11):
            for lead in range(3):
                coeffs = [rand_scalar(rng, k) for _ in range(trunc)]
                if lead == 0:
                    coeffs[0] = CkScalar.zero(k)
                elif lead == 1:
                    coeffs[0] = CkScalar(k, (0,) + coeffs[0].coords[1:])
                x = CkSeries(k, trunc, coeffs)
                moebius = special_series("moebius", k, trunc)
                zeta = special_series("zeta", k, trunc)
                assert r_from_moments(x) == boxed_conv_ck(x, moebius), (k, trunc, lead)
                assert moments_from_r(x) == boxed_conv_ck(x, zeta), (k, trunc, lead)


def test_moebius_closed_form_is_inverse_of_zeta():
    for k in range(4):
        for t in range(1, 9):
            zeta = special_series("zeta", k, t)
            assert special_series("moebius", k, t) == nc_boxed_inverse_oracle(zeta)


def test_boxed_kernel_matches_nc_sum_oracle():
    rng = random.Random(89)
    for k in range(4):
        for trunc in (1, 10 if k < 2 else 8):
            f = rand_series(rng, k, trunc)
            g = CkSeries(k, trunc, [rand_sparse_scalar(rng, k) for _ in range(trunc)])
            assert boxed_conv_ck(f, g) == nc_boxed_conv_oracle(f, g), (k, trunc)
        # a zero and a nilpotent leading coefficient, each on either side:
        # the boxed product is commutative, so one oracle value checks both
        # orders; C_0 has no nonzero nilpotent, so there zero meets a unit
        nilpotent = CkScalar(k, [0] + [Fraction(j, 3) for j in range(1, k + 1)])
        lead_g = nilpotent if k else CkScalar.one(0)
        f = CkSeries(k, trunc, [CkScalar.zero(k)] + [rand_scalar(rng, k) for _ in range(trunc - 1)])
        g = CkSeries(k, trunc, [lead_g] + [rand_sparse_scalar(rng, k) for _ in range(trunc - 1)])
        expected = nc_boxed_conv_oracle(f, g)
        assert boxed_conv_ck(f, g) == expected, k
        assert boxed_conv_ck(g, f) == expected, k
        h = rand_series(rng, k, 6, invertible=True)
        delta = special_series("delta", k, 6)
        assert nc_boxed_conv_oracle(h, nc_boxed_inverse_oracle(h)) == delta, k


def test_one_variable_kernel_enumerates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the one-variable kernel enumerated partitions")

    # convolve and cumulants import these when they run them, so the
    # patched functions are the ones any route would call
    monkeypatch.setattr("infree.partitions.enumerate_nc", refuse)
    monkeypatch.setattr("infree.partitions.kreweras", refuse)
    rng = random.Random(97)
    f = rand_series(rng, 2, 12)
    g = CkSeries(2, 12, [rand_sparse_scalar(rng, 2) for _ in range(12)])
    assert boxed_conv_ck(f, g).trunc == 12
    mu = rand_law(rng, k=2, num_vars=1, max_len=7)
    nu = rand_law(rng, k=2, num_vars=1, max_len=7)

    def no_first_blocks(*args, **kwargs):
        raise AssertionError("a one-variable law visited first blocks")

    monkeypatch.setattr("infree.cumulants._block_table", no_first_blocks)
    assert multiplicative_convolve(mu, nu).max_len == 7
    assert additive_convolve(mu, nu).max_len == 7
    params = rand_scalar(rng, 2)
    for kind in ("semicircular", "free_poisson"):
        assert example_law(kind, params, 2, 7).max_len == 7


def test_boxed_routes_refuse_a_constant_term():
    rng = random.Random(101)
    for route, k in ((boxed_conv_ck, 2), (boxed_conv_type_b, 1), (boxed_conv_type_k, 2)):
        f = rand_series(rng, k, 3)
        with_const = CkSeries(k, 3, f.coeffs, CkScalar.one(k))
        for lhs, rhs in ((with_const, f), (f, with_const), (with_const, with_const)):
            with pytest.raises(ValueError, match="boxed convolution needs a zero constant term"):
                route(lhs, rhs)
        assert route(f, f) == boxed_conv_ck(f, f)
    with pytest.raises(ValueError, match="order mismatch"):
        boxed_conv_ck(rand_series(rng, 0, 3), rand_series(rng, 1, 3))


def test_boxed_unit_and_degree_two():
    rng = random.Random(41)
    for k in range(3):
        f = rand_series(rng, k, 5)
        assert boxed_conv_ck(f, special_series("delta", k, 5)) == f
    a = rand_series(rng, 0, 2)
    b = rand_series(rng, 0, 2)
    g = boxed_conv_ck(a, b)
    a1, a2 = a.coeffs
    b1, b2 = b.coeffs
    assert g.coeffs[0] == ck_mul(a1, b1)
    assert g.coeffs[1] == ck_mul(a2, ck_mul(b1, b1)) + ck_mul(ck_mul(a1, a1), b2)


def test_zeta_boxed_moebius_is_delta():
    for k in range(3):
        z = special_series("zeta", k, 5)
        mob = special_series("moebius", k, 5)
        assert boxed_conv_ck(z, mob) == special_series("delta", k, 5)
        assert boxed_conv_ck(mob, z) == special_series("delta", k, 5)


def test_boxed_associative_commutative():
    rng = random.Random(43)
    for k in range(3):
        f = rand_series(rng, k, 5)
        g = rand_series(rng, k, 5)
        h = rand_series(rng, k, 5)
        assert boxed_conv_ck(f, g) == boxed_conv_ck(g, f)
        assert boxed_conv_ck(boxed_conv_ck(f, g), h) == boxed_conv_ck(
            f, boxed_conv_ck(g, h)
        )


_SPARSE_COORDS = st.one_of(st.just(Fraction(0)),
                          st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def _sparse_series_triples(draw):
    """Three series of one order k <= 3 and one trunc <= 6, each coefficient
    zero or a scalar whose coordinates are each zero or a small rational."""
    k = draw(st.integers(0, 3))
    trunc = draw(st.integers(1, 6))
    scalar = st.one_of(st.just(CkScalar.zero(k)),
                       st.lists(_SPARSE_COORDS, min_size=k + 1, max_size=k + 1)
                       .map(lambda c: CkScalar(k, c)))
    series = st.lists(scalar, min_size=trunc, max_size=trunc).map(
        lambda c: CkSeries(k, trunc, c))
    return draw(series), draw(series), draw(series)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sparse_series_triples())
def test_boxed_product_laws_property(fgh):
    f, g, h = fgh
    k, trunc = f.k, f.trunc
    delta = special_series("delta", k, trunc)
    assert boxed_conv_ck(f, g) == boxed_conv_ck(g, f)
    assert boxed_conv_ck(boxed_conv_ck(f, g), h) == boxed_conv_ck(f, boxed_conv_ck(g, h))
    assert boxed_conv_ck(f, delta) == f == boxed_conv_ck(delta, f)
    moebius, zeta = special_series("moebius", k, trunc), special_series("zeta", k, trunc)
    assert boxed_conv_ck(moebius, zeta) == delta


@st.composite
def _sparse_series_pairs_with_small_leads(draw):
    """Two series of one order k <= 3 and one trunc <= 5, each lead zero or
    nilpotent and each later coefficient zero or sparse."""
    k = draw(st.integers(0, 3))
    trunc = draw(st.integers(1, 5))
    coords = st.lists(_SPARSE_COORDS, min_size=k, max_size=k)
    lead = st.one_of(st.just(CkScalar.zero(k)), coords.map(lambda c: CkScalar(k, (0, *c))))
    later = st.one_of(st.just(CkScalar.zero(k)),
                      st.tuples(_SPARSE_COORDS, coords).map(lambda c: CkScalar(k, (c[0], *c[1]))))
    series = st.tuples(lead, st.lists(later, min_size=trunc - 1, max_size=trunc - 1)).map(
        lambda c: CkSeries(k, trunc, [c[0], *c[1]]))
    return draw(series), draw(series)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_sparse_series_pairs_with_small_leads())
def test_boxed_kernel_matches_nc_sum_oracle_property(fg):
    f, g = fg
    assert boxed_conv_ck(f, g) == nc_boxed_conv_oracle(f, g)


def test_boxed_invertibility():
    rng = random.Random(47)
    for k in range(3):
        f = rand_series(rng, k, 5, invertible=True)
        inv = nc_boxed_inverse_oracle(f)
        assert boxed_conv_ck(f, inv) == special_series("delta", k, 5)
    bad = CkSeries(1, 3, [CkScalar(1, [0, 1]), CkScalar.one(1), CkScalar.one(1)])
    with pytest.raises(NotInvertible):
        nc_boxed_inverse_oracle(bad)


def test_type_b_degree_one_and_agreement():
    rng = random.Random(53)
    f = rand_series(rng, 1, 4)
    g = rand_series(rng, 1, 4)
    got = boxed_conv_type_b(f, g)
    a1, b1 = f.coeffs[0], g.coeffs[0]
    # gamma_1' = a1'b1', gamma_1'' = a1'b1'' + a1''b1'
    assert got.coeffs[0].coords[0] == a1.coords[0] * b1.coords[0]
    assert got.coeffs[0].coords[1] == (
        a1.coords[0] * b1.coords[1] + a1.coords[1] * b1.coords[0]
    )
    assert got == boxed_conv_ck(f, g)
    assert boxed_conv_type_b(f, special_series("delta", 1, 4)) == f
    with pytest.raises(ValueError, match="^type-B convolution is defined at order k=1$"):
        boxed_conv_type_b(rand_series(rng, 0, 3), rand_series(rng, 0, 3))


def test_grouped_descriptor_invariants():
    # a dropped or double-counted term changes a weight sum: each fiber's
    # weights multinomial/r add up to (m+1)^i, and NC^(1)(m) has C(2m, m)
    # elements of weight one
    for m in range(1, 6):
        for i in range(3):
            assert sum(w for w, _, _ in _type_k_terms(m, i)) == catalan(m) * (m + 1) ** i
        assert sum(w for w, _, _ in type_b_terms_oracle(m)) == comb(2 * m, m)
    for terms in (_type_k_terms(6, 2), type_b_terms_oracle(6)):
        keys = [(f_side, g_side) for _, f_side, g_side in terms]
        assert len(set(keys)) == len(keys)
        assert all(list(side) == sorted(side) for key in keys for side in key)
    assert len(_type_k_terms(6, 2)) == 218
    assert len(type_b_terms_oracle(6)) == 74


def test_type_k_order_one_descriptors_are_the_mirror_pair_reading():
    # at order 1 a mirror pair of blocks is a reduced block of shape entry 0,
    # a zero-block one of entry 1, and every weight multinomial/r is 1
    for m in range(1, 7):
        assert Counter(_type_k_terms(m, 1)) == Counter(type_b_terms_oracle(m)), m


def test_type_k_agreement():
    rng = random.Random(59)
    for k in range(3):
        f = rand_series(rng, k, 4)
        g = rand_series(rng, k, 4)
        assert boxed_conv_type_k(f, g) == boxed_conv_ck(f, g), k
    f = rand_series(rng, 1, 4)
    g = rand_series(rng, 1, 4)
    assert boxed_conv_type_k(f, g) == type_b_conv_oracle(f, g)


def test_r_transform_round_trip_and_semicircular():
    rng = random.Random(61)
    for k in range(3):
        f = rand_series(rng, k, 6)
        assert r_from_moments(moments_from_r(f)) == f
        assert moments_from_r(r_from_moments(f)) == f
    m = CkSeries.from_rationals(0, [0, 1, 0, 2, 0, 5])
    r = r_from_moments(m)
    assert [c.coords[0] for c in r.coeffs] == [0, 1, 0, 0, 0, 0]
    z = CkSeries.zero(1, 4)
    assert r_from_moments(z) == z and moments_from_r(z) == z


def test_fourier_transform():
    for k in range(3):
        d = special_series("delta", k, 4)
        fd = fourier_transform(d)
        assert fd.const == CkScalar.one(k)
        assert all(c == CkScalar.zero(k) for c in fd.coeffs)
    rng = random.Random(67)
    for k in range(3):
        f = rand_series(rng, k, 5, invertible=True)
        g = rand_series(rng, k, 5, invertible=True)
        lhs = fourier_transform(boxed_conv_ck(f, g))
        rhs = series_mul(fourier_transform(f), fourier_transform(g))
        assert lhs == rhs
    # the two special series map to mutually inverse constants
    prod = series_mul(
        fourier_transform(special_series("moebius", 0, 5)),
        fourier_transform(special_series("zeta", 0, 5)),
    )
    assert prod.const == CkScalar.one(0)
    assert all(c == CkScalar.zero(0) for c in prod.coeffs)
    with pytest.raises(ValueError):
        fourier_transform(special_series("delta", 0, 1))
    with pytest.raises(NotInvertible):
        fourier_transform(CkSeries.zero(0, 3))


def test_moment_series_round_trip():
    rng = random.Random(71)
    law = rand_law(rng, k=2, num_vars=1, max_len=5)
    ms = moment_series(law)
    assert ms.trunc == 5
    assert law_from_moment_series(ms) == law


def test_additive_convolution():
    rng = random.Random(73)
    k = 1
    mu = rand_law(rng, k=k, num_vars=1, max_len=5)
    nu = rand_law(rng, k=k, num_vars=1, max_len=5)
    rho = rand_law(rng, k=k, num_vars=1, max_len=5)
    delta0 = law_from_moment_series(CkSeries.zero(k, 5))
    assert additive_convolve(mu, delta0) == mu
    assert additive_convolve(mu, nu) == additive_convolve(nu, mu)
    lhs = additive_convolve(additive_convolve(mu, nu), rho)
    assert lhs == additive_convolve(mu, additive_convolve(nu, rho))
    # cumulants add
    cm = moments_to_cumulants(mu)
    cn = moments_to_cumulants(nu)
    cs = moments_to_cumulants(additive_convolve(mu, nu))
    for w in all_words(1, 5):
        assert cs.cumulant(w) == cm.cumulant(w) + cn.cumulant(w)
    with pytest.raises(ValueError):
        additive_convolve(mu, rand_law(rng, k=0, num_vars=1, max_len=5))


def _one_variable_law(rng, k: int, max_len: int, kind: int) -> InfLaw:
    """Random moments: general, with a zero first moment, or sparse (each
    moment zero, nilpotent or general)."""
    draw = rand_sparse_scalar if kind == 2 else rand_scalar
    moments = [draw(rng, k) for _ in range(max_len)]
    if kind == 1:
        moments[0] = CkScalar.zero(k)
    return InfLaw(k, 1, max_len, {(1,) * m: x for m, x in enumerate(moments, start=1)})


def test_series_routes_match_the_table_oracles():
    # the R-series routes against the first-block cumulant tables they
    # replaced; each pair of laws cycles through the three kinds
    rng = random.Random(109)
    for k in range(5):
        for max_len in range(1, 13):
            mu = _one_variable_law(rng, k, max_len, max_len % 3)
            nu = _one_variable_law(rng, k, max_len, (max_len + k) % 3)
            assert additive_convolve(mu, nu) == table_additive_convolve_oracle(mu, nu), (k, max_len)
            params = (rand_scalar if max_len % 2 else rand_sparse_scalar)(rng, k)
            for kind in ("semicircular", "free_poisson"):
                assert example_law(kind, params, k, max_len) == table_example_law_oracle(
                    kind, params, k, max_len), (kind, k, max_len)


def test_semicircular_variance_adds():
    a = example_law("semicircular", scalar(0, 1), 0, 6)
    b = example_law("semicircular", scalar(0, 2), 0, 6)
    assert additive_convolve(a, b) == example_law("semicircular", scalar(0, 3), 0, 6)


def test_multiplicative_convolution():
    rng = random.Random(79)
    k = 1
    mu = rand_law(rng, k=k, num_vars=1, max_len=5)
    nu = rand_law(rng, k=k, num_vars=1, max_len=5)
    rho = rand_law(rng, k=k, num_vars=1, max_len=5)
    ones = CkSeries(k, 5, [CkScalar.one(k)] * 5)
    delta1 = law_from_moment_series(ones)  # law of the unit element
    assert multiplicative_convolve(mu, delta1) == mu
    lhs = multiplicative_convolve(multiplicative_convolve(mu, nu), rho)
    assert lhs == multiplicative_convolve(mu, multiplicative_convolve(nu, rho))


def test_multiplicative_convolve_matches_the_r_boxed_oracle():
    # M_(mu boxtimes nu) = R_mu boxed M_nu against R_mu boxed R_nu taken back
    # to moments, and against the third form M_mu boxed R_nu: first moments
    # general, zero or nilpotent, in both argument orders
    rng = random.Random(167)
    for k in range(4):
        for max_len in range(1, 9):
            laws = [rand_law(rng, k=k, num_vars=1, max_len=max_len)]
            for lead in (CkScalar.zero(k), CkScalar(k, (0,) + rand_scalar(rng, k).coords[1:])):
                coeffs = [lead] + [rand_scalar(rng, k) for _ in range(max_len - 1)]
                laws.append(law_from_moment_series(CkSeries(k, max_len, coeffs)))
            for mu in laws:
                for nu in laws:
                    got = multiplicative_convolve(mu, nu)
                    assert got == r_boxed_multiplicative_oracle(mu, nu), (k, max_len)
                    assert got == multiplicative_convolve(nu, mu), (k, max_len)
                    third = boxed_conv_ck(moment_series(mu), r_from_moments(moment_series(nu)))
                    assert got == law_from_moment_series(third), (k, max_len)


def test_multiplicative_convolve_runs_three_power_chains_and_two_boxed_sums(monkeypatch):
    calls = Counter()
    for name in ("_powers", "_boxed_sum"):
        def counted(*args, _real=getattr(convolve, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(convolve, name, counted)
    rng = random.Random(181)
    for k, max_len in ((0, 1), (2, 6), (3, 5)):
        mu = rand_law(rng, k=k, num_vars=1, max_len=max_len)
        nu = rand_law(rng, k=k, num_vars=1, max_len=max_len)
        calls.clear()
        multiplicative_convolve(mu, nu)
        assert calls == {"_powers": 3, "_boxed_sum": 2}, (k, max_len)


def test_series_routes_validate_no_series_they_build(monkeypatch):
    # the moment series, truncations, power chains, boxed sums, sums,
    # differences, compositions and inverses behind a product, a sum and an
    # S-transform are built from validated values, so none is checked again
    calls = []
    real = CkSeries.__init__

    def counted(self, *args):
        calls.append(args)
        real(self, *args)

    def run(route, *args):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(CkSeries, "__init__", counted)
            out = route(*args)
        assert calls == [], (route.__name__, k, max_len)
        return out

    rng = random.Random(199)
    transformed = 0
    for k, max_len in ((0, 1), (1, 7), (3, 5), (2, 5)):
        mu = rand_law(rng, k=k, num_vars=1, max_len=max_len)
        nu = rand_law(rng, k=k, num_vars=1, max_len=max_len)
        assert run(multiplicative_convolve, mu, nu) == r_boxed_multiplicative_oracle(mu, nu)
        assert run(additive_convolve, mu, nu) == table_additive_convolve_oracle(mu, nu)
        r_mu, r_nu = r_from_moments(moment_series(mu)), r_from_moments(moment_series(nu))
        short = min(max_len, 3)
        built = [run(operator.add, r_mu, r_nu), run(operator.sub, r_mu, r_nu),
                 run(series_compose, r_mu, r_nu)]
        if k == 1:
            built.append(run(boxed_conv_type_b, r_mu.truncate(short), r_nu.truncate(short)))
        built.append(run(boxed_conv_type_k, r_mu.truncate(short), r_nu.truncate(short)))
        if max_len >= 2 and mu.moment((1,)).coords[0] != 0:
            built += [run(series_comp_inverse, r_mu), run(s_transform, mu)]
            transformed += 1
        for s in built:
            assert s == CkSeries(s.k, s.trunc, s.coeffs, s.const), (k, max_len)
    assert transformed == 3


def test_s_transform_multiplicative_on_bernoulli():
    # fair Bernoulli on {0,1}: every moment is 1/2
    half = CkSeries.from_rationals(0, [Fraction(1, 2)] * 5)
    bern = law_from_moment_series(half)
    prod = multiplicative_convolve(bern, bern)
    lhs = s_transform(prod)
    rhs = series_mul(s_transform(bern), s_transform(bern))
    assert lhs == rhs


def test_s_transform_multiplicative_random():
    rng = random.Random(83)
    for k in range(3):
        while True:
            mu = rand_law(rng, k=k, num_vars=1, max_len=5)
            nu = rand_law(rng, k=k, num_vars=1, max_len=5)
            if (
                mu.moment((1,)).coords[0] != 0
                and nu.moment((1,)).coords[0] != 0
            ):
                break
        lhs = s_transform(multiplicative_convolve(mu, nu))
        assert lhs == series_mul(s_transform(mu), s_transform(nu))


def test_example_laws():
    semi = example_law("semicircular", scalar(0, 1), 0, 6)
    moments = [semi.moment((1,) * n).coords[0] for n in range(1, 7)]
    assert moments == [0, 1, 0, 2, 0, 5]
    fp = example_law("free_poisson", scalar(0, 1), 0, 6)
    catalan = [1, 2, 5, 14, 42, 132]
    assert [fp.moment((1,) * n).coords[0] for n in range(1, 7)] == catalan
    with pytest.raises(ValueError):
        example_law("uniform", scalar(0, 1), 0, 4)


def test_example_law_with_infinitesimal_parameter():
    # parameter 1 + eps: the first-order part of each cumulant is 1
    params = CkScalar(1, [1, 1])
    semi = example_law("semicircular", params, 1, 4)
    c = moments_to_cumulants(semi)
    assert c.cumulant((1, 1)) == params
    assert c.cumulant((1,)) == CkScalar.zero(1)
    assert c.cumulant((1, 1, 1)) == CkScalar.zero(1)
