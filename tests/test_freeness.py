"""Free products, the freeness checker, derivation upgrades, derivatives."""
from fractions import Fraction
from itertools import product as iter_product
from math import factorial
import random

import pytest

from infree import ck, freeness
from infree.ck import (
    CkScalar,
    CkSeries,
    LambdaVector,
    _first_block_table,
    _powers,
    ck_mul,
    ck_prod_many,
    multinomial,
    series_mul,
)
from infree.convolve import (
    additive_convolve,
    boxed_conv_ck,
    example_law,
    moment_series,
    moments_from_r,
    multiplicative_convolve,
    r_from_moments,
)
from infree.cumulants import (
    CumulantTable,
    InfLaw,
    _WordTable,
    all_words,
    cumulant_of_products,
    cumulants_to_moments,
    moments_to_cumulants,
    restrict,
)
from infree.freeness import (
    Coloring,
    Derivation,
    FreenessVerdict,
    NcPolynomial,
    Witness,
    check_inf_freeness,
    derivative_of_convolution,
    free_product_joint,
    product_tuple_cumulants,
    upgraded_law,
)
from infree.partitions import catalan, enumerate_nc

from helpers import (
    apply_derivation,
    eval_poly,
    first_block_m2c_oracle,
    free_product_joint_dense_oracle,
    jet_of_poly,
    lagrange_derivative_at_zero,
    lambda_vectors,
    law_at_t,
    pieces_apply_once_oracle,
    rand_fraction,
    rand_law,
    rand_nc_polynomial,
    rand_scalar,
    rand_series,
    rand_sparse_scalar,
    t_poly_freeness_oracle,
)


X1 = NcPolynomial.variable(1)
X2 = NcPolynomial.variable(2)


def test_nc_polynomial_algebra():
    p = (X1 + NcPolynomial.constant(1)) * (X2 - NcPolynomial.constant(1))
    assert p.terms == {
        (1, 2): 1,
        (1,): -1,
        (2,): 1,
        (): -1,
    }
    assert (X1 * X2).terms != (X2 * X1).terms  # variables do not commute
    assert (X1 - X1).terms == {}
    assert p.scale(0).terms == {}
    assert p.max_degree() == 2
    assert NcPolynomial.word((1, 1, 2)).max_degree() == 3


def test_apply_once_matches_piecewise_oracle():
    # the one-dict expansion against word(prefix) * image * word(suffix),
    # piece by piece: variables without an image, constant and empty images,
    # and coefficients that cancel
    rng = random.Random(443)
    for _ in range(60):
        num_vars = rng.randint(1, 3)
        d = Derivation({v: rand_nc_polynomial(rng, num_vars, rng.randint(0, 3), rng.randint(0, 4))
                        for v in range(1, num_vars + 1) if rng.random() < 0.8})
        p = rand_nc_polynomial(rng, num_vars, 4, rng.randint(0, 6))
        for _ in range(3):
            expected = pieces_apply_once_oracle(d, p)
            got = d.apply_once(p)
            assert got == expected
            assert all(c != 0 for c in got.terms.values())
            p = got
    # x1 -> x2, x2 -> -x1 sends x1 x1 + x2 x2 to zero
    rotate = Derivation({1: X2, 2: X1.scale(-1)})
    assert rotate.apply_once(X1 * X1 + X2 * X2) == NcPolynomial()
    assert rotate.apply_once(X1 * X1 + X2 * X2).terms == {}


def test_apply_derivation():
    d = Derivation({1: X1})
    p = X1 * X1
    assert apply_derivation(d, p, 0) == p
    assert apply_derivation(d, p) == p.scale(2)
    d_unit = Derivation({1: NcPolynomial.constant(1)})
    cube = X1 * X1 * X1
    assert apply_derivation(d_unit, cube) == (X1 * X1).scale(3)
    # Leibniz on a product of polynomials
    d2 = Derivation({1: X2, 2: X1 * X1})
    a = X1 * X2 + NcPolynomial.constant(3)
    b = X2 * X1
    lhs = d2.apply_once(a * b)
    rhs = d2.apply_once(a) * b + a * d2.apply_once(b)
    assert lhs == rhs
    with pytest.raises(ValueError):
        apply_derivation(d, p, -1)


def test_free_product_single_factor():
    # a single factor comes back as its own law, scalar for scalar
    rng = random.Random(101)
    law = rand_law(rng, k=1, num_vars=2, max_len=3)
    joint, coloring = free_product_joint([law], 3)
    assert joint == law
    assert all(joint.values[w] is x for w, x in law.values.items())
    assert coloring.colors == (1, 1)


def test_free_product_two_semicirculars():
    semi = example_law("semicircular", CkScalar.from_rational(0, 1), 0, 4)
    joint, coloring = free_product_joint([semi, semi], 4)
    assert coloring.colors == (1, 2)
    assert joint.moment((1, 2, 1, 2)).coords[0] == 0
    assert joint.moment((1, 1, 2, 2)).coords[0] == 1


def test_free_product_marginals_preserved():
    rng = random.Random(103)
    mu = rand_law(rng, k=1, num_vars=1, max_len=4)
    nu = rand_law(rng, k=1, num_vars=2, max_len=4)
    joint, coloring = free_product_joint([mu, nu], 4)
    assert coloring.colors == (1, 2, 2)
    for w in all_words(1, 4):
        assert joint.moment(w) == mu.moment(w)
    for w in all_words(2, 4):
        shifted = tuple(v + 1 for v in w)
        assert joint.moment(shifted) == nu.moment(w)


def _sparse_law(rng, k: int, num_vars: int, max_len: int) -> InfLaw:
    """Moments, or cumulants taken to moments, each entry zero, nilpotent or
    general."""
    values = {w: rand_sparse_scalar(rng, k) for w in all_words(num_vars, max_len)}
    if rng.random() < 0.5:
        return InfLaw(k, num_vars, max_len, values)
    return cumulants_to_moments(CumulantTable(k, num_vars, max_len, values))


def test_free_product_joint_matches_the_dense_oracle():
    # the sparse, seeded route against the dense joint cumulant table with
    # explicit zeros, on factors up to two letters longer than the joint
    rng = random.Random(191)
    shapes = [((1,), 5), ((2,), 3), ((1, 1), 5), ((2, 1), 4), ((1, 2), 3), ((2, 2), 3),
              ((1, 1, 1), 4), ((1, 2, 1), 3), ((2, 1, 2), 2)]
    for k in range(4):
        for nvs, max_len in shapes:
            laws = [_sparse_law(rng, k, nv, max_len + rng.randint(0, 2)) for nv in nvs]
            got = free_product_joint(laws, max_len)
            assert got == free_product_joint_dense_oracle(laws, max_len), (k, nvs, max_len)


def test_free_product_c2m_sums_only_the_mixed_words(monkeypatch):
    # the joint's c2m builds no scalar for a pure word and visits none of
    # its first blocks: each pure joint moment is the factor's own scalar
    rng = random.Random(193)
    visited, made = [], []
    real_blocks = ck._first_blocks
    real_built = CkScalar._built.__func__

    def blocks(n):
        def on(get):
            return lambda w: visited.append(w) or get(w)
        return tuple((on(get), gaps) for get, gaps in real_blocks(n))

    def built(cls, *args):
        made.append(real_built(cls, *args))
        return made[-1]

    def joint_c2m(*args):
        visited.clear()
        made.clear()
        yield from _first_block_table(*args)

    monkeypatch.setattr(ck, "_first_blocks", blocks)
    monkeypatch.setattr(CkScalar, "_built", classmethod(built))
    monkeypatch.setattr(freeness, "_first_block_table", joint_c2m)
    for k, nvs, max_len in ((0, (1, 1), 5), (2, (2, 1), 4), (1, (1, 1, 1), 3)):
        laws = [rand_law(rng, k, nv, max_len) for nv in nvs]
        joint, coloring = free_product_joint(laws, max_len)
        mixed = {w for w in joint.words() if len({coloring.color_of(v) for v in w}) > 1}
        assert visited and set(visited) == mixed, (k, nvs)
        # one scalar per nonzero mixed moment, and the one zero the kernel shares
        nonzero_mixed = [joint.values[w] for w in mixed if not joint.values[w].is_zero()]
        made_zero = [x for x in made if x.is_zero()]
        assert len(made_zero) == 1, (k, nvs)
        assert sorted(map(id, made)) == sorted(map(id, nonzero_mixed + made_zero)), (k, nvs)
        offset = 0
        for law in laws:
            for w, x in law.values.items():
                assert joint.values[tuple(v + offset for v in w)] is x, (k, nvs, w)
            offset += law.num_vars
        assert (joint, coloring) == free_product_joint_dense_oracle(laws, max_len)


def test_free_product_reads_factor_cumulants_up_to_the_joint_length(monkeypatch):
    # a factor longer than the joint has its cumulants computed up to the
    # joint's length alone
    rng = random.Random(197)
    long, short = rand_law(rng, 1, 2, 7), rand_law(rng, 1, 1, 3)
    calls = _kernel_words(monkeypatch)
    joint, _ = free_product_joint([long, short], 3)
    assert calls == list(all_words(2, 3)) + list(all_words(1, 3))
    assert joint == free_product_joint_dense_oracle([long, short], 3)[0]


def test_free_product_errors():
    rng = random.Random(107)
    a = rand_law(rng, k=0, num_vars=1, max_len=3)
    b = rand_law(rng, k=1, num_vars=1, max_len=3)
    with pytest.raises(ValueError):
        free_product_joint([a, b], 3)
    with pytest.raises(ValueError):
        free_product_joint([a], 4)
    with pytest.raises(ValueError):
        free_product_joint([], 3)


def test_builders_refuse_a_length_below_one():
    # an empty table with max_len <= 0 is no law or cumulant table at all
    rng = random.Random(113)
    mu = rand_law(rng, k=1, num_vars=1, max_len=3)
    nu = rand_law(rng, k=1, num_vars=1, max_len=3)
    joint, coloring = free_product_joint([mu, nu], 3)
    cjoint = moments_to_cumulants(joint)
    base = rand_law(rng, k=0, num_vars=1, max_len=3)
    for bad in (0, -1):
        for build in (
            lambda: free_product_joint([mu, nu], bad),
            lambda: product_tuple_cumulants(cjoint, coloring, bad),
            lambda: upgraded_law(base, Derivation({1: X1}), 1, bad),
        ):
            with pytest.raises(ValueError, match=f"^length budget must be >= 1, got {bad}$"):
                build()


def test_product_tuple_cumulants_basic():
    rng = random.Random(109)
    mu = rand_law(rng, k=1, num_vars=1, max_len=6)
    nu = rand_law(rng, k=1, num_vars=1, max_len=6)
    joint, coloring = free_product_joint([mu, nu], 6)
    cjoint = moments_to_cumulants(joint)
    got = product_tuple_cumulants(cjoint, coloring, 3)
    # kappa_1(ab) = kappa_1(a) kappa_1(b): freeness kills the cross term
    assert got.cumulant((1,)) == ck_mul(cjoint.value((1,)), cjoint.value((2,)))
    # same numbers as the products-of-arguments formula on interleaved words
    for m in range(1, 4):
        interleaved = (1, 2) * m
        grouping = tuple(2 * j for j in range(1, m + 1))
        assert got.cumulant((1,) * m) == cumulant_of_products(
            cjoint, grouping, interleaved
        )


def test_product_tuple_matches_multiplicative_convolve():
    rng = random.Random(113)
    for k in range(2):
        mu = rand_law(rng, k=k, num_vars=1, max_len=4)
        nu = rand_law(rng, k=k, num_vars=1, max_len=4)
        joint, coloring = free_product_joint([mu, nu], 4)
        got = product_tuple_cumulants(moments_to_cumulants(joint), coloring, 4)
        expected = moments_to_cumulants(multiplicative_convolve(mu, nu))
        assert got == expected


def test_computed_tables_match_the_validating_constructor():
    # every table the library builds without checking holds an order-k
    # scalar for every word, shortlex, as the public constructor would
    rng = random.Random(127)
    for k in range(3):
        mu = rand_law(rng, k=k, num_vars=1, max_len=4)
        nu = rand_law(rng, k=k, num_vars=1, max_len=4)
        joint, coloring = free_product_joint([mu, nu], 4)
        cums = moments_to_cumulants(joint)
        tables = [joint, cums, cumulants_to_moments(cums), additive_convolve(mu, nu),
                  multiplicative_convolve(mu, nu),
                  product_tuple_cumulants(cums, coloring, 3)]
        for t in tables:
            checked = type(t)(t.k, t.num_vars, t.max_len, t.values)
            assert t == checked and hash(t) == hash(checked)
            assert list(t.values) == list(t.words()) == list(checked.values)
        s = moment_series(mu)
        assert s == CkSeries(s.k, s.trunc, s.coeffs, s.const)
    # the same for the series products, power chains, truncations and boxed
    # sums, built through the trusted constructor: general, sparse and
    # all-zero series, with and without a constant term
    rng = random.Random(131)
    for k in range(4):
        for trunc in (1, 2, 5):
            sparse = CkSeries(k, trunc, [rand_sparse_scalar(rng, k) for _ in range(trunc)])
            with_const = CkSeries(k, trunc, rand_series(rng, k, trunc).coeffs, rand_scalar(rng, k))
            series = [rand_series(rng, k, trunc), sparse, with_const, CkSeries.zero(k, trunc)]
            built = [series_mul(f, g) for f in series for g in series]
            built += [p for f in series for p in _powers(f)]
            built += [f.truncate(t) for f in series for t in range(1, trunc + 1)]
            boxable = [f for f in series if f.const.is_zero()]
            built += [r_from_moments(f) for f in boxable] + [moments_from_r(f) for f in boxable]
            built += [boxed_conv_ck(f, g) for f in boxable for g in boxable]
            for s in built:
                checked = CkSeries(s.k, s.trunc, s.coeffs, s.const)
                assert s == checked and hash(s) == hash(checked), (k, trunc)


def test_m2c_builds_one_scalar_per_nonzero_cumulant(monkeypatch):
    # most cumulants of a free product vanish: the kernel builds a scalar
    # for each nonzero one only, and every zero entry is one shared zero
    rng = random.Random(173)
    real = CkScalar._built.__func__
    for k in range(3):
        mu = rand_law(rng, k=k, num_vars=1, max_len=4)
        nu = rand_law(rng, k=k, num_vars=2, max_len=4)
        joint, _ = free_product_joint([mu, nu], 4)
        made = []

        def built(cls, *args):
            made.append(real(cls, *args))
            return made[-1]

        with monkeypatch.context() as m:
            m.setattr(CkScalar, "_built", classmethod(built))
            cums = moments_to_cumulants(joint)
        zeros = [x for x in cums.values.values() if x.is_zero()]
        nonzero = [x for x in cums.values.values() if not x.is_zero()]
        made_zero = [x for x in made if x.is_zero()]
        assert len(zeros) > len(nonzero) > 0, k
        assert len(made_zero) == 1 and made_zero[0] == CkScalar.zero(k), k
        assert all(x is made_zero[0] for x in zeros), k
        assert sorted(map(id, made)) == sorted(map(id, nonzero + made_zero)), k
        assert cums == first_block_m2c_oracle(joint), k


def test_product_tuple_cumulants_caches_kreweras_per_length(monkeypatch):
    rng = random.Random(179)
    mu = rand_law(rng, k=1, num_vars=1, max_len=4)
    nu = rand_law(rng, k=1, num_vars=1, max_len=4)
    joint, coloring = free_product_joint([mu, nu], 4)
    cums = moments_to_cumulants(joint)
    calls = []
    real = freeness.kreweras

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(freeness, "kreweras", counted)
    freeness._kreweras_index_blocks.cache_clear()
    first = product_tuple_cumulants(cums, coloring, 4)
    assert len(calls) == sum(catalan(m) for m in range(1, 5))
    calls.clear()
    assert product_tuple_cumulants(cums, coloring, 4) == first
    assert product_tuple_cumulants(cums, coloring, 3).values == {
        w: x for w, x in first.values.items() if len(w) <= 3}
    assert calls == []


def test_product_tuple_rejects_mixed_cumulants():
    k = 0
    values = {w: CkScalar.from_rational(0, 1) for w in all_words(2, 2)}
    bad = CumulantTable(k, 2, 2, values)  # mixed entries nonzero
    with pytest.raises(ValueError):
        product_tuple_cumulants(bad, Coloring((1, 2)), 2)
    # the only nonzero mixed cumulant has length 5
    rng = random.Random(163)
    values = {
        w: rand_scalar(rng, 1) if len(set(w)) == 1 else CkScalar.zero(1)
        for w in all_words(2, 5)
    }
    values[(1, 2, 1, 2, 1)] = CkScalar.one(1)
    with pytest.raises(ValueError, match=r"\(1, 2, 1, 2, 1\)"):
        product_tuple_cumulants(CumulantTable(1, 2, 5, values), Coloring((1, 2)), 3)


def test_checker_passes_free_product():
    rng = random.Random(127)
    for k in range(2):
        mu = rand_law(rng, k=k, num_vars=1, max_len=4)
        nu = rand_law(rng, k=k, num_vars=1, max_len=4)
        joint, coloring = free_product_joint([mu, nu], 4)
        verdict = check_inf_freeness(joint, coloring, 4)
        assert verdict == t_poly_freeness_oracle(joint, coloring, 4)
        assert verdict.passed and verdict.witness is None
    with pytest.raises(ValueError):
        check_inf_freeness(joint, coloring, 0)  # an empty budget checks nothing


def test_checker_fails_tensor_independent():
    # commuting pair of symmetric Bernoulli variables: phi factorizes over
    # letter counts, which disagrees with freeness at abab
    def marginal(n):
        return Fraction(0) if n % 2 else Fraction(1)

    values = {}
    for w in all_words(2, 4):
        ones = sum(1 for v in w if v == 1)
        values[w] = CkScalar(0, [marginal(ones) * marginal(len(w) - ones)])
    law = InfLaw(0, 2, 4, values)
    verdict = check_inf_freeness(law, Coloring((1, 2)), 4)
    assert verdict == t_poly_freeness_oracle(law, Coloring((1, 2)), 4)
    assert not verdict.passed
    assert verdict.witness == Witness((1, 2, 1, 2), 0, Fraction(1))


def perturbed(law: InfLaw, w0: tuple, i0: int, delta=1) -> InfLaw:
    values = {}
    for w in law.words():
        coords = list(law.moment(w).coords)
        if w == w0:
            coords[i0] += delta
        values[w] = CkScalar(law.k, coords)
    return InfLaw(law.k, law.num_vars, law.max_len, values)


def test_checker_witnesses_the_perturbed_moment():
    rng = random.Random(131)
    mu = rand_law(rng, k=1, num_vars=1, max_len=4)
    nu = rand_law(rng, k=1, num_vars=1, max_len=4)
    joint, coloring = free_product_joint([mu, nu], 4)
    for w0, i0 in [((1, 2), 0), ((1, 2, 1), 1), ((2, 1, 2, 1), 1)]:
        bad = perturbed(joint, w0, i0)
        verdict = check_inf_freeness(bad, coloring, 4)
        assert verdict == t_poly_freeness_oracle(bad, coloring, 4)
        assert not verdict.passed
        assert verdict.witness.word == w0 and verdict.witness.component == i0
        # the perturbation shows up as a nonvanishing mixed cumulant too
        cums = moments_to_cumulants(bad)
        assert any(
            len({coloring.color_of(v) for v in w}) > 1 and not cums.value(w).is_zero()
            for w in all_words(2, 4)
        )


def _kernel_words(monkeypatch) -> list:
    """A list that records each word the first-block kernel computes, as
    the kernel yields it."""
    calls = []

    def counted(*args):
        for w, x in _first_block_table(*args):
            calls.append(w)
            yield w, x

    monkeypatch.setattr("infree.cumulants._first_block_table", counted)
    return calls


def test_checker_stops_at_the_first_failing_length(monkeypatch):
    # a law that fails at length 2 is decided from the words of length <= 2
    # alone, whatever the budget
    rng = random.Random(139)
    mu = rand_law(rng, k=1, num_vars=1, max_len=6)
    nu = rand_law(rng, k=1, num_vars=1, max_len=6)
    joint, coloring = free_product_joint([mu, nu], 6)
    bad = perturbed(joint, (1, 2), 1)
    calls = _kernel_words(monkeypatch)
    for budget in (5, 6):
        calls.clear()
        verdict = check_inf_freeness(bad, coloring, budget)
        assert verdict == FreenessVerdict(False, Witness((1, 2), 1, Fraction(1)))
        assert calls and max(len(w) for w in calls) <= 2
        assert len(calls) <= len(list(all_words(2, 2)))
    assert verdict == t_poly_freeness_oracle(bad, coloring, 5)


def test_checker_stops_at_the_first_failing_word(monkeypatch):
    # words are scanned one at a time in shortlex order, so a failure at
    # (1, 2) computes no cumulant of (2, 1) or (2, 2), and no word beyond
    # the budget is ever built
    rng = random.Random(167)
    mu = rand_law(rng, k=2, num_vars=1, max_len=4)
    nu = rand_law(rng, k=2, num_vars=1, max_len=4)
    joint, coloring = free_product_joint([mu, nu], 4)
    bad = perturbed(joint, (1, 2), 2)
    calls = _kernel_words(monkeypatch)
    verdict = check_inf_freeness(bad, coloring, 4)
    assert verdict == FreenessVerdict(False, Witness((1, 2), 2, Fraction(1, 2)))
    assert calls == [(1,), (2,), (1, 1), (1, 2)]
    for budget in (1, 2, 3):
        calls.clear()
        assert check_inf_freeness(joint, coloring, budget).passed
        assert calls == list(all_words(2, budget))


def test_checker_matches_t_polynomial_oracle():
    # the C_k checker against the t-polynomial route, verdict for verdict:
    # word, component and value, with perturbations at every component
    rng = random.Random(137)
    for k in range(4):
        for nvs, L in (((1, 1), 4), ((2, 1), 3)):
            laws = [rand_law(rng, k=k, num_vars=nv, max_len=L) for nv in nvs]
            joint, coloring = free_product_joint(laws, L)
            verdict = check_inf_freeness(joint, coloring, L)
            assert verdict == t_poly_freeness_oracle(joint, coloring, L)
            assert verdict == FreenessVerdict(True, None)
            mixed = [w for w in joint.words() if len({coloring.color_of(v) for v in w}) > 1]
            for i0 in range(k + 1):
                w0 = rng.choice(mixed)
                delta = rand_fraction(rng) or Fraction(1, 3)
                bad = perturbed(joint, w0, i0, delta)
                verdict = check_inf_freeness(bad, coloring, L)
                assert verdict == t_poly_freeness_oracle(bad, coloring, L)
                # the t^i0 coefficient of the discrepancy is delta / i0!
                assert verdict == FreenessVerdict(False, Witness(w0, i0, delta / factorial(i0)))
            # two perturbations at once: the earlier word's centred product wins
            w1, w2 = rng.sample(mixed, 2)
            bad = perturbed(perturbed(joint, w1, k, rand_fraction(rng) or 1), w2, 0, 1)
            verdict = check_inf_freeness(bad, coloring, L)
            assert not verdict.passed
            assert verdict == t_poly_freeness_oracle(bad, coloring, L)
    # laws whose first nonzero mixed cumulant has length n = 3, 4, 5, with
    # runs longer than one letter, first and last runs of one colour, and
    # three colours; None puts a sparse random cumulant on every mixed word
    # of length n
    cases = [
        ((1, 2), 3, [(1, 1, 2)]),
        ((1, 2), 4, [(2, 1, 1, 2)]),
        ((1, 2), 5, [(1, 1, 2, 2, 1), (1, 2, 2, 2, 1)]),
        ((1, 2), 5, None),
        ((1, 2, 1), 3, [(1, 2, 3)]),
        ((1, 2, 1), 4, [(3, 1, 2, 2), (3, 2, 2, 1)]),
        ((1, 1, 2), 4, None),
        ((1, 2, 3), 3, [(2, 3, 1)]),
        ((1, 2, 3), 4, [(1, 1, 3, 2), (2, 3, 3, 1)]),
        ((1, 2, 3), 4, None),
    ]
    for k in range(4):
        for colors, n, targets in cases:
            coloring = Coloring(colors)
            i0 = rng.randrange(k + 1)
            values = {}
            for w in all_words(len(colors), n):
                if len({coloring.color_of(v) for v in w}) == 1:
                    values[w] = rand_scalar(rng, k)
                elif len(w) < n:
                    values[w] = CkScalar.zero(k)
                elif targets is None:
                    values[w] = rand_sparse_scalar(rng, k)
                elif w in targets:
                    lead = rand_fraction(rng) or Fraction(1, 2)
                    rest = [rand_fraction(rng) for _ in range(k - i0)]
                    values[w] = CkScalar(k, [0] * i0 + [lead] + rest)
                else:
                    values[w] = CkScalar.zero(k)
            law = cumulants_to_moments(CumulantTable(k, len(colors), n, values))
            below = check_inf_freeness(law, coloring, n - 1)
            assert below == t_poly_freeness_oracle(law, coloring, n - 1)
            assert below == FreenessVerdict(True, None)
            verdict = check_inf_freeness(law, coloring, n)
            assert verdict == t_poly_freeness_oracle(law, coloring, n)
            if targets is not None:
                w0 = min(targets)
                lead = values[w0].coords[i0]
                assert verdict == FreenessVerdict(False, Witness(w0, i0, lead / factorial(i0)))


def test_upgrade_zero_derivation():
    rng = random.Random(137)
    base = rand_law(rng, k=0, num_vars=1, max_len=4)
    up = upgraded_law(base, Derivation({}), 2, 4)
    cums = moments_to_cumulants(up)
    for w in all_words(1, 4):
        assert up.moment(w).coords[0] == base.moment(w).coords[0]
        assert up.moment(w).coords[1] == 0 and up.moment(w).coords[2] == 0
        assert cums.cumulant(w).coords[1] == 0 and cums.cumulant(w).coords[2] == 0


def test_upgrade_euler_derivation():
    rng = random.Random(139)
    base = rand_law(rng, k=0, num_vars=1, max_len=5)
    up = upgraded_law(base, Derivation({1: X1}), 1, 5)
    base_cums = moments_to_cumulants(base)
    up_cums = moments_to_cumulants(up)
    for n in range(1, 6):
        w = (1,) * n
        assert up.moment(w).coords[1] == n * base.moment(w).coords[0]
        assert up_cums.cumulant(w).coords[1] == n * base_cums.cumulant(w).coords[0]


def test_upgrade_support_error():
    rng = random.Random(149)
    base = rand_law(rng, k=0, num_vars=1, max_len=3)
    quad = Derivation({1: X1 * X1})
    with pytest.raises(ValueError):
        upgraded_law(base, quad, 1, 3)  # needs length 4
    upgraded_law(base, quad, 1, 2)  # length 3 suffices here


def kappa_of_polys(c0: CumulantTable, polys: list) -> Fraction:
    """Multilinear extension of the base cumulants to polynomial arguments.

    kappa_n with a constant argument vanishes for n >= 2; kappa_1 of a
    constant is the constant.  Monomial arguments reduce to the
    products-of-arguments formula on the concatenated word.
    """
    n = len(polys)
    total = Fraction(0)
    for choice in iter_product(*(p.terms.items() for p in polys)):
        words = [w for w, _ in choice]
        coeff = Fraction(1)
        for _, c in choice:
            coeff *= c
        if any(len(w) == 0 for w in words):
            if n == 1:
                total += coeff  # kappa_1(1) = phi(1) = 1
            continue
        big = tuple(v for w in words for v in w)
        grouping = []
        acc = 0
        for w in words:
            acc += len(w)
            grouping.append(acc)
        total += coeff * cumulant_of_products(c0, tuple(grouping), big).coords[0]
    return total


def test_upgrade_cumulant_identity():
    # component i of an upgraded cumulant spreads i derivative applications
    # over the arguments with multinomial weights
    rng = random.Random(151)
    k = 2
    base = rand_law(rng, k=0, num_vars=2, max_len=6)
    base_cums = moments_to_cumulants(base)
    d = Derivation({1: X2 * X1, 2: NcPolynomial.constant(1) + X1})
    up_cums = moments_to_cumulants(upgraded_law(base, d, k, 4))
    for w in all_words(2, 4):
        n = len(w)
        for i in range(k + 1):
            expected = Fraction(0)
            for lam in lambda_vectors(n, i):
                polys = [
                    apply_derivation(d, NcPolynomial.variable(v), e)
                    for v, e in zip(w, lam.entries)
                ]
                expected += multinomial(i, lam.entries) * kappa_of_polys(
                    base_cums, polys
                )
            assert up_cums.cumulant(w).coords[i] == expected, (w, i)


def test_upgrade_preserving_subalgebras_stays_free():
    rng = random.Random(157)
    mu = rand_law(rng, k=0, num_vars=1, max_len=5)
    nu = rand_law(rng, k=0, num_vars=1, max_len=5)
    joint, coloring = free_product_joint([mu, nu], 5)
    d = Derivation({1: X1 * X1, 2: X2.scale(2)})
    up = upgraded_law(joint, d, 1, 4)
    verdict = check_inf_freeness(up, coloring, 4)
    assert verdict == t_poly_freeness_oracle(up, coloring, 4)
    assert verdict.passed


def test_upgrade_validates_no_table_it_builds(monkeypatch):
    # every word's scalar is built from the base law's moments, so the
    # complete table goes through the trusted InfLaw._of
    calls = []
    real = _WordTable.__init__

    def counted(self, *args):
        calls.append(args)
        real(self, *args)

    rng = random.Random(167)
    for k, num_vars, max_len, d in ((0, 1, 3, Derivation({})),
                                    (2, 1, 5, Derivation({1: X1})),
                                    (1, 2, 3, Derivation({1: X2 * X1, 2: X1.scale(2)}))):
        base = rand_law(rng, k=0, num_vars=num_vars, max_len=max_len + k)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(_WordTable, "__init__", counted)
            up = upgraded_law(base, d, k, max_len)
        assert calls == [], (k, num_vars, max_len)
        assert up == InfLaw(up.k, up.num_vars, up.max_len, up.values), (k, num_vars, max_len)


def test_derivative_of_convolution_examples():
    rng = random.Random(163)
    mu = rand_law(rng, k=0, num_vars=1, max_len=4)
    nu = rand_law(rng, k=0, num_vars=1, max_len=4)
    assert derivative_of_convolution(mu, nu, "additive") == additive_convolve(mu, nu)
    a = example_law("semicircular", jet_of_poly(1, [1, 1]), 1, 4)
    b = example_law("semicircular", jet_of_poly(1, [2, 3]), 1, 4)
    out = derivative_of_convolution(a, b, "additive")
    assert out.moment((1, 1)) == CkScalar(1, [3, 4])
    with pytest.raises(ValueError):
        derivative_of_convolution(mu, nu, "square")


T_POINTS = [
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 3),
    Fraction(-1, 3),
    Fraction(3),
    Fraction(-3),
    Fraction(1, 4),
    Fraction(-1, 4),
    Fraction(4),
    Fraction(-4),
    Fraction(1, 5),
]


def family(kind, poly, k, max_len):
    jet = example_law(kind, jet_of_poly(k, poly), k, max_len)

    def at(t):
        p = CkScalar.from_rational(0, eval_poly(poly, t))
        return example_law(kind, p, 0, max_len)

    return jet, at


def test_derivative_matches_interpolation_quadratic_rate():
    # with rate 2 + t^2 a length-5 product moment multiplies five singleton
    # R-coefficients of t-degree 3, reaching t-degree 15: 16 points needed
    L = 5
    for k in range(3):
        semi_jet, semi_at = family("semicircular", [1, 1], k, L)
        fp_jet, fp_at = family("free_poisson", [2, 0, 1], k, L)
        fp3_jet, fp3_at = family("free_poisson", [3, 1], k, L)
        cases = [
            ("additive", semi_jet, semi_at, fp_jet, fp_at),
            ("multiplicative", fp_jet, fp_at, fp3_jet, fp3_at),
        ]
        for mode, a_jet, a_at, b_jet, b_at in cases:
            got = derivative_of_convolution(a_jet, b_jet, mode)
            for n in range(1, L + 1):
                w = (1,) * n
                points = [
                    (t, derivative_of_convolution(a_at(t), b_at(t), mode).moment(w).coords[0])
                    for t in T_POINTS
                ]
                for i in range(k + 1):
                    assert got.moment(w).coords[i] == lagrange_derivative_at_zero(
                        points, i
                    ), (mode, k, n, i)


def test_cumulants_of_derivative_law_are_time_derivatives():
    rng = random.Random(167)
    k = 2
    L = 5
    polys = {
        n: [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        for n in range(1, L + 1)
    }

    def law_at(t):
        values = {
            (1,) * n: CkScalar(0, [eval_poly(polys[n], t)]) for n in range(1, L + 1)
        }
        return InfLaw(0, 1, L, values)

    jet_values = {(1,) * n: jet_of_poly(k, polys[n]) for n in range(1, L + 1)}
    jet_cums = moments_to_cumulants(InfLaw(k, 1, L, jet_values))
    for n in range(1, L + 1):
        w = (1,) * n
        points = [
            (t, moments_to_cumulants(law_at(t)).cumulant(w).coords[0])
            for t in T_POINTS
        ]
        for i in range(k + 1):
            assert jet_cums.cumulant(w).coords[i] == lagrange_derivative_at_zero(
                points, i
            )


def test_law_at_t():
    values = {(1,): CkScalar(2, [Fraction(5), Fraction(-1), Fraction(4)])}
    law = InfLaw(2, 1, 1, values)
    assert law_at_t(law, 0).moment((1,)).coords[0] == 5
    assert law_at_t(law, 2).moment((1,)).coords[0] == 5 - 2 + 8  # a + bt + c t^2/2
    k1 = InfLaw(1, 1, 1, {(1,): CkScalar(1, [Fraction(7), Fraction(2)])})
    assert law_at_t(k1, 1).moment((1,)).coords[0] == 9


def test_floats_are_refused_where_rationals_are_exact():
    # a float is binary, not the rational it prints as: 0.1 would be stored
    # as 3602879701896397/36028797018963968, and 1.9 truncated to 1
    law = InfLaw(1, 1, 1, {(1,): CkScalar(1, [Fraction(7), Fraction(2)])})
    for build in (
        lambda: NcPolynomial({(1,): 0.1}),
        lambda: NcPolynomial({(1,): 1, (): 0.0}),
        lambda: X1.scale(0.5),
        lambda: law_at_t(law, 0.1),
    ):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            build()
    for build in (
        lambda: LambdaVector((1.9, 1.1), 2),
        lambda: Coloring([1.5, 2.7]),
        lambda: Coloring([1, 2.0]),
        lambda: Derivation({1.5: X1}),
    ):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            build()
    # colours may still be written as digit strings
    assert Coloring([1, "2"]).colors == (1, 2)
    assert Derivation({2: X1}).images == {2: X1}
    # exact inputs are read as before
    assert NcPolynomial({(1,): "1/10", (2,): Fraction(1, 3), (): 2}).terms == {
        (1,): Fraction(1, 10), (2,): Fraction(1, 3), (): 2}
    assert X1.scale("1/2") == NcPolynomial({(1,): Fraction(1, 2)})
    assert law_at_t(law, Fraction(1, 2)).moment((1,)).coords == (8,)
