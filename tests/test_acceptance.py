"""Acceptance suite: the ten headline guarantees, all at exact equality.

Each criterion records a PASS/FAIL line printed in the terminal summary.
Time budgets are asserted inside the criteria that carry one.
"""
from fractions import Fraction
import functools
import itertools
import random
import time

from infree.ck import CkScalar, ck_mul, series_mul
from infree.convolve import (
    additive_convolve,
    boxed_conv_ck,
    boxed_conv_type_b,
    boxed_conv_type_k,
    example_law,
    multiplicative_convolve,
    s_transform,
)
from infree.cumulants import (
    all_words,
    cumulants_to_moments,
    moments_to_cumulants,
)
from infree.freeness import (
    Derivation,
    NcPolynomial,
    check_inf_freeness,
    derivative_of_convolution,
    free_product_joint,
    product_tuple_cumulants,
    upgraded_law,
)
from infree.cumulants import InfLaw
from infree.partitions import (
    NcPartition,
    catalan,
    enumerate_nc,
    kreweras,
    mobius_to_top,
)
from infree.typek import (
    enumerate_type_k,
    fiber_over,
    fiber_size_formula,
    r_of_shape,
    reduction_partition,
)

from helpers import (
    compositions,
    eval_poly,
    jet_of_poly,
    kappa_component_oracle,
    lagrange_derivative_at_zero,
    mobius_recursive,
    nc_star_moment_oracle,
    t_poly_freeness_oracle,
    phi_component_oracle,
    rand_law,
    rand_series,
    restrict,
    rotate_partition,
    shape_counts_oracle,
    type_b_conv_oracle,
)

RESULTS = []

CRIT1_RANGES = [(1, n) for n in range(1, 5)] + [(2, n) for n in range(1, 4)] + [
    (3, n) for n in range(1, 3)
]


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((number, description, False))
                raise
            RESULTS.append((number, description, True))

        return wrapper

    return deco


@criterion(1, "type-k counts and uniform fibers")
def test_criterion_1():
    start = time.monotonic()
    for k, n in CRIT1_RANGES:
        expected_fiber = fiber_size_formula(n, k)
        assert len(enumerate_type_k(n, k)) == catalan(n) * expected_fiber
        for p in enumerate_nc(n):
            assert len(fiber_over(p, k)) == expected_fiber, (k, n, p.blocks)
    assert time.monotonic() - start < 30


@criterion(2, "divisible-block count equals the fiber size")
def test_criterion_2():
    for k, n in CRIT1_RANGES:
        top = NcPartition(n, [range(1, n + 1)])
        divisible = sum(
            1
            for p in enumerate_nc((k + 1) * n)
            if all(len(b) % n == 0 for b in p.blocks)
        )
        assert divisible == fiber_size_formula(n, k)
        assert len(fiber_over(top, k)) == divisible


@criterion(3, "three convolution paths agree")
def test_criterion_3():
    start = time.monotonic()
    rng = random.Random(1003)
    for k in range(3):
        for _ in range(20):
            f = rand_series(rng, k, 5)
            g = rand_series(rng, k, 5)
            assert boxed_conv_type_k(f, g) == boxed_conv_ck(f, g)
    for _ in range(20):
        f = rand_series(rng, 1, 6)
        g = rand_series(rng, 1, 6)
        expected = boxed_conv_ck(f, g)
        assert boxed_conv_type_b(f, g) == expected
        assert type_b_conv_oracle(f, g) == expected
    assert time.monotonic() - start < 60


@criterion(4, "r tables and reduction independence")
def test_criterion_4():
    for n in range(1, 5):
        zero_vec = compositions(n + 1, 0)
        for lam in zero_vec:
            assert r_of_shape(lam, n, 0) == 1
        for lam in compositions(n + 1, 1):
            assert r_of_shape(lam, n, 1) == 1
        for lam in compositions(n + 1, 2):
            if max(lam) == 2:
                assert r_of_shape(lam, n, 2) == 1
            else:
                assert r_of_shape(lam, n, 2) == 3
    # every fiber has r(lam) elements of shape lam, counted by enumeration
    for k in range(3):
        for n in range(1, 5):
            for lam in compositions(n + 1, k):
                counts = {shape_counts_oracle(p, k).get(lam, 0) for p in enumerate_nc(n)}
                assert counts == {r_of_shape(lam, n, k)}, (k, n, lam)


@criterion(5, "transform round trip and componentwise forms")
def test_criterion_5():
    rng = random.Random(1005)
    for idx in range(50):
        k = idx % 3
        num_vars = 1 + idx % 2
        law = rand_law(rng, k=k, num_vars=num_vars, max_len=5 - (num_vars - 1))
        cums = moments_to_cumulants(law)
        assert cumulants_to_moments(cums) == law
        for w in law.words():
            for i in range(k + 1):
                assert law.moment(w).coords[i] == phi_component_oracle(cums, w, i)
                assert cums.cumulant(w).coords[i] == kappa_component_oracle(law, w, i)
    for _ in range(2):
        cums = moments_to_cumulants(rand_law(rng, k=2, num_vars=2, max_len=4))
        law = cumulants_to_moments(cums)
        for w in all_words(2, 4):
            for i in range(3):
                assert law.moment(w).coords[i] == nc_star_moment_oracle(cums, w, i)


@criterion(6, "Kreweras complement identities")
def test_criterion_6():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            kr = kreweras(p)
            assert p.num_blocks() + kr.num_blocks() == n + 1
            assert kreweras(kr, "inverse") == p
            assert kreweras(kreweras(p, "inverse")) == p
            assert kreweras(kr) == rotate_partition(p, -1)
    for k, n in CRIT1_RANGES:
        for tk in enumerate_type_k(n, k):
            kr = kreweras(tk.partition)
            assert reduction_partition(kr, n, k) == kreweras(tk.reduction)


@criterion(7, "Mobius values match the lattice recursion")
def test_criterion_7():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert mobius_to_top(p) == mobius_recursive(p.blocks, n)


def _phi_from_free_cumulants(cjoint, coloring, w):
    """Moment of a joint word from mixed-vanishing cumulants; pure blocks
    look up the table, mixed blocks kill the partition."""
    total = CkScalar.zero(cjoint.k)
    for p in enumerate_nc(len(w)):
        term = CkScalar.one(cjoint.k)
        dead = False
        for b in p.blocks:
            sub = restrict(w, b)
            if len({coloring.color_of(v) for v in sub}) > 1:
                dead = True
                break
            term = ck_mul(term, cjoint.value(sub))
        if not dead:
            total = total + term
    return total


@criterion(8, "free product reproduces both convolutions and S-products")
def test_criterion_8():
    rng = random.Random(1008)
    for k in range(3):
        # additive: cumulants add, and the joint expansion of (x+y)^m agrees
        mu = rand_law(rng, k=k, num_vars=1, max_len=5)
        nu = rand_law(rng, k=k, num_vars=1, max_len=5)
        joint, _ = free_product_joint([mu, nu], 5)
        s = additive_convolve(mu, nu)
        cmu, cnu, cs = map(moments_to_cumulants, (mu, nu, s))
        for m in range(1, 6):
            w1 = (1,) * m
            assert cs.cumulant(w1) == cmu.cumulant(w1) + cnu.cumulant(w1)
            acc = CkScalar.zero(k)
            for w in itertools.product((1, 2), repeat=m):
                acc = acc + joint.moment(tuple(w))
            assert acc == s.moment(w1)
        # products of paired variables: formula vs direct expansion
        a = rand_law(rng, k=k, num_vars=2, max_len=4)
        b = rand_law(rng, k=k, num_vars=2, max_len=4)
        pjoint, pcoloring = free_product_joint([a, b], 4)
        cjoint = moments_to_cumulants(pjoint)
        prod_cums = product_tuple_cumulants(cjoint, pcoloring, 4)
        prod_moments = cumulants_to_moments(prod_cums)
        for u in all_words(2, 4):
            interleaved = tuple(x for j in u for x in (j, j + 2))
            direct = _phi_from_free_cumulants(cjoint, pcoloring, interleaved)
            assert prod_moments.moment(u) == direct, (k, u)
        # S-transforms multiply on invertible-mean laws
        while True:
            mu = rand_law(rng, k=k, num_vars=1, max_len=5)
            nu = rand_law(rng, k=k, num_vars=1, max_len=5)
            if mu.moment((1,)).coords[0] != 0 and nu.moment((1,)).coords[0] != 0:
                break
        lhs = s_transform(multiplicative_convolve(mu, nu))
        assert lhs == series_mul(s_transform(mu), s_transform(nu))


@criterion(9, "convolution derivatives match polynomial interpolation")
def test_criterion_9():
    start = time.monotonic()
    ts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)]
    L = 5

    def family(kind, poly, k):
        jet = example_law(kind, jet_of_poly(k, poly), k, L)

        def at(t):
            return example_law(kind, CkScalar.from_rational(0, eval_poly(poly, t)), 0, L)

        return jet, at

    for k in range(3):
        semi_jet, semi_at = family("semicircular", [1, 1], k)
        fp_jet, fp_at = family("free_poisson", [2, 1], k)
        fp3_jet, fp3_at = family("free_poisson", [3], k)
        cases = [
            ("additive", semi_jet, semi_at, fp_jet, fp_at),
            ("multiplicative", fp_jet, fp_at, fp3_jet, fp3_at),
        ]
        for mode, a_jet, a_at, b_jet, b_at in cases:
            got = derivative_of_convolution(a_jet, b_jet, mode)
            for n in range(1, L + 1):
                w = (1,) * n
                points = [
                    (
                        t,
                        derivative_of_convolution(a_at(t), b_at(t), mode)
                        .moment(w)
                        .coords[0],
                    )
                    for t in ts
                ]
                for i in range(k + 1):
                    assert got.moment(w).coords[i] == lagrange_derivative_at_zero(
                        points, i
                    ), (mode, k, n, i)
    assert time.monotonic() - start < 120


@criterion(10, "freeness checker accepts free laws and pinpoints violations")
def test_criterion_10():
    rng = random.Random(1010)
    joints = {}
    for k in range(3):
        mu = rand_law(rng, k=k, num_vars=1, max_len=4)
        nu = rand_law(rng, k=k, num_vars=1, max_len=4)
        joint, coloring = free_product_joint([mu, nu], 4)
        verdict = check_inf_freeness(joint, coloring, 4)
        assert verdict == t_poly_freeness_oracle(joint, coloring, 4)
        assert verdict.passed and verdict.witness is None
        joints[k] = (joint, coloring)
    # 20 single-moment perturbations, each caught at the perturbed entry
    mixed = [
        w
        for w in all_words(2, 4)
        if len(set(w)) > 1
    ]
    picks = []
    while len(picks) < 20:
        k = rng.randrange(3)
        w0 = mixed[rng.randrange(len(mixed))]
        i0 = rng.randrange(k + 1)
        picks.append((k, w0, i0))
    for k, w0, i0 in picks:
        joint, coloring = joints[k]
        values = {}
        for w in joint.words():
            coords = list(joint.moment(w).coords)
            if w == w0:
                coords[i0] += 1
            values[w] = CkScalar(k, coords)
        bad = InfLaw(k, 2, 4, values)
        verdict = check_inf_freeness(bad, coloring, 4)
        assert verdict == t_poly_freeness_oracle(bad, coloring, 4)
        assert not verdict.passed
        assert verdict.witness.word == w0 and verdict.witness.component == i0
    # upgrades along subalgebra-preserving derivations stay free
    X1 = NcPolynomial.variable(1)
    X2 = NcPolynomial.variable(2)
    d = Derivation({1: X1 * X1, 2: X2 + X2 * X2})
    for k in range(3):
        mu = rand_law(rng, k=0, num_vars=1, max_len=4 + k)
        nu = rand_law(rng, k=0, num_vars=1, max_len=4 + k)
        joint, coloring = free_product_joint([mu, nu], 4 + k)
        up = upgraded_law(joint, d, k, 4)
        verdict = check_inf_freeness(up, coloring, 4)
        assert verdict == t_poly_freeness_oracle(up, coloring, 4)
        assert verdict.passed, k
