"""Truncated scalar algebra and series: frozen small values plus laws."""
from functools import partial
from itertools import islice
import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from infree import ck
from infree.ck import (
    CkScalar,
    CkSeries,
    _accumulate,
    NotInvertible,
    ck_inverse,
    ck_mul,
    ck_prod_many,
    multinomial,
    series_comp_inverse,
    series_compose,
    series_mul,
)
from infree.convolve import boxed_conv_ck
from infree.cumulants import all_words
from infree.freeness import _product_tuple_maps

from helpers import (
    accumulate_oracle,
    back_substitution_inverse_oracle,
    cauchy_series_mul_oracle,
    compositions,
    first_block_table_oracle,
    fraction_ck_inverse_oracle,
    fraction_ck_mul_oracle,
    least_rotation,
    nc_boxed_conv_oracle,
    per_degree_comp_inverse_oracle,
    power_rows_oracle,
    product_tuple_table_oracle,
    rand_fraction,
    rand_prime_den_table,
    rand_scalar,
    rand_series,
    rand_sparse_scalar,
    rand_wide_fraction,
    rand_wide_scalar,
    ReadLog,
    series_coeff,
    to_toeplitz,
    tracial_table,
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
def test_accumulate_property(abc, q, subtract):
    a, b, c = abc
    k = a.k
    total = _accumulate(k, [(1, 1, [a, b]), (q.numerator, q.denominator, [c]), (1, 1, [b, c, a])])
    got = a - total if subtract else a + total
    assert total == a * b + c.scale(q) + ck_prod_many([b, c, a])
    assert hash(got) == hash(CkScalar(k, got.coords))
    assert _accumulate(k, [(1, 1, [a, b]), (1, 1, [b, a])]) == (a * b).scale(2)
    assert (a * b - _accumulate(k, [(1, 1, [a, b])])).is_zero()
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


def _weighted(factors) -> tuple:
    """The (num, den, chain) term of `_accumulate` for a list of scalars and
    rational weights: the weights' numerators and denominators multiplied,
    unreduced, and the scalars in order."""
    num, den = 1, 1
    for f in factors:
        if not isinstance(f, CkScalar):
            num, den = num * f.numerator, den * f.denominator
    return num, den, [f for f in factors if isinstance(f, CkScalar)]


def test_accumulate_matches_fraction_oracle():
    # zero, nilpotent and 400-bit factors over unequal denominators, rational
    # weights (zero among them), with and without a start, added or
    # subtracted; ck_prod_many of each term's chain against the same oracle
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
            for factors in terms:
                chain = _weighted(factors)[2]
                if chain:
                    prod = ck_prod_many(chain)
                    assert prod.coords == _oracle_sum(k, [chain])
                    _assert_canonical(prod)
            total = _accumulate(k, [_weighted(factors) for factors in terms])
            _assert_canonical(total)
            if start is not None:
                total = start - total if subtract else start + total
            elif subtract:
                total = -total
            assert total.k == k
            assert total.coords == _oracle_sum(k, terms, start, subtract)
            _assert_canonical(total)


def test_accumulate_edge_cases():
    rng = random.Random(163)
    for k in range(5):
        a, b = rand_scalar(rng, k), rand_scalar(rng, k)
        assert _accumulate(k, []) == CkScalar.zero(k)
        assert a + _accumulate(k, []) == a
        assert a - _accumulate(k, []) == a
        assert _accumulate(k, [(1, 1, [])]) == CkScalar.one(k)  # the empty product
        assert _accumulate(k, [(3, 4, [])]) == CkScalar.from_rational(k, Fraction(3, 4))
        assert a - _accumulate(k, [(1, 1, [a, b])]) == a - ck_mul(a, b)
        assert _accumulate(k, [(2, 3, [a]), (3, 1, [b])]) == a.scale(Fraction(2, 3)) + b.scale(3)
        assert _accumulate(k, [(4, 6, [a, b])]) == ck_mul(a, b).scale(Fraction(2, 3))
        assert ck_prod_many([a]) == a
        for x in (-a + _accumulate(k, [(1, 1, [a])]),
                  _accumulate(k, [(1, 1, [a, b]), (1, 1, [-a, b])]),
                  _accumulate(k, [(1, 2, [a, b]), (-2, 4, [a, b])])):
            assert x == CkScalar.zero(k)
            _assert_canonical(x)
    # a term is dropped at its zero weight or its first zero factor: no
    # factor after that one is read, so none is multiplied, on both sides
    # of the compiled cores' cutoff
    class Unread:
        @property
        def nums(self):
            raise AssertionError("a factor after a zero one was read")

        den = nums

    for k in (2, ck._RULE_MAX_K + 4):
        a, b, zero = rand_scalar(rng, k), rand_scalar(rng, k), CkScalar.zero(k)
        for chain in ([zero, a, b], [a, zero, b], [a, b, zero]):
            assert _accumulate(k, [(1, 1, chain + [Unread()])]) == zero
            assert ck_prod_many(chain) == zero
        for weight, den in ((0, 1), (0, 7)):
            assert _accumulate(k, [(weight, den, [Unread(), a, b])]) == zero
        assert _accumulate(k, [(5, 1, [a, b]), (1, 1, [a, zero, Unread()])]) == ck_mul(a, b).scale(5)


def _core_tables(rng, k: int, num_vars: int, max_len: int):
    """(kind, word table) for the dense, sparse, free, zero, nilpotent,
    prime-denominator and 400-bit tables of order k."""
    words = list(all_words(num_vars, max_len))
    zero = CkScalar.zero(k)
    yield "dense", {w: rand_scalar(rng, k) for w in words}
    yield "sparse", {w: rand_sparse_scalar(rng, k) for w in words}
    # the cumulants of a free pair: zero on every word with both variables
    yield "free", {w: rand_scalar(rng, k) if len(set(w)) == 1 else zero for w in words}
    yield "zero", {w: zero for w in words}
    yield "nilpotent", {w: CkScalar(k, (0,) + rand_scalar(rng, k).coords[1:]) for w in words}
    yield "prime", rand_prime_den_table(rng, k, num_vars, max_len)
    yield "wide", {w: rand_wide_scalar(rng, k) for w in words}


# (num_vars, max_len) per order: every num_vars from 1 to 4 and lengths up
# to 6 below the cap, shorter tables above it
_CORE_SHAPES = {0: ((1, 6), (2, 6), (4, 3)), 1: ((2, 4), (3, 3)), 2: ((2, 4), (4, 2)),
                3: ((3, 3), (1, 5)), 4: ((2, 4),), 16: ((1, 4), (2, 2)), 17: ((1, 3), (3, 2)),
                20: ((1, 3), (2, 2))}


def test_compiled_cores_match_their_plain_oracles():
    # each core compiled from its template, straight-line up to the cutoff
    # and with loops above it, against its plain loop over the generic
    # Leibniz product, on every kind of table given in random insertion
    # order, and early stops
    rng = random.Random(541)
    assert ck._RULE_MAX_K == 16  # the last straight-line order; 17 and 20 are above it
    for k, shapes in _CORE_SHAPES.items():
        for num_vars, max_len in shapes:
            _check_cores_on(rng, k, num_vars, max_len)


def _check_cores_on(rng, k: int, num_vars: int, max_len: int):
    words = list(all_words(num_vars, max_len))
    runs = []
    for kind, table in _core_tables(rng, k, num_vars, max_len):
        values = list(table.values())
        terms = [(rng.choice((0, 1, 1, -3)), rng.choice((1, 2, 6)),
                  [rng.choice(values) for _ in range(rng.randint(0, 4))]) for _ in range(12)]
        assert _accumulate(k, terms) == accumulate_oracle(k, terms), (k, kind)
        # the product-tuple core, its pairs standing for random variables,
        # over the NC(n) sums up to n = 4, which grow as Catalan(n)
        npairs, top = rng.randint(1, 2), min(max_len, 4)
        first, second = (tuple(rng.randint(1, num_vars) for _ in range(npairs)) for _ in range(2))
        kappa = [None] + [(x.den, x.nums) if any(x.nums) else None
                          for x in map(table.__getitem__, all_words(num_vars, top))]
        maps = partial(_product_tuple_maps, first, second, num_vars)
        got = list(ck._product_tuple_table(k, kappa, npairs, top, maps))
        assert got == list(product_tuple_table_oracle(k, table, first, second, top)), (k, kind)
        runs += [(kind, table, invert) for invert in (False, True)]
        # the free-product case: the table's pure words below max_len as
        # the cumulants of a random colouring, whose mixed ones vanish, and
        # only the pure moments they give, against the whole-table
        # recursion seeded with those moments; the core solves the pure
        # cumulants back from them and passes the pure moments through
        colors = tuple(rng.randint(1, 3) for _ in range(num_vars))
        pure = {w: x for w, x in table.items()
                if len(w) < max_len and len({colors[v - 1] for v in w}) == 1}
        moments = {w: x for w, x in first_block_table_oracle(k, pure, num_vars, max_len, False, {})
                   if len({colors[v - 1] for v in w}) == 1}
        got = list(ck._block_table(k, {}, moments, colors, max_len))
        assert [(w, x) for w, x, _ in got] == list(
            first_block_table_oracle(k, pure, num_vars, max_len, False, moments)), \
            (k, colors, max_len, kind)
        zero = CkScalar.zero(k)
        for w, x, c in got:
            if w in moments:
                assert x is moments[w], (k, colors, w)
            if c is not None or len(w) < max_len and w in moments:
                assert c == pure.get(w, zero), (k, colors, max_len, kind, w)
        _check_early_stop(rng, got, words, k, {}, moments, colors, max_len)
    for kind, table, invert in runs:
        # the kernel reads its inputs by position, not in the dicts' order
        table = dict(rng.sample(list(table.items()), len(table)))
        args = (k, table, num_vars, max_len, invert)
        given = ({}, table) if invert else (table, {})
        got = list(ck._block_table(k, *given, (1,) * num_vars, max_len))
        assert [w for w, _, _ in got] == words, (k, kind)
        # (word, moment, cumulant): the given entry of each word is passed
        # through, the same object, and the other one is computed
        given_at = 0 if invert else 1
        assert all(pair[given_at] is table[w] for w, *pair in got), (k, kind)
        assert [(w, pair[1 - given_at]) for w, *pair in got] == list(
            first_block_table_oracle(*args, {})), (k, num_vars, max_len, kind, invert)
        _check_early_stop(rng, got, words, k, *given, (1,) * num_vars, max_len)


def _check_early_stop(rng, got: list, words: list, k: int, cumulants: dict, moments: dict,
                      *args):
    """A consumer of the table core that stops early: no entry of a later
    word is read from either dict."""
    stop = rng.randint(1, len(got))
    log = []
    early = ck._block_table(k, ReadLog(cumulants, log), ReadLog(moments, log), *args)
    assert list(islice(early, stop)) == got[:stop]
    assert log and set(log) <= set(words[:stop]), (k, args, stop)


def _broken_at(table: dict, max_len: int) -> int:
    """The first length with a word whose entry is not its least
    rotation's, max_len if there is none."""
    return min((len(w) for w, x in table.items() if x != table[least_rotation(w)]),
               default=max_len)


def test_table_core_copies_a_tracial_tables_rotations():
    # one random scalar per rotation class, given as cumulants and as
    # moments, whole and broken at one word of length 2, 3 or max_len, a
    # least rotation or not: the outputs against the plain recursion, a
    # copy the same object as its least rotation's output, while every
    # summed word builds its own; early stops read no later entry
    rng = random.Random(613)
    for k in range(4):
        for num_vars, max_len in ((2, 6), (3, 4)):
            words = list(all_words(num_vars, max_len))
            table = tracial_table(rng, k, num_vars, max_len)
            tables = [table]
            for n in (2, 3, max_len):
                rotated = [w for w in words if len(w) == n and len(set(w)) > 1]
                for least in (True, False):
                    w0 = rng.choice([w for w in rotated if (w == least_rotation(w)) == least])
                    bad = dict(table)
                    bad[w0] = bad[w0] + CkScalar.one(k)
                    tables.append(bad)
            for given in tables:
                broken = _broken_at(given, max_len)
                for invert in (False, True):
                    args = ({}, given) if invert else (given, {})
                    got = list(ck._block_table(k, *args, (1,) * num_vars, max_len))
                    out = {w: pair[1 if invert else 0] for w, *pair in got}
                    where = (k, num_vars, broken, invert)
                    assert list(out.items()) == list(first_block_table_oracle(
                        k, given, num_vars, max_len, invert, {})), where
                    copied = {w for w in words if w != least_rotation(w) and len(w) <= broken
                              and given[w] == given[least_rotation(w)]}
                    assert all(out[w] is out[least_rotation(w)] for w in copied), where
                    summed = [out[w] for w in words if w not in copied and not out[w].is_zero()]
                    assert len(set(map(id, summed))) == len(summed), where
                    _check_early_stop(rng, got, words, k, *args, (1,) * num_vars, max_len)


_POWER_ORDERS = (0, 1, 2, 3, 16, 17, 20)


def _power_inputs(rng, k: int, trunc: int):
    """Series of order k: general, with a zero and with a nilpotent lead,
    sparse, and with 200-bit coefficients."""
    yield rand_series(rng, k, trunc)
    for lead in (CkScalar.zero(k), CkScalar(k, (0,) + rand_scalar(rng, k).coords[1:])):
        yield CkSeries(k, trunc, [lead] + list(rand_series(rng, k, trunc).coeffs[1:]))
    yield CkSeries(k, trunc, [rand_sparse_scalar(rng, k) for _ in range(trunc)])
    wide = [Fraction(rng.getrandbits(200) * rng.choice((-1, 1)), rng.getrandbits(200) + 1)
            for _ in range(trunc * (k + 1))]
    yield CkSeries(k, trunc, [CkScalar(k, wide[i * (k + 1):(i + 1) * (k + 1)])
                              for i in range(trunc)])


def test_power_chain_core_matches_repeated_products():
    # every row [z^m]f^a of one compiled call against repeated plain Cauchy
    # products, on both sides of the cutoff, each entry reduced
    rng = random.Random(547)
    for k in _POWER_ORDERS:
        for trunc in range(1, 10 if k < 16 else 6):
            for f in _power_inputs(rng, k, trunc):
                for n in {1, trunc}:
                    rows = ck._powers(f, n)
                    assert rows == power_rows_oracle(f, n), (k, trunc, n)
                    for den, nums in filter(None, (e for row in rows for e in row)):
                        assert den > 0 and gcd(den, *nums) == 1 and type(nums) is tuple
    # the boxed sums over the rows, against the boxed sum of series
    # products from plain Cauchy powers
    for k in _POWER_ORDERS:
        for trunc in (1, 2, 5) if k < 16 else (1, 3):
            fs, gs = list(_power_inputs(rng, k, trunc)), list(_power_inputs(rng, k, trunc))
            for f, g in zip(fs, gs):
                got = boxed_conv_ck(f, g)
                assert got == nc_boxed_conv_oracle(f, g), (k, trunc)


def _rule_inputs(rng, k: int):
    """Signed small, zero, one-hot, sparse and wide scalars of order k."""
    yield rand_scalar(rng, k)
    yield CkScalar.zero(k)
    hot = rng.randrange(k + 1)
    yield CkScalar(k, [rand_fraction(rng) if i == hot else 0 for i in range(k + 1)])
    yield CkScalar(k, [rand_fraction(rng) if rng.random() < 0.3 else 0 for _ in range(k + 1)])
    yield rand_sparse_scalar(rng, k)
    for _ in range(3):
        yield rand_wide_scalar(rng, k)


def test_leibniz_rule_matches_fraction_oracle():
    # both sides of the compiled rule's cutoff, k = 0..20
    rng = random.Random(509)
    assert ck._RULE_MAX_K < 20
    for k in range(21):
        rule = ck._leibniz_rule(k)
        xs = list(_rule_inputs(rng, k))
        for a in xs:
            for b in xs:
                got = rule(a.nums, b.nums)
                assert type(got) is tuple and len(got) == k + 1
                assert all(type(n) is int for n in got)
                den = a.den * b.den
                assert tuple(Fraction(n, den) for n in got) == fraction_ck_mul_oracle(a, b)
        assert (ck._leibniz_rule(k) is rule) == (k <= ck._RULE_MAX_K)
    assert {order for name, order in ck._CORES if name == "leibniz"} <= set(range(ck._RULE_MAX_K + 1))


def test_prod_many_checks_every_factor():
    # the one public product of caller scalars checks the type and order of
    # every factor, a zero one included, before anything is multiplied
    one1, one2, zero1 = CkScalar.one(1), CkScalar.one(2), CkScalar.zero(1)
    for factors in (
        [one1, one2],
        [zero1, one2],  # after a zero factor, still checked
        [one2, zero1],
        [zero1, one1, one2],
    ):
        with pytest.raises(ValueError, match="order mismatch"):
            ck_prod_many(factors)
    # rationals are weights of `_accumulate` terms, not factors of a product
    for bad in (0.5, "1/2", None, 2, Fraction(1, 2)):
        for factors in ([one1, bad], [bad, one1], [zero1, one1, bad]):
            with pytest.raises(TypeError, match="expected a C_k scalar"):
                ck_prod_many(factors)
    with pytest.raises(ValueError, match="empty"):
        ck_prod_many([])


def _invertible_inputs(rng, k: int):
    """Signed small, wide, one-hot and zero-tail scalars of order k, each
    with a nonzero first coordinate."""
    def lead():
        return rng.choice((-1, 1)) * Fraction(rng.randint(1, 9), rng.randint(1, 4))

    yield CkScalar(k, [lead()] + [rand_fraction(rng) for _ in range(k)])
    wide = rand_wide_scalar(rng, k).coords
    yield CkScalar(k, [lead() * (2**300 + rng.getrandbits(300))] + list(wide[1:]))
    hot = rng.randint(1, k) if k else 0
    yield CkScalar(k, [lead()] + [(rand_fraction(rng) or 1) if i == hot else 0 for i in range(1, k + 1)])
    yield CkScalar(k, [lead()] + [0] * k)
    yield CkScalar(k, [Fraction(-1, 3)] + [rand_wide_fraction(rng) for _ in range(k)])


def test_ck_inverse_matches_fraction_oracle():
    # Newton's iteration against integer and Fraction back-substitution,
    # on both sides of the compiled rule's cutoff, k = 0..20
    rng = random.Random(521)
    assert ck._RULE_MAX_K < 20
    for k in range(21):
        one = CkScalar.one(k)
        for a in _invertible_inputs(rng, k):
            inv = ck_inverse(a)
            expected = back_substitution_inverse_oracle(a)
            assert (inv.den, inv.nums) == (expected.den, expected.nums)
            assert inv.coords == fraction_ck_inverse_oracle(a)
            if k <= 8:
                assert ck_mul(a, inv) == one


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
                for lam in compositions(n, i):
                    term = Fraction(multinomial(i, lam))
                    for j in range(n):
                        term *= factors[j].coords[lam[j]]
                    total += term
                assert prod.coords[i] == total


def test_lambda_vectors():
    for n, total in [(1, 3), (3, 2), (4, 0), (2, 4)]:
        vecs = list(compositions(n, total))
        assert len(vecs) == comb(n + total - 1, total)
        assert len(set(vecs)) == len(vecs)
        assert all(len(v) == n and sum(v) == total for v in vecs)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(0, 1)) == []


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


_SPARSE_COORDS = st.one_of(st.just(Fraction(0)),
                          st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def _unit_lead_series(draw):
    """A series of order k <= 3 and trunc <= 6 with zero constant term: its
    lead a unit of C_k, each later coefficient zero, nilpotent or general,
    every coordinate zero or a small rational."""
    k = draw(st.integers(0, 3))
    trunc = draw(st.integers(1, 6))
    coords = st.lists(_SPARSE_COORDS, min_size=k, max_size=k)
    unit = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 6))
    lead = CkScalar(k, (draw(unit), *draw(coords)))
    later = st.one_of(st.just(CkScalar.zero(k)),
                      coords.map(lambda c: CkScalar(k, (0, *c))),
                      st.tuples(_SPARSE_COORDS, coords).map(lambda c: CkScalar(k, (c[0], *c[1]))))
    return CkSeries(k, trunc, [lead, *draw(st.lists(later, min_size=trunc - 1, max_size=trunc - 1))])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_unit_lead_series())
def test_composition_inverse_property(f):
    # the compositional inverse is a two-sided inverse for composition, and
    # equals the degree-by-degree solve of f(g(z)) = z
    k, trunc = f.k, f.trunc
    identity = CkSeries(k, trunc, [CkScalar.one(k)] + [CkScalar.zero(k)] * (trunc - 1))
    g = series_comp_inverse(f)
    assert series_compose(f, g) == identity == series_compose(g, f)
    assert g == per_degree_comp_inverse_oracle(f)


def test_comp_inverse_reads_one_power_chain(monkeypatch):
    # one call of the power-chain core at trunc 12, and no series product,
    # where composing the partial inverse at every degree took 66
    rng = random.Random(241)
    f = rand_series(rng, 2, 12, invertible=True)
    expected = per_degree_comp_inverse_oracle(f)
    calls = []
    real_powers = ck._powers

    def counted(*args):
        calls.append(args)
        return real_powers(*args)

    def refused(a, b):
        raise AssertionError("the inverse multiplied two series")

    monkeypatch.setattr(ck, "_powers", counted)
    monkeypatch.setattr(ck, "series_mul", refused)
    assert series_comp_inverse(f) == expected
    assert calls == [(f, 12)]


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
    assert f.truncate(3) == f
    for trunc in (0, 4):
        with pytest.raises(ValueError):
            f.truncate(trunc)


def test_scalar_validation():
    with pytest.raises(ValueError):
        CkScalar(1, (1,))
    with pytest.raises(TypeError):
        CkScalar(0, (0.5,))
    with pytest.raises(ValueError):
        CkScalar.eps(0)
