"""Moment-cumulant transforms over C_k and their componentwise forms."""
from fractions import Fraction
from itertools import islice
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from infree.ck import CkScalar, _block_table, ck_mul, ck_prod_many
from infree.cumulants import (
    CumulantTable,
    InfLaw,
    all_words,
    cumulant_of_products,
    cumulants_to_moments,
    kappa_pi,
    moments_to_cumulants,
)
from infree.partitions import NcPartition, SetPartition, enumerate_nc, partition_join

from helpers import (
    assemble_components,
    first_block_c2m_oracle,
    first_block_m2c_oracle,
    first_block_m2c_shortlex,
    fraction_ck_mul_oracle,
    infinitesimal_component,
    interval_partition,
    kreweras_list,
    kappa_component_oracle,
    nc_c2m_oracle,
    nc_m2c_oracle,
    nc_star_moment_oracle,
    phi_component_oracle,
    rand_cumulants,
    rand_law,
    rand_prime_den_table,
    rand_scalar,
    rand_sparse_scalar,
    rand_wide_scalar,
    restrict,
)


def test_all_words_shortlex():
    ws = list(all_words(2, 2))
    assert ws == [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(all_words(3, 1)) == [(1,), (2,), (3,)]


def test_restrict():
    assert restrict((5, 6, 7, 8), (1, 3)) == (5, 7)
    assert restrict((5, 6, 7), (2,)) == (6,)


def test_table_validation():
    one_entry = {(1,): CkScalar(0, [Fraction(1)])}
    law = InfLaw(0, 1, 1, one_entry)
    assert law.moment(()) == CkScalar.one(0)
    with pytest.raises(ValueError):
        InfLaw(0, 1, 2, one_entry)  # word (1,1) missing
    with pytest.raises(ValueError):
        InfLaw(1, 1, 1, one_entry)  # entry has order 0, table has order 1
    bad = dict(one_entry)
    bad[(1, 1)] = CkScalar(0, [Fraction(1)])
    with pytest.raises(ValueError):
        InfLaw(0, 1, 1, bad)  # extra key beyond max_len
    # the words are counted against the entries before any is listed
    for num_vars, max_len in ((10**30, 2), (1, 10**30), (2, 3)):
        with pytest.raises(ValueError, match="1 entries cannot cover"):
            InfLaw(0, num_vars, max_len, one_entry)


def test_length_one_and_two_formulas():
    rng = random.Random(11)
    c = rand_cumulants(rng, k=1, num_vars=2, max_len=2)
    m = cumulants_to_moments(c)
    for v in (1, 2):
        assert m.moment((v,)) == c.cumulant((v,))
    for w in [(1, 2), (2, 1), (1, 1)]:
        expected = c.cumulant(w) + ck_mul(c.cumulant((w[0],)), c.cumulant((w[1],)))
        assert m.moment(w) == expected
    back = moments_to_cumulants(m)
    for w in [(1, 2), (2, 2)]:
        expected = m.moment(w) - ck_mul(m.moment((w[0],)), m.moment((w[1],)))
        assert back.cumulant(w) == expected


def test_semicircular_moments():
    values = {}
    for w in all_words(1, 6):
        c = Fraction(1) if len(w) == 2 else Fraction(0)
        values[w] = CkScalar(0, [c])
    m = cumulants_to_moments(CumulantTable(0, 1, 6, values))
    got = [m.moment((1,) * n).coords[0] for n in range(1, 7)]
    assert got == [0, 1, 0, 2, 0, 5]


def test_round_trip():
    rng = random.Random(7)
    for k in range(3):
        for _ in range(4):
            c = rand_cumulants(rng, k=k, num_vars=2, max_len=4)
            assert moments_to_cumulants(cumulants_to_moments(c)) == c
            law = rand_law(rng, k=k, num_vars=1, max_len=4)
            assert cumulants_to_moments(moments_to_cumulants(law)) == law
    c = rand_cumulants(random.Random(8), k=1, num_vars=1, max_len=6)
    assert moments_to_cumulants(cumulants_to_moments(c)) == c


def test_first_block_kernels_match_nc_sum_oracles():
    # both directions against the word-by-word first-block sums and the NC
    # sums, at k = 0 to 4, on four kinds of table: sparse entries (zero,
    # nilpotent, general), 400-bit entries, entries over distinct 31- to
    # 61-bit prime denominators, and free-product cumulants, whose every
    # mixed entry is zero, so that the cumulant-first skip drops most blocks
    rng = random.Random(37)

    def check(k, num_vars, max_len, values):
        c = CumulantTable(k, num_vars, max_len, values)
        moments = cumulants_to_moments(c)
        assert moments == first_block_c2m_oracle(c) == nc_c2m_oracle(c), (k, num_vars)
        law = InfLaw(k, num_vars, max_len, values)
        cumulants = moments_to_cumulants(law)
        assert cumulants == first_block_m2c_oracle(law) == nc_m2c_oracle(law), (k, num_vars)
        return c, moments

    for k in range(5):
        for num_vars, max_len in ((1, 5), (2, 5), (3, 4)):
            check(k, num_vars, max_len,
                  {w: rand_sparse_scalar(rng, k) for w in all_words(num_vars, max_len)})
    for k in (1, 3):
        check(k, 2, 4, {w: rand_wide_scalar(rng, k) for w in all_words(2, 4)})
    for k, num_vars, max_len in ((0, 2, 4), (2, 2, 4), (4, 1, 5)):
        check(k, num_vars, max_len, rand_prime_den_table(rng, k, num_vars, max_len))
    for k, colors, max_len in ((0, (1, 2), 5), (3, (1, 2), 5), (2, (1, 2, 1), 4),
                               (3, (1, 2, 3), 4), (4, (1, 2), 4)):
        values = {
            w: rand_sparse_scalar(rng, k) if len({colors[v - 1] for v in w}) == 1
            else CkScalar.zero(k)
            for w in all_words(len(colors), max_len)
        }
        c, moments = check(k, len(colors), max_len, values)
        # the moments of a free product give back its cumulants, the mixed
        # ones exactly zero
        assert moments_to_cumulants(moments) == nc_m2c_oracle(moments) == c
        # perturb the middle mixed word of length 3: the cumulants computed
        # shortlex up to the first nonzero mixed one are those of the
        # word-by-word route
        mixed = [w for w in all_words(len(colors), 3)
                 if len(w) == 3 and len({colors[v - 1] for v in w}) > 1]
        w0 = mixed[len(mixed) // 2]
        values = dict(moments.values)
        values[w0] += CkScalar.one(k)
        bad = InfLaw(k, len(colors), max_len, values)
        prefix = []
        for w, _, x in _block_table(k, {}, bad.values, (1,) * len(colors), max_len):
            prefix.append((w, x))
            if not x.is_zero() and len({colors[v - 1] for v in w}) > 1:
                break
        assert prefix[-1][0] == w0
        assert prefix == list(islice(first_block_m2c_shortlex(bad, max_len), len(prefix)))


_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=4)


@st.composite
def _word_values(draw):
    k = draw(st.integers(0, 2))
    num_vars = draw(st.integers(1, 2))
    max_len = draw(st.integers(1, 4))
    coords = st.lists(_rationals, min_size=k + 1, max_size=k + 1)
    values = {w: CkScalar(k, draw(coords)) for w in all_words(num_vars, max_len)}
    return k, num_vars, max_len, values


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_word_values())
def test_round_trips_property(table):
    c = CumulantTable(*table)
    assert moments_to_cumulants(cumulants_to_moments(c)) == c
    law = InfLaw(*table)
    assert cumulants_to_moments(moments_to_cumulants(law)) == law


def test_unit_law_cumulants_vanish():
    k = 2
    values = {w: CkScalar.one(k) for w in all_words(1, 5)}
    c = moments_to_cumulants(InfLaw(k, 1, 5, values))
    assert c.cumulant((1,)) == CkScalar.one(k)
    for n in range(2, 6):
        assert c.cumulant((1,) * n) == CkScalar.zero(k)


def test_unit_variable_insertion_kills_cumulants():
    # variable 2 acts as the unit: dropping it never changes a moment
    rng = random.Random(3)
    base = rand_law(rng, k=1, num_vars=1, max_len=4)
    values = {}
    for w in all_words(2, 4):
        stripped = tuple(x for x in w if x == 1)
        values[w] = base.moment(stripped)
    c = moments_to_cumulants(InfLaw(1, 2, 4, values))
    for w in all_words(2, 4):
        if len(w) >= 2 and 2 in w:
            assert c.cumulant(w) == CkScalar.zero(1), w


def test_kappa_pi():
    rng = random.Random(5)
    c = rand_cumulants(rng, k=1, num_vars=2, max_len=3)
    w = (1, 2, 1)
    assert kappa_pi(c, NcPartition(3, [[1, 2, 3]]), w) == c.cumulant(w)
    singles = kappa_pi(c, NcPartition(3, [[1], [2], [3]]), w)
    assert singles == ck_prod_many([c.cumulant((x,)) for x in w])
    nested = kappa_pi(c, NcPartition(3, [[1, 3], [2]]), w)
    assert nested == ck_mul(c.cumulant((1, 1)), c.cumulant((2,)))
    with pytest.raises(ValueError):
        kappa_pi(c, NcPartition(2, [[1], [2]]), w)


def test_interval_partition():
    assert interval_partition((2, 3), 3) == SetPartition(3, [[1, 2], [3]])
    assert interval_partition((1, 2, 3), 3) == SetPartition(3, [[1], [2], [3]])
    with pytest.raises(ValueError):
        interval_partition((2, 2), 2)
    with pytest.raises(ValueError):
        interval_partition((2,), 3)


def test_cumulant_of_products():
    rng = random.Random(13)
    c = rand_cumulants(rng, k=1, num_vars=3, max_len=3)
    w = (1, 2, 3)
    # trivial grouping changes nothing
    assert cumulant_of_products(c, (1, 2, 3), w) == c.cumulant(w)
    # one product of two letters: both partitions of [2] survive
    got = cumulant_of_products(c, (2,), (1, 2))
    expected = c.cumulant((1, 2)) + ck_mul(c.cumulant((1,)), c.cumulant((2,)))
    assert got == expected
    assert got == cumulants_to_moments(c).moment((1, 2))
    # kappa_2(ab, c)
    got = cumulant_of_products(c, (2, 3), w)
    expected = (
        c.cumulant(w)
        + ck_mul(c.cumulant((1,)), c.cumulant((2, 3)))
        + ck_mul(c.cumulant((1, 3)), c.cumulant((2,)))
    )
    assert got == expected
    for grouping, message in (
        ((2, 2), r"^grouping must be strictly increasing and end at 3: \(2, 2\)$"),
        ((2,), r"^grouping must be strictly increasing and end at 3: \(2,\)$"),
        ((), r"^grouping must be strictly increasing and end at 3: \(\)$"),
        ((0, 3), "^grouping entries must be >= 1$"),
    ):
        with pytest.raises(ValueError, match=message):
            cumulant_of_products(c, grouping, w)


def test_a_word_outside_the_table_is_a_value_error():
    # a word longer than the table or with a letter above num_vars is
    # refused by name, with the table's shape, through every reader
    rng = random.Random(17)
    c = rand_cumulants(rng, k=1, num_vars=2, max_len=2)
    law = rand_law(rng, k=1, num_vars=2, max_len=2)
    shape = r"outside the table of the words over 2 variable\(s\) up to length 2$"
    for read, word in (
        (lambda: cumulant_of_products(c, (2, 3), (1, 2, 1)), (1, 2, 1)),
        (lambda: kappa_pi(c, NcPartition(3, [[1, 2, 3]]), (1, 1, 2)), (1, 1, 2)),
        (lambda: c.cumulant((3,)), (3,)),
        (lambda: law.moment((1, 3)), (1, 3)),
        (lambda: c.value((2, 2, 2)), (2, 2, 2)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"word {word} is ") + shape):
            read()


def test_connected_pi_are_those_whose_complement_splits_the_group_ends():
    # cumulant_of_products keeps pi when no block of Kr(pi) holds two group
    # ends; that is pi joined with the interval partition being the one-block
    # partition, for every pi and grouping up to s = 7 (32,489 pairs)
    pairs = 0
    for s in range(1, 8):
        top = SetPartition(s, [range(1, s + 1)])
        for mask in range(2 ** (s - 1)):
            grouping = tuple(i for i in range(1, s) if mask >> (i - 1) & 1) + (s,)
            theta = interval_partition(grouping, s)
            for pi, kr in kreweras_list(s):
                split = all(len(set(grouping) & set(b)) < 2 for b in kr.blocks)
                assert split == (partition_join(pi, theta) == top), (pi, grouping)
                pairs += 1
    assert pairs == 32489


def test_block_products_match_fraction_folds():
    # kappa_pi and cumulant_of_products against products folded on Fraction
    # coordinates and summed with Fraction addition, on a sparse k = 2 table
    rng = random.Random(173)
    k = 2
    c = CumulantTable(k, 2, 4, {w: rand_sparse_scalar(rng, k) for w in all_words(2, 4)})

    def folded(pi, w):
        prod = CkScalar.one(k)
        for b in pi.blocks:
            prod = CkScalar(k, fraction_ck_mul_oracle(prod, c.cumulant(restrict(w, b))))
        return prod.coords

    for w in all_words(2, 4):
        s = len(w)
        products = {pi: folded(pi, w) for pi in enumerate_nc(s)}
        for pi, coords in products.items():
            assert kappa_pi(c, pi, w).coords == coords
        top = SetPartition(s, [range(1, s + 1)])
        for mask in range(2 ** (s - 1)):
            grouping = tuple(i for i in range(1, s) if mask >> (i - 1) & 1) + (s,)
            theta = interval_partition(grouping, s)
            expected = [Fraction(0)] * (k + 1)
            for pi, coords in products.items():
                if partition_join(pi, theta) == top:
                    expected = [e + x for e, x in zip(expected, coords)]
            assert cumulant_of_products(c, grouping, w).coords == tuple(expected), (w, grouping)


def test_infinitesimal_component_scalar_and_table():
    a = CkScalar(2, [Fraction(3), Fraction(1, 2), Fraction(-4)])
    assert infinitesimal_component(a, 0) == Fraction(3)
    assert infinitesimal_component(a, 2) == Fraction(-4)
    with pytest.raises(ValueError):
        infinitesimal_component(a, 3)
    assert assemble_components(2, [Fraction(3), Fraction(1, 2), Fraction(-4)]) == a

    rng = random.Random(17)
    c = rand_cumulants(rng, k=2, num_vars=1, max_len=3)
    comp = infinitesimal_component(c, 1)
    for w in all_words(1, 3):
        assert comp[w] == c.cumulant(w).coords[1]


def test_componentwise_moment_formula():
    # each component of a moment expands over partitions and weight splittings
    rng = random.Random(23)
    for k in range(3):
        c = rand_cumulants(rng, k=k, num_vars=2, max_len=5)
        m = cumulants_to_moments(c)
        for w in all_words(2, 5):
            if len(w) > 5:
                continue
            for i in range(k + 1):
                assert m.moment(w).coords[i] == phi_component_oracle(c, w, i)


def test_componentwise_cumulant_formula():
    rng = random.Random(29)
    for k in range(3):
        law = rand_law(rng, k=k, num_vars=1, max_len=5)
        c = moments_to_cumulants(law)
        for w in all_words(1, 5):
            for i in range(k + 1):
                assert c.cumulant(w).coords[i] == kappa_component_oracle(law, w, i)


def test_star_rewrite_of_moment_formula():
    rng = random.Random(31)
    c = rand_cumulants(rng, k=2, num_vars=2, max_len=4)
    m = cumulants_to_moments(c)
    for w in all_words(2, 4):
        for i in range(3):
            assert m.moment(w).coords[i] == nc_star_moment_oracle(c, w, i), (w, i)
