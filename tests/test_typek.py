"""Type-k non-crossing partitions: membership, fibers, shapes, r counts."""
import pytest

from infree.partitions import (
    NcPartition,
    SetPartition,
    biane_permutation,
    enumerate_nc,
    is_noncrossing,
    kreweras,
    ordered_blocks,
)
from infree.typek import (
    TypeKPartition,
    enumerate_type_k,
    enumerate_type_k_star,
    fiber_over,
    fiber_size_formula,
    is_star,
    is_type_k,
    r_of_shape,
    reduce_mod,
    reduction_partition,
    residue,
)

from helpers import (
    compositions,
    is_star_oracle,
    nc_meet,
    shape_counts_oracle,
    star_shape,
    type_k_filter_oracle,
)


def nc(n, *blocks):
    return NcPartition(n, blocks)


SMALL = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]  # (k, n)


def test_reduce_mod_examples():
    p = nc(3, [1, 2], [3])
    assert reduce_mod(p, 3, 0) == p.blocks  # k=0 is the identity
    assert reduce_mod(nc(6, [1, 2, 3], [4, 5, 6]), 2, 2) == ((1, 2),)
    crossing = SetPartition(6, [[1, 4], [2, 5], [3, 6]])
    assert reduce_mod(crossing, 3, 1) == ((1,), (2,), (3,))
    with pytest.raises(ValueError):
        reduce_mod(nc(4, [1, 2], [3, 4]), 3, 1)


def test_reduction_partition():
    # both blocks land on {1,2}; the image is a partition, and membership
    # fails on the complement side instead
    p = nc(6, [1, 2, 3], [4, 5, 6])
    assert reduction_partition(p, 2, 2) == nc(2, [1, 2])
    assert reduction_partition(kreweras(p), 2, 2) is None
    assert reduction_partition(nc(4, [1, 3], [2], [4]), 2, 1) == nc(2, [1], [2])
    assert reduction_partition(nc(4, [1, 2, 3, 4]), 2, 1) == nc(2, [1, 2])


def test_is_type_k_examples():
    assert not is_type_k(nc(6, [1, 2, 3], [4, 5, 6]), 2, 2)
    for p in enumerate_nc(4):
        assert is_type_k(p, 4, 0)
    assert is_type_k(nc(4, [1, 3], [2], [4]), 2, 1)
    with pytest.raises(ValueError):
        is_type_k(nc(4, [1, 2], [3, 4]), 4, 1)


def charac_form(p, n, k):
    """Single-condition membership: the reduction of p united with its
    complement is a non-crossing partition of the interleaved doubled [n]."""
    images = {tuple(sorted({2 * residue(x, n) - 1 for x in b})) for b in p.blocks}
    images |= {tuple(sorted({2 * residue(x, n) for x in b})) for b in kreweras(p).blocks}
    flat = sorted(x for b in images for x in b)
    return flat == list(range(1, 2 * n + 1)) and is_noncrossing(images)


def test_single_condition_membership():
    for k, n in SMALL + [(1, 4), (2, 3), (3, 2)]:
        for p in enumerate_nc((k + 1) * n):
            assert charac_form(p, n, k) == is_type_k(p, n, k), (k, n, p.blocks)


def test_enumeration_counts():
    assert len(enumerate_type_k(1, 2)) == 5
    assert len(enumerate_type_k(2, 1)) == 6
    assert len(enumerate_type_k(2, 2)) == 24
    with pytest.raises(ValueError):
        enumerate_type_k(0, 1)


def test_enumeration_matches_filter_oracle():
    for k, n in SMALL:
        got = {tk.partition for tk in enumerate_type_k(n, k)}
        assert got == type_k_filter_oracle(n, k), (k, n)
        assert len(got) == len(enumerate_type_k(n, k))  # no duplicates


def test_fiber_uniformity_small():
    for k, n in SMALL:
        expected = fiber_size_formula(n, k)
        for p in enumerate_nc(n):
            fiber = fiber_over(p, k)
            assert len(fiber) == expected, (k, n, p.blocks)
            assert all(tk.reduction == p for tk in fiber)


def test_kreweras_closure_and_commutation():
    for k, n in SMALL:
        for tk in enumerate_type_k(n, k):
            kr = kreweras(tk.partition)
            assert is_type_k(kr, n, k)
            assert kreweras(tk.reduction) == reduction_partition(kr, n, k)


def test_biane_walk_characterization():
    # membership is equivalent to the successor walk commuting with reduction
    for k, n in [(1, 1), (1, 2), (2, 1), (1, 3)]:
        m = (k + 1) * n
        for p in enumerate_nc(m):
            red = reduction_partition(p, n, k)
            if red is None:
                continue
            t_up = biane_permutation(p)
            t_dn = biane_permutation(red)
            commutes = all(
                residue(t_up[x], n) == t_dn[residue(x, n)] for x in range(1, m + 1)
            )
            assert commutes == is_type_k(p, n, k), (k, n, p.blocks)


def test_multiplicity_divisibility():
    for k, n in SMALL:
        for tk in enumerate_type_k(n, k):
            for part in (tk.partition, kreweras(tk.partition)):
                for b in part.blocks:
                    red = {residue(x, n) for x in b}
                    assert len(b) % len(red) == 0
                    mult = len(b) // len(red)
                    assert 1 <= mult <= k + 1


def test_shape_examples():
    for p in enumerate_nc(3):
        assert TypeKPartition(p, 3, 0).shape == (0, 0, 0, 0)
    tk = TypeKPartition(nc(4, [1, 3], [2], [4]), 2, 1)
    assert tk.shape == (1, 0, 0)
    assert type(tk.shape) is tuple
    for k, n in SMALL:
        for tk in enumerate_type_k(n, k):
            assert type(tk.shape) is tuple and all(type(e) is int for e in tk.shape)
            assert sum(tk.shape) == k
            assert len(tk.shape) == n + 1


def test_fiber_elements_match_validating_constructor():
    # fiber elements skip the membership test; the public constructor, which
    # runs it, is the oracle for their partition, reduction and shape
    for k, n in SMALL:
        for tk in enumerate_type_k(n, k):
            checked = TypeKPartition(tk.partition, n, k)
            assert checked == tk
            assert checked.reduction == tk.reduction
            assert checked.reduction.blocks == tk.reduction.blocks
            assert checked.shape == tk.shape
            assert tk.partition.blocks == NcPartition(tk.partition.n, tk.partition.blocks).blocks


def test_constructor_rejects_non_members():
    with pytest.raises(ValueError):
        TypeKPartition(nc(6, [1, 2, 3], [4, 5, 6]), 2, 2)


def test_r_known_values():
    for n in range(1, 4):
        assert r_of_shape((0,) * (n + 1), n, 0) == 1
    for n in range(1, 4):
        for i in range(n + 1):
            e_i = tuple(1 if j == i else 0 for j in range(n + 1))
            assert r_of_shape(e_i, n, 1) == 1
    for n in range(1, 3):
        for i in range(n + 1):
            v = tuple(2 if j == i else 0 for j in range(n + 1))
            assert r_of_shape(v, n, 2) == 1
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                v = tuple(1 if t in (i, j) else 0 for t in range(n + 1))
                assert r_of_shape(v, n, 2) == 3


def test_r_matches_fiber_enumeration():
    # the product formula against counting the fiber over every p in NC(n),
    # for every shape: 2,450 (lam, p) pairs, k beyond criterion 4's k <= 2
    pairs = 0
    for n, top_k in ((1, 6), (2, 5), (3, 4), (4, 3), (5, 2)):
        for k in range(top_k + 1):
            for p in enumerate_nc(n):
                counts = shape_counts_oracle(p, k)
                for lam in compositions(n + 1, k):
                    assert r_of_shape(lam, n, k) == counts.get(lam, 0), (n, k, p, lam)
                    pairs += 1
    assert pairs == 2450


def test_r_sums_to_fiber_size():
    # r enumerates no fiber, so it answers at (k, n) = (6, 12) too, where
    # no fiber could be enumerated in time
    built = fiber_over.cache_info().misses
    for k, n in SMALL + [(6, 12)]:
        total = sum(
            r_of_shape(lam, n, k) for lam in compositions(n + 1, k)
        )
        assert total == fiber_size_formula(n, k)
    assert fiber_over.cache_info().misses == built


def test_r_rejects_bad_shape():
    # r_of_shape is where a caller's shape enters, so it makes every check
    refusal = "shape must have n\\+1 = 3 non-negative entries summing to k = 2"
    for lam in ((1, 1), (1, 1, 0, 0),  # wrong length
                (3, -1, 0),  # a negative entry
                (1, 0, 0)):  # wrong sum
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            r_of_shape(lam, 2, 2)
    for lam in ((1.0, 1, 0), (2.5, -0.5, 0)):  # floats, even integral ones
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            r_of_shape(lam, 2, 2)
    assert r_of_shape([1, 1, 0], 2, 2) == r_of_shape((1, 1, 0), 2, 2) == 3  # any sequence
    for n, lam in ((0, (1,)), (-1, ())):
        with pytest.raises(ValueError, match="n >= 1"):
            r_of_shape(lam, n, sum(lam))  # empty ground set


def test_star_examples():
    for n in range(1, 5):
        stars = enumerate_type_k_star(n, 0)
        assert len(stars) == len(enumerate_nc(n))
    stars = enumerate_type_k_star(1, 1)
    assert len(stars) == 1
    assert stars[0].partition == nc(2, [1, 2])
    assert star_shape(stars[0]) == (1,)


def test_is_star_matches_kreweras_oracle():
    # the barred entries of the shape vanish exactly when every block of the
    # Kreweras complement is simple, on all 7,999 elements with n <= 5 and
    # k <= 3 but (n, k) = (5, 3); both answers occur
    seen = set()
    for k in range(4):
        for n in range(1, 6 if k < 3 else 5):
            for tk in enumerate_type_k(n, k):
                assert is_star(tk) == is_star_oracle(tk)
                seen.add(is_star(tk))
    assert seen == {False, True}


def test_star_shape_is_unbarred_restriction():
    for k, n in SMALL:
        for tk in enumerate_type_k_star(n, k):
            assert is_star(tk)
            mix_list, _ = ordered_blocks(tk.reduction)
            full = dict(zip(mix_list, tk.shape))
            # barred entries all vanish on star elements
            assert all(v == 0 for blk, v in full.items() if blk[0][1])
            restricted = star_shape(tk)
            assert len(restricted) == tk.reduction.num_blocks()
            assert sum(restricted) == k


def test_star_double_count():
    # |NC*| decomposes as a sum of r values over reductions and star shapes
    for k, n in SMALL:
        total = 0
        for p in enumerate_nc(n):
            mix_list, _ = ordered_blocks(p)
            unbarred = [i for i, blk in enumerate(mix_list) if not blk[0][1]]
            for lam in compositions(len(unbarred), k):
                padded = [0] * (n + 1)
                for pos, v in zip(unbarred, lam):
                    padded[pos] = v
                total += r_of_shape(padded, n, k)
        assert total == len(enumerate_type_k_star(n, k)), (k, n)


def test_meet_witness_fails_membership():
    # NC^(2)(2) is not closed under the ambient NC(6) meet
    a = nc(6, [2, 3, 4, 5], [1, 6])
    b = nc(6, [1, 2], [3, 4, 5, 6])
    assert is_type_k(a, 2, 2) and is_type_k(b, 2, 2)
    met = nc_meet(a, b)
    assert met == nc(6, [1], [2], [3, 4, 5], [6])
    assert not is_type_k(met, 2, 2)


def test_type_1_equals_inversion_invariant():
    # under 1<...<n<-1<...<-n, inversion is the half-turn x -> x+n mod 2n
    for n in range(1, 6):
        def invert(p, n=n):
            mapped = [
                sorted((x + n - 1) % (2 * n) + 1 for x in b) for b in p.blocks
            ]
            return NcPartition(2 * n, mapped)

        invariant = {
            p for p in enumerate_nc(2 * n) if invert(p) == p
        }
        typed = {tk.partition for tk in enumerate_type_k(n, 1)}
        assert typed == invariant
