"""Non-crossing partitions: enumeration, Kreweras, orders, Mobius."""
import pytest

from infree.partitions import (
    NcPartition,
    SetPartition,
    biane_permutation,
    catalan,
    enumerate_nc,
    is_noncrossing,
    kreweras,
    mobius_to_top,
    ordered_blocks,
    partition_join,
)

from helpers import (
    block_order_cmp,
    enumerate_set_partitions,
    mobius_recursive,
    nc_coarsenings,
    ordered_blocks_oracle,
    refines,
    rotate_partition,
    union_noncrossing,
)


def nc(n, *blocks):
    return NcPartition(n, blocks)


def zero(n):
    return NcPartition(n, [[i] for i in range(1, n + 1)])


def one(n):
    return NcPartition(n, [range(1, n + 1)])


def test_is_noncrossing():
    assert not is_noncrossing([[1, 3], [2, 4]])
    assert is_noncrossing([[1, 4], [2, 3]])
    assert is_noncrossing([[1, 2, 3], [4, 5, 6]])
    assert not is_noncrossing([[1, 3, 5], [2, 6], [4]])


def test_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        NcPartition(4, [[1, 3], [2, 4]])
    with pytest.raises(ValueError, match="non-empty"):
        SetPartition(3, [[1, 2], [3], []])
    for n in (10**30, -1):
        with pytest.raises(ValueError, match="do not partition"):
            SetPartition(n, [[1, 2], [3]] if n > 0 else [])
    p = SetPartition(4, [[4, 2], [3, 1]])
    assert p.blocks == ((1, 3), (2, 4))  # canonical: sorted, by minimum


def test_float_elements_are_refused():
    # 1.0 == 1, so a float element would pass the coverage check and the
    # partition would equal the integer one
    for cls in (SetPartition, NcPartition):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            cls(2, [[1.0, 2.0]])
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            cls(2, [[1], [2.0]])
        assert cls(2, [[2, 1]]).blocks == ((1, 2),)


def test_enumerate_nc_counts_and_oracle():
    for n in range(1, 8):
        got = enumerate_nc(n)
        assert len(got) == catalan(n)
        assert len(set(got)) == len(got)
    for n in range(1, 7):
        brute = {
            p.blocks for p in enumerate_set_partitions(n) if is_noncrossing(p.blocks)
        }
        assert {p.blocks for p in enumerate_nc(n)} == brute
    with pytest.raises(ValueError):
        enumerate_nc(0)


def test_biane_permutation():
    assert biane_permutation(one(3)) == {1: 2, 2: 3, 3: 1}
    assert biane_permutation(zero(3)) == {1: 1, 2: 2, 3: 3}
    assert biane_permutation(nc(3, [1, 3], [2])) == {1: 3, 3: 1, 2: 2}


def test_kreweras_known_values():
    assert kreweras(zero(4)) == one(4)
    assert kreweras(one(4)) == zero(4)
    p = nc(6, [1, 2, 3], [4, 5, 6])
    assert kreweras(p).blocks == ((1,), (2,), (3, 6), (4,), (5,))
    assert kreweras(kreweras(p), "inverse") == p
    with pytest.raises(ValueError):
        kreweras(p, "sideways")


def test_trusted_construction_matches_validating_constructor():
    # enumerate_nc and kreweras build without re-checking; the public
    # constructor is the oracle for their blocks
    for n in range(1, 9):
        for p in enumerate_nc(n):
            for q in (p, kreweras(p), kreweras(p, "inverse")):
                checked = NcPartition(n, q.blocks)
                assert type(q) is NcPartition and q == checked
                assert q.blocks == checked.blocks
    # a plain SetPartition was never checked for crossings, so kreweras does
    with pytest.raises(ValueError, match="crossing"):
        kreweras(SetPartition(4, [[1, 3], [2, 4]]))
    assert kreweras(SetPartition(4, [[1, 4], [2, 3]])) == kreweras(nc(4, [1, 4], [2, 3]))


def test_kreweras_round_trip_and_rotation():
    for n in range(1, 8):
        for p in enumerate_nc(n):
            kr = kreweras(p)
            assert kreweras(kr, "inverse") == p
            assert kreweras(kreweras(p, "inverse")) == p
            # complement twice = rotate every element one step down
            assert kreweras(kr) == rotate_partition(p, -1)
            assert p.num_blocks() + kr.num_blocks() == n + 1


def test_kreweras_is_maximal_complement():
    # Kr(p) is the biggest q making the interleaved union non-crossing
    for n in range(1, 7):
        for p in enumerate_nc(n):
            kr = kreweras(p)
            assert union_noncrossing(p, kr)
            for q in enumerate_nc(n):
                if union_noncrossing(p, q):
                    assert refines(q, kr), (p.blocks, q.blocks)


def test_kreweras_order_reversing():
    for n in range(1, 7):
        ncs = enumerate_nc(n)
        for p in ncs:
            for q in nc_coarsenings(p):
                assert refines(kreweras(q), kreweras(p))


def test_block_order():
    assert block_order_cmp((1, 2), (3,)) < 0
    assert block_order_cmp((2, 3), (1, 4)) < 0  # nested comes first
    assert block_order_cmp((1, 4), (2, 3)) > 0
    with pytest.raises(ValueError):
        block_order_cmp((1, 3), (2, 4))


def test_ordered_blocks_example():
    mix, sep = ordered_blocks(zero(2))
    # an element is the plain tuple (index, barred), so 1 < 1bar < 2
    assert mix == (((1, False),), ((2, False),), ((1, True), (2, True)))
    assert sep == (((1, False),), ((2, False),), ((1, True), (2, True)))
    assert (1, False) < (1, True) < (2, False)


def test_ordered_blocks_properties():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            mix, sep = ordered_blocks(p)
            # sorting by last element is sorting by the nesting comparator
            assert (mix, sep) == ordered_blocks_oracle(p)
            assert len(mix) == n + 1 and len(sep) == n + 1
            assert sorted(mix) == sorted(sep)
            # Mix(p,1) is a singleton
            assert len(mix[0]) == 1
            # Sep(p,1) is an interval of the unbarred copy
            first = sep[0]
            idxs = [x for x, _ in first]
            assert not first[0][1]
            assert idxs == list(range(idxs[0], idxs[-1] + 1))
            # the order is total: consecutive comparisons all defined
            for a, c in zip(mix, mix[1:]):
                assert block_order_cmp(a, c) < 0
            # transitivity spot check across the list
            for i in range(len(mix)):
                for j in range(i + 1, len(mix)):
                    assert block_order_cmp(mix[i], mix[j]) < 0


def test_partition_join():
    p = SetPartition(4, [[1, 3], [2], [4]])
    q = SetPartition(4, [[1, 2], [3, 4]])
    assert partition_join(p, q) == SetPartition(4, [[1, 2, 3, 4]])
    assert partition_join(p, SetPartition(4, [[1], [2], [3], [4]])) == p
    assert partition_join(p, SetPartition(4, [[1, 2, 3, 4]])).num_blocks() == 1
    with pytest.raises(ValueError):
        partition_join(p, SetPartition(3, [[1], [2], [3]]))


def test_mobius_known_values():
    assert mobius_to_top(one(5)) == 1
    assert mobius_to_top(zero(3)) == 2
    assert mobius_to_top(zero(4)) == -5


def test_mobius_against_lattice_recursion():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert mobius_to_top(p) == mobius_recursive(p.blocks, n)


def test_coarsenings_stay_noncrossing_and_complete():
    p = nc(4, [1, 4], [2, 3])
    cs = list(nc_coarsenings(p))
    assert p in cs and one(4) in cs
    # interval [p, 1] inside NC(4): all q coarser than p
    direct = [q for q in enumerate_nc(4) if refines(p, q)]
    assert sorted(q.blocks for q in cs) == sorted(q.blocks for q in direct)
