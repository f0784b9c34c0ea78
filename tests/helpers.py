"""Shared oracles and random builders for the test suite.

Everything here recomputes expected values by a route independent of the
production code under test: brute-force filters, lattice recursions,
direct formula evaluation, polynomial interpolation.
"""
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import product as iter_product
from math import comb, factorial, prod

from infree.ck import (
    CkScalar,
    CkSeries,
    LambdaVector,
    _accumulate,
    _coerce,
    _first_blocks,
    ck_mul,
    ck_prod_many,
    multinomial,
)
from infree.convolve import (
    boxed_conv_ck,
    law_from_moment_series,
    moment_series,
    moments_from_r,
    r_from_moments,
)
from infree.cumulants import (
    CumulantTable,
    InfLaw,
    _WordTable,
    all_words,
    cumulants_to_moments,
    moments_to_cumulants,
    restrict,
)
from infree.freeness import Coloring, Derivation, FreenessVerdict, NcPolynomial, Witness
from infree.jsonio import (
    SchemaError,
    _check_keys,
    _expect,
    _field,
    decode_partition,
    decode_rational,
)
from infree.partitions import (
    BarredElement,
    NcPartition,
    SetPartition,
    enumerate_nc,
    is_noncrossing,
    kreweras,
    mobius_to_top,
    ordered_blocks,
)
from infree.typek import (
    TypeKPartition,
    enumerate_type_k,
    enumerate_type_k_star,
    fiber_over,
    is_type_k,
    r_of_shape,
    residue,
)


def block_order_cmp(v: tuple, w: tuple) -> int:
    """Partial order on disjoint blocks: V before W when max V < min W, or W
    nests around V (min W < min V and max V < max W).  Blocks here are sorted
    tuples of comparable elements; on blocks of a single non-crossing
    partition together with its complement this order is total."""
    if v == w:
        return 0
    if v[-1] < w[0]:
        return -1
    if w[-1] < v[0]:
        return 1
    if w[0] < v[0] and v[-1] < w[-1]:
        return -1
    if v[0] < w[0] and w[-1] < v[-1]:
        return 1
    raise ValueError(f"blocks {v} and {w} are incomparable")


def ordered_blocks_oracle(p: NcPartition) -> tuple:
    """(mix_list, sep_list) of `ordered_blocks`, sorted by the nesting
    comparator itself rather than by last elements."""
    kr = kreweras(p)
    key = cmp_to_key(block_order_cmp)
    p_blocks = [tuple(BarredElement(x, False) for x in b) for b in p.blocks]
    kr_blocks = [tuple(BarredElement(x, True) for x in b) for b in kr.blocks]
    return (tuple(sorted(p_blocks + kr_blocks, key=key)),
            tuple(sorted(p_blocks, key=key) + sorted(kr_blocks, key=key)))


def compositions(n: int, total: int):
    """All weak compositions of `total` into n parts, lexicographic."""
    if n == 0:
        if total == 0:
            yield ()
        return
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(n - 1, total - first):
            yield (first,) + rest


def lambda_vectors(n: int, total: int):
    for parts in compositions(n, total):
        yield LambdaVector(parts, total)


def to_toeplitz(a: CkScalar) -> tuple:
    """Upper-triangular Toeplitz matrix of a, entry a(d)/d! on offset d."""
    k = a.k
    return tuple(
        tuple(
            a.coords[c - r] / factorial(c - r) if c >= r else Fraction(0)
            for c in range(k + 1)
        )
        for r in range(k + 1)
    )


def fraction_ck_mul_oracle(a: CkScalar, b: CkScalar) -> tuple:
    """The Leibniz rule on Fraction coordinates, gamma(i) = sum_j C(i,j)
    a(j) b(i-j), independent of the integer-numerator storage."""
    x, y = a.coords, b.coords
    return tuple(sum((comb(i, j) * x[j] * y[i - j] for j in range(i + 1)), Fraction(0))
                 for i in range(a.k + 1))


def fraction_ck_inverse_oracle(a: CkScalar) -> tuple:
    """Coordinates of the inverse by back-substitution on Fractions:
    x(0) = 1/a(0), x(i) = -(1/a(0)) sum_{j>=1} C(i,j) a(j) x(i-j)."""
    c = a.coords
    out = [1 / c[0]]
    for i in range(1, a.k + 1):
        out.append(-out[0] * sum((comb(i, j) * c[j] * out[i - j] for j in range(1, i + 1)), Fraction(0)))
    return tuple(out)


def back_substitution_inverse_oracle(a: CkScalar) -> CkScalar:
    """Inverse by triangular back-substitution on integer numerators: with
    a = N/D, the inverse of N has coordinates y(i) / n0^(i+1) for the
    integers y(0) = 1, y(i) = -sum_j C(i,j) N(j) y(i-j) n0^(j-1)."""
    x, k = a.nums, a.k
    n0 = x[0]
    y = [1]
    for i in range(1, k + 1):
        y.append(-sum(comb(i, j) * x[j] * y[i - j] * n0 ** (j - 1) for j in range(1, i + 1)))
    return CkScalar(k, [Fraction(a.den * y[i], n0 ** (i + 1)) for i in range(k + 1)])


def assemble_components(k: int, components: list) -> CkScalar:
    """Inverse of componentwise projection: components[i] becomes coordinate i."""
    if len(components) != k + 1:
        raise ValueError(f"need {k + 1} components")
    return CkScalar(k, [Fraction(c) for c in components])


def enumerate_set_partitions(n: int):
    """All partitions of [n] via restricted growth strings."""
    if n == 0:
        yield SetPartition(0, ())
        return

    def rec(i: int, labels: list, maxi: int):
        if i > n:
            blocks = [[] for _ in range(maxi + 1)]
            for pos, lab in enumerate(labels, start=1):
                blocks[lab].append(pos)
            yield SetPartition(n, blocks)
            return
        for lab in range(maxi + 2):
            labels.append(lab)
            yield from rec(i + 1, labels, max(maxi, lab))
            labels.pop()

    yield from rec(2, [0], 0)


def nc_coarsenings(p: NcPartition):
    """All non-crossing q with p <= q, by merging blocks of p."""
    blocks = p.blocks
    for grouping in enumerate_set_partitions(len(blocks)):
        merged = []
        for g in grouping.blocks:
            merged.append(sorted(x for i in g for x in blocks[i - 1]))
        if is_noncrossing(merged):
            yield NcPartition(p.n, merged)


def rotate_partition(p: SetPartition, shift: int = 1) -> SetPartition:
    """Image of p under x -> x + shift modulo n (anticlockwise for shift=-1)."""
    n = p.n
    return type(p)(n, [[(x - 1 + shift) % n + 1 for x in b] for b in p.blocks])


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True when every block of p sits inside a block of q."""
    if p.n != q.n:
        raise ValueError("refinement needs a common ground set")
    block_of = {x: i for i, b in enumerate(q.blocks) for x in b}
    return all(block_of[b[0]] == block_of[x] for b in p.blocks for x in b[1:])


def nc_meet(p: NcPartition, q: NcPartition):
    """Meet of p and q in the non-crossing lattice, by brute force:
    the unique maximal non-crossing common refinement.  Small n only."""
    if p.n != q.n:
        raise ValueError("meet needs a common ground set")
    candidates = [
        r for r in enumerate_nc(p.n) if refines(r, p) and refines(r, q)
    ]
    for r in candidates:
        if all(refines(s, r) for s in candidates):
            return r
    raise ValueError("no maximum among common refinements")


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


def rand_wide_fraction(rng) -> Fraction:
    """Zero, small, or with numerator and denominator of up to 400 bits."""
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return rand_fraction(rng)
    return Fraction(rng.getrandbits(400) * rng.choice((-1, 1)), rng.getrandbits(400) + 1)


def rand_wide_scalar(rng, k: int) -> CkScalar:
    """Zero, nilpotent or general, with coordinates from rand_wide_fraction."""
    kind = rng.randrange(3)
    if kind == 0:
        return CkScalar.zero(k)
    coords = [rand_wide_fraction(rng) for _ in range(k + 1)]
    if kind == 1:
        coords[0] = Fraction(0)
    return CkScalar(k, coords)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, exact below
    3.3 * 10**24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def distinct_primes(rng, count: int, min_bits: int, max_bits: int) -> list:
    """count distinct primes, each of min_bits to max_bits bits."""
    out: dict = {}
    while len(out) < count:
        n = rng.getrandbits(rng.randint(min_bits, max_bits)) | 1
        if n.bit_length() >= min_bits and is_prime(n):
            out[n] = None
    return list(out)


def rand_prime_den_table(rng, k: int, num_vars: int, max_len: int) -> dict:
    """Word values whose coordinates are small nonzero numerators over
    distinct 31- to 61-bit primes, no denominator used twice."""
    words = list(all_words(num_vars, max_len))
    primes = iter(distinct_primes(rng, len(words) * (k + 1), 31, 61))
    return {w: CkScalar(k, [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), next(primes))
                            for _ in range(k + 1)])
            for w in words}


def rand_series(rng, k: int, trunc: int, invertible: bool = False) -> CkSeries:
    coeffs = [rand_scalar(rng, k) for _ in range(trunc)]
    while invertible and coeffs[0].coords[0] == 0:
        coeffs[0] = rand_scalar(rng, k)
    return CkSeries(k, trunc, coeffs)


def rand_cumulants(rng, k: int, num_vars: int, max_len: int) -> CumulantTable:
    return CumulantTable(
        k, num_vars, max_len, {w: rand_scalar(rng, k) for w in all_words(num_vars, max_len)}
    )


def rand_nc_polynomial(rng, num_vars: int, max_degree: int, terms: int) -> NcPolynomial:
    """Up to `terms` random words of length <= max_degree, the empty word
    included, with small rational coefficients that may cancel."""
    out: dict = {}
    for _ in range(terms):
        w = tuple(rng.randint(1, num_vars) for _ in range(rng.randint(0, max_degree)))
        out[w] = out.get(w, Fraction(0)) + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return NcPolynomial(out)


def pieces_apply_once_oracle(d: Derivation, p: NcPolynomial) -> NcPolynomial:
    """One Leibniz application built piece by piece from the public
    polynomial arithmetic: word(prefix) * image * word(suffix), scaled and
    added to the running sum."""
    out = NcPolynomial()
    for w, c in p.terms.items():
        for pos, v in enumerate(w):
            piece = NcPolynomial.word(w[:pos]) * d.image(v) * NcPolynomial.word(w[pos + 1:])
            out = out + piece.scale(c)
    return out


def rand_law(rng, k: int, num_vars: int, max_len: int):
    return cumulants_to_moments(rand_cumulants(rng, k, num_vars, max_len))


def free_product_joint_dense_oracle(laws: list, max_len: int):
    """The free product's joint law and coloring through a dense joint
    cumulant table: every mixed word an explicit zero, every pure word its
    factor's cumulant from its whole table, all of it taken through the
    validating constructor and cumulants_to_moments."""
    k = laws[0].k
    colors, offsets, factor_cums = [], [], []
    for idx, law in enumerate(laws, start=1):
        offsets.append(len(colors))
        colors.extend([idx] * law.num_vars)
        factor_cums.append(moments_to_cumulants(law))
    table = {}
    for w in all_words(len(colors), max_len):
        cset = {colors[v - 1] for v in w}
        if len(cset) > 1:
            table[w] = CkScalar.zero(k)
        else:
            c = cset.pop()
            table[w] = factor_cums[c - 1].value(tuple(v - offsets[c - 1] for v in w))
    joint = cumulants_to_moments(CumulantTable(k, len(colors), max_len, table))
    return joint, Coloring(tuple(colors))


@lru_cache(maxsize=None)
def nc_block_sizes(m: int) -> tuple:
    """(block sizes of p, block sizes of Kr(p)) for every p in NC(m),
    computed once per length."""
    return tuple((tuple(map(len, p.blocks)), tuple(map(len, kreweras(p).blocks)))
                 for p in enumerate_nc(m))


def nc_boxed_conv_oracle(f: CkSeries, g: CkSeries) -> CkSeries:
    """Boxed convolution as the plain sum over NC(m): prod alpha over the
    block sizes of p times prod beta over the block sizes of Kr(p)."""
    n = min(f.trunc, g.trunc)
    coeffs = []
    for m in range(1, n + 1):
        acc = CkScalar.zero(f.k)
        for p_sizes, kr_sizes in nc_block_sizes(m):
            factors = [f.coeffs[s - 1] for s in p_sizes] + [g.coeffs[s - 1] for s in kr_sizes]
            acc = acc + ck_prod_many(factors)
        coeffs.append(acc)
    return CkSeries(f.k, n, coeffs)


def nc_boxed_inverse_oracle(f: CkSeries) -> CkSeries:
    """g with f boxed g = delta, solved degree by degree against
    nc_boxed_conv_oracle: beta_m occurs only in the p = 0_m term, with
    coefficient alpha_1^m, so beta_m = alpha_1^(-m) (delta_m - the sum with
    beta_m set to zero).  NotInvertible unless alpha_1 is a unit."""
    k = f.k
    a1_inv = f.coeffs[0].inverse()
    g = []
    for m in range(1, f.trunc + 1):
        trial = CkSeries(k, m, g + [CkScalar.zero(k)])
        acc = nc_boxed_conv_oracle(f.truncate(m), trial).coeffs[m - 1]
        target = CkScalar.one(k) if m == 1 else CkScalar.zero(k)
        g.append(ck_prod_many([a1_inv] * m + [target - acc]))
    return CkSeries(k, f.trunc, g)


def _mirror_reps(blocks: tuple, m: int) -> tuple:
    """Split an inversion-invariant partition of [2m] into its zero-block
    (None if absent) and one representative per mirror pair of blocks,
    under the inversion x -> x +- m."""
    zero = None
    reps = []
    for b in blocks:
        mirrored = tuple(sorted(x + m if x <= m else x - m for x in b))
        if mirrored == b:
            if zero is not None:
                raise ValueError("two inversion-invariant blocks")
            zero = b
        elif min(b) < min(mirrored):
            reps.append(b)
    return zero, tuple(reps)


@lru_cache(maxsize=None)
def type_b_terms_oracle(m: int) -> tuple:
    """Grouped descriptors (weight, f side, g side) of the order-1 double sum
    at degree m, read off the inversion-invariant partitions of [2m], which
    are NC^(1)(m), and their Kreweras complements by mirror pairs: on each
    side a mirror pair of blocks of size s gives (s, 0) and the zero-block
    of size 2s gives (s, 1); exactly one side owns a zero-block, and every
    element has weight 1."""
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
    return tuple((weight, f_side, g_side) for (f_side, g_side), weight in counts.items())


def type_b_conv_oracle(f: CkSeries, g: CkSeries) -> CkSeries:
    """The order-1 boxed convolution as the type-B double sum: coordinate 0
    is the plain sum over NC(m), and coordinate 1 sums the mirror-pair
    descriptors of type_b_terms_oracle, a pair (s, c) reading coordinate c
    of the degree-s coefficient."""
    if f.k != 1 or g.k != 1:
        raise ValueError("type-B convolution is defined at order k=1")
    plain = nc_boxed_conv_oracle(f, g)

    def coord(series, s, c):
        return series.coeffs[s - 1].coords[c]

    coeffs = []
    for m, x in enumerate(plain.coeffs, start=1):
        mixed = sum((weight * prod(coord(f, s, c) for s, c in f_side)
                     * prod(coord(g, s, c) for s, c in g_side)
                     for weight, f_side, g_side in type_b_terms_oracle(m)), Fraction(0))
        coeffs.append(CkScalar(1, (x.coords[0], mixed)))
    return CkSeries(1, plain.trunc, coeffs)


def infinitesimal_component(x, i: int):
    """Component i of a C_k scalar (a rational) or of a whole table (a dict).

    Stored coordinate vectors are already the component tuples
    (kappa^(0), ..., kappa^(k)), so this is a plain projection.
    """
    if isinstance(x, CkScalar):
        if not 0 <= i <= x.k:
            raise ValueError(f"component {i} out of range 0..{x.k}")
        return x.coords[i]
    if isinstance(x, _WordTable):
        if not 0 <= i <= x.k:
            raise ValueError(f"component {i} out of range 0..{x.k}")
        return {w: v.coords[i] for w, v in x.values.items()}
    raise TypeError(f"expected CkScalar or a word table, got {type(x).__name__}")


def apply_derivation(d: Derivation, p: NcPolynomial, power: int = 1) -> NcPolynomial:
    """power-fold application of the derivation."""
    if power < 0:
        raise ValueError("power must be >= 0")
    for _ in range(power):
        p = d.apply_once(p)
    return p


def law_at_t(derivs: InfLaw, t) -> InfLaw:
    """Taylor evaluation: order-0 law with moments sum_i m^(i) t^i / i!."""
    t = _coerce(t)
    table = {}
    for w in derivs.words():
        coords = derivs.moment(w).coords
        val = sum(
            (coords[i] * t**i / factorial(i) for i in range(derivs.k + 1)),
            Fraction(0),
        )
        table[w] = CkScalar(0, (val,))
    return InfLaw(0, derivs.num_vars, derivs.max_len, table)


def series_coeff(f: CkSeries, m: int) -> CkScalar:
    """Coefficient of z^m, m in 0..trunc."""
    if m == 0:
        return f.const
    if 1 <= m <= f.trunc:
        return f.coeffs[m - 1]
    raise IndexError(f"degree {m} out of range 0..{f.trunc}")


def cauchy_series_mul_oracle(f: CkSeries, g: CkSeries) -> CkSeries:
    """Series product as the plain Cauchy sum, every term included."""
    n = min(f.trunc, g.trunc)
    coeffs = []
    for m in range(1, n + 1):
        acc = CkScalar.zero(f.k)
        for i in range(0, m + 1):
            acc = acc + ck_mul(series_coeff(f, i), series_coeff(g, m - i))
        coeffs.append(acc)
    return CkSeries(f.k, n, coeffs, ck_mul(f.const, g.const))


def first_block_sum(w: tuple, blocks, kappa: dict, moment: dict, k: int) -> CkScalar:
    """Sum over the given (on_b, gaps) of kappa(w|B) times prod m(w|gap):
    one word at a time, every term a chain of scalars handed to
    `ck._accumulate`.  kappa(w|B) is read first and a block whose cumulant
    is zero is skipped."""
    chains = ((1, 1, [c] + [moment[w[gap]] for gap in gaps])
              for on_b, gaps in blocks if any((c := kappa[on_b(w)]).nums))
    return _accumulate(k, chains)


def first_block_c2m_oracle(c: CumulantTable) -> InfLaw:
    """Moments by the first-block recursion, word by word through
    first_block_sum."""
    out = {}
    for w in c.words():
        out[w] = first_block_sum(w, _first_blocks(len(w)), c.values, out, c.k)
    return InfLaw(c.k, c.num_vars, c.max_len, out)


def first_block_m2c_shortlex(m: InfLaw, max_len: int):
    """(word, cumulant) up to length max_len, shortlex, by the first-block
    identity solved for its B = [n] term, word by word through
    first_block_sum."""
    out = {}
    for n in range(1, max_len + 1):
        blocks = _first_blocks(n)[:-1]
        for w in iter_product(range(1, m.num_vars + 1), repeat=n):
            x = out[w] = m.values[w] - first_block_sum(w, blocks, out, m.values, m.k)
            yield w, x


def first_block_m2c_oracle(m: InfLaw) -> CumulantTable:
    return CumulantTable(m.k, m.num_vars, m.max_len, dict(first_block_m2c_shortlex(m, m.max_len)))


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


def t_poly_freeness_oracle(joint: InfLaw, coloring, max_len: int) -> FreenessVerdict:
    """The freeness checker on t-polynomials: phi_t(w) is held as its
    coefficients phi^(i)(w) / i!, products are polynomial products truncated
    beyond t^k, and each subset of runs kept is expanded with its sign."""
    k = joint.k

    def poly_mul(a: tuple, b: tuple) -> tuple:
        out = [Fraction(0)] * (k + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j > k:
                    break
                out[i + j] += x * y
        return tuple(out)

    def phi_t(w: tuple) -> tuple:
        return tuple(joint.value(w).coords[i] / factorial(i) for i in range(k + 1))

    one = (Fraction(1),) + (Fraction(0),) * k
    for w in all_words(joint.num_vars, max_len):
        runs = []
        for v in w:
            if runs and coloring.color_of(runs[-1][-1]) == coloring.color_of(v):
                runs[-1].append(v)
            else:
                runs.append([v])
        if len(runs) < 2:
            continue
        centers = [phi_t(tuple(r)) for r in runs]
        total = [Fraction(0)] * (k + 1)
        for keep in iter_product((False, True), repeat=len(runs)):
            word = tuple(v for r, kept in zip(runs, keep) if kept for v in r)
            coeff = one
            sign = 1
            for c, kept in zip(centers, keep):
                if not kept:
                    coeff = poly_mul(coeff, c)
                    sign = -sign
            term = poly_mul(coeff, phi_t(word))
            for i in range(k + 1):
                total[i] += sign * term[i]
        for i in range(k + 1):
            if total[i] != 0:
                return FreenessVerdict(False, Witness(w, i, total[i]))
    return FreenessVerdict(True, None)


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


@lru_cache(maxsize=None)
def _componentwise_terms(n: int, i: int) -> tuple:
    """(blocks, Mobius value to the top, ((composition, multinomial), ...))
    for each p in NC(n): the pieces of the componentwise double sums at
    component i, the compositions spreading i over the blocks of p."""
    return tuple(
        (p.blocks, mobius_to_top(p),
         tuple((lam, multinomial(i, lam)) for lam in compositions(p.num_blocks(), i)))
        for p in enumerate_nc(n)
    )


def _componentwise_sum(table, w: tuple, i: int, signed: bool) -> Fraction:
    """Sum over p in NC(len(w)) and compositions lam of i over the blocks of
    p of multinomial(i, lam) times the product of coordinate lam_j of the
    table's value on block j of w, each term Mobius-weighted if signed.
    Each block's coordinates are read once per call."""
    total = Fraction(0)
    coords = {}
    for blocks, mob, lams in _componentwise_terms(len(w), i):
        for b in blocks:
            if b not in coords:
                coords[b] = table.value(restrict(w, b)).coords
        factors = [coords[b] for b in blocks]
        sign = mob if signed else 1
        for lam, weight in lams:
            term = Fraction(sign * weight)
            for x, e in zip(factors, lam):
                term *= x[e]
                if term == 0:
                    break
            total += term
    return total


def phi_component_oracle(c: CumulantTable, w: tuple, i: int) -> Fraction:
    """Component i of the moment of w, by the componentwise double sum over
    partitions and weak compositions."""
    return _componentwise_sum(c, w, i, signed=False)


def kappa_component_oracle(law, w: tuple, i: int) -> Fraction:
    """Component i of the cumulant of w: Mobius-weighted double sum over
    partitions and weak compositions of moment components."""
    return _componentwise_sum(law, w, i, signed=True)


@lru_cache(maxsize=None)
def shape_counts_oracle(p: NcPartition, k: int) -> dict:
    """Shape entries -> how many elements of the fiber over p have that
    shape, by enumerating the fiber; shapes that never occur are absent."""
    counts = {}
    for tk in fiber_over(p, k):
        counts[tk.shape.entries] = counts.get(tk.shape.entries, 0) + 1
    return counts


def is_star_oracle(tk: TypeKPartition) -> bool:
    """Star membership by definition: every block of the Kreweras
    complement of the partition is simple, its elements of distinct
    residues mod n."""
    return all(len(b) == len({residue(x, tk.n) for x in b}) for b in kreweras(tk.partition).blocks)


def star_shape(tk: TypeKPartition) -> LambdaVector:
    """Shape restricted to the blocks of the reduction, in nesting order.

    Only meaningful on NC* elements, where the dropped barred entries are
    all zero; the restriction then still sums to k.
    """
    mix_list, _ = ordered_blocks(tk.reduction)
    entries = tuple(
        e for blk, e in zip(mix_list, tk.shape.entries) if not blk[0].barred
    )
    return LambdaVector(entries, tk.k)


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


def table_additive_convolve_oracle(mu: InfLaw, nu: InfLaw) -> InfLaw:
    """Free additive convolution through the cumulant tables: the
    first-block transform of each law, the word-by-word sum, and the
    first-block transform back."""
    cm = moments_to_cumulants(mu)
    cn = moments_to_cumulants(nu)
    summed = {w: cm.value(w) + cn.value(w) for w in cm.words()}
    return cumulants_to_moments(CumulantTable(mu.k, 1, mu.max_len, summed))


def r_boxed_multiplicative_oracle(mu: InfLaw, nu: InfLaw) -> InfLaw:
    """Free multiplicative convolution the long way: the R-series of the two
    laws boxed together, R_mu boxed R_nu = R_(mu boxtimes nu), and taken
    back to moments through zeta."""
    r = boxed_conv_ck(r_from_moments(moment_series(mu)), r_from_moments(moment_series(nu)))
    return law_from_moment_series(moments_from_r(r))


def table_example_law_oracle(kind: str, params: CkScalar, k: int, max_len: int) -> InfLaw:
    """The example laws as cumulant tables taken to moments by the
    first-block transform: semicircular has kappa_2 = params and nothing
    else, free_poisson has kappa_n = params for every n."""
    zero = CkScalar.zero(k)
    if kind == "semicircular":
        table = {(1,) * m: (params if m == 2 else zero) for m in range(1, max_len + 1)}
    elif kind == "free_poisson":
        table = {(1,) * m: params for m in range(1, max_len + 1)}
    else:
        raise ValueError(f"unknown example law kind: {kind!r}")
    return cumulants_to_moments(CumulantTable(k, 1, max_len, table))


def decode_type_k(data, path: str = "") -> TypeKPartition:
    """A type-k partition from its JSON document, the inverse of
    `jsonio.encode_type_k`; no verb reads one."""
    _expect(data, dict, path, "an object")
    _check_keys(data, {"n", "k", "blocks", "reduction", "shape"}, path)
    n = _expect(_field(data, "n", path), int, f"{path}.n", "an integer")
    k = _expect(_field(data, "k", path), int, f"{path}.k", "an integer")
    part = decode_partition(
        {"n": (k + 1) * n, "blocks": _field(data, "blocks", path)}, path
    )
    try:
        tk = TypeKPartition(part, n, k)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e
    if "reduction" in data:
        red = decode_partition(data["reduction"], f"{path}.reduction")
        if red != tk.reduction:
            raise SchemaError(f"{path}.reduction", "does not match the recomputed reduction")
    if "shape" in data:
        shape = _expect(data["shape"], list, f"{path}.shape", "an array")
        if tuple(shape) != tk.shape.entries:
            raise SchemaError(f"{path}.shape", "does not match the recomputed shape")
    return tk


def decode_verdict(data, path: str = "") -> FreenessVerdict:
    """A freeness verdict from its JSON document, the inverse of
    `jsonio.encode_verdict`; no verb reads one."""
    _expect(data, dict, path, "an object")
    _check_keys(data, {"pass", "witness"}, path)
    passed = _field(data, "pass", path)
    if not isinstance(passed, bool):
        raise SchemaError(f"{path}.pass", "expected a boolean")
    wit = _field(data, "witness", path)
    if wit is None:
        return FreenessVerdict(passed, None)
    _expect(wit, dict, f"{path}.witness", "an object or null")
    _check_keys(wit, {"word", "component", "value"}, f"{path}.witness")
    word = _expect(_field(wit, "word", f"{path}.witness"), list, f"{path}.witness.word", "an array")
    comp = _expect(
        _field(wit, "component", f"{path}.witness"), int, f"{path}.witness.component", "an integer"
    )
    value = decode_rational(_field(wit, "value", f"{path}.witness"), f"{path}.witness.value")
    return FreenessVerdict(passed, Witness(tuple(word), comp, value))
