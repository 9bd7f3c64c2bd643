"""Tests for multi-exponentiation, hash-to-curve, Pedersen commitments
and the fixed-point codec."""

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PartitionCommitter
from repro.core.partition import decode_partition, encode_partition
from repro.crypto import (
    Commitment,
    FixedPointCodec,
    PedersenParams,
    sha256,
)
from repro.crypto.curves import SECP256K1, SECP256R1
from repro.crypto.field import legendre_symbol, sqrt_mod
from repro.crypto.group import Point, generator, scalar_mult
from repro.crypto.hashing import hash_to_curve
from repro.crypto.multiexp import multi_scalar_mult, pippenger, straus
from repro.crypto import hashing, multiexp, pedersen


def reference_msm(scalars, points):
    result = Point.identity(points[0].curve)
    for scalar, point in zip(scalars, points):
        result = result + scalar_mult(scalar, point)
    return result


# -- multiexp ----------------------------------------------------------------------


def test_straus_matches_reference():
    g = generator(SECP256K1)
    points = [scalar_mult(i + 1, g) for i in range(5)]
    scalars = [3, 1, 4, 1, 5]
    assert straus(scalars, points) == reference_msm(scalars, points)


def test_pippenger_matches_reference():
    g = generator(SECP256K1)
    points = [scalar_mult(i + 1, g) for i in range(30)]
    scalars = [(7 * i + 13) % 1000 + 1 for i in range(30)]
    assert pippenger(scalars, points) == reference_msm(scalars, points)


def test_pippenger_large_scalars():
    g = generator(SECP256R1)
    points = [scalar_mult(i + 2, g) for i in range(20)]
    scalars = [SECP256R1.n - i - 1 for i in range(20)]
    assert pippenger(scalars, points) == reference_msm(scalars, points)


def test_multiexp_with_zero_scalars():
    g = generator(SECP256K1)
    points = [g, g + g, scalar_mult(5, g)]
    assert multi_scalar_mult([0, 0, 0], points).is_identity
    assert multi_scalar_mult([0, 1, 0], points) == g + g


def test_multiexp_with_identity_points():
    g = generator(SECP256K1)
    identity = Point.identity(SECP256K1)
    assert multi_scalar_mult([5, 7], [identity, g]) == scalar_mult(7, g)


def test_multiexp_single_term():
    g = generator(SECP256K1)
    assert multi_scalar_mult([42], [g]) == scalar_mult(42, g)


def test_multiexp_validation():
    g = generator(SECP256K1)
    with pytest.raises(ValueError):
        multi_scalar_mult([1, 2], [g])
    with pytest.raises(ValueError):
        multi_scalar_mult([], [])
    with pytest.raises(ValueError):
        straus([1, 2], [generator(SECP256K1), generator(SECP256R1)])


def test_dispatch_small_vs_large_agree():
    g = generator(SECP256K1)
    points = [scalar_mult(i + 1, g) for i in range(40)]
    scalars = [i * i + 1 for i in range(40)]
    assert (straus(scalars[:8], points[:8])
            == pippenger(scalars[:8], points[:8]))
    assert (multi_scalar_mult(scalars, points)
            == reference_msm(scalars, points))


def test_window_and_width_follow_the_counted_model():
    def straus_plan(count, bits):
        return multiexp._cheapest(
            multiexp._straus_cost, count, bits, multiexp._WIDTHS)

    def pippenger_plan(count, bits):
        return multiexp._cheapest(
            multiexp._pippenger_cost, count, bits, multiexp._WINDOWS)

    def window(count, bits):
        return pippenger_plan(count, bits)[1]

    # More terms amortise more buckets; shorter scalars scan fewer windows.
    assert window(100, 256) >= window(10, 256) >= window(2, 256)
    assert window(10**7, 256) <= 16
    # Two signed 9-bit windows of 256 buckets, not 29.
    assert window(2018, 17) == 9
    # No table of odd multiples for short scalars.
    assert straus_plan(4, 256)[1] > straus_plan(4, 8)[1] == 2

    def straus_is_cheaper(count, bits):
        return straus_plan(count, bits)[0] <= pippenger_plan(count, bits)[0]

    # The crossover moves with the bit length, not with a constant.
    assert straus_is_cheaper(8, 20) and not straus_is_cheaper(32, 20)
    assert straus_is_cheaper(32, 256) and not straus_is_cheaper(64, 256)


@settings(max_examples=5, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**128),
                min_size=2, max_size=6))
def test_multiexp_property(scalars):
    g = generator(SECP256K1)
    points = [scalar_mult(i + 3, g) for i in range(len(scalars))]
    assert multi_scalar_mult(scalars, points) == reference_msm(scalars, points)


def _edge_scalars(order):
    small = st.integers(min_value=0, max_value=2**20)
    return st.one_of(
        st.just(0), small, small.map(lambda s: order - s),
        st.sampled_from([order // 2, order // 2 + 1]),
        st.integers(min_value=0, max_value=order - 1),
        st.integers(min_value=order, max_value=2 * order + 7),
        st.integers(min_value=-2**40, max_value=-1),
    )


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
def test_all_paths_equal_naive_sum_on_edge_inputs(curve):
    """The centred lift flips points: duplicates ``P, P`` (bucket
    doubling), opposites ``P, -P`` (bucket cancellation), identities and
    scalars on both sides of ``n/2`` must still sum to the naive result."""
    g = generator(curve)
    pool = [scalar_mult(k, g) for k in (1, 2, 3)]
    pool += [-point for point in pool] + [Point.identity(curve)]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(_edge_scalars(curve.n), st.sampled_from(pool)),
                    min_size=1, max_size=7))
    def check(pairs):
        scalars = [scalar for scalar, _ in pairs]
        points = [point for _, point in pairs]
        expected = reference_msm(scalars, points)
        assert multi_scalar_mult(scalars, points) == expected
        assert pippenger(scalars, points) == expected
        assert straus(scalars, points) == expected

    check()


def test_sign_flip_reaches_bucket_doubling_and_cancellation():
    g = generator(SECP256K1)
    order = SECP256K1.n
    # n - 5 lifts to 5 * (-P): meets 5 * P in the same bucket and cancels.
    assert pippenger([5, order - 5], [g, g]).is_identity
    assert pippenger([5, order - 5], [g, -g]) == scalar_mult(10, g)
    assert pippenger([5, 5, 9], [g, g, g + g]) == scalar_mult(28, g)
    assert straus([5, order - 5], [g, g]).is_identity


@st.composite
def _bucket_collisions(draw, curve):
    """A window width and terms that crowd its signed-digit buckets."""
    window = draw(st.integers(min_value=2, max_value=6))
    order, half = curve.n, curve.n // 2
    g = generator(curve)
    pool = [scalar_mult(k, g) for k in (1, 2, 3)]
    pool += [-point for point in pool] + [Point.identity(curve)]
    # All-ones magnitudes recode to −1 in every window: the carry spills
    # into one window more than the bit length needs.
    carry = st.integers(min_value=1, max_value=40).map(
        lambda windows: (1 << (window * windows)) - 1)
    scalar = st.one_of(
        st.just(0), carry, carry.map(lambda s: order - s),
        st.integers(min_value=1, max_value=1 << window),  # one digit
        st.sampled_from([half - 1, half, half + 1, half + 2]),
        st.integers(min_value=0, max_value=order - 1),
    )
    pairs = draw(st.lists(st.tuples(scalar, st.sampled_from(pool)),
                          min_size=1, max_size=6))
    if draw(st.booleans()):
        # One scalar for every term: all of them share each bucket, so
        # ``P, P`` doubles and ``P, −P`` cancels inside a batch.
        pairs = [(pairs[0][0], point) for _, point in pairs]
    return window, pairs


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
def test_signed_digit_buckets_equal_naive_sum_and_straus(curve):
    @settings(max_examples=40, deadline=None)
    @given(_bucket_collisions(curve))
    def check(drawn):
        window, pairs = drawn
        scalars = [scalar for scalar, _ in pairs]
        points = [point for _, point in pairs]
        expected = reference_msm(scalars, points)
        assert pippenger(scalars, points, window=window) == expected
        assert straus(scalars, points) == expected
        assert multi_scalar_mult(scalars, points) == expected

    check()


def test_signed_digit_carry_spills_into_an_extra_window():
    g = generator(SECP256K1)
    points = [g, g + g, scalar_mult(3, g)]
    # 2^8 − 1 in 4-bit signed digits is 1·2^8 − 1: a third window.
    assert multiexp._windows(8, 4)[1] == [8, 8, 1]
    scalars = [255, 255, 1]
    assert pippenger(scalars, points, window=4) == scalar_mult(768, g)


# -- field-multiplication counts: the noise-free regression gate ----------------


def count_field_multiplications(monkeypatch, function, *args):
    """Field multiplications of the primitives ``multiexp`` calls, priced
    by the model's own weights: a Jacobian add, mixed add or double per
    call, and per batch of affine additions its additions and its one
    inversion."""
    spent = [0]
    weights = {"_jac_add": multiexp._ADD, "_jac_add_mixed": multiexp._MIXED,
               "_jac_double": multiexp._DOUBLE}

    def counting(primitive, weight):
        def counted(*primitive_args):
            spent[0] += weight
            return primitive(*primitive_args)
        return counted

    batch_add = multiexp._batch_add

    def counted_batch(curve, pairs):
        spent[0] += multiexp._AFFINE * len(pairs) + multiexp._INVERSION
        return batch_add(curve, pairs)

    with monkeypatch.context() as patch:
        for name, weight in weights.items():
            patch.setattr(multiexp, name,
                          counting(getattr(multiexp, name), weight))
        patch.setattr(multiexp, "_batch_add", counted_batch)
        result = function(*args)
    return spent[0], result


@pytest.fixture(scope="module")
def model_generators():
    """One ``verifiable_mlp`` partition: 2 017 values + the counter."""
    return PedersenParams.setup(SECP256K1, 2018).generators


def signed_scalars(bits, count, order, seed=7):
    rng = random.Random(seed)
    bound = 1 << bits
    return [rng.randrange(-bound + 1, bound) % order for _ in range(count)]


#: What the Jacobian bucket fill (unsigned digits, one mixed add per term
#: into its bucket, Jacobian running sums) spent on these inputs, as
#: (adds, mixed adds, doubles); priced at the model's weights below.
JACOBIAN_FILL_OPERATIONS = {
    17: (1520, 3267, 9),
    19: (2911, 2650, 10),
    40: (2542, 8779, 32),
    256: (16028, 56269, 248),
}


def jacobian_fill_multiplications(bits):
    adds, mixed, doubles = JACOBIAN_FILL_OPERATIONS[bits]
    return (adds * multiexp._ADD + mixed * multiexp._MIXED
            + doubles * multiexp._DOUBLE)


def model_multiplications(scalars, points):
    _, terms, bits = multiexp._lift(scalars, points)
    return multiexp._cheapest(
        multiexp._pippenger_cost, len(terms), bits, multiexp._WINDOWS)[0]


@pytest.mark.parametrize("bits", [17, 19, 40])
def test_quantised_gradient_commit_costs_fewer_multiplications(
        monkeypatch, model_generators, bits):
    """Batch-affine buckets on signed digits: ≥ 1.25× fewer field
    multiplications than the Jacobian bucket fill on the same input, an
    exact count that repeats, and a model within 5 % of it.  (Before the
    centred lift the 17 / 19-bit inputs cost 47 938 / 48 425 group
    operations: every negative value was a 256-bit scalar.)"""
    scalars = signed_scalars(bits, 2018, SECP256K1.n)
    spent, result = count_field_multiplications(
        monkeypatch, multi_scalar_mult, scalars, model_generators)
    assert count_field_multiplications(
        monkeypatch, multi_scalar_mult, scalars, model_generators)[0] == spent
    assert 1.25 * spent <= jacobian_fill_multiplications(bits)
    model = model_multiplications(scalars, model_generators)
    assert abs(model - spent) <= 0.05 * spent
    assert result == pippenger(scalars, model_generators, window=4)


def test_full_width_scalars_cost_no_more_than_before(
        monkeypatch, model_generators):
    rng = random.Random(7)
    scalars = [rng.randrange(SECP256K1.n) for _ in model_generators]
    spent, _ = count_field_multiplications(
        monkeypatch, multi_scalar_mult, scalars, model_generators)
    assert 1.25 * spent <= jacobian_fill_multiplications(256)
    model = model_multiplications(scalars, model_generators)
    assert abs(model - spent) <= 0.05 * spent


@pytest.mark.parametrize("bits", [20, 256])
def test_dispatch_picks_the_cheaper_algorithm_by_count(
        monkeypatch, model_generators, bits):
    for count in (1, 2, 8, 32, 48, 64):
        points = model_generators[:count]
        scalars = signed_scalars(bits, count, SECP256K1.n, seed=count)
        spent = {
            function: count_field_multiplications(
                monkeypatch, function, scalars, points)[0]
            for function in (multi_scalar_mult, straus, pippenger)
        }
        assert spent[multi_scalar_mult] <= 1.1 * min(
            spent[straus], spent[pippenger])


# -- hash-to-curve / generators ----------------------------------------------------------


def test_hash_to_curve_on_curve():
    for curve in (SECP256K1, SECP256R1):
        point = hash_to_curve(curve, b"seed")
        assert curve.is_on_curve(point.x, point.y)


def test_hash_to_curve_deterministic():
    assert hash_to_curve(SECP256K1, b"a") == hash_to_curve(SECP256K1, b"a")
    assert hash_to_curve(SECP256K1, b"a") != hash_to_curve(SECP256K1, b"b")


def test_an_empty_witness_derives():
    assert hash_to_curve(SECP256K1, b"a", []) == hash_to_curve(SECP256K1, b"a")


def test_derive_generators_distinct():
    gens = PedersenParams(SECP256K1, 20).generators
    assert len({g.to_bytes() for g in gens}) == 20


def test_derive_generators_deterministic_prefix():
    first = PedersenParams(SECP256K1, 5).generators
    longer = PedersenParams(SECP256K1, 10).generators
    assert longer[:5] == first


@pytest.mark.parametrize("curve, digest", [
    (SECP256K1,
     "e40180926b9636c7ca12bf484a484f9485e3f136259851a170cf9b22428865e4"),
    (SECP256R1,
     "316b1f56656c17a8f337c4a1f5d44fd4706b44aa081672505863b0d9b07d1a47"),
], ids=lambda value: getattr(value, "name", ""))
def test_derive_generators_pinned(curve, digest):
    """The single-exponentiation square root derives the same points."""
    generators = PedersenParams(curve, 64).generators
    encoded = b"".join(g.to_bytes() for g in generators)
    assert hashlib.sha256(encoded).hexdigest() == digest


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
def test_one_square_root_per_generator(curve, monkeypatch):
    """A candidate is judged by its Legendre symbol, so only the accepted
    one pays a square root (about two per generator before)."""
    roots = []
    square_root = hashing.sqrt_mod

    def counted(value, prime):
        roots.append(value)
        return square_root(value, prime)

    monkeypatch.setattr(hashing, "sqrt_mod", counted)
    PedersenParams(curve, 64, domain=b"test/one-square-root-per-generator")
    assert len(roots) == 64


@pytest.fixture
def square_roots(monkeypatch):
    """The values hash-to-curve takes square roots of, with an empty
    generator cache."""
    roots = []
    square_root = hashing.sqrt_mod

    def counted(value, prime):
        roots.append(value)
        return square_root(value, prime)

    monkeypatch.setattr(hashing, "sqrt_mod", counted)
    monkeypatch.setattr(pedersen, "_GENERATOR_CACHE", {})
    return roots


def test_extending_the_cache_derives_only_the_new_generators(square_roots):
    domain = b"test/extend-the-cache"
    first = PedersenParams(SECP256K1, 10, domain=domain).generators
    assert len(square_roots) == 10
    longer = PedersenParams(SECP256K1, 20, domain=domain).generators
    assert len(square_roots) == 20
    assert longer[:10] == first


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
def test_shipped_roots_replace_every_default_square_root(curve, square_roots):
    assert len(PedersenParams(curve, 4096).generators) == 4096
    assert square_roots == []


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
@pytest.mark.parametrize("start", [0, 4032])
def test_verified_generators_equal_derived_ones(curve, start):
    stream = hashing.generator_stream(curve, start=start)
    verified = list(itertools.islice(stream, 64))
    assert verified == [hash_to_curve(
        curve, hashing._seed(curve, hashing.DEFAULT_DOMAIN, index))
                        for index in range(start, start + 64)]


def _later_residue_root(curve, seed):
    """The root, with the digest's parity, of the second candidate of
    ``seed`` whose right-hand side is a residue."""
    residues = 0
    for counter in itertools.count():
        digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        x = int.from_bytes(digest, "big") % curve.p
        rhs = (x * x * x + curve.a * x + curve.b) % curve.p
        if legendre_symbol(rhs, curve.p) == 1:
            residues += 1
            if residues == 2:
                root = sqrt_mod(rhs, curve.p)
                return root if (root & 1) == (digest[-1] & 1) \
                    else curve.p - root


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
def test_shipped_witnesses_replace_every_default_symbol(curve, monkeypatch):
    """Verified set-up computes no Legendre symbol and no square root:
    a rejected candidate's witness is checked by one squaring."""
    calls = []

    def counting(name):
        function = getattr(hashing, name)

        def counted(*args):
            calls.append(name)
            return function(*args)
        return counted

    for name in ("legendre_symbol", "sqrt_mod"):
        monkeypatch.setattr(hashing, name, counting(name))
    monkeypatch.setattr(pedersen, "_GENERATOR_CACHE", {})
    assert len(PedersenParams(curve, 4096).generators) == 4096
    assert calls == []


def _shipped_table(curve, index):
    """The shipped witness table as a bytearray, and the offset of
    generator ``index``'s first witness in it."""
    table = bytearray(hashing._table(curve, hashing.DEFAULT_DOMAIN))
    counts = table[:hashing._TABLE_GENERATORS]
    return table, len(counts) + 32 * (sum(counts[:index]) + index)


def _raises_at(curve, table, index, monkeypatch):
    """Generators before ``index`` verify, generator ``index`` raises
    naming itself."""
    monkeypatch.setattr(hashing, "_table", lambda curve, domain: table)
    stream = hashing.generator_stream(curve)
    assert len(list(itertools.islice(stream, index))) == index
    with pytest.raises(ValueError, match=rf"witnesses of generator {index}:"):
        next(stream)


def test_the_tables_hold_a_header_and_one_witness_per_candidate():
    rejected = {}
    for curve in (SECP256K1, SECP256R1):
        table, end = _shipped_table(curve, hashing._TABLE_GENERATORS)
        assert len(table) == end
        rejected[curve.name] = sum(table[:hashing._TABLE_GENERATORS])
    assert rejected == {"secp256k1": 4116, "secp256r1": 4249}


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
@pytest.mark.parametrize("tamper", ["flipped byte", "negated root",
                                    "later residue"])
def test_a_wrong_shipped_root_raises_naming_its_generator(
        curve, tamper, monkeypatch):
    index = 5
    table, start = _shipped_table(curve, index)
    offset = start + 32 * table[index]
    root = int.from_bytes(table[offset:offset + 32], "big")
    if tamper == "flipped byte":
        table[offset + 7] ^= 0x01
    else:
        wrong = curve.p - root if tamper == "negated root" \
            else _later_residue_root(
                curve, hashing._seed(curve, hashing.DEFAULT_DOMAIN, index))
        table[offset:offset + 32] = wrong.to_bytes(32, "big")
    _raises_at(curve, table, index, monkeypatch)


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
@pytest.mark.parametrize("tamper", ["flipped byte", "zero witness",
                                    "count too low", "count too high"])
def test_a_wrong_shipped_witness_raises_naming_its_generator(
        curve, tamper, monkeypatch):
    table, _ = _shipped_table(curve, 0)
    index = next(i for i in range(5, hashing._TABLE_GENERATORS)
                 if table[i])
    _, offset = _shipped_table(curve, index)
    if tamper == "flipped byte":
        table[offset + 7] ^= 0x01
    elif tamper == "zero witness":
        table[offset:offset + 32] = bytes(32)
    else:
        table[index] += -1 if tamper == "count too low" else 1
    _raises_at(curve, table, index, monkeypatch)


def test_sha256_wrapper():
    import hashlib
    assert sha256(b"x") == hashlib.sha256(b"x").digest()


# -- Pedersen ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def params():
    return PedersenParams.setup(SECP256K1, 8)


def test_commit_deterministic(params):
    assert params.commit([1, 2, 3]) == params.commit([1, 2, 3])


def test_commit_binds_vector(params):
    assert params.commit([1, 2, 3]) != params.commit([1, 2, 4])
    assert params.commit([1, 2, 3]) != params.commit([2, 1, 3])


def test_verify_accepts_opening(params):
    vector = [5, 0, 7, 9]
    assert params.verify(params.commit(vector), vector)


def test_verify_rejects_wrong_opening(params):
    commitment = params.commit([5, 0, 7, 9])
    assert not params.verify(commitment, [5, 0, 7, 8])


def test_homomorphic_addition(params):
    v1 = [1, 2, 3, 4]
    v2 = [10, 20, 30, 40]
    combined = params.commit(v1) * params.commit(v2)
    assert combined == params.commit([a + b for a, b in zip(v1, v2)])


def test_homomorphic_many_parties(params):
    vectors = [[i + j for j in range(4)] for i in range(6)]
    product = Commitment.product(
        [params.commit(v) for v in vectors], SECP256K1
    )
    total = [sum(col) for col in zip(*vectors)]
    assert params.verify(product, total)


def test_commitment_identity(params):
    identity = Commitment.identity(SECP256K1)
    c = params.commit([1, 2])
    assert identity * c == c
    assert params.commit([0, 0, 0]) == identity


def test_commit_zero_padding(params):
    assert params.commit([1, 2]) == params.commit([1, 2, 0, 0])


def test_commit_oversized_vector_raises(params):
    with pytest.raises(ValueError):
        params.commit(list(range(9)))


def test_commit_negative_values_mod_order(params):
    negative = params.commit([-1])
    wrapped = params.commit([SECP256K1.n - 1])
    assert negative == wrapped


def test_commitment_serialization(params):
    c = params.commit([7, 8, 9])
    assert Commitment.from_bytes(SECP256K1, c.to_bytes()) == c


def test_params_size_validation():
    with pytest.raises(ValueError):
        PedersenParams.setup(SECP256K1, 0)


def test_generator_cache_shared():
    small = PedersenParams.setup(SECP256R1, 3)
    large = PedersenParams.setup(SECP256R1, 6)
    assert large.generators[:3] == small.generators


@settings(max_examples=5, deadline=None)
@given(
    st.lists(st.integers(min_value=-1000, max_value=1000),
             min_size=1, max_size=8),
    st.lists(st.integers(min_value=-1000, max_value=1000),
             min_size=1, max_size=8),
)
def test_homomorphism_property(v1, v2):
    params = PedersenParams.setup(SECP256K1, 8)
    length = max(len(v1), len(v2))
    v1 = v1 + [0] * (length - len(v1))
    v2 = v2 + [0] * (length - len(v2))
    assert (params.commit(v1) * params.commit(v2)
            == params.commit([a + b for a, b in zip(v1, v2)]))


@pytest.mark.parametrize("curve, commitment_hex", [
    ("secp256k1",
     "0317577affba7eab219ab025e77da06fdc5fb9af39ed312b7ac564147f10f674b5"),
    ("secp256r1",
     "02d71b28e2b7a668d22cc3ea09693a209d69dcef7302ed58518daee45974ac3af7"),
])
def test_partition_commitment_bytes_pinned(curve, commitment_hex):
    """A faster multi-exponentiation must return the same group element:
    these are the bytes the directory accumulates and monitors recompute."""
    committer = PartitionCommitter(48, curve=curve)
    values = np.random.default_rng(15).normal(size=48)
    # An aggregate of three: the counter is the last committed scalar.
    blob = encode_partition(committer.codec.quantize(values), 3.0)
    commitment = committer.commitment_of_blob(blob)
    assert commitment.to_bytes().hex() == commitment_hex
    assert committer.verify_blob(blob, commitment)

    quantized, counter = decode_partition(blob)
    quantized[0] += 2.0 ** -16  # one quantum
    assert not committer.verify_blob(
        encode_partition(quantized, counter), commitment)


# -- fixed-point codec ------------------------------------------------------------


def test_codec_roundtrip_exact():
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=16)
    values = np.array([0.5, -0.25, 1.0, 0.0, -3.75])
    decoded = codec.decode(codec.encode(values))
    np.testing.assert_allclose(decoded, values)


def test_codec_quantization_error_bounded():
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=24)
    rng = np.random.default_rng(3)
    values = rng.normal(size=100)
    decoded = codec.decode(codec.encode(values))
    assert np.max(np.abs(decoded - values)) <= 2.0 ** -24


def test_codec_additive_homomorphism():
    """Sum of encodings decodes to the sum of quantized values."""
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=20)
    a = np.array([0.1, -0.2, 0.3])
    b = np.array([-0.4, 0.5, -0.6])
    ea, eb = codec.encode(a), codec.encode(b)
    summed = [(x + y) % codec.order for x, y in zip(ea, eb)]
    decoded = codec.decode(summed)
    np.testing.assert_allclose(
        decoded, codec.quantize(a) + codec.quantize(b), atol=0
    )


def test_codec_quantize_matches_encode_decode():
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=12)
    values = np.array([0.123456, -9.87654])
    np.testing.assert_allclose(
        codec.quantize(values), codec.decode(codec.encode(values))
    )


def test_codec_validation():
    with pytest.raises(ValueError):
        FixedPointCodec(order=2)
    with pytest.raises(ValueError):
        FixedPointCodec(order=SECP256K1.n, fractional_bits=0)
    with pytest.raises(ValueError):
        FixedPointCodec(order=SECP256K1.n, fractional_bits=64)


def test_codec_negative_wraparound():
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=8)
    scalar = codec.encode_value(-1.0)
    assert scalar == codec.order - 256
    assert codec.decode_value(scalar) == -1.0


@settings(max_examples=30)
@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_codec_roundtrip_property(value):
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=20)
    decoded = codec.decode_value(codec.encode_value(value))
    assert abs(decoded - value) <= 2.0 ** -20


def test_end_to_end_gradient_commitment():
    """The protocol's core check: commit(quantized gradients) verifies the
    aggregated update via the commitment product."""
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=16)
    params = PedersenParams.setup(SECP256K1, 4)
    rng = np.random.default_rng(11)
    gradients = [rng.normal(size=4) for _ in range(3)]

    commitments = [params.commit(codec.encode(g)) for g in gradients]
    accumulated = Commitment.product(commitments, SECP256K1)

    aggregate = np.sum([codec.quantize(g) for g in gradients], axis=0)
    assert params.verify(accumulated, codec.encode(aggregate))

    tampered = aggregate.copy()
    tampered[0] += 2.0 ** -16
    assert not params.verify(accumulated, codec.encode(tampered))
