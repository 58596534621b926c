"""Core hypervectors: random and level vectors, sign quantization and packed
words, with the HDC algebra as plain numpy arithmetic checked against the
per-component reference."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from hdwear.errors import InvalidArgumentError, InvalidDimensionError
from hdwear.hv import _tie_coin, level_flips, pack, pack_sign, random_hv, random_hvs, rng, rngs
from oracles import make_level_memory, sign_quantize

D = 4096


def cosine(a, b) -> float:
    return ref.cosine(a.tolist(), b.tolist())


def hamming(a, b) -> int:
    """Differing components of two bipolar vectors, from their packed words."""
    return int(np.bitwise_count(pack(a) ^ pack(b)).sum())


def packed_dot(a, b) -> int:
    """dot(a, b) = D - 2 * popcount(pack(a) XOR pack(b)) for bipolar a, b."""
    return a.shape[-1] - 2 * hamming(a, b)


@pytest.fixture(scope="module")
def pairs_4096():
    """1000 independent random pairs at D=4096."""
    return [(random_hv(11, 2 * i, D), random_hv(11, 2 * i + 1, D)) for i in range(1000)]


# ---------------------------------------------------------------- random_hv


def test_random_hv_deterministic():
    assert np.array_equal(random_hv(7, 0, 64), random_hv(7, 0, 64))


def test_random_hv_streams_near_orthogonal():
    a = random_hv(7, 0, D)
    b = random_hv(7, 1, D)
    assert abs(cosine(a, b)) < 0.08


def test_random_hv_dim_one():
    v = random_hv(7, 0, 1)
    assert v.dtype == np.int8 and v.shape == (1,)
    assert v[0] in (-1, 1)


def test_random_hv_zero_dim_rejected():
    with pytest.raises(InvalidDimensionError):
        random_hv(7, 0, 0)


def test_random_hv_negative_seed_rejected():
    with pytest.raises(InvalidArgumentError):
        random_hv(-1, 0, 8)


@pytest.mark.parametrize("dim", [1, 63, 64, 65, 1000])
def test_random_hvs_rows_are_the_streams_bytes(dim):
    streams = [0, 3, 1, 2**33, 2**64 - 1]
    batch = random_hvs(2**64 - 1, streams, dim)
    assert batch.shape == (len(streams), dim) and batch.dtype == np.int8
    for row, stream in zip(batch, streams):
        raw = rng(2**64 - 1, stream).bytes((dim + 7) // 8)
        assert row.tolist() == ref.random_components(raw, dim)
    assert random_hvs(5, [], dim).shape == (0, dim)
    with pytest.raises(InvalidArgumentError):
        random_hvs(5, [0, -1], dim)


def test_rngs_draws_what_fresh_generators_draw():
    # every re-keyed generator starts from a fresh state, whatever its
    # predecessor drew (an odd number of bytes, a sample without
    # replacement, raw words)
    keys = [(7, 0), (2**64 - 1, 2**33), (7, 0), (0, 5), (3, 2**64 - 1)]
    for i, ((seed, stream), gen) in enumerate(zip(keys, rngs(keys))):
        fresh = rng(seed, stream)
        assert gen.bytes(5) == fresh.bytes(5)
        drawn = gen.choice(1000, 17 * i, replace=False)
        assert drawn.tolist() == fresh.choice(1000, 17 * i, replace=False).tolist()
        gen.bit_generator.random_raw(i)
    with pytest.raises(InvalidArgumentError):
        list(rngs([(1, 0), (-1, 0)]))


def test_rng_is_philox_keyed_by_seed_and_stream():
    key = np.array([2**64 - 1, 2**33], dtype=np.uint64)
    expect = np.random.Generator(np.random.Philox(key=key)).bytes(16)
    assert rng(2**64 - 1, 2**33).bytes(16) == expect


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, None, True, False, np.True_])
def test_rng_rejects_bad_seed_and_stream(seed):
    with pytest.raises(InvalidArgumentError):
        rng(seed, 0)
    with pytest.raises(InvalidArgumentError):
        rng(0, seed)


def test_padding_canonical():
    for d in (1, 7, 63, 64, 65, 130):
        v = random_hv(9, 2, d)
        words = pack(v)
        assert words.shape == ((d + 63) // 64,)
        assert int(words[-1]) >> (d - 64 * (len(words) - 1)) == 0
        assert np.all(np.abs(v) == 1)


# ---------------------------------------------------------------------- bind
# Binding is the component-wise product a * b.


def test_bind_self_gives_all_ones():
    v = random_hv(1, 0, 256)
    assert np.array_equal(v * v, np.ones(256, dtype=np.int8))


def test_bind_identity_element():
    v = random_hv(1, 1, 256)
    assert np.array_equal(v * np.ones(256, dtype=np.int8), v)


def test_bind_output_near_orthogonal_to_inputs():
    a = random_hv(2, 0, D)
    b = random_hv(2, 1, D)
    r = a * b
    assert abs(cosine(r, a)) < 5 / np.sqrt(D)
    assert abs(cosine(r, b)) < 5 / np.sqrt(D)


# -------------------------------------------------------------------- bundle
# A bundle is plain array addition: integer or float components.


def test_bundle_single_roundtrip():
    v = random_hv(4, 0, 256)
    acc = np.zeros(256) + v
    assert np.array_equal(pack_sign(acc, tie_seed=99), pack(v))


def test_bundle_cancellation():
    v = random_hv(4, 1, 256)
    acc = np.zeros(256) + v - v
    assert np.all(acc == 0)


def test_bundle_member_cosine():
    # Expected cosine of a member in a 3-bundle is ~ 1/sqrt(3) ~= 0.577.
    a, b, c = (random_hv(4, i, D) for i in (2, 3, 4))
    acc = a.astype(np.int64) + b + c
    assert cosine(acc, a) > 0.4


# ----------------------------------------------------------------------- dot
# int8 operands are cast up before np.dot: their int8 sum would wrap.


def test_dot_self_is_dim():
    v = random_hv(5, 0, 300)
    assert np.dot(v.astype(np.int64), v) == 300
    assert packed_dot(v, v) == 300


def test_dot_negation_is_minus_dim():
    v = random_hv(5, 1, 300)
    assert np.dot(v.astype(np.int64), -v) == -300
    assert packed_dot(v, -v) == -300


def test_dot_packed_equals_reference_on_1000_pairs(pairs_4096):
    for a, b in pairs_4096[:1000]:
        assert packed_dot(a, b) == ref.dot(a.tolist(), b.tolist())


def test_dot_mixed_accum_bipolar():
    v = random_hv(5, 2, 128)
    acc = np.zeros(128) + 2.0 * v
    assert np.dot(acc, v) == 2.0 * 128


# -------------------------------------------------------------------- cosine


def test_cosine_self():
    v = random_hv(6, 0, 512)
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_scale_invariant():
    v = random_hv(6, 1, 512)
    acc = np.zeros(512) + 3.0 * v
    assert cosine(acc, v) == pytest.approx(1.0)


def test_cosine_random_small(pairs_4096):
    a, b = pairs_4096[0]
    assert abs(cosine(a, b)) < 0.08


# ---------------------------------------------- sign quantization: pack_sign
# pack_sign packs the majority sign straight into words; its per-component
# oracle is reference.sign_quantize with the tie coin random_hv(tie_seed, 0, D).


def test_sign_quantize_plain_signs():
    got = pack_sign(np.array([5.0, -2.0, 1.0]), 0)
    assert got.dtype == np.uint64
    assert got.tolist() == [0b101]


def test_sign_quantize_tie_deterministic():
    acc = np.zeros(128)
    a = pack_sign(acc, tie_seed=42)
    b = pack_sign(acc, tie_seed=42)
    assert np.array_equal(a, b)
    assert np.array_equal(a, pack(random_hv(42, 0, 128)))
    # a different tie seed resolves ties differently somewhere
    assert not np.array_equal(a, pack_sign(acc, tie_seed=43))


def test_tie_coin_is_drawn_once_and_read_only():
    coin = _tie_coin(42, 130)
    assert coin is _tie_coin(42, 130)
    assert np.array_equal(coin, random_hv(42, 0, 130) > 0)
    with pytest.raises(ValueError):
        coin[0] = not coin[0]
    # the shared coin leaves later calls unchanged
    acc = np.stack([random_hv(31, i, 130) + random_hv(32, i, 130) for i in range(3)])
    want = pack(sign_quantize(acc, 42))
    for _ in range(2):
        assert np.array_equal(pack_sign(acc, tie_seed=42), want)
    with pytest.raises(InvalidArgumentError):
        pack_sign(acc, tie_seed=[42])


def test_sign_quantize_matches_reference():
    rng = np.random.default_rng(0)
    comps = rng.integers(-2, 3, size=257).astype(float)
    got = pack_sign(comps, tie_seed=7)
    coin = random_hv(7, 0, 257).tolist()
    assert np.array_equal(got, pack(ref.sign_quantize(comps.tolist(), coin)))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.float64])
@pytest.mark.parametrize("d", [1, 63, 65, 77, 130])
def test_pack_sign_is_pack_of_sign_quantize(d, dtype):
    # sums of two +-1 vectors: exact zeros (ties) in about half the components
    acc = np.stack([random_hv(31, i, d) + random_hv(32, i, d) for i in range(5)]).astype(dtype)
    coin = random_hv(7, 0, d).tolist()
    want = pack([ref.sign_quantize(row.tolist(), coin) for row in acc])
    got = pack_sign(acc, tie_seed=7)
    assert got.dtype == np.uint64 and np.array_equal(got, want)
    assert np.array_equal(pack_sign(acc[0], tie_seed=7), want[0])
    bits = np.unpackbits(got.view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, d:].any()


# ------------------------------------------------------------- level memory
# make_level_memory (tests/oracles.py) builds the levels that level_flips draws.


def test_level_memory_endpoints():
    lm = make_level_memory(8, 100, 2)
    assert hamming(lm[0], lm[1]) == 50


def test_level_memory_closed_form_hammings():
    lm = make_level_memory(8, D, 5)
    for i in range(5):
        assert hamming(lm[0], lm[i]) == round(i * 2048 / 4)


def test_level_memory_endpoint_orthogonal():
    lm = make_level_memory(8, D, 16)
    assert abs(cosine(lm[0], lm[15])) <= 0.01


def test_level_memory_monotone_hamming():
    lm = make_level_memory(9, 512, 9)
    for i in range(9):
        dists = [hamming(lm[i], lm[j]) for j in range(i, 9)]
        assert dists == sorted(dists)


def test_level_memory_is_q_by_d_bipolar():
    lm = make_level_memory(8, 77, 6)
    assert lm.shape == (6, 77) and lm.dtype == np.int8
    assert np.all(np.abs(lm) == 1)


def test_level_memory_q_too_small():
    with pytest.raises(InvalidArgumentError):
        make_level_memory(8, 64, 1)


@pytest.mark.parametrize("dim, q", [(2, 2), (7, 30), (100, 2), (513, 16)])
def test_level_memory_is_base_negated_along_level_flips(dim, q):
    base, order, k = level_flips(8, dim, q)
    assert sorted(order.tolist()) == list(range(dim))
    assert k[0] == 0 and k[-1] == dim // 2 and np.all(np.diff(k) >= 0)
    for level, expect in zip(make_level_memory(8, dim, q), k):
        flipped = np.flatnonzero(level != base)
        assert sorted(flipped.tolist()) == sorted(order[:expect].tolist())


BAD_DIMS = [2.5, True, np.True_, "64", None, 0, -3]
DIM_CALLS = {
    "random_hv": lambda dim: random_hv(1, 0, dim),
    "random_hvs": lambda dim: random_hvs(1, [0, 1], dim),
    "level_flips": lambda dim: level_flips(1, dim, 4),
    "make_level_memory": lambda dim: make_level_memory(1, dim, 4),
}


@pytest.mark.parametrize("call", list(DIM_CALLS))
@pytest.mark.parametrize("dim", BAD_DIMS, ids=repr)
def test_bad_dim_raises_invalid_dimension(call, dim):
    with pytest.raises(InvalidDimensionError):
        DIM_CALLS[call](dim)


@pytest.mark.parametrize("q", [2.5, True, np.False_, "4", None, 1, 0, -2], ids=repr)
def test_bad_level_count_raises_invalid_argument(q):
    with pytest.raises(InvalidArgumentError):
        level_flips(1, 64, q)
    with pytest.raises(InvalidArgumentError):
        make_level_memory(1, 64, q)


def test_numpy_integer_dim_and_q_accepted():
    assert np.array_equal(random_hv(1, 0, np.int64(100)), random_hv(1, 0, 100))
    assert np.array_equal(random_hvs(1, [2, 3], np.uint16(65)), random_hvs(1, [2, 3], 65))
    lm = make_level_memory(1, np.int64(64), np.int32(5))
    assert np.array_equal(lm, make_level_memory(1, 64, 5))


# -------------------------------------------------------------- item memory
# The item memory is the seeded map symbol -> random_hv(seed, symbol, dim);
# FeatureEncoder draws its feature signatures from it.


def test_item_memory_deterministic_and_distinct():
    assert np.array_equal(random_hv(13, 5, 256), random_hv(13, 5, 256))
    assert not np.array_equal(random_hv(13, 5, 256), random_hv(13, 6, 256))


def test_item_memory_thread_shareable():
    # each call keys its own generator, so concurrent draws match serial ones
    out = [None] * 8

    def work(i):
        out[i] = random_hv(13, i % 4, 512)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(8):
        assert np.array_equal(out[i], random_hv(13, i % 4, 512))


def test_item_memory_negative_symbol():
    with pytest.raises(InvalidArgumentError):
        random_hv(13, -1, 64)


# --------------------------------------------------- algebraic invariants


SEEDS = range(100)


def test_bind_preserves_similarity_exactly():
    for s in SEEDS:
        a, b, c = (random_hv(s, 100 + i, 256) for i in range(3))
        assert ref.dot((a * c).tolist(), (b * c).tolist()) == ref.dot(a.tolist(), b.tolist())


def test_near_orthogonality_statistics(pairs_4096):
    # bipolar vectors have norm sqrt(D), so cosine = dot / D
    cos = np.array([packed_dot(a, b) for a, b in pairs_4096]) / D
    assert np.max(np.abs(cos)) < 0.08
    assert np.mean(np.abs(cos)) < 0.02


# ------------------------------------- packed vs reference, property-based


@st.composite
def dim_and_seed(draw):
    return draw(st.integers(1, 200)), draw(st.integers(0, 2**32))


@given(dim_and_seed())
@settings(max_examples=60, deadline=None)
def test_bind_matches_reference(ds):
    d, s = ds
    a, b = random_hv(s, 0, d), random_hv(s, 1, d)
    expect = ref.bind(a.tolist(), b.tolist())
    assert (a * b).tolist() == expect


@given(dim_and_seed())
@settings(max_examples=60, deadline=None)
def test_dot_and_hamming_match_reference(ds):
    d, s = ds
    a, b = random_hv(s, 2, d), random_hv(s, 3, d)
    al, bl = a.tolist(), b.tolist()
    assert np.dot(a.astype(np.int64), b) == ref.dot(al, bl)
    assert np.count_nonzero(a != b) == ref.hamming(al, bl)


@given(dim_and_seed(), st.floats(-3, 3, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_bundle_matches_reference(ds, w):
    d, s = ds
    v = random_hv(s, 2, d)
    got = np.zeros(d) + w * v
    expect = ref.bundle([0.0] * d, v.tolist(), w)
    assert np.allclose(got, expect)


@given(dim_and_seed())
@settings(max_examples=40, deadline=None)
def test_random_hv_bits_match_reference_unpacking(ds):
    d, s = ds
    v = random_hv(s, 3, d)
    raw = rng(s, 3).bytes((d + 7) // 8)
    assert v.tolist() == ref.random_components(raw, d)


# ---------------------------------------------------------- packed words


@pytest.mark.parametrize("d", [1, 63, 64, 65, 77, 130])
def test_pack_bit_i_is_component_i_and_padding_is_zero(d):
    hvs = np.stack([random_hv(21, i, d) for i in range(3)])
    words = pack(hvs)
    assert words.shape == (3, (d + 63) // 64) and words.dtype == np.uint64
    for v, row in zip(hvs, words):
        raw = row.tobytes()
        assert ref.random_components(raw, d) == v.tolist()
        padding = [(raw[i // 8] >> (i % 8)) & 1 for i in range(d, 8 * len(raw))]
        assert not any(padding)
    # a bool array packs its True components
    assert np.array_equal(pack(hvs > 0), words)
    # an all-(+1) batch sets every valid bit and nothing else
    ones = pack(np.ones((2, d), dtype=np.int8))
    assert int(np.bitwise_count(ones).sum()) == 2 * d


@given(dim_and_seed())
@settings(max_examples=40, deadline=None)
def test_packed_hamming_matches_reference(ds):
    d, s = ds
    a, b = random_hv(s, 4, d), random_hv(s, 5, d)
    assert int(np.bitwise_count(pack(a) ^ pack(b)).sum()) == ref.hamming(a.tolist(), b.tolist())
