import math

import numpy as np

from tfa.rng import _WORD_BLOCK, Stream, derive_seed, mix64

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _ref_splitmix(seed, n):
    """Classic sequential SplitMix64: state += golden gamma, then finalize."""
    state = seed & MASK
    out = []
    for _ in range(n):
        state = (state + GOLDEN) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_counter_stream_matches_sequential_splitmix64():
    for seed in (0, 1, 42, 2**63 + 12345):
        got = Stream(seed).words(16).tolist()
        assert got == _ref_splitmix(seed, 16)


def test_stream_is_resumable():
    a = Stream(9)
    first = a.words(5).tolist() + a.words(5).tolist()
    assert first == Stream(9).words(10).tolist()


B = _WORD_BLOCK


def test_blocked_words_and_uniforms_match_sequential_splitmix64():
    seed = 2**63 + 12345
    ref = _ref_splitmix(seed, 3 * B + 5)
    for n in (0, 1, B - 1, B, B + 1, 3 * B + 5):
        assert Stream(seed).words(n).tolist() == ref[:n]
        got = Stream(seed).uniform(n)
        assert got.dtype == np.float64
        assert got.tolist() == [(w >> 11) * 2.0 ** -53 for w in ref[:n]]


def test_words_resume_across_a_block_edge():
    for a, b in ((B - 3, 10), (B, B + 1), (1, 2 * B)):
        s = Stream(77)
        first = s.words(a)
        second = s.uniform(b)
        assert first.tolist() == Stream(77).words(a + b)[:a].tolist()
        assert second.tobytes() == Stream(77).uniform(a + b)[a:].tobytes()
        s = Stream(77)
        assert np.concatenate([s.words(a), s.words(b)]).tobytes() == \
            Stream(77).words(a + b).tobytes()


def test_uniform_range_and_determinism():
    u = Stream(3).uniform(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, Stream(3).uniform(10_000))


def test_box_muller_matches_scalar_reference():
    n = 7  # odd count: consumes 8 words, drops the trailing deviate
    words = _ref_splitmix(123, 8)
    ref = []
    for k in range(4):
        u1 = (words[2 * k] >> 11) * 2.0 ** -53
        u2 = (words[2 * k + 1] >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log1p(-u1))
        ref.append(r * math.cos(2.0 * math.pi * u2))
        ref.append(r * math.sin(2.0 * math.pi * u2))
    got = Stream(123).normal(n)
    np.testing.assert_allclose(got, ref[:n], rtol=0, atol=1e-15)


def test_normal_moments_are_sane():
    z = Stream(7).normal(200_000)
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.std()) - 1.0) < 0.01


def test_permutation_is_valid_and_deterministic():
    p = Stream(5).permutation(257)
    assert sorted(p.tolist()) == list(range(257))
    assert np.array_equal(p, Stream(5).permutation(257))
    assert not np.array_equal(p, Stream(6).permutation(257))


def test_permutation_small_cases():
    assert Stream(1).permutation(0).tolist() == []
    assert Stream(1).permutation(1).tolist() == [0]


def test_derive_seed_depends_on_order_and_value():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(2, 2)
    assert derive_seed(1, 2) == derive_seed(1, 2)
    # matches the documented formula
    assert derive_seed(10, 4) == mix64((10 + 5 * GOLDEN) & MASK)
