import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfa.synth import l2_normalize

from helpers import entropy, ref_unit, softmax

finite_vecs = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=12)


def test_normalize_345():
    np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)


def test_normalize_unit_vector_unchanged():
    u = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(l2_normalize(u), u, atol=1e-15)


@given(finite_vecs)
def test_normalize_idempotent(v):
    arr = np.asarray(v)
    if np.linalg.norm(arr) < 1e-6:
        return
    once = l2_normalize(arr)
    twice = l2_normalize(once)
    assert np.linalg.norm(twice - once) <= 1e-12
    assert abs(np.linalg.norm(once) - 1.0) <= 1e-12


@pytest.mark.parametrize("width", [*range(1, 301), 1024])
def test_block_normalize_equals_the_vector_call_per_row(width):
    # numpy's pairwise sums regroup at 8 and 128 terms; every width up to 300
    # crosses both. The vector call also keeps the bytes of ``v / norm(v)``.
    rng = np.random.default_rng(width)
    block = rng.standard_normal((24, width)) * rng.uniform(1e-3, 1e3, (24, 1))
    out = l2_normalize(block)
    assert out.shape == block.shape
    for i, row in enumerate(block):
        assert out[i].tobytes() == l2_normalize(row).tobytes() == ref_unit(row).tobytes()


def test_block_normalize_of_no_rows_keeps_its_shape():
    assert l2_normalize(np.zeros((0, 5))).shape == (0, 5)


def test_softmax_symmetry_and_shift():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(softmax([7.0] * 4), [0.25] * 4, atol=1e-15)


def test_softmax_123_oracle():
    # high-precision exp / sum(exp) oracle
    expected = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
    np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), expected, atol=1e-12)


@given(finite_vecs)
@settings(max_examples=200)
def test_softmax_is_probability_vector(v):
    p = softmax(v)
    assert np.all(p >= 0.0)
    assert abs(float(p.sum()) - 1.0) <= 1e-9


@given(finite_vecs, st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_softmax_shift_invariance(v, c):
    p1 = softmax(np.asarray(v))
    p2 = softmax(np.asarray(v) + c)
    assert np.max(np.abs(p1 - p2)) <= 1e-9


@given(finite_vecs)
def test_softmax_preserves_argmax(v):
    arr = np.asarray(v)
    top = np.sort(arr)
    if arr.size > 1 and top[-1] - top[-2] < 1e-9:
        return  # near-ties collapse at float resolution; contract excludes ties
    assert int(np.argmax(softmax(arr))) == int(np.argmax(arr))


def test_entropy_one_hot_is_zero():
    assert entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_uniform_is_log_c():
    assert entropy([0.25] * 4) == pytest.approx(1.3862943611198906, abs=1e-9)


def test_entropy_half_quarter_quarter():
    # sum of -p ln p = 1.5 ln 2
    assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.039720770839918, abs=1e-9)


def test_entropy_rejects_non_probability():
    with pytest.raises(ValueError):
        entropy([0.7, 0.7])
    with pytest.raises(ValueError):
        entropy([-0.1, 1.1])


@given(st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False),
                min_size=2, max_size=10))
def test_entropy_of_softmax_maximal_iff_uniform(v):
    arr = np.asarray(v)
    h = entropy(softmax(arr))
    cap = np.log(arr.size)
    assert h <= cap + 1e-9
    if np.max(arr) - np.min(arr) == 0.0:
        assert abs(h - cap) <= 1e-9
    elif np.max(arr) - np.min(arr) >= 1e-3:
        assert h < cap - 1e-9
