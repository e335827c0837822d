import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfa.alignment import (
    ALN_MAGIC,
    TrainConfig,
    _bce_elementwise,
    _sigmoid,
    adam_init,
    adam_step,
    init_relation,
    load_alignment,
    loss_and_grad,
    save_alignment,
    score_matrix,
    train_alignment,
)
from tfa.errors import (
    BadMagic,
    ConfigError,
    DimMismatch,
    DuplicateClassId,
    EmptyTrainSet,
    FormatError,
    ValidationError,
)
from tfa.numerics import l2_normalize
from tfa.rng import Stream
from tfa.synth import SynthConfig, generate_synthetic

from helpers import (
    central_difference_check,
    f32_logit_bound,
    f64_score_matrix,
    make_unit,
    ref_adam_step,
    ref_forward,
    ref_loss_and_grad,
    ref_pairs,
    ref_scalar_adam,
    ref_score_matrix,
    ref_score_pair,
)


# ---- initialization ----

def test_init_is_deterministic_per_seed():
    a = init_relation(8, seed=1, hidden=(6, 4))
    b = init_relation(8, seed=1, hidden=(6, 4))
    c = init_relation(8, seed=2, hidden=(6, 4))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_init_biases_zero_and_weights_bounded():
    p = init_relation(5, seed=9, hidden=(7, 3))
    for b in p.biases:
        assert np.all(b == 0.0)
    for w in p.weights:
        bound = math.sqrt(6.0 / w.shape[0])
        assert np.max(np.abs(w)) <= bound


def test_default_architecture_shape():
    p = init_relation(16, seed=0)
    assert p.layer_sizes() == [32, 2048, 1024, 1]


# ---- forward scoring ----

def score_pair(params, v, e, table=score_matrix):
    """(sigmoid score, logit) of one (vision, text) pair, scored as a 1x1 table."""
    z = table(params, np.reshape(v, (1, -1)), np.reshape(e, (1, -1)))
    return float(_sigmoid(z)[0, 0]), float(z[0, 0])


def test_zero_parameter_net_scores_half():
    p = init_relation(3, seed=0, hidden=(4, 2))
    for w in p.weights:
        w[:] = 0.0
    s, z = score_pair(p, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert s == 0.5 and z == 0.0


def test_score_is_strictly_inside_unit_interval():
    p = init_relation(6, seed=3, hidden=(8, 4))
    stream = Stream(11)
    for _ in range(20):
        s, _ = score_pair(p, make_unit(stream, 6), make_unit(stream, 6))
        assert 0.0 < s < 1.0


def test_score_pair_matches_loop_oracle_and_reference():
    params = init_relation(4, seed=42, hidden=(3, 2))
    v = l2_normalize([1.0, -2.0, 0.5, 0.25])
    e = l2_normalize([0.3, 0.3, -0.9, 1.1])
    s, z = score_pair(params, v, e, table=f64_score_matrix)
    rs, rz = ref_score_pair(params, v, e)
    assert s == pytest.approx(rs, abs=1e-12)
    assert z == pytest.approx(rz, abs=1e-12)
    # frozen 64-bit reference values for cross-checking other implementations
    assert s == pytest.approx(0.619122426909387, abs=1e-9)
    assert z == pytest.approx(0.48582504187010556, abs=1e-9)


def test_score_pair_rejects_wrong_dimension():
    p = init_relation(4, seed=0, hidden=(3, 2))
    with pytest.raises(DimMismatch):
        score_pair(p, [1.0, 0.0], [0.0, 1.0, 0.0, 0.0])


def test_score_matrix_single_class_and_zero_net():
    p = init_relation(3, seed=0, hidden=(4, 2))
    for w in p.weights:
        w[:] = 0.0
    table = score_matrix(p, [[1.0, 0.0, 0.0]], np.eye(3)[1:2])
    assert table.shape == (1, 1)
    assert _sigmoid(table)[0, 0] == 0.5


def test_score_matrix_is_per_class_independent():
    p = init_relation(5, seed=4, hidden=(6, 3))
    stream = Stream(2)
    protos = np.stack([make_unit(stream, 5) for _ in range(4)])
    v = make_unit(stream, 5)[None, :]
    logits = score_matrix(p, v, protos)[0]
    perm = [2, 0, 3, 1]
    permuted = score_matrix(p, v, protos[perm])[0]
    # un-permute and compare
    restored = np.empty_like(logits)
    for out_pos, orig_pos in enumerate(perm):
        restored[orig_pos] = permuted[out_pos]
    np.testing.assert_allclose(restored, logits, atol=0)


def test_score_matrix_agrees_with_score_pair():
    p = init_relation(6, seed=8, hidden=(10, 5))
    stream = Stream(3)
    vs = np.vstack([make_unit(stream, 6) for _ in range(3)])
    es = np.vstack([make_unit(stream, 6) for _ in range(4)])
    table = score_matrix(p, vs, es)
    for i in range(3):
        for j in range(4):
            _, z = score_pair(p, vs[i], es[j])
            assert table[i, j] == pytest.approx(z, abs=1e-12)


# ---- the allocation-lean kernel against its np.where oracle ----

KERNEL_SLOPES = (0.0, 0.01, 1.0, 2.5)


def _kernel_net(slope, zero_weights):
    p = init_relation(6, seed=12, hidden=(9, 5), slope=slope)
    stream = Stream(31)
    for b in p.biases:
        b += stream.normal(b.shape[0])
    if zero_weights:
        # Every pre-activation is then its bias, and a bias of +0.0 or -0.0
        # gives an exact zero, where both LeakyReLU branches meet.
        for w in p.weights:
            w[:] = 0.0
        p.biases[0][:] = [0.0, -0.0, 0.5, -0.5, 0.0, -0.0, 1.0, -1.0, 0.0]
        p.biases[1][:] = [-0.0, 0.0, 0.25, -0.25, -0.0]
    return p


def _kernel_inputs():
    stream = Stream(32)
    vs = np.vstack([make_unit(stream, 6) for _ in range(5)])
    protos = np.vstack([make_unit(stream, 6) for _ in range(3)])
    return vs, protos, np.array([0, 2, 1, 1, 0])


def test_leaky_relu_matches_where_bit_for_bit():
    from tfa.alignment import _leaky_relu_

    tiny = np.finfo(np.float64).tiny
    special = np.array([0.0, -0.0, np.nan, -np.nan, 1.5, -1.5, tiny, -tiny, tiny / 4,
                        -tiny / 4, 1e308, -1e308, -np.inf, 3.0, -7.25])
    with np.errstate(all="ignore"):
        for slope in (*KERNEL_SLOPES, 0.5, 1e-300, 7.0):
            # +inf at slope 0 is the one documented exception (0*inf is NaN).
            z = np.append(special, np.inf) if slope > 0 else special
            want = np.where(z > 0.0, z, slope * z)
            got = _leaky_relu_(z.copy(), slope)
            assert got.tobytes() == want.tobytes(), slope


@pytest.mark.parametrize("width", [3, 2048, (1 << 15) + 3])
@pytest.mark.parametrize("slope", [0.0, 0.01, 1.0, 2.5])
def test_gate_matches_the_masked_multiply_bit_for_bit(width, slope):
    from tfa.alignment import _BLOCK, _gate_

    # Two and a half blocks of rows (three rows past one block when a row is
    # wider than a block), every entry of both h and delta drawn from signed
    # zeros, NaN, infinities and ordinary values, so every block edge meets them.
    rows = max(3, 5 * _BLOCK // (2 * width))
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -1.5, 3e-310, -7.25])
    rng = np.random.default_rng(width)
    h = rng.choice(special, size=(rows, width))
    delta = rng.choice(special, size=(rows, width))
    want = delta.copy()
    with np.errstate(all="ignore"):
        np.multiply(want, slope, out=want, where=~(h > 0.0))
        got = _gate_(delta, h, slope)
    assert got is delta
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("targets", [
    [-1, 0, 1, 1, 0],                   # a negative index would wrap to the last prototype
    [0, 3, 1, 1, 0],                    # past the last prototype
    [0],                                # one target for five samples would broadcast
    [0, 2, 1, 1, 0, 0],
    [[0, 2, 1, 1, 0]],
    [0.0, 2.0, 1.0, 1.0, 0.0],
    [True, False, True, True, False],
])
def test_loss_and_grad_needs_one_in_range_target_per_sample(targets):
    p = _kernel_net(0.01, False)
    vs, protos, _ = _kernel_inputs()
    with pytest.raises(ValidationError):
        loss_and_grad(p, vs, protos, np.array(targets))


# The factored kernel adds the first layer's two halves and reduces the last
# layer row-wise, where the oracle multiplies whole pair rows, so with random
# weights the last bits of logits and gradients differ from it by design.
LOGIT_ATOL = 1e-14
GRAD_RTOL = 1e-14


def _assert_grads_close(got, want):
    """Each gradient array within GRAD_RTOL of the oracle's, relative to the
    oracle array's largest entry."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= GRAD_RTOL * np.abs(w).max()


@pytest.mark.parametrize("slope", KERNEL_SLOPES)
@pytest.mark.parametrize("zero_weights", [False, True])
def test_score_matrix_matches_the_where_kernel(slope, zero_weights):
    p = _kernel_net(slope, zero_weights)
    vs, protos, _ = _kernel_inputs()
    want = ref_score_matrix(p, vs, protos)
    table = f64_score_matrix(p, vs, protos, chunk=7)  # blocks of 2 samples, then 1
    np.testing.assert_allclose(table, want, rtol=0, atol=LOGIT_ATOL)
    assert np.array_equal(np.argmax(table, axis=1), np.argmax(want, axis=1))
    if zero_weights:
        # Every pre-activation is its bias, so the signed zeros meet the
        # LeakyReLU exactly as in the oracle: bit for bit.
        assert table.tobytes() == want.tobytes()
        assert np.unique(table).size == 1


@pytest.mark.parametrize("slope", KERNEL_SLOPES)
@pytest.mark.parametrize("zero_weights", [False, True])
def test_float32_table_is_within_its_bound_of_the_oracle(slope, zero_weights):
    p = _kernel_net(slope, zero_weights)
    vs, protos, _ = _kernel_inputs()
    want = f64_score_matrix(p, vs, protos, chunk=7)
    table = score_matrix(p, vs, protos, chunk=7)
    assert table.dtype == np.float64
    err = np.abs(table - want)
    assert np.all(err <= f32_logit_bound(p, vs, protos))
    assert np.array_equal(np.argmax(table, axis=1), np.argmax(want, axis=1))
    if zero_weights:
        # Every hidden value is a bias of few bits, and the logit is the
        # float64 last bias: bit for bit.
        assert table.tobytes() == want.tobytes()
    else:
        assert err.max() > 0.0  # the hidden layers did run in float32


def test_float32_table_at_the_benchmark_width():
    p = init_relation(64, seed=3, hidden=(1024, 512))
    rng = np.random.default_rng(0)
    for b in p.biases:
        b += rng.normal(size=b.shape) * 0.1
    vs = l2_normalize(rng.normal(size=(40, 64)))
    protos = l2_normalize(rng.normal(size=(35, 64)))
    want = f64_score_matrix(p, vs, protos)
    table = score_matrix(p, vs, protos)
    err = np.abs(table - want)
    assert np.all(err <= f32_logit_bound(p, vs, protos))
    assert 0.0 < err.max() < 1e-5
    assert np.array_equal(np.argmax(table, axis=1), np.argmax(want, axis=1))


def test_a_loaded_scorer_keeps_float32_and_copies_to_float64(tmp_path):
    p = _kernel_net(0.01, False)
    save_alignment(p, tmp_path / "s.aln")
    loaded, _ = load_alignment(tmp_path / "s.aln")
    assert all(a.dtype == np.float32 and a.base is not None
               for a in (*loaded.weights, *loaded.biases))
    copy = loaded.copy()
    assert all(a.dtype == np.float64 and a.flags.writeable for a in (*copy.weights, *copy.biases))
    # The float64 copy holds the same values, so it scores to the same bytes.
    vs, protos, _ = _kernel_inputs()
    assert score_matrix(loaded, vs, protos).tobytes() == score_matrix(copy, vs, protos).tobytes()
    assert f64_score_matrix(loaded, vs, protos).tobytes() == \
        f64_score_matrix(copy, vs, protos).tobytes()


@pytest.mark.parametrize("slope", KERNEL_SLOPES)
@pytest.mark.parametrize("zero_weights", [False, True])
def test_loss_and_grad_matches_the_pre_activation_gate(slope, zero_weights):
    p = _kernel_net(slope, zero_weights)
    vs, protos, targets = _kernel_inputs()
    loss, g = loss_and_grad(p, vs, protos, targets)
    want_loss, want_dw, want_db = ref_loss_and_grad(p, vs, protos, targets)
    assert loss == pytest.approx(want_loss, rel=GRAD_RTOL, abs=0)
    _assert_grads_close((*g.d_weights, *g.d_biases), (*want_dw, *want_db))
    if zero_weights:
        assert loss == want_loss
        for got, want in zip((*g.d_weights, *g.d_biases), (*want_dw, *want_db)):
            assert got.tobytes() == want.tobytes()


def test_forward_keep_returns_the_layer_inputs():
    from tfa.alignment import _first_layer, _forward

    p = _kernel_net(0.01, False)
    vs, protos, _ = _kernel_inputs()
    logits, acts = _forward(p, *_first_layer(p, vs, protos), keep=True)
    want_logits, want_acts, _ = ref_forward(p, ref_pairs(vs, protos), keep=True)
    np.testing.assert_allclose(logits, want_logits, rtol=0, atol=LOGIT_ATOL)
    # The oracle's first entry is the pair matrix, which the kernel never builds.
    assert len(acts) == len(want_acts) - 1 == 2
    for got, want in zip(acts, want_acts[1:]):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=LOGIT_ATOL)
        assert np.array_equal(got > 0.0, want > 0.0)


def test_scorer_without_hidden_layers_matches_the_oracle():
    p = init_relation(6, seed=12, hidden=())
    p.biases[0] += 0.25
    vs, protos, targets = _kernel_inputs()
    np.testing.assert_allclose(score_matrix(p, vs, protos),
                               ref_score_matrix(p, vs, protos), rtol=0, atol=LOGIT_ATOL)
    loss, g = loss_and_grad(p, vs, protos, targets)
    want_loss, want_dw, want_db = ref_loss_and_grad(p, vs, protos, targets)
    assert loss == pytest.approx(want_loss, rel=GRAD_RTOL, abs=0)
    _assert_grads_close((*g.d_weights, *g.d_biases), (*want_dw, *want_db))
    assert score_pair(p, vs[1], protos[2])[1] == pytest.approx(
        score_matrix(p, vs, protos)[1, 2], rel=0, abs=LOGIT_ATOL)


@pytest.mark.parametrize("hidden", [(40, 24), (1024, 512)], ids=["40x24", "1024x512"])
def test_score_matrix_bytes_do_not_depend_on_the_block_size(hidden):
    # 3 prototypes: chunk 2 scores one sample (3 rows) per block, 7 two, 256
    # eighty-five and 8192 all 101 at once. This rests on the BLAS rounding a
    # GEMM row the same way whatever the row count. OpenBLAS does at these
    # widths and at the default and benchmark ones, all multiples of 8; at
    # some others (36/20 with 35 prototypes) it does not. A block of one row
    # goes through gemv instead, which happens only with one prototype and a
    # chunk below 2.
    p = init_relation(8, seed=5, hidden=hidden, slope=0.01)
    stream = Stream(6)
    for b in p.biases:
        b += stream.normal(b.shape[0])
    vs = np.vstack([make_unit(stream, 8) for _ in range(101)])
    protos = np.vstack([make_unit(stream, 8) for _ in range(3)])
    tables = [score_matrix(p, vs, protos, chunk=chunk) for chunk in (2, 7, 256, 8192)]
    for table in tables[1:]:
        assert table.tobytes() == tables[0].tobytes()


_TABLE_HASH = """
import hashlib, numpy as np
from tfa.alignment import init_relation, score_matrix
p = init_relation(64, seed=3, hidden=(1024, 512))
rng = np.random.default_rng(0)
for b in p.biases:
    b += rng.normal(size=b.shape) * 0.1
vs, protos = rng.normal(size=(700, 64)), rng.normal(size=(35, 64))
print(hashlib.sha256(score_matrix(p, vs, protos).tobytes()).hexdigest())
"""


def test_score_matrix_bytes_do_not_depend_on_blas_threads():
    # The benchmark's table shape: wide enough layers and enough rows that a
    # threaded BLAS splits the work. The fan-out-1 gemv that the row reduction
    # replaced gave 4 of these 24,500 logits other last bits at 2 threads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _TABLE_HASH], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_sigmoid_monotone_argmax_identity():
    logits = np.array([0.3, -2.0, 5.1, 0.2])
    assert int(np.argmax(_sigmoid(logits))) == int(np.argmax(logits))


# ---- loss ----

def bce_loss(logits, target_index):
    """Mean one-vs-all binary cross-entropy of one logit row."""
    logits = np.asarray(logits, dtype=np.float64)
    t = np.zeros_like(logits)
    t[target_index] = 1.0
    return float(_bce_elementwise(logits, t).mean())


def test_bce_uniform_scores_is_ln2():
    for c in (1, 2, 7):
        assert bce_loss(np.zeros(c), 0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_perfect_prediction_approaches_zero():
    assert bce_loss([40.0, -40.0, -40.0], 0) < 1e-15


def test_bce_two_class_example():
    # -(ln 0.8 + ln 0.7) / 2, computed directly
    logits = np.log([0.8 / 0.2, 0.3 / 0.7])
    assert bce_loss(logits, 0) == pytest.approx(0.28990924762647107, abs=1e-9)


def test_bce_is_permutation_invariant_under_relabeling():
    p = init_relation(5, seed=4, hidden=(6, 3))
    stream = Stream(6)
    protos = np.vstack([make_unit(stream, 5) for _ in range(4)])
    vs = np.vstack([make_unit(stream, 5) for _ in range(2)])
    targets = np.array([1, 3])
    base = loss_and_grad(p, vs, protos, targets)[0]
    perm = np.array([3, 1, 0, 2])
    inv = np.argsort(perm)
    shuffled = loss_and_grad(p, vs, protos[perm], inv[targets])[0]
    assert shuffled == pytest.approx(base, abs=1e-12)


# ---- gradients ----

def _zero_loss_params():
    # m=1, hidden (1,1); one sample v=[1] with prototypes e0=[1], e1=[-1],
    # target class 0: logits come out at +/-45, so the loss is ~e^-45.
    p = init_relation(1, seed=0, hidden=(1, 1))
    p.weights[0][:, 0] = [0.0, 1.0]   # z1 = e
    p.weights[1][:, 0] = [1.0]
    w = 90.0 / 1.0001
    p.weights[2][:, 0] = [w]
    p.biases[2][0] = 45.0 - w
    return p


def test_zero_loss_configuration_is_stationary():
    p = _zero_loss_params()
    vs = np.array([[1.0]])
    protos = np.array([[1.0], [-1.0]])
    loss, g = loss_and_grad(p, vs, protos, np.array([0]))
    assert loss < 1e-15
    assert g.norm() <= 1e-9


def test_duplicating_the_batch_keeps_the_mean_gradient():
    p = init_relation(4, seed=5, hidden=(5, 3))
    stream = Stream(9)
    vs = np.vstack([make_unit(stream, 4) for _ in range(3)])
    protos = np.vstack([make_unit(stream, 4) for _ in range(3)])
    targets = np.array([0, 2, 1])
    g1 = loss_and_grad(p, vs, protos, targets)[1]
    g2 = loss_and_grad(p, np.vstack([vs, vs]), protos, np.concatenate([targets, targets]))[1]
    for a, b in zip((*g1.d_weights, *g1.d_biases), (*g2.d_weights, *g2.d_biases)):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_gradient_matches_central_differences_small():
    stream = Stream(21)
    for draw in range(5):
        p = init_relation(6, seed=100 + draw, hidden=(8, 5))
        for b in p.biases:
            b += 0.1 * stream.normal(b.shape[0])
        vs = np.vstack([make_unit(stream, 6) for _ in range(2)])
        protos = np.vstack([make_unit(stream, 6) for _ in range(3)])
        targets = (stream.words(2) % 3).astype(np.int64)
        central_difference_check(p, vs, protos, targets, h=1e-5, rtol=1e-4)


# ---- Adam ----

def test_adam_zero_gradient_is_a_no_op():
    p = init_relation(3, seed=7, hidden=(4, 2))
    before = [w.copy() for w in p.weights]
    state = adam_init(p)
    zeros = grad_like_zero(p)
    adam_step(p, state, zeros)
    for w, b in zip(p.weights, before):
        np.testing.assert_array_equal(w, b)


def grad_like_zero(p):
    from tfa.alignment import Gradients
    return Gradients([np.zeros_like(w) for w in p.weights],
                     [np.zeros_like(b) for b in p.biases])


def test_adam_first_step_magnitude():
    p = init_relation(2, seed=1, hidden=(3, 2))
    state = adam_init(p, lr=0.01)
    g = grad_like_zero(p)
    g.d_weights[0][0, 0] = 0.37
    before = p.weights[0][0, 0]
    adam_step(p, state, g)
    step = before - p.weights[0][0, 0]
    expected = 0.01 * 0.37 / (abs(0.37) + state.epsilon)
    assert step == pytest.approx(expected, abs=1e-15)
    assert step == pytest.approx(0.01, rel=1e-6)


def test_adam_matches_scalar_oracle_on_quadratic():
    # embed a 1-D quadratic in one weight coordinate, zero gradients elsewhere
    p = init_relation(1, seed=3, hidden=(1,))
    p.weights[0][:] = 0.0
    p.weights[1][:] = 0.0
    x0 = 1.7
    p.weights[0][0, 0] = x0
    state = adam_init(p, lr=0.1)
    traj = []
    for _ in range(2):
        g = grad_like_zero(p)
        g.d_weights[0][0, 0] = 2.0 * p.weights[0][0, 0]
        adam_step(p, state, g)
        traj.append(float(p.weights[0][0, 0]))
    ref = ref_scalar_adam(x0, lambda x: 2.0 * x, 0.1, state.beta1, state.beta2,
                          state.epsilon, 2)
    np.testing.assert_allclose(traj, ref, rtol=0, atol=1e-12)
    assert float(np.abs(p.weights[0]).sum()) == pytest.approx(abs(traj[-1]), abs=1e-12)


@pytest.mark.parametrize("slope", [0.01, 2.5])
def test_in_place_adam_matches_the_temporaries_version(slope):
    p = init_relation(6, seed=40, hidden=(9, 5), slope=slope)
    q = p.copy()
    s_new, s_ref = adam_init(p, lr=0.01), adam_init(q, lr=0.01)
    stream = Stream(41)
    for step in range(6):
        vs = np.vstack([make_unit(stream, 6) for _ in range(4)])
        protos = np.vstack([make_unit(stream, 6) for _ in range(3)])
        targets = (stream.words(4) % 3).astype(np.int64)
        g = loss_and_grad(p, vs, protos, targets)[1]
        adam_step(p, s_new, g)
        ref_adam_step(q, s_ref, g)
        assert s_new.step == s_ref.step == step + 1
        for got, want in zip(
                (*p.weights, *p.biases, *s_new.m, *s_new.v),
                (*q.weights, *q.biases, *s_ref.m, *s_ref.v)):
            assert got.tobytes() == want.tobytes()


def test_blocked_adam_matches_the_temporaries_version_across_blocks():
    from tfa.alignment import _BLOCK, Gradients

    # One hidden layer wider than an Adam block: the first weight matrix has
    # rows longer than a block, and the bias and last layer span two blocks.
    p = init_relation(1, seed=42, hidden=(_BLOCK + 7,))
    q = p.copy()
    s_new, s_ref = adam_init(p, lr=0.01), adam_init(q, lr=0.01)
    rng = np.random.default_rng(43)
    for _ in range(3):
        g = Gradients([rng.normal(size=w.shape) for w in p.weights],
                      [rng.normal(size=b.shape) for b in p.biases])
        adam_step(p, s_new, g)
        ref_adam_step(q, s_ref, g)
    for got, want in zip(
            (*p.weights, *p.biases, *s_new.m, *s_new.v),
            (*q.weights, *q.biases, *s_ref.m, *s_ref.v)):
        assert got.tobytes() == want.tobytes()


def test_adam_refuses_frozen_params():
    p = init_relation(2, seed=1, hidden=(2,)).freeze()
    with pytest.raises(ValidationError):
        adam_step(p, adam_init(p), grad_like_zero(p))


# ---- training ----

def _base_task_data(m=64, classes=10, per_class=20, sigma=0.0, seed=5):
    cfg = SynthConfig(dim=m, base_classes=classes, novel_tasks=1,
                      classes_per_novel_task=1, train_per_base_class=per_class,
                      test_per_class=10, shots=1, intra_class_sigma=sigma,
                      modality_gap_sigma=0.0, seed=seed)
    data, protos = generate_synthetic(cfg)
    base = data.subset(data.indices(task=0))
    return base, [p for p in protos if p.class_id < classes]


def test_training_reduces_loss_and_freezes():
    base, protos = _base_task_data()
    train = base.subset(base.indices(split="train"))
    hyper = TrainConfig(epochs=6, batch_size=25, lr=0.001, seed=2, hidden=(128, 64))
    params = init_relation(64, hyper.seed, hyper.hidden)
    trained, history = train_alignment(params, train, protos, hyper)
    assert history[-1] < history[0]
    assert trained.frozen
    assert not trained.weights[0].flags.writeable


def test_training_is_deterministic():
    base, protos = _base_task_data(m=16, classes=4, per_class=8)
    train = base.subset(base.indices(split="train"))
    hyper = TrainConfig(epochs=2, batch_size=5, seed=3, hidden=(12, 6))
    t1, h1 = train_alignment(init_relation(16, 3, (12, 6)), train, protos, hyper)
    t2, h2 = train_alignment(init_relation(16, 3, (12, 6)), train, protos, hyper)
    assert h1 == h2
    for a, b in zip(t1.weights, t2.weights):
        np.testing.assert_array_equal(a, b)


def test_trained_scorer_classifies_separable_base_task():
    base, protos = _base_task_data(m=64, classes=10, per_class=20, sigma=0.0)
    train = base.subset(base.indices(split="train"))
    hyper = TrainConfig(epochs=10, batch_size=25, lr=0.001, seed=2, hidden=(128, 64))
    trained, _ = train_alignment(init_relation(64, 2, (128, 64)), train, protos, hyper)
    test_idx = base.indices(split="test")
    ids = np.array([p.class_id for p in protos])
    scores = _sigmoid(score_matrix(trained, base.vectors[test_idx],
                                   np.stack([p.vector for p in protos])))
    preds = ids[np.argmax(scores, axis=1)]
    assert np.mean(preds == base.labels[test_idx]) >= 0.99


def test_training_rejects_bad_inputs():
    base, protos = _base_task_data(m=16, classes=4, per_class=8)
    empty = base.subset([])
    with pytest.raises(EmptyTrainSet):
        train_alignment(init_relation(16, 0, (4, 2)), empty, protos)
    with_test_split = base  # contains test records
    with pytest.raises(ValidationError):
        train_alignment(init_relation(16, 0, (4, 2)), with_test_split, protos)


def test_training_trains_its_argument_in_place(monkeypatch):
    import tfa.alignment as alignment

    base, protos = _base_task_data(m=16, classes=4, per_class=8)
    train = base.subset(base.indices(split="train"))
    hyper = TrainConfig(epochs=2, batch_size=5, seed=3, hidden=(12, 6))
    params = init_relation(16, 3, (12, 6))
    before = [w.copy() for w in params.weights]
    trained, _ = train_alignment(params, train, protos, hyper)
    assert trained is params and params.frozen
    assert not any(np.array_equal(a, b) for a, b in zip(before, params.weights))

    # A frozen scorer is rejected up front, before any forward pass, and a
    # copy of it trains.
    def no_step(*_args):
        raise AssertionError("a frozen scorer reached a training step")

    frozen = [w.tobytes() for w in params.weights]
    with monkeypatch.context() as mp:
        mp.setattr(alignment, "loss_and_grad", no_step)
        with pytest.raises(ValidationError, match=r"params\.copy\(\)"):
            train_alignment(params, train, protos, hyper)
    assert [w.tobytes() for w in params.weights] == frozen
    copy, _ = train_alignment(params.copy(), train, protos, hyper)
    assert copy is not params and copy.frozen


def test_training_rejects_duplicate_prototype_ids():
    from dataclasses import replace

    base, protos = _base_task_data(m=16, classes=4, per_class=8)
    train = base.subset(base.indices(split="train"))
    with pytest.raises(DuplicateClassId):
        train_alignment(init_relation(16, 0, (4, 2)), train,
                        protos + [replace(protos[1], class_id=0)])


# ---- checkpoints ----

def test_checkpoint_round_trip(tmp_path):
    p = init_relation(4, seed=6, hidden=(5, 3))
    path = tmp_path / "scorer.aln"
    save_alignment(p, path, train_config=TrainConfig(hidden=(5, 3)), final_loss=0.123)
    back, meta = load_alignment(path)
    assert back.frozen and back.m == 4
    assert meta["final_loss"] == 0.123
    for a, b in zip(p.weights, back.weights):
        np.testing.assert_array_equal(a.astype("<f4"), b.astype("<f4"))
    # byte-deterministic output
    save_alignment(p, tmp_path / "again.aln")
    save_alignment(p, tmp_path / "again2.aln")
    assert (tmp_path / "again.aln").read_bytes() == (tmp_path / "again2.aln").read_bytes()


def test_checkpoint_binary_layout_is_exact(tmp_path):
    import struct
    p = init_relation(2, seed=4, hidden=(3,))
    path = tmp_path / "layout.aln"
    save_alignment(p, path)
    blob = path.read_bytes()
    assert blob[:4] == b"ALN1"
    assert struct.unpack("<I", blob[4:8]) == (2,)  # layer count
    rows, cols = struct.unpack("<II", blob[8:16])
    assert (rows, cols) == (4, 3)
    w0 = np.frombuffer(blob, dtype="<f4", count=12, offset=16).reshape(4, 3)
    np.testing.assert_array_equal(w0, p.weights[0].astype("<f4"))
    b0 = np.frombuffer(blob, dtype="<f4", count=3, offset=16 + 48)
    np.testing.assert_array_equal(b0, p.biases[0].astype("<f4"))


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "x.aln"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        load_alignment(path)
    p = init_relation(3, seed=1, hidden=(2,))
    good = tmp_path / "y.aln"
    save_alignment(p, good)
    blob = good.read_bytes()
    good.write_bytes(blob[:-3])
    with pytest.raises(DimMismatch):
        load_alignment(good)


def _write_checkpoint(path, layers, sidecar):
    """An ALN1 file with zero weights for the given (rows, cols) layers."""
    import json
    import struct
    blob = ALN_MAGIC + struct.pack("<I", len(layers))
    for rows, cols in layers:
        blob += struct.pack("<II", rows, cols) + b"\x00" * (4 * (rows * cols + cols))
    path.write_bytes(blob)
    (path.parent / (path.name + ".meta.json")).write_text(json.dumps(sidecar))
    return path


@pytest.mark.parametrize("sidecar", [{}, {"m": "4"}, {"m": 4.5}, {"m": None}, [4]],
                         ids=["missing", "string", "float", "null", "not-an-object"])
def test_checkpoint_sidecar_needs_an_integer_m(tmp_path, sidecar):
    path = _write_checkpoint(tmp_path / "s.aln", [(8, 3), (3, 1)], sidecar)
    with pytest.raises(FormatError):
        load_alignment(path)


def test_checkpoint_layers_must_chain(tmp_path):
    path = _write_checkpoint(tmp_path / "c.aln", [(8, 5), (4, 1)], {"m": 4})
    with pytest.raises(DimMismatch, match="layer 1 has 4 rows"):
        load_alignment(path)


def test_checkpoint_last_layer_must_have_width_one(tmp_path):
    path = _write_checkpoint(tmp_path / "w.aln", [(8, 5), (5, 2)], {"m": 4})
    with pytest.raises(DimMismatch, match="last layer has width 2"):
        load_alignment(path)


def test_checkpoint_needs_a_layer(tmp_path):
    path = _write_checkpoint(tmp_path / "e.aln", [], {"m": 4})
    with pytest.raises(DimMismatch):
        load_alignment(path)


def test_checkpoint_built_by_hand_loads(tmp_path):
    path = _write_checkpoint(tmp_path / "ok.aln", [(8, 5), (5, 1)], {"m": 4})
    params, _meta = load_alignment(path)
    assert params.layer_sizes() == [8, 5, 1]


# ---- training config ----

@pytest.mark.parametrize("field,value", [
    ("epochs", 0), ("epochs", 1.5), ("epochs", True), ("batch_size", 0),
    ("batch_size", "25"), ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")),
    ("lr", float("inf")), ("lr", "0.001"), ("seed", 1.0), ("hidden", (0,)),
    ("hidden", (4, 2.5)), ("hidden", 5), ("epsilon", 0.0), ("beta1", 1.0),
    ("beta2", -0.1), ("slope", float("nan")),
])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_train_config_normalises_hidden_and_rejects_unknown_keys():
    assert TrainConfig.from_dict({"hidden": [6, 3]}).hidden == (6, 3)
    with pytest.raises(ConfigError, match="unknown alignment config keys"):
        TrainConfig.from_dict({"epoch": 3})
