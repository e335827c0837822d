import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfa import alignment
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
    ConfigError,
    FormatError,
    ValidationError,
)
from tfa.rng import Stream
from tfa.synth import SynthConfig, generate_synthetic, l2_normalize

from helpers import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    central_difference_check,
    f32_grad_bound,
    f32_logit_bound,
    f64_score_matrix,
    kernel_loss_and_grad,
    make_unit,
    ref_adam_step,
    ref_forward,
    ref_loss_and_grad,
    ref_pairs,
    ref_scalar_adam,
    ref_score_matrix,
    ref_score_pair,
    recorded_gradients,
    traced_peak,
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
    with pytest.raises(FormatError, match="sample/prototype dimension does not match the scorer"):
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
            # slope*z in one block of the whole size, then in blocks of 4
            # values, the last one partial, over a 2-D array.
            got = _leaky_relu_(z.copy(), slope, np.empty_like(z))
            assert got.tobytes() == want.tobytes(), slope
            got = _leaky_relu_(z.reshape(-1, 2 - z.size % 2).copy(), slope, np.empty(4))
            assert got.tobytes() == want.tobytes(), slope


@pytest.mark.parametrize("width", [3, 2048, (1 << 15) + 3])
@pytest.mark.parametrize("slope", [0.0, 0.01, 1.0, 2.5])
def test_gate_matches_the_masked_multiply_bit_for_bit(width, slope):
    from tfa.alignment import _BLOCK, _gate_first_, _gate_rows_, _leaky_relu_

    # Two and a half blocks of rows (three rows past one block when a row is
    # wider than a block), every entry of both h and delta drawn from signed
    # zeros, NaN, infinities and ordinary values, so every block edge meets them.
    rows = max(3, 5 * _BLOCK // (2 * width))
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -1.5, 3e-310, -7.25])
    rng = np.random.default_rng(width)
    h = rng.choice(special, size=(rows, width))
    # The last layer's delta and weights: a one-term product per entry.
    delta, w = rng.choice(special, size=(rows, 1)), rng.choice(special, size=(width, 1))
    tmp = np.empty(max(_BLOCK, width))
    with np.errstate(all="ignore"):
        want = delta @ w.T
        np.multiply(want, slope, out=want, where=~(h > 0.0))
        got = _gate_rows_(h.copy(), delta, w, slope, tmp)
        assert got.tobytes() == want.tobytes()

        # The first hidden layer's gate rebuilds its pre-activation from the
        # halves, rows*2 pairs of `rows` samples and 2 prototypes, and gates
        # on its sign where the slope is above 0. At slope 0 a +inf
        # pre-activation's output is NaN and gates by slope, so a gate on
        # the sign fails there, and the gate reads the rebuilt output.
        a, cp = rng.choice(special, size=(rows, width)), rng.choice(special, size=(2, width))
        z = (a[:, None, :] + cp[None, :, :]).reshape(-1, width)
        delta = rng.choice(special, size=z.shape)
        want, by_sign = delta.copy(), delta.copy()
        np.multiply(want, slope, out=want, where=~(_leaky_relu_(z.copy(), slope, tmp) > 0.0))
        np.multiply(by_sign, slope, out=by_sign, where=~(z > 0.0))
        got = _gate_first_(delta, a, cp, slope, np.empty((2, tmp.size)))
        assert got is delta
        assert got.tobytes() == want.tobytes()
        assert (by_sign.tobytes() == want.tobytes()) == (slope > 0.0)


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
        loss_and_grad(p, vs, protos, np.array(targets), adam_init(p))


# The factored kernel adds the first layer's two halves and reduces the last
# layer row-wise, where the oracle multiplies whole pair rows, so with random
# weights the last bits of logits differ from it by design.
LOGIT_ATOL = 1e-14


def _assert_within_f32_grad_bound(p, vs, protos, targets, work=None):
    """``loss_and_grad``'s loss and every gradient entry within
    ``f32_grad_bound`` of the float64 oracle's; returns the loss, the
    oracle's, the gradients and the oracle's, weights then biases."""
    loss, got = kernel_loss_and_grad(p, vs, protos, targets, work)
    want_loss, want_dw, want_db = ref_loss_and_grad(p, vs, protos, targets)
    bound_loss, bound_dw, bound_db = f32_grad_bound(p, vs, protos, targets)
    assert abs(loss - want_loss) <= bound_loss
    for a, want, bound in zip(got, (*want_dw, *want_db), (*bound_dw, *bound_db), strict=True):
        assert a.dtype == np.float64 and a.shape == want.shape
        assert np.all(np.abs(a - want) <= bound)
    return loss, want_loss, got, (*want_dw, *want_db)


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
def test_float32_table_is_within_its_bound_of_the_oracle(slope, zero_weights, monkeypatch):
    p = _kernel_net(slope, zero_weights)
    vs, protos, _ = _kernel_inputs()
    want = f64_score_matrix(p, vs, protos, chunk=7)
    monkeypatch.setattr(alignment, "_TABLE_CHUNK", 7)
    table = score_matrix(p, vs, protos)
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
    loss, want_loss, got, want = _assert_within_f32_grad_bound(p, vs, protos, targets)
    if zero_weights:
        # Every hidden value is a bias of few bits, times the slope where
        # negative, and every hidden GEMM sums zeros, so the float32 layers
        # round nothing: bit for bit. The one exception is a slope that
        # float32 cannot hold (0.01), whose LeakyReLU rounds the negative
        # biases' outputs; of the gradients only dW3 reads them.
        assert loss == want_loss
        for i, (a, w) in enumerate(zip(got, want)):
            if i != 2 or float(np.float32(slope)) == slope:
                assert a.tobytes() == w.tobytes()


@pytest.mark.parametrize("slope", [0.0, 0.01])
def test_loss_and_grad_is_within_its_bound_at_2048x1024(slope):
    from tfa.alignment import _step_layout, _step_workspace

    # A partial batch of 23 samples of 20 prototypes in the leading rows of a
    # workspace for 25: sample blocks of 12 and 11, four 512-row W2 slabs,
    # eight 256-row dW2 slabs and dW2 pieces of 256 and 204 pair rows.
    p = init_relation(8, seed=13, hidden=(2048, 1024), slope=slope)
    rng = np.random.default_rng(14)
    for b in p.biases:
        b += rng.normal(size=b.shape) * 0.1
    vs, protos = l2_normalize(rng.normal(size=(23, 8))), l2_normalize(rng.normal(size=(20, 8)))
    targets = rng.integers(0, 20, size=23)
    assert _step_layout(p, 25, 20)[:3] == (512, 13, 256)
    loss, want_loss, got, want = _assert_within_f32_grad_bound(
        p, vs, protos, targets, _step_workspace(p, 25, 20))
    assert loss != want_loss and all(np.abs(a - w).max() > 0.0 for a, w in zip(got, want))


def test_forward_writes_the_layer_outputs():
    from tfa.alignment import _first_hidden, _first_layer, _head

    p = _kernel_net(0.01, False)
    vs, protos, _ = _kernel_inputs()
    a, cp = _first_layer(p, vs, protos, np.empty((5, 9)), np.empty((3, 9)))
    (_, w2, w3), (_, b2, b3) = p.weights, p.biases
    work = [np.empty((5, 3, 9)), np.empty((15, 5)), np.empty(15)]
    h = _first_hidden(a, cp, work[0], p.slope, np.empty(4))
    logits = _head(np.matmul(h, w2, out=work[1]), b2, w3, b3, p.slope, work[2], np.empty(4))
    want_logits, want_acts, _ = ref_forward(p, ref_pairs(vs, protos), keep=True)
    np.testing.assert_allclose(logits, want_logits, rtol=0, atol=LOGIT_ATOL)
    assert np.shares_memory(logits, work[-1])
    # The oracle's first entry is the pair matrix, which the kernel never builds.
    hidden = [work[0].reshape(15, 9), work[1]]
    assert len(want_acts) - 1 == len(hidden) == 2
    for got, want in zip(hidden, want_acts[1:]):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=LOGIT_ATOL)
        assert np.array_equal(got > 0.0, want > 0.0)


@pytest.mark.parametrize("hidden", [(40, 24), (1024, 512)], ids=["40x24", "1024x512"])
def test_score_matrix_bytes_do_not_depend_on_the_block_size(hidden, monkeypatch):
    # 3 prototypes: chunk 2 scores one sample (3 rows) per block, 7 two and
    # 256 eighty-five; 8192 is capped at 1,024 pairs, so it scores the 101
    # samples in one block padded to 341. This rests on the BLAS rounding a
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
    tables = []
    for chunk in (2, 7, 256, 8192):
        monkeypatch.setattr(alignment, "_TABLE_CHUNK", chunk)
        tables.append(score_matrix(p, vs, protos))
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


PREFIX_SIZES = (*range(1, 30), 50, 99, 150, 299, 300)


@pytest.mark.parametrize("loaded", [False, True], ids=["float64", "aln1"])
@pytest.mark.parametrize("c", [35, 3, 1])
@pytest.mark.parametrize("hidden", [(36, 20), (20, 36), (100, 50), (1024, 512)],
                         ids=["36x20", "20x36", "100x50", "1024x512"])
def test_score_matrix_rows_do_not_depend_on_later_samples(hidden, c, loaded, tmp_path):
    # Every product of a call runs on one block shape, so scoring a prefix
    # of the samples gives that prefix of the whole table, byte for byte,
    # also at widths where a GEMM's rounding depends on its row count.
    p = init_relation(16, seed=7, hidden=hidden, slope=0.01)
    stream = Stream(8)
    for b in p.biases:
        b += stream.normal(b.shape[0])
    if loaded:
        save_alignment(p, tmp_path / "s.aln")
        p, _ = load_alignment(tmp_path / "s.aln")
    vs = np.vstack([make_unit(stream, 16) for _ in range(301)])
    protos = np.vstack([make_unit(stream, 16) for _ in range(c)])
    table = score_matrix(p, vs, protos)
    for k in PREFIX_SIZES:
        assert score_matrix(p, vs[:k], protos).tobytes() == table[:k].tobytes(), k


def test_score_matrix_memory_does_not_grow_with_the_samples():
    # Beyond its (B, C) output, the table works in buffers sized by the
    # block, not by B: 30 times the samples add only the larger output.
    p = init_relation(64, seed=3, hidden=(1024, 512))
    rng = np.random.default_rng(1)
    protos = l2_normalize(rng.normal(size=(35, 64)))
    small, large = (l2_normalize(rng.normal(size=(n, 64))) for n in (70, 2100))
    growth = traced_peak(score_matrix, p, large, protos)[1] - \
        traced_peak(score_matrix, p, small, protos)[1]
    assert growth <= (2100 - 70) * 35 * 8 + (1 << 19)


def test_score_matrix_input_shapes():
    p = init_relation(4, seed=0, hidden=(3, 2))
    vs, protos = np.eye(4)[:3], np.eye(4)[1:]
    for bad in ((vs[0], protos), (vs, protos[0]), (vs[None], protos), (vs, protos[None])):
        with pytest.raises(FormatError, match="sample/prototype dimension does not match"):
            score_matrix(p, *bad)
    empty = score_matrix(p, vs, np.zeros((0, 4)))
    assert empty.shape == (3, 0) and empty.dtype == np.float64
    assert score_matrix(p, np.zeros((0, 4)), protos).shape == (0, 3)


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
    base = kernel_loss_and_grad(p, vs, protos, targets)[0]
    perm = np.array([3, 1, 0, 2])
    inv = np.argsort(perm)
    shuffled = kernel_loss_and_grad(p, vs, protos[perm], inv[targets])[0]
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
    loss, g = kernel_loss_and_grad(p, vs, protos, np.array([0]))
    assert loss < 1e-15
    assert np.sqrt(sum(np.sum(x * x) for x in g)) <= 1e-9


def test_duplicating_the_batch_keeps_the_mean_gradient():
    p = init_relation(4, seed=5, hidden=(5, 3))
    stream = Stream(9)
    vs = np.vstack([make_unit(stream, 4) for _ in range(3)])
    protos = np.vstack([make_unit(stream, 4) for _ in range(3)])
    targets = np.array([0, 2, 1])
    twice = (np.vstack([vs, vs]), protos, np.concatenate([targets, targets]))
    _, _, g1, want1 = _assert_within_f32_grad_bound(p, vs, protos, targets)
    _, _, g2, want2 = _assert_within_f32_grad_bound(p, *twice)
    _, dw1, db1 = f32_grad_bound(p, vs, protos, targets)
    _, dw2, db2 = f32_grad_bound(p, *twice)
    # The oracle keeps the mean to float64 rounding; each of the kernel's two
    # gradients lies within its float32 bound of the oracle's.
    for a, b, want_a, want_b, bound_a, bound_b in zip(g1, g2, want1, want2, (*dw1, *db1),
                                                      (*dw2, *db2)):
        assert np.max(np.abs(want_a - want_b)) <= 1e-12
        assert np.all(np.abs(a - b) <= bound_a + bound_b + 1e-12)


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
    return [np.zeros_like(a) for a in (*p.weights, *p.biases)]


def test_adam_first_step_magnitude():
    p = init_relation(2, seed=1, hidden=(3, 2))
    state = adam_init(p, lr=0.01)
    g = grad_like_zero(p)
    g[0][0, 0] = 0.37
    before = p.weights[0][0, 0]
    adam_step(p, state, g)
    step = before - p.weights[0][0, 0]
    expected = 0.01 * 0.37 / (abs(0.37) + ADAM_EPSILON)
    assert step == pytest.approx(expected, abs=1e-15)
    assert step == pytest.approx(0.01, rel=1e-6)


def test_adam_matches_scalar_oracle_on_quadratic():
    # embed a 1-D quadratic in one weight coordinate, zero gradients elsewhere
    p = init_relation(1, seed=3, hidden=(1, 1))
    for w in p.weights:
        w[:] = 0.0
    x0 = 1.7
    p.weights[0][0, 0] = x0
    state = adam_init(p, lr=0.1)
    traj = []
    for _ in range(2):
        g = grad_like_zero(p)
        g[0][0, 0] = 2.0 * p.weights[0][0, 0]
        adam_step(p, state, g)
        traj.append(float(p.weights[0][0, 0]))
    ref = ref_scalar_adam(x0, lambda x: 2.0 * x, 0.1, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, 2)
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
        g = kernel_loss_and_grad(p, vs, protos, targets)[1]
        adam_step(p, s_new, g)
        ref_adam_step(q, s_ref, g)
        assert s_new.step == s_ref.step == step + 1
        for got, want in zip(
                (*p.weights, *p.biases, *s_new.m, *s_new.v),
                (*q.weights, *q.biases, *s_ref.m, *s_ref.v)):
            assert got.tobytes() == want.tobytes()


def test_blocked_adam_matches_the_temporaries_version_across_blocks():
    from tfa.alignment import _BLOCK

    # A first hidden layer wider than an Adam block: the first weight matrix
    # has rows longer than a block, and its bias and the second layer's
    # weights span two blocks.
    p = init_relation(1, seed=42, hidden=(_BLOCK + 7, 1))
    q = p.copy()
    s_new, s_ref = adam_init(p, lr=0.01), adam_init(q, lr=0.01)
    rng = np.random.default_rng(43)
    for _ in range(3):
        g = [rng.normal(size=a.shape) for a in (*p.weights, *p.biases)]
        adam_step(p, s_new, g)
        ref_adam_step(q, s_ref, g)
    for got, want in zip(
            (*p.weights, *p.biases, *s_new.m, *s_new.v),
            (*q.weights, *q.biases, *s_ref.m, *s_ref.v)):
        assert got.tobytes() == want.tobytes()


def test_adam_refuses_frozen_params():
    p = init_relation(2, seed=1, hidden=(2, 2)).freeze()
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
    with pytest.raises(ValidationError, match="no training samples"):
        train_alignment(init_relation(16, 0, (4, 2)), empty, protos)
    with_test_split = base  # contains test records
    with pytest.raises(ValidationError):
        train_alignment(init_relation(16, 0, (4, 2)), with_test_split, protos)
    novel = base.subset(base.indices(split="train"))
    novel.tasks[-1] = 1
    with pytest.raises(ValidationError, match="base task only"):
        train_alignment(init_relation(16, 0, (4, 2)), novel, protos)


def test_training_trains_its_argument_in_place(monkeypatch):
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


# (classes, samples per class, training samples, batch size)
_FUSED_WORLD = (4, 8, 13, 5)


@pytest.mark.parametrize("m, hidden, world",
                         [(6, (40, 24), _FUSED_WORLD), (6, (8, 600), _FUSED_WORLD),
                          (8, (1024, 512), _FUSED_WORLD), (6, (2048, 1024), (20, 2, 30, 13))],
                         ids=["40x24", "8x600", "1024x512", "2048x1024"])
@pytest.mark.parametrize("slope, overflow",
                         [(0.0, False), (0.0, True), (0.01, False), (2.5, False)],
                         ids=["0", "0-inf", "0.01", "2.5"])
def test_fused_adam_matches_full_gradient_sets(monkeypatch, slope, overflow, m, hidden, world):
    # Two epochs of 13 samples in batches of 5 (the last of 3), once with
    # each gradient block applied inside the backward pass through one
    # reused workspace, once with every step's full gradient set built
    # first and then passed to adam_step. At 1024/512 dW2 spans several
    # blocks; at 8/600 the backward needs more room than the first hidden
    # output, so the workspace sizes its first buffer for it. At 2048/1024
    # 30 samples of 20 classes go in batches of 13: a batch of 260 pairs
    # runs in sample blocks of 7 and 6, the last batch of 4 in one block.
    # With overflow one first-layer bias is +inf, so at slope 0 a
    # pre-activation is +inf and its output NaN.
    classes, per_class, samples, batch = world
    base, protos = _base_task_data(m=m, classes=classes, per_class=per_class)
    train = base.subset(base.indices(split="train")[:samples])
    hyper = TrainConfig(epochs=2, batch_size=batch, seed=3, hidden=hidden, slope=slope)
    states = []

    def scorer():
        p = init_relation(m, 3, hidden, slope)
        if overflow:
            p.biases[0][1] = np.inf
        return p

    def spy_init(*args, **kw):
        states.append(adam_init(*args, **kw))
        return states[-1]

    def full_set_step(params, vs, protos, targets, adam, work):
        with recorded_gradients() as sets:
            loss = loss_and_grad(params, vs, protos, targets, adam_init(params))
        adam_step(params, adam, sets[0])
        return loss

    monkeypatch.setattr(alignment, "adam_init", spy_init)
    fused, fused_history = train_alignment(scorer(), train, protos, hyper)
    monkeypatch.setattr(alignment, "loss_and_grad", full_set_step)
    full, full_history = train_alignment(scorer(), train, protos, hyper)
    assert np.array(fused_history).tobytes() == np.array(full_history).tobytes()
    assert np.isnan(fused_history[0]) == overflow
    assert states[0].step == states[1].step == 6
    for got, want in zip((*fused.weights, *fused.biases, *states[0].m, *states[0].v),
                         (*full.weights, *full.biases, *states[1].m, *states[1].v)):
        assert got.tobytes() == want.tobytes()


def test_training_holds_no_gradient_set():
    # A 1-step run at m=8 and 2048/1024 allocates Adam's two moments, one
    # step's activations and deltas and one 2 MiB gradient block. A full
    # gradient set on top of the moments is a third parameter set.
    base, protos = _base_task_data(m=8, classes=4, per_class=10)
    train = base.subset(base.indices(split="train")[:10])
    hyper = TrainConfig(epochs=1, batch_size=10, seed=1, hidden=(2048, 1024))
    params = init_relation(8, 1, hyper.hidden)
    peak = traced_peak(train_alignment, params, train, protos, hyper)[1]
    assert peak < 3 * 8 * params.n_params()


def test_training_memory_does_not_grow_with_the_steps():
    # One workspace serves every step, so 8 steps (two epochs of four
    # batches, the last partial) peak where one step does. Each step that
    # allocated its own gradients kept the previous set alive while it built
    # the next: one more parameter set (4.14 MiB at this width).
    base, protos = _base_task_data(m=8, classes=4, per_class=10)
    train = base.subset(base.indices(split="train"))
    peaks = []
    for samples, epochs in ((10, 1), (36, 2)):
        hyper = TrainConfig(epochs=epochs, batch_size=10, seed=1, hidden=(1024, 512))
        peaks.append(traced_peak(train_alignment, init_relation(8, 1, hyper.hidden),
                                 train.subset(np.arange(samples)), protos, hyper)[1])
    assert peaks[1] - peaks[0] <= 1 << 19


def test_training_step_holds_one_sample_block_of_the_first_hidden_output():
    from tfa.alignment import _step_workspace

    # One step at the benchmark's train shape: m=64, 20 prototypes, a batch
    # of 25 samples and 2048/1024. Beyond the parameters and Adam's two
    # moments it holds the second hidden output, n*H1 float32 values for
    # n = 500 pairs, and X: at most one 2 MiB float32 slab of W2 and one
    # block of whole samples of a slab of the first hidden output (the
    # batch runs in blocks of 13 and 12), not the whole n*H0. At most 1 MiB
    # more: the first layer's halves in float32, the bias gradients, the
    # small scratch and numpy's own buffers. The halves are made in float64
    # in X's words for the delta sums, so they do not grow X.
    base, protos = _base_task_data(m=64, classes=20, per_class=2)
    train = base.subset(base.indices(split="train")[:25])
    hyper = TrainConfig(epochs=1, batch_size=25, seed=1, hidden=(2048, 1024))
    params, peak = traced_peak(
        lambda: train_alignment(init_relation(64, 1, hyper.hidden), train, protos, hyper)[0])
    x, x2, _, halves = _step_workspace(params, 25, 20)[:4]
    assert x.nbytes <= 603_000 * 8 and x.nbytes < 500 * 2048 * 4
    assert x.dtype == np.float64 and x.size <= 461_824
    assert x2.dtype == np.float32
    assert halves.dtype == np.float32 and halves.shape == (45, 2048)
    assert peak - 3 * 8 * params.n_params() <= x2.nbytes + x.nbytes + (1 << 20)


@pytest.mark.parametrize("hidden, slab, dw2_slab", [((1024, 512), 1024, 512),
                                                     ((2048, 1024), 512, 256)])
def test_the_step_layout_leaves_adam_whole_blocks(monkeypatch, hidden, slab, dw2_slab):
    from tfa.alignment import _BLOCK, _adam_begin, _carve, _step_layout, _step_workspace

    # The benchmark's step shapes: 25 samples by 20 prototypes at m=64. W2
    # goes to float32 in 2 MiB slabs, the batch in sample blocks of 13 and
    # 12, dW2 in row slabs whose block and piece sum take 2 MiB. Where dW1
    # and dW2 go to Adam, X leaves it two float64 blocks of _BLOCK values,
    # so it updates both in whole blocks.
    p = init_relation(64, seed=1, hidden=hidden)
    s, k, s2, rows, phases = _step_layout(p, 25, 20)
    assert (s, k, s2, rows) == (slab, 13, dw2_slab, 64)
    assert s * hidden[1] * 4 == 2 << 20 and 2 * s2 * hidden[1] * 4 == 2 << 20
    x = _step_workspace(p, 25, 20)[0]
    assert x.nbytes <= 603_000 * 8
    for phase in phases[2:]:
        assert _carve(x, phase[:-1])[-1].size >= 2 * _BLOCK
    free = {}

    def spy(*args):
        put = _adam_begin(*args)

        def recorded(k, r, g, room=None):
            free.setdefault(k, set()).add(None if room is None else room.size)
            put(k, r, g, room)
        return recorded

    monkeypatch.setattr(alignment, "_adam_begin", spy)
    rng = np.random.default_rng(3)
    vs, protos = l2_normalize(rng.normal(size=(25, 64))), l2_normalize(rng.normal(size=(20, 64)))
    loss_and_grad(p, vs, protos, rng.integers(0, 20, size=25), adam_init(p))
    assert min(free[0]) >= 2 * _BLOCK and min(free[1]) >= 2 * _BLOCK


@pytest.mark.parametrize("k", [20, 500, 520])
def test_dw2_pieces_are_an_ordered_sum_of_the_piece_products(k):
    from tfa.alignment import _PIECE, _dot_pieces

    # K = 20 is one partial piece; 500 and 520 end in partial pieces of 244
    # and 8 rows.
    rng = np.random.default_rng(k)
    h = rng.normal(size=(k, 96)).astype(np.float32)
    d = rng.normal(size=(k, 40)).astype(np.float32)
    want = h[:_PIECE].T @ d[:_PIECE]
    for p in range(_PIECE, k, _PIECE):
        want += h[p:p + _PIECE].T @ d[p:p + _PIECE]
    got = _dot_pieces(h, d, np.empty((96, 40), np.float32), np.empty((96, 40), np.float32))
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_training_rejects_duplicate_prototype_ids():
    from dataclasses import replace

    base, protos = _base_task_data(m=16, classes=4, per_class=8)
    train = base.subset(base.indices(split="train"))
    with pytest.raises(FormatError, match="prototypes: class id 0 appears twice"):
        train_alignment(init_relation(16, 0, (4, 2)), train,
                        protos + [replace(protos[1], class_id=0)])


# ---- checkpoints ----

def test_checkpoint_round_trip(tmp_path):
    p = init_relation(4, seed=6, hidden=(5, 3))
    path = tmp_path / "scorer.aln"
    save_alignment(p, path, train_config=TrainConfig(hidden=(5, 3)), loss_history=[0.5, 0.123])
    back, meta = load_alignment(path)
    assert back.frozen and back.m == 4
    assert meta["final_loss"] == 0.123 and meta["loss_history"] == [0.5, 0.123]
    for a, b in zip(p.weights, back.weights):
        np.testing.assert_array_equal(a.astype("<f4"), b.astype("<f4"))
    # byte-deterministic output
    save_alignment(p, tmp_path / "again.aln")
    save_alignment(p, tmp_path / "again2.aln")
    assert (tmp_path / "again.aln").read_bytes() == (tmp_path / "again2.aln").read_bytes()
    assert load_alignment(tmp_path / "again.aln")[1]["final_loss"] is None


def test_checkpoint_binary_layout_is_exact(tmp_path):
    import struct
    p = init_relation(2, seed=4, hidden=(3, 2))
    path = tmp_path / "layout.aln"
    save_alignment(p, path)
    blob = path.read_bytes()
    assert blob[:4] == b"ALN1"
    assert struct.unpack("<I", blob[4:8]) == (3,)  # layer count
    rows, cols = struct.unpack("<II", blob[8:16])
    assert (rows, cols) == (4, 3)
    w0 = np.frombuffer(blob, dtype="<f4", count=12, offset=16).reshape(4, 3)
    np.testing.assert_array_equal(w0, p.weights[0].astype("<f4"))
    b0 = np.frombuffer(blob, dtype="<f4", count=3, offset=16 + 48)
    np.testing.assert_array_equal(b0, p.biases[0].astype("<f4"))


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "x.aln"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="not an ALN1 checkpoint"):
        load_alignment(path)
    p = init_relation(3, seed=1, hidden=(2, 2))
    good = tmp_path / "y.aln"
    save_alignment(p, good)
    blob = good.read_bytes()
    good.write_bytes(blob[:-3])
    with pytest.raises(FormatError, match="layer payload truncated"):
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
    path = _write_checkpoint(tmp_path / "s.aln", [(8, 3), (3, 2), (2, 1)], sidecar)
    with pytest.raises(FormatError):
        load_alignment(path)


def test_checkpoint_layers_must_chain(tmp_path):
    path = _write_checkpoint(tmp_path / "c.aln", [(8, 5), (4, 3), (3, 1)], {"m": 4})
    with pytest.raises(FormatError, match="layer 1 has 4 rows"):
        load_alignment(path)


def test_checkpoint_last_layer_must_have_width_one(tmp_path):
    path = _write_checkpoint(tmp_path / "w.aln", [(8, 5), (5, 3), (3, 2)], {"m": 4})
    with pytest.raises(FormatError, match="last layer has width 2"):
        load_alignment(path)


@pytest.mark.parametrize("layers", [[], [(8, 5), (5, 1)], [(8, 5), (5, 4), (4, 3), (3, 1)]],
                         ids=["0", "2", "4"])
def test_checkpoint_needs_three_layers(tmp_path, layers):
    path = _write_checkpoint(tmp_path / "e.aln", layers, {"m": 4})
    with pytest.raises(FormatError, match=f"{len(layers)} layers, not 3"):
        load_alignment(path)


def test_checkpoint_built_by_hand_loads(tmp_path):
    path = _write_checkpoint(tmp_path / "ok.aln", [(8, 5), (5, 3), (3, 1)], {"m": 4})
    params, _meta = load_alignment(path)
    assert params.layer_sizes() == [8, 5, 3, 1]


# ---- training config ----

@pytest.mark.parametrize("field,value", [
    ("epochs", 0), ("epochs", 1.5), ("epochs", True), ("batch_size", 0),
    ("batch_size", "25"), ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")),
    ("lr", float("inf")), ("lr", "0.001"), ("seed", 1.0), ("hidden", (4, 0)),
    ("hidden", (4, 2.5)), ("hidden", 5), ("slope", float("nan")),
])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("beta1", 0.9), ("beta2", 0.999), ("epsilon", 1e-8)])
def test_train_config_rejects_adam_constants(field, value):
    # Adam's constants are fixed: a config may not name one, even at its value.
    assert field not in TrainConfig.__dataclass_fields__
    with pytest.raises(ConfigError, match=rf"unknown alignment config keys: \['{field}'\]"):
        TrainConfig.from_dict({field: value})


@pytest.mark.parametrize("hidden", [(), (40,), (40, 24, 16)], ids=["0", "1", "3"])
def test_the_scorer_has_two_hidden_layers(hidden):
    with pytest.raises(ConfigError, match="two hidden layer widths"):
        TrainConfig(hidden=hidden)
    with pytest.raises(ConfigError, match="two hidden layer widths"):
        init_relation(4, seed=0, hidden=hidden)


def test_init_relation_rejects_a_zero_feature_dimension():
    with pytest.raises(ValueError, match="feature dimension must be >= 1"):
        init_relation(0, seed=0)


def test_train_config_normalises_hidden_and_rejects_unknown_keys():
    assert TrainConfig.from_dict({"hidden": [6, 3]}).hidden == (6, 3)
    with pytest.raises(ConfigError, match="unknown alignment config keys"):
        TrainConfig.from_dict({"epoch": 3})
