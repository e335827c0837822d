"""Vision-text alignment scorer: a small fully connected relation network.

The scorer maps a concatenated (vision, text) feature pair through three
fully connected layers, 2m -> H1 -> H2 -> 1 (2048/1024 by default), with
LeakyReLU activations on the two hidden layers and a sigmoid on the scalar
output, giving a similarity in (0, 1): the relation module of Sung et al.,
"Learning to Compare" (CVPR 2018). The depth is fixed; the two widths are
not. It is trained with a one-vs-all binary cross-entropy over the
base-task classes, using Adam (Kingma & Ba, arXiv 1412.6980) with its fixed
constants beta1 = 0.9, beta2 = 0.999 and epsilon = 1e-8 and a configurable
learning rate, and is frozen afterwards: nothing in this package updates it
again.

Every scorer this module makes is float32, the dtype its checkpoint
stores, and training updates it in float32: the three hidden-layer GEMMs,
the first layer's halves, Adam's moments and all of Adam. The last layer,
the loss, the halves' product, the delta sums, dW1 and the bias gradients
are float64. The table's hidden layers are float32 (see ``score_matrix``).
The binary cross-entropy is evaluated in logit space, ``max(z, 0) - z*t +
log1p(exp(-|z|))``, so saturated sigmoids never produce log(0).

Scoring and training share one kernel. The first layer's input is a pair
``[v, e]``, so its pre-activation is ``v @ W1[:m] + (e @ W1[m:] + b1)``: the
two halves are computed per sample and per prototype and added per pair;
the pair matrix is never built. Its gradient is ``[Vᵀ Σ_c δ ; Pᵀ Σ_b δ]``.
The last layer is a float64 ``einsum`` row reduction. The table runs on one
block shape per call, so for a fixed BLAS and prototype count a logit's
bytes never depend on the other samples; at 2048/1024 and 1024/512, where
it was verified, not on the block size or BLAS threads either. Adam runs
over cache-sized blocks of each parameter.

Training updates the given scorer in place, every step in one step
workspace: the second hidden output for the whole batch in float32 (leading
rows for a partial batch), the first layer's two halves and one buffer X,
carved phase by phase into float32 and float64 parts (``_step_layout``).
The first hidden output is ``leaky(a[b] + cp[c])``, cheap to rebuild from
the halves, so it is never held whole. The forward adds each block of whole
samples' slab of the first hidden output times that row slab of W2 into the
second hidden output. The input delta ``δ2 W2ᵀ`` makes that slab's columns
of the first layer's delta per sample block, gates them on the sign of the
float32 pre-activation the forward used and reduces them into float64
per-sample and per-prototype sums, from which the first layer's gradient is
made in float64. Then X holds one column slab of the rebuilt first hidden
output and its row block of ``dW2 = h1ᵀ δ2``, summed over fixed pieces of
the batch's pair rows in order: a threaded BLAS may split one long
reduction another way at each thread count, while the other products split
only over rows and columns. So at 1 and 2 OpenBLAS threads training writes
the same bytes. The second hidden layer's delta overwrites that layer's
output. Each weight gradient block goes straight to Adam, rounded to
float32, once its layer's weights were last read, so no gradient set is
held. The LeakyReLU and the backward gates run in small blocks through one
small scratch, and Adam in cache-sized blocks in the part of X that a
weight-gradient block leaves free. The gate multiplies delta by
``(~g)*slope + g``, ``g`` where the output is positive (for the first
hidden layer at a slope above 0, its pre-activation): the masked multiply
``where=~g``'s bytes without its short masked runs.

Checkpoint format "ALN1" (little-endian):

    bytes 0..3  magic "ALN1"
    bytes 4..7  u32 layer count (3)
    per layer:  u32 rows, u32 cols, rows*cols float32 weights (row-major),
                cols float32 biases

with the sidecar of :mod:`tfa.embeddings`' file pair holding
``{"m": .., "slope": .., "train_config": .., "final_loss": ..}``. The
loader's checks also run in ``save_alignment``, on what it is about to write.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSet, prototype_matrix, read_binary, read_sidecar, write_pair
from .errors import (
    ConfigError,
    FormatError,
    ValidationError,
    check_int,
    check_real,
    from_fields,
)
from .rng import SCOPE_INIT, SCOPE_SHUFFLE, Stream, derive_seed

ALN_MAGIC = b"ALN1"
DEFAULT_HIDDEN = (2048, 1024)
DEFAULT_SLOPE = 0.01

# Adam works in blocks of about this many elements (256 KB), so that its
# passes over a block stay in cache, where its scratch has the room.
_BLOCK = 1 << 15
# The LeakyReLU and the backward gates work through a scratch of this many
# float64 words (64 KiB), as it counts toward peak memory: blocks of 16,384
# float32 or 8,192 float64 values. A 2048-wide gate spent about 1.7 ms more
# per training step in numpy's per-call costs with 4,096-value blocks.
_SCRATCH = 1 << 13
# The score table forwards blocks of about this many (sample, prototype)
# pairs, whole samples each.
_TABLE_CHUNK = 256
# A training step reads W2 in row slabs of about this many values (2 MiB).
# A forward block (its slab of the first hidden output and one partial
# product) and a dW2 row slab with its piece sum are held to the same size,
# and a dW1 row block to as many float64 values. Each slab or block's
# product re-packs the other operand whole, so smaller ones cost time.
_SLAB = 1 << 19
# dW2 = h1ᵀ δ2 reduces over the batch's pair rows. It is summed over fixed
# pieces of this many rows, in order, as a threaded BLAS splits one longer
# reduction differently at each thread count and so rounds it differently.
_PIECE = 256

# Adam's constants: the first and second moments' decay rates and the
# denominator's epsilon.
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8

_U32 = struct.Struct("<I")
_U32x2 = struct.Struct("<II")


@dataclass
class RelationParams:
    """Weights and biases of the scorer, float32 wherever this module makes
    them; ``weights[i]`` is (fan_in, fan_out)."""

    weights: list
    biases: list
    slope: float
    m: int
    frozen: bool = False

    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "RelationParams":
        return RelationParams(*([a.astype(np.float32) for a in arrays]
                                for arrays in (self.weights, self.biases)), self.slope, self.m)

    def freeze(self) -> "RelationParams":
        for arr in (*self.weights, *self.biases):
            arr.flags.writeable = False
        self.frozen = True
        return self


@dataclass
class AdamState:
    """Adam's rate, step count and float32 moments, one per ``(*weights, *biases)``."""

    lr: float = 1e-3
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 25
    lr: float = 0.001
    seed: int = 0
    hidden: tuple = DEFAULT_HIDDEN
    slope: float = DEFAULT_SLOPE

    def __post_init__(self):
        """Every construction path is validated here; ``hidden`` becomes a tuple."""
        check_int("epochs", self.epochs, lo=1)
        check_int("batch_size", self.batch_size, lo=1)
        check_int("seed", self.seed)
        check_real("lr", self.lr)
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        check_real("slope", self.slope, lo=0.0)
        _check_hidden(self.hidden)
        object.__setattr__(self, "hidden", tuple(self.hidden))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return from_fields(cls, d, "alignment")

    def to_dict(self) -> dict:
        """The config as plain data, ``hidden`` as a list."""
        return {**asdict(self), "hidden": list(self.hidden)}


def _check_hidden(hidden) -> None:
    if not isinstance(hidden, (list, tuple)) or len(hidden) != 2:
        raise ConfigError(f"hidden must list the two hidden layer widths, got {hidden!r}")
    for width in hidden:
        check_int("hidden width", width, lo=1)


def _sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_relation(m: int, seed: int, hidden=DEFAULT_HIDDEN, slope: float = DEFAULT_SLOPE) -> RelationParams:
    """Seeded init: weights uniform on (-sqrt(6/fan_in), sqrt(6/fan_in)), biases 0.

    Layer i draws fan_in*fan_out uniforms from ``Stream(derive_seed(seed,
    SCOPE_INIT, i))``, scales them in float64 and fills its float32 weight
    matrix row-major, rounding each once.
    """
    if m < 1:
        raise ValueError("feature dimension must be >= 1")
    _check_hidden(hidden)
    sizes = [2 * m, *hidden, 1]
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = np.sqrt(6.0 / fan_in)
        w = Stream(derive_seed(seed, SCOPE_INIT, i)).uniform(fan_in * fan_out)
        w *= 2.0
        w -= 1.0
        w *= bound
        weights.append(w.astype(np.float32).reshape(fan_in, fan_out))
        biases.append(np.zeros(fan_out, dtype=np.float32))
    return RelationParams(weights, biases, slope, m)


def _scratch(params: RelationParams, block: int) -> np.ndarray:
    """Two scratch buffers of ``block`` elements, each at least as long as
    the widest layer's row."""
    return np.empty((2, max(block, *(w.shape[1] for w in params.weights))))


def _leaky_relu_(z: np.ndarray, slope: float, tmp: np.ndarray) -> np.ndarray:
    """LeakyReLU of a C-contiguous ``z`` in place, ``z if z > 0 else slope*z``
    bit for bit, one block of ``tmp``'s size at a time (``slope*z`` in ``tmp``).

    Rounding is monotone, so for ``0 <= slope <= 1`` the larger of ``z`` and
    ``slope*z`` is that value, and for ``slope > 1`` the smaller is; this holds
    for signed zeros and NaN too. The one exception is an overflowed ``+inf``
    at slope 0, where ``0*inf`` is NaN.
    """
    pick = np.maximum if slope <= 1.0 else np.minimum
    flat = z.reshape(-1)
    for s in range(0, flat.size, tmp.size):
        blk = flat[s:s + tmp.size]
        pick(blk, np.multiply(blk, slope, out=tmp[:blk.size]), out=blk)
    return z


def _factor(g: np.ndarray, slope: float, tmp: np.ndarray) -> np.ndarray:
    """The gate factor in ``tmp``: 1 where ``g`` and ``slope`` elsewhere, made
    as ``(~g)*slope + g``; with ``x*1 == x`` (NaN too) a multiply by it has
    the masked multiply's bytes."""
    f = np.multiply(~g, slope, out=tmp[:g.size].reshape(g.shape), dtype=tmp.dtype)
    f += g
    return f


def _gate_rows_(h: np.ndarray, delta: np.ndarray, w: np.ndarray, slope: float,
                tmp: np.ndarray) -> np.ndarray:
    """Overwrite the second hidden output ``h`` with its delta, one block of
    rows at a time: the rows of ``delta @ wᵀ``, made in the float64 ``tmp``
    and stored in ``h``'s dtype, each multiplied by 1 where ``h`` was
    positive and by ``slope`` (in ``h``'s dtype) elsewhere."""
    step = max(1, tmp.size // h.shape[1])
    for r in range(0, h.shape[0], step):
        rows = h[r:r + step]
        g = rows > 0.0
        rows[:] = np.matmul(delta[r:r + len(rows)], w.T, out=tmp[:rows.size].reshape(rows.shape))
        rows *= _factor(g, slope, tmp.view(h.dtype))
    return h


def _gate_first_(delta: np.ndarray, a: np.ndarray, cp: np.ndarray, slope: float,
                 scratch: np.ndarray) -> np.ndarray:
    """Gate the first hidden layer's delta in place, pair row ``b*C + c`` by
    the sign of that layer's pre-activation ``a[b] + cp[c]``, rebuilt a few
    rows of one sample at a time in ``scratch`` (of the halves' dtype; a
    training step passes column views of the float32 halves). For ``slope
    > 0`` an output is positive exactly when its pre-activation is; at slope
    0 the gate reads the rebuilt output ``leaky(a[b] + cp[c])``, so an
    overflowed ``+inf`` gates as its NaN output does."""
    (c, width), (z, t) = cp.shape, scratch
    k = max(1, z.size // width)
    for s in range(a.shape[0]):
        for c0 in range(0, c, k):
            h = np.add(a[s], cp[c0:c0 + k], out=z[:min(k, c - c0) * width].reshape(-1, width))
            if slope == 0.0:
                h = _leaky_relu_(h, slope, t)
            rows = delta[s * c + c0:s * c + c0 + h.shape[0]]
            rows *= _factor(h > 0.0, slope, t.view(delta.dtype))
    return delta


def _first_layer(params: RelationParams, vs: np.ndarray, protos: np.ndarray, a, cp,
                 wide: np.ndarray, part: np.ndarray):
    """The first layer's two halves, ``vs @ W1[:m]`` into ``a`` and
    ``protos @ W1[m:] + b1`` into ``cp``, both float64 (a training step
    casts them to float32 once): the products of blocks of W1's rows,
    widened into the rows of ``wide``, added in order through ``part``.

    The pre-activation of pair ``(b, c)`` is the sum of row ``b`` of the first
    and row ``c`` of the second.
    """
    m = params.m
    for r0, x, out in ((0, vs, a), (m, protos, cp)):
        for r in range(0, m, len(wide)):
            w = wide[:m - r]
            w[:] = params.weights[0][r0 + r:r0 + r + len(w)]
            into = part[:out.size].reshape(out.shape) if r else out
            prod = np.matmul(x[:, r:r + len(w)], w, out=into)
            if r:
                out += prod
    cp += params.biases[0]
    return a, cp


def _first_hidden(a: np.ndarray, cp: np.ndarray, out: np.ndarray, slope: float,
                  tmp: np.ndarray) -> np.ndarray:
    """The first hidden output ``leaky(a[b] + cp[c])`` in ``out``, shaped
    (B, C, W), returned as its (B*C, W) pair rows: row ``b*C + c`` is pair
    ``(b, c)``. The LeakyReLU runs through ``tmp``."""
    np.add(a[:, None, :], cp[None, :, :], out=out)
    return _leaky_relu_(out.reshape(-1, out.shape[2]), slope, tmp)


def _head(z: np.ndarray, b2: np.ndarray, w3: np.ndarray, b3: np.ndarray, slope: float,
          out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The logits in ``out`` from the second hidden layer's product ``z``,
    which becomes that layer's output: the bias ``b2`` (in ``z``'s dtype),
    the LeakyReLU, then the last layer as a float64 ``einsum`` row reduction,
    not a fan-out-1 gemv; the module docstring states when a row's logit is
    then independent of the other rows and of BLAS threads."""
    z += b2.astype(z.dtype, copy=False)
    out = np.einsum("ij,j->i", _leaky_relu_(z, slope, tmp), w3[:, 0], dtype=np.float64, out=out)
    out += b3
    return out


def score_matrix(params: RelationParams, vs: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Logits for every (sample, prototype) pair, shape (B, C).

    Samples are scored in blocks of ``max(1, min(_TABLE_CHUNK, 1024) // C)``,
    the tail block padded, so every product of a call has one shape and the
    first-layer product at least two rows (one row goes to gemv). So, for a
    fixed BLAS and C, ``score_matrix(V[:k])`` is ``score_matrix(V)[:k]``
    byte for byte, and only the output grows with B. The first-layer halves,
    the last layer and the logits are float64; the add, the LeakyReLUs and
    the hidden GEMMs float32, on the checkpoint's weights (cast if held in
    float64). On the benchmark worlds (1024/512) no logit moved by more than
    3.1e-7 from the all-float64 table's. Its bytes depend on neither the
    BLAS threads nor the block size at 1024/512 and 2048/1024 (OpenBLAS
    0.3.31).
    """
    vs = np.asarray(vs, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    if vs.ndim != 2 or protos.ndim != 2 or vs.shape[1] != params.m or protos.shape[1] != params.m:
        raise FormatError("sample/prototype dimension does not match the scorer")
    (n, m), c, slope = vs.shape, protos.shape[0], params.slope
    (w, w2, w3), (b1, b2, b3) = params.weights, params.biases
    step = max(1, min(_TABLE_CHUNK, 1024) // max(c, 1))  # larger GEMMs can round rows otherwise
    cp, w1 = protos @ w[m:], w[:m].astype(np.float64, copy=False)  # cp's weight cast is freed first
    cp += b1
    cp = cp.astype(np.float32)  # the hidden layers run in float32
    w2, b2 = w2.astype(np.float32, copy=False), b2.astype(np.float32, copy=False)
    # One block's samples, their first-layer half (float64, cast), each
    # layer's output and the LeakyReLU's scratch.
    x, a = np.zeros((max(step, 2), m)), np.empty((max(step, 2), w.shape[1]))
    ah = np.empty((step, w.shape[1]), dtype=cp.dtype)
    h, y2 = np.empty((step, c, w2.shape[0]), cp.dtype), np.empty((step * c, w2.shape[1]), cp.dtype)
    logits, tmp = np.empty(step * c), np.empty(_SCRATCH).view(np.float32)
    out = np.empty((n, c))
    for s0 in range(0, n, step):
        k = min(step, n - s0)
        x[:k] = vs[s0:s0 + k]
        np.copyto(ah, np.matmul(x, w1, out=a)[:step])
        h1 = _first_hidden(ah, cp, h, slope, tmp)
        z = _head(np.matmul(h1, w2, out=y2), b2, w3, b3, slope, logits, tmp)
        out[s0:s0 + k] = z.reshape(step, c)[:k]
    return out


def _bce_elementwise(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))


def _even(total: int, most: int) -> int:
    """The size of the fewest equal parts of ``total`` no larger than ``most``
    (at least 1); the last part may be smaller."""
    return -(-total // -(-total // max(1, most)))


def _words(parts) -> int:
    """The float64 words that ``_carve`` takes for ``parts``."""
    return sum(-(-count * np.dtype(dtype).itemsize // 8) for count, dtype in parts)


def _carve(x: np.ndarray, parts) -> list:
    """Consecutive flat views of the float64 buffer ``x``, one per ``(count,
    dtype)`` of ``parts``, each starting on a float64 word, then the rest of ``x``."""
    views, at = [], 0
    for count, dtype in parts:
        words = _words([(count, dtype)])
        views.append(x[at:at + words].view(dtype)[:count])
        at += words
    return [*views, x[at:]]


def _step_layout(params: RelationParams, b: int, c: int) -> tuple:
    """A training step's sizes for ``b`` samples by ``c`` prototypes: the rows
    of a W2 slab, the samples of a block (the fewest equal blocks), the rows
    of a dW2 slab and of a W1 or dW1 block, then X's parts, ``(count,
    dtype)``, in each of five phases.

    The first layer holds the float64 halves in the sums' words, a block of
    W1's rows widened to float64 and one partial product, which only a W1 of
    more blocks uses. The forward and the input delta ``δ2 W2ᵀ`` read W2 one row slab
    at a time. The forward holds, per block of whole samples, the block's
    slab of the first hidden output and one partial product. The input delta
    holds the float64 per-sample and per-prototype delta sums, one block's
    slab of the delta and two float64 slabs of prototype sums (the running
    one and one block's). dW1 holds the sums and a row block; dW2 one slab
    of the first hidden output for the whole batch, its row block and one
    piece product. Where a weight gradient goes to Adam, room for Adam's two
    float32 blocks follows it.
    """
    (h0, h1), n = params.weights[1].shape, b * c
    s = _even(h0, _SLAB // h1)
    k = _even(b, _SLAB // (c * (s + h1)))
    s2 = _even(h0, _SLAB // (2 * h1))
    rows = min(params.m, _block_rows(params.weights[0], _SLAB))
    f32, f64 = np.float32, np.float64
    sums = ((b + c) * h0, f64)
    return s, k, s2, rows, (
        [sums, (rows * h0, f64), (max(b, c) * h0, f64)],
        [(k * c * s, f32), (k * c * h1, f32)],
        [sums, (k * c * s, f32), (2 * c * s, f64)],
        [sums, (rows * h0, f64), (2 * min(_BLOCK, rows * h0), f32)],
        [(n * s2, f32), (s2 * h1, f32), (s2 * h1, f32), (2 * min(_BLOCK, s2 * h1), f32)])


def _step_workspace(params: RelationParams, b: int, c: int) -> tuple:
    """``loss_and_grad``'s buffers for up to ``b`` samples by ``c`` prototypes:
    a flat float64 buffer X as large as ``_step_layout``'s largest phase, the
    second hidden output in float32, the logits, the first layer's two halves
    in float32, the float64 bias gradients and the scratch."""
    n, (h0, h1) = b * c, params.weights[1].shape
    size = max(_words(parts) for parts in _step_layout(params, b, c)[-1])
    return (np.empty(size), np.empty((n, h1), np.float32), np.empty(n),
            np.empty((b + c, h0), np.float32), [np.empty(x.shape) for x in params.biases],
            _scratch(params, _SCRATCH))


def _dot_pieces(h: np.ndarray, d: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``hᵀ d`` into ``out``: the products of consecutive ``_PIECE``-row
    pieces of ``h`` and ``d``, added in order through ``tmp``."""
    np.matmul(h[:_PIECE].T, d[:_PIECE], out=out)
    for p in range(_PIECE, h.shape[0], _PIECE):
        out += np.matmul(h[p:p + _PIECE].T, d[p:p + _PIECE], out=tmp)
    return out


def _widened_tdot(h: np.ndarray, delta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``hᵀ delta`` in float64 for a float32 ``h``: blocks of rows of ``h``
    widened into the first scratch row, their products added in order
    through the second."""
    wide, part = scratch
    step = max(1, wide.size // h.shape[1])
    out = np.empty((h.shape[1], delta.shape[1]))
    for r in range(0, h.shape[0], step):
        rows = wide[:min(step, h.shape[0] - r) * h.shape[1]].reshape(-1, h.shape[1])
        rows[:] = h[r:r + step]
        if r == 0:
            np.matmul(rows.T, delta[:step], out=out)
        else:
            out += np.matmul(rows.T, delta[r:r + step], out=part[:out.size].reshape(out.shape))
    return out


def loss_and_grad(params: RelationParams, vs: np.ndarray, protos: np.ndarray,
                  targets: np.ndarray, adam: AdamState, work=None) -> float:
    """One Adam step on the mean batch loss; returns that loss.

    ``targets`` holds, per sample, the row index of its true prototype. The
    loss averages over both the batch and the class dimension, so gradients
    are 1/(B*C) times the sum of per-pair terms. The three hidden-layer GEMMs,
    the forward through W2, the input delta ``δ2 W2ᵀ`` and ``dW2 = h1ᵀ δ2``,
    run in float32 on W2's row slabs and the first layer's float32 halves;
    the last layer, the loss, the halves' product, the delta sums, dW1 and
    the bias gradients are float64, and Adam reads each as float32. It runs
    in the leading rows of ``work`` (a ``_step_workspace``, by default a new
    one), in ``_step_layout``'s slabs and blocks of whole samples, as many as
    it allows in the fewest equal blocks. Each weight gradient is made in row
    blocks, layer i's only after the backward's last read of ``W_i``, and
    each block and bias gradient goes to ``adam`` as soon as it is made,
    updating those rows as one ``adam_step`` would: no gradient set is held.
    """
    vs = np.asarray(vs, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    targets = np.asarray(targets)
    if vs.shape[1] != params.m or protos.shape[1] != params.m:
        raise FormatError("batch dimension does not match the scorer")
    b, c = vs.shape[0], protos.shape[0]
    if targets.shape != (b,) or targets.dtype.kind not in "iu" \
            or np.any((targets < 0) | (targets >= c)):
        raise ValidationError(f"targets must hold one prototype index in [0, {c}) per sample")
    t = (targets[:, None] == np.arange(c)).astype(np.float64).reshape(-1)
    x, x2, z, halves, db, scratch = work or _step_workspace(params, b, c)
    put = _adam_begin(params, adam, scratch)

    n, slope, (_, w2, w3) = b * c, params.slope, params.weights
    (h0, h1), tmp = w2.shape, scratch[0].view(np.float32)
    # The workspace's layout, for its batch; a partial batch takes its
    # leading rows in no larger blocks.
    s, k, s2, rows, (layer1, forward, backward, first, second) = \
        _step_layout(params, len(x2) // c, c)
    k = _even(b, k)
    # The halves are made in float64 in the words the delta sums take later,
    # from W1 widened a row block at a time, then cast to float32 once.
    sums, wide, part, _ = _carve(x, layer1)
    per_sample, per_proto = sums[:b * h0].reshape(b, h0), sums[b * h0:(b + c) * h0].reshape(c, h0)
    a, cp = halves[:b], halves[b:b + c]
    a[:], cp[:] = _first_layer(params, vs, protos, per_sample, per_proto, wide.reshape(-1, h0), part)
    y2, logits = x2[:n], z[:n]
    # The forward: per W2 slab, each sample block's slab of the first hidden
    # output times it, added into the block's rows of y2 slab after slab.
    h, acc, _ = _carve(x, forward)
    for r in range(0, h0, s):
        ws, ah, ch = w2[r:r + s], a[:, r:r + s], cp[:, r:r + s]
        for s0 in range(0, b, k):
            kk = min(k, b - s0)
            hk = _first_hidden(ah[s0:s0 + kk], ch, h[:kk * ch.size].reshape(kk, c, -1), slope, tmp)
            out = y2[s0 * c:(s0 + kk) * c]
            if r == 0:
                np.matmul(hk, ws, out=out)
            else:
                out += np.matmul(hk, ws, out=acc[:out.size].reshape(out.shape))
    b2, b3 = params.biases[1:]
    loss = float(_bce_elementwise(_head(y2, b2, w3, b3, slope, logits, tmp), t).mean())

    # ``put``'s k counts through (W1, W2, W3, b1, b2, b3). The last layer's
    # one-column dW is taken before its input's rows become its input
    # delta, the backward's last read of its weights.
    delta = ((_sigmoid(logits) - t) / n)[:, None]
    put(5, 0, delta.sum(axis=0, out=db[2]))
    dw = _widened_tdot(y2, delta, scratch)
    d2 = _gate_rows_(y2, delta, w3, slope, scratch[1])
    put(2, 0, dw)
    put(4, 0, d2.sum(axis=0, out=db[1]))
    # The second layer's input delta, one W2 slab's columns of one sample
    # block at a time, gated and reduced into the float64 sums. Pair (b,
    # c)'s first-layer input is [vs[b], protos[c]], so the sample half of
    # dW1 sums delta over prototypes and the prototype half over samples.
    _, d, sums_c, _ = _carve(x, backward)
    for r in range(0, h0, s):
        ws, cols = w2[r:r + s], slice(r, r + s)
        psum = sums_c[:2 * c * ws.shape[0]].reshape(2, c, -1)
        for s0 in range(0, b, k):
            kk = min(k, b - s0)
            d1 = np.matmul(d2[s0 * c:(s0 + kk) * c], ws.T,
                           out=d[:kk * c * ws.shape[0]].reshape(-1, ws.shape[0]))
            per_pair = _gate_first_(d1, a[s0:s0 + kk, cols], cp[:, cols], slope,
                                    scratch.view(np.float32)).reshape(kk, c, -1)
            per_pair.sum(axis=1, out=per_sample[s0:s0 + kk, cols])
            block = per_pair.sum(axis=0, out=psum[min(s0, 1)])
            if s0:
                psum[0] += block
        per_proto[:, cols] = psum[0]
    per_sample.sum(axis=0, out=db[0])
    # dW1 = [vsᵀ per_sample ; protosᵀ per_proto], one row block at a time;
    # Adam may use the rest. W1 and b1 are read no more.
    _, run = _carve(x, first[:1])
    for r0, at, dd in ((0, vs.T, per_sample), (params.m, protos.T, per_proto)):
        for r in range(0, at.shape[0], rows):
            part = at[r:r + rows]
            out = run[:part.shape[0] * h0].reshape(-1, h0)
            put(0, r0 + r, np.matmul(part, dd, out=out), run[out.size:])
    put(3, 0, db[0])
    # dW2 = h1ᵀ δ2, one row slab at a time from that column slab of h1,
    # rebuilt from the halves as the forward made it.
    h, blk, acc, free = _carve(x, second[:3])
    for r in range(0, h0, s2):
        ch = cp[:, r:r + s2]
        hk = _first_hidden(a[:, r:r + s2], ch, h[:b * ch.size].reshape(b, c, -1), slope, tmp)
        g = blk[:hk.shape[1] * h1].reshape(-1, h1)
        put(1, r, _dot_pieces(hk, d2, g, acc[:g.size].reshape(g.shape)), free)
    return loss


def adam_init(params: RelationParams, lr: float = 1e-3) -> AdamState:
    arrays = (*params.weights, *params.biases)
    return AdamState(lr=lr, m=[np.zeros(a.shape, np.float32) for a in arrays],
                     v=[np.zeros(a.shape, np.float32) for a in arrays])


def _block_rows(a: np.ndarray, block: int = _BLOCK) -> int:
    """Leading-axis rows of ``a`` per block of about ``block`` elements."""
    return max(1, block // (a.size // a.shape[0]))


def _adam_begin(params: RelationParams, state: AdamState, scratch: np.ndarray):
    """Start one Adam step; returns its update ``put(k, r, g, free=None)``,
    which moves rows ``r:r + len(g)`` of array ``k`` of ``(*weights,
    *biases)`` by gradient ``g``. Its two float32 scratch buffers are views
    of the halves of the flat ``free``, where that is larger than the two
    rows of ``scratch``, and of those rows otherwise. A float64 ``g`` is
    rounded to float32 as it is read. Each element's update is the same
    whatever the blocks."""
    if params.frozen:
        raise ValidationError("cannot update a frozen scorer")
    state.step += 1
    c2 = (1.0 - _BETA2 ** state.step) ** 0.5
    lr, eps = state.lr * c2 / (1.0 - _BETA1 ** state.step), _EPSILON * c2
    arrays = list(zip((*params.weights, *params.biases), state.m, state.v))

    def put(k: int, r0: int, grad: np.ndarray, free=None) -> None:
        flat_s, flat_t = (scratch if free is None or free.size < scratch.size else
                          free[:free.size // 2 * 2].reshape(2, -1)).view(np.float32)
        rows = _block_rows(grad, min(_BLOCK, flat_s.size))
        for r in range(0, grad.shape[0], rows):
            # p -= lr_t * m / (sqrt(v) + eps_t) (Kingma and Ba, §2), in float32 through
            # two scratch buffers, one cache-sized block of rows at a time.
            g = grad[r:r + rows]
            p, m, v = (a[r0 + r:r0 + r + g.shape[0]] for a in arrays[k])
            s = flat_s[:p.size].reshape(p.shape)
            t = flat_t[:p.size].reshape(p.shape)
            if g.dtype != t.dtype:
                t[:] = g
                g = t
            m *= _BETA1
            m += np.multiply(g, 1.0 - _BETA1, out=s)
            v *= _BETA2
            np.multiply(g, g, out=s)
            v += np.multiply(s, 1.0 - _BETA2, out=s)
            np.sqrt(v, out=t)
            t += eps
            np.divide(m, t, out=s)
            p -= np.multiply(s, lr, out=s)
    return put


def adam_step(params: RelationParams, state: AdamState, grads
              ) -> tuple[RelationParams, AdamState]:
    """One Adam update with bias correction from a full gradient set, the
    sequence ``(*d_weights, *d_biases)``; mutates params/state in place.
    Training applies the same per-block update inside ``loss_and_grad``
    instead."""
    put = _adam_begin(params, state, _scratch(params, _BLOCK))
    for k, g in enumerate(grads):
        put(k, 0, g)
    return params, state


@np.errstate(over="ignore", invalid="ignore")
def train_alignment(params: RelationParams, train_set: EmbeddingSet,
                    prototypes, hyper: TrainConfig | None = None
                    ) -> tuple[RelationParams, list[float]]:
    """Train ``params`` in place on the base task and freeze it; returns it
    and the per-epoch mean losses; ``init_relation``'s float32 scorer stays float32.

    The sample order is reshuffled each epoch with the stream seeded by
    ``derive_seed(hyper.seed, SCOPE_SHUFFLE, epoch)``; the trailing partial
    batch is used, not dropped. A frozen ``params`` is rejected before any
    work; train ``params.copy()`` to keep the original. A diverging run
    warns of no overflow; its non-finite weights fail ``save_alignment``.
    """
    hyper = hyper or TrainConfig()
    if params.frozen:
        raise ValidationError("cannot train a frozen scorer; pass params.copy()")
    if len(train_set) == 0:
        raise ValidationError("no training samples")
    if any(int(t) != 0 for t in train_set.tasks):
        raise ValidationError("alignment trains on the base task only")
    if any(s != "train" for s in train_set.splits):
        raise ValidationError("alignment training set must contain train-split records only")

    # Every prototype in id order; a label without one fails the lookup.
    ids = sorted({p.class_id for p in prototypes} | set(train_set.labels.tolist()))
    proto_mat = prototype_matrix(prototypes, ids)
    targets = np.searchsorted(ids, train_set.labels)

    state = adam_init(params, lr=hyper.lr)
    n = len(train_set)
    work = _step_workspace(params, min(hyper.batch_size, n), len(ids))
    history = []
    for epoch in range(hyper.epochs):
        order = Stream(derive_seed(hyper.seed, SCOPE_SHUFFLE, epoch)).permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch_size):
            batch = order[start:start + hyper.batch_size]
            loss = loss_and_grad(params, train_set.vectors[batch], proto_mat,
                                 targets[batch], state, work)
            total += loss * batch.shape[0]
        history.append(total / n)
    return params.freeze(), history


# ---- checkpoint I/O ----


def _check_aln(path, weights, biases, sidecar) -> dict:
    """The ALN1 checks, run by the writer before it writes and by the loader
    after it reads: three chained layers, none of width 0 and the last of
    width 1, finite values; then ``sidecar()`` has an integer ``m >= 1``,
    half the first fan-in, and a finite ``slope >= 0``. Returns the sidecar."""
    if len(weights) != 3:
        raise FormatError(f"{path}: {len(weights)} layers, not 3")
    for i, w in enumerate(weights):
        if w.shape[1] < 1:
            raise FormatError(f"{path}: layer {i} has width 0")
        if i and w.shape[0] != weights[i - 1].shape[1]:
            raise FormatError(f"{path}: layer {i} has {w.shape[0]} rows, "
                              f"layer {i - 1} has {weights[i - 1].shape[1]} cols")
    if weights[-1].shape[1] != 1:
        raise FormatError(f"{path}: last layer has width {weights[-1].shape[1]}, not 1")
    for arr in (*weights, *biases):
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: non-finite parameter")
    meta = sidecar()
    m = meta.get("m")
    check_int(f"{path}: sidecar m", m, lo=1, error=FormatError)
    slope = meta.get("slope", DEFAULT_SLOPE)
    check_real(f"{path}: sidecar slope", slope, lo=0.0, error=FormatError)
    if weights[0].shape[0] != 2 * m:
        raise FormatError(f"{path}: first layer expects fan-in {weights[0].shape[0]}, "
                          f"sidecar says m={m}")
    return meta


def save_alignment(params: RelationParams, path, train_config: TrainConfig | None = None,
                   loss_history=None) -> None:
    """Write ``params`` as ALN1 once its float32 layers (a float64 one built by hand
    is rounded) pass ``load_alignment``'s checks. The sidecar's ``final_loss``
    is the history's last epoch, null without one."""
    with np.errstate(over="ignore"):  # a value past float32's range is inf: rejected
        weights, biases = ([np.ascontiguousarray(a, dtype="<f4") for a in arrays]
                           for arrays in (params.weights, params.biases))
    sidecar = {"m": params.m, "slope": params.slope,
               "final_loss": loss_history[-1] if loss_history else None,
               "train_config": None if train_config is None else train_config.to_dict()}
    if loss_history is not None:
        sidecar["loss_history"] = list(loss_history)
    _check_aln(path, weights, biases, lambda: sidecar)
    chunks = [ALN_MAGIC + _U32.pack(len(weights))]
    for w, b in zip(weights, biases):
        chunks += [_U32x2.pack(*w.shape), w, b]
    write_pair(path, chunks, sidecar)


def load_alignment(path) -> tuple[RelationParams, dict]:
    path = Path(path)
    blob = read_binary(path, ALN_MAGIC, "ALN1 checkpoint")
    if len(blob) < 8:
        raise FormatError(f"{path}: truncated header")
    (n_layers,) = _U32.unpack_from(blob, 4)
    off = 8
    weights, biases = [], []
    for _ in range(n_layers):
        if len(blob) < off + 8:
            raise FormatError(f"{path}: truncated layer header")
        rows, cols = _U32x2.unpack_from(blob, off)
        off += 8
        if len(blob) < off + 4 * (rows * cols + cols):
            raise FormatError(f"{path}: layer payload truncated")
        w = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=off)
        weights.append(w.reshape(rows, cols))
        biases.append(np.frombuffer(blob, dtype="<f4", count=cols, offset=off + w.nbytes))
        off += 4 * (rows * cols + cols)
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes")
    meta = _check_aln(path, weights, biases, lambda: read_sidecar(path))
    return RelationParams(weights, biases, float(meta.get("slope", DEFAULT_SLOPE)),
                          meta["m"]).freeze(), meta
