"""Vision-text alignment scorer: a small fully connected relation network.

The scorer maps a concatenated (vision, text) feature pair through three
fully connected layers (2m -> 2048 -> 1024 -> 1 by default) with LeakyReLU
activations on the hidden layers and a sigmoid on the scalar output, giving
a similarity in (0, 1). It is trained with a one-vs-all binary cross-entropy
over the base-task classes, using Adam, and is frozen afterwards: nothing in
this package updates it again.

Training is float64 numpy; the score table runs its hidden layers in the
checkpoint's float32 (see ``score_matrix``). The binary cross-entropy is
evaluated in logit space, ``max(z, 0) - z*t + log1p(exp(-|z|))``, so
saturated sigmoids never produce log(0).

Scoring and training share one kernel. The first layer's input is a pair
``[v, e]``, so its pre-activation is ``v @ W1[:m] + (e @ W1[m:] + b1)``: the
two halves are computed once per call, for every sample and every
prototype, and added per pair; the pair matrix is never built. Its gradient
is ``[Vᵀ Σ_c δ ; Pᵀ Σ_b δ]``. The last layer is a float64 ``einsum`` row
reduction. For a fixed BLAS, at 2048/1024 and 1024/512 where it was
verified, a logit's bytes depend on neither the other rows in its block (of
two or more) nor the BLAS thread count; at some other widths they do
(ROADMAP item 4). Adam runs over cache-sized blocks of each parameter.

Training updates the given scorer in place. The backward LeakyReLU gate
multiplies each block of delta rows by ``(~g)*slope + g``, ``g = h > 0``:
the masked multiply ``where=~g``'s bytes without its short masked runs.

Checkpoint format "ALN1" (little-endian):

    bytes 0..3  magic "ALN1"
    bytes 4..7  u32 layer count
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
    CorruptRecord,
    DimMismatch,
    EmptyTrainSet,
    ValidationError,
    check_int,
    check_real,
    from_fields,
)
from .rng import SCOPE_INIT, SCOPE_SHUFFLE, Stream, derive_seed

ALN_MAGIC = b"ALN1"
DEFAULT_HIDDEN = (2048, 1024)
DEFAULT_SLOPE = 0.01

# Adam and the backward gate work in blocks of about this many elements
# (256 KB), so that their passes over a block stay in cache.
_BLOCK = 1 << 15

_U32 = struct.Struct("<I")
_U32x2 = struct.Struct("<II")


@dataclass
class RelationParams:
    """Weights and biases of the scorer; ``weights[i]`` is (fan_in, fan_out)."""

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
        return RelationParams([w.astype(np.float64) for w in self.weights],
                              [b.astype(np.float64) for b in self.biases],
                              self.slope, self.m, False)

    def freeze(self) -> "RelationParams":
        for arr in (*self.weights, *self.biases):
            arr.flags.writeable = False
        self.frozen = True
        return self


@dataclass
class Gradients:
    d_weights: list
    d_biases: list

    def norm(self) -> float:
        total = sum(float(np.sum(g * g)) for g in (*self.d_weights, *self.d_biases))
        return float(np.sqrt(total))


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    # First and second moments, one array per entry of (*weights, *biases).
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    # Two flat buffers the size of one Adam block, reused by every step.
    scratch: list = field(default_factory=list, repr=False, compare=False)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 25
    lr: float = 0.001
    seed: int = 0
    hidden: tuple = DEFAULT_HIDDEN
    slope: float = DEFAULT_SLOPE
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        """Every construction path is validated here; ``hidden`` becomes a tuple."""
        check_int("epochs", self.epochs, lo=1)
        check_int("batch_size", self.batch_size, lo=1)
        check_int("seed", self.seed)
        for name in ("lr", "epsilon"):
            value = getattr(self, name)
            check_real(name, value)
            if value <= 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            check_real(name, value, lo=0.0)
            if value >= 1:
                raise ConfigError(f"{name} must be < 1, got {value}")
        check_real("slope", self.slope, lo=0.0)
        if not isinstance(self.hidden, (list, tuple)):
            raise ConfigError(f"hidden must be a list of widths, got {self.hidden!r}")
        for width in self.hidden:
            check_int("hidden width", width, lo=1)
        object.__setattr__(self, "hidden", tuple(self.hidden))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return from_fields(cls, d, "alignment")

    def to_dict(self) -> dict:
        """The config as plain data, ``hidden`` as a list."""
        return {**asdict(self), "hidden": list(self.hidden)}


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
    SCOPE_INIT, i))`` and fills its weight matrix row-major.
    """
    if m < 1:
        raise ValueError("feature dimension must be >= 1")
    sizes = [2 * m, *hidden, 1]
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = np.sqrt(6.0 / fan_in)
        w = Stream(derive_seed(seed, SCOPE_INIT, i)).uniform(fan_in * fan_out)
        w *= 2.0
        w -= 1.0
        w *= bound
        weights.append(w.reshape(fan_in, fan_out))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return RelationParams(weights, biases, slope, m)


def _leaky_relu_(z: np.ndarray, slope: float) -> np.ndarray:
    """LeakyReLU in place: ``z if z > 0 else slope*z``, bit for bit.

    Rounding is monotone, so for ``0 <= slope <= 1`` the larger of ``z`` and
    ``slope*z`` is that value, and for ``slope > 1`` the smaller is; this holds
    for signed zeros and NaN too. The one exception is an overflowed ``+inf``
    at slope 0, where ``0*inf`` is NaN.
    """
    if slope <= 1.0:
        return np.maximum(z, slope * z, out=z)
    return np.minimum(z, slope * z, out=z)


def _gate_(delta: np.ndarray, h: np.ndarray, slope: float) -> np.ndarray:
    """``delta *= 1 if h > 0 else slope`` in place, one block of rows at a
    time; the factor and ``x*1 == x`` (NaN too) make it the masked multiply's
    bytes."""
    rows = _block_rows(delta)
    for r in range(0, delta.shape[0], rows):
        g = h[r:r + rows] > 0.0
        delta[r:r + rows] *= ~g * slope + g
    return delta


def _first_layer(params: RelationParams, vs: np.ndarray, protos: np.ndarray):
    """The first layer's two halves, ``vs @ W1[:m]`` and ``protos @ W1[m:] + b1``.

    The pre-activation of pair ``(b, c)`` is the sum of row ``b`` of the first
    and row ``c`` of the second.
    """
    w, m = params.weights[0], params.m
    a = vs @ w[:m]
    cp = protos @ w[m:]
    cp += params.biases[0]
    return a, cp


def _forward(params: RelationParams, a: np.ndarray, cp: np.ndarray, keep: bool = False):
    """Logits for every pair of the samples whose first-layer half is ``a``
    with every prototype in ``cp``; row ``b*C + c`` is pair ``(b, c)``.

    With ``keep`` it returns ``(logits, acts)``, where ``acts[i]`` is layer
    ``i + 1``'s input. For ``slope >= 0`` a hidden activation is positive
    exactly when its pre-activation is, so ``acts`` also serves as the
    backward gate. The last layer is a float64 ``einsum`` row reduction, not
    a fan-out-1 gemv; the module docstring states when a row's logit is then
    independent of the other rows and of BLAS threads.
    """
    z = (a[:, None, :] + cp[None, :, :]).reshape(-1, cp.shape[1])
    acts = []
    last = len(params.weights) - 1
    for i in range(1, last + 1):
        h = _leaky_relu_(z, params.slope)
        if keep:
            acts.append(h)
        w, b = params.weights[i], params.biases[i]
        z = h @ w if i < last else np.einsum("ij,j->i", h, w[:, 0], dtype=np.float64)[:, None]
        z += b
    logits = z[:, 0]
    return (logits, acts) if keep else logits


def score_matrix(params: RelationParams, vs: np.ndarray, protos: np.ndarray,
                 chunk: int = 256) -> np.ndarray:
    """Logits for every (sample, prototype) pair, shape (B, C).

    The table is built for ``max(1, chunk // C)`` whole samples at a time, so
    memory stays bounded by about ``chunk`` pair rows, not by B*C, and each
    block's activations stay cache-sized. The first-layer halves, the last
    layer and the logits are float64; the add, the LeakyReLUs and the hidden
    GEMMs float32, on the checkpoint's weights (cast if held in float64).
    On the benchmark worlds (1024/512) no logit moved by more than 3.1e-7
    from the all-float64 table's. Its bytes depend on neither the BLAS
    threads nor the block size (of two or more rows) at 1024/512 and
    2048/1024 with OpenBLAS 0.3.31.
    """
    vs = np.asarray(vs, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    if vs.shape[1] != params.m or protos.shape[1] != params.m:
        raise DimMismatch("sample/prototype dimension does not match the scorer")
    a, cp = _first_layer(params, vs, protos)
    if len(params.weights) > 1:  # the hidden layers run in float32
        a, cp = a.astype(np.float32), cp.astype(np.float32)
        f32 = lambda xs: [xs[0], *(x.astype(np.float32, copy=False) for x in xs[1:-1]), xs[-1]]
        params = RelationParams(f32(params.weights), f32(params.biases), params.slope, params.m)
    c = protos.shape[0]
    step = max(1, chunk // max(c, 1))
    out = np.empty((vs.shape[0], c), dtype=np.float64)
    for s0 in range(0, vs.shape[0], step):
        out[s0:s0 + step] = _forward(params, a[s0:s0 + step], cp).reshape(-1, c)
    return out


def _bce_elementwise(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))


def loss_and_grad(params: RelationParams, vs: np.ndarray, protos: np.ndarray,
                  targets: np.ndarray) -> tuple[float, Gradients]:
    """Mean batch loss and its exact gradient.

    ``targets`` holds, per sample, the row index of its true prototype. The
    loss averages over both the batch and the class dimension, so gradients
    are 1/(B*C) times the sum of per-pair terms.
    """
    vs = np.asarray(vs, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    targets = np.asarray(targets)
    if vs.shape[0] == 0:
        raise EmptyTrainSet("empty batch")
    if vs.shape[1] != params.m or protos.shape[1] != params.m:
        raise DimMismatch("batch dimension does not match the scorer")
    b, c = vs.shape[0], protos.shape[0]
    if targets.shape != (b,) or targets.dtype.kind not in "iu" \
            or np.any((targets < 0) | (targets >= c)):
        raise ValidationError(f"targets must hold one prototype index in [0, {c}) per sample")
    t = np.zeros((b, c), dtype=np.float64)
    t[np.arange(b), targets] = 1.0
    t = t.reshape(-1)

    logits, acts = _forward(params, *_first_layer(params, vs, protos), keep=True)
    loss = float(_bce_elementwise(logits, t).mean())

    d_weights = [None] * len(params.weights)
    d_biases = [None] * len(params.biases)
    delta = ((_sigmoid(logits) - t) / (b * c))[:, None]
    for i in range(len(params.weights) - 1, 0, -1):
        d_weights[i] = acts[i - 1].T @ delta
        d_biases[i] = delta.sum(axis=0)
        delta = _gate_(delta @ params.weights[i].T, acts[i - 1], params.slope)
    # Pair (b, c)'s first-layer input is [vs[b], protos[c]], so the sample
    # half of dW1 sums delta over prototypes and the prototype half over samples.
    per_pair = delta.reshape(b, c, -1)
    d_w1 = np.empty_like(params.weights[0])
    np.matmul(vs.T, per_pair.sum(axis=1), out=d_w1[:params.m])
    np.matmul(protos.T, per_pair.sum(axis=0), out=d_w1[params.m:])
    d_weights[0] = d_w1
    d_biases[0] = delta.sum(axis=0)
    return loss, Gradients(d_weights, d_biases)


def adam_init(params: RelationParams, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> AdamState:
    arrays = (*params.weights, *params.biases)
    block = max(_block_rows(a) * (a.size // a.shape[0]) for a in arrays)
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon, step=0,
        m=[np.zeros(a.shape) for a in arrays],
        v=[np.zeros(a.shape) for a in arrays],
        scratch=[np.empty(block) for _ in range(2)],
    )


def _block_rows(a: np.ndarray) -> int:
    """Leading-axis rows of ``a`` per block of about ``_BLOCK`` elements."""
    return max(1, _BLOCK // (a.size // a.shape[0]))


def adam_step(params: RelationParams, state: AdamState, grads: Gradients
              ) -> tuple[RelationParams, AdamState]:
    """One Adam update with bias correction; mutates params/state in place."""
    if params.frozen:
        raise ValidationError("cannot update a frozen scorer")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    flat_s, flat_t = state.scratch
    for arrays in zip((*params.weights, *params.biases), state.m, state.v,
                      (*grads.d_weights, *grads.d_biases)):
        rows = _block_rows(arrays[0])
        for r in range(0, arrays[0].shape[0], rows):
            # p -= lr * (m/c1) / (sqrt(v/c2) + eps), one operation at a time
            # in the order that formula evaluates, through two scratch
            # buffers, one cache-sized block of rows at a time.
            p, m, v, g = (a[r:r + rows] for a in arrays)
            s = flat_s[:p.size].reshape(p.shape)
            t = flat_t[:p.size].reshape(p.shape)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s)
            v *= b2
            np.multiply(g, g, out=s)
            v += np.multiply(s, 1.0 - b2, out=s)
            np.divide(m, c1, out=s)
            s *= state.lr
            np.divide(v, c2, out=t)
            np.sqrt(t, out=t)
            t += state.epsilon
            p -= np.divide(s, t, out=s)
    return params, state


@np.errstate(over="ignore", invalid="ignore")
def train_alignment(params: RelationParams, train_set: EmbeddingSet,
                    prototypes, hyper: TrainConfig | None = None
                    ) -> tuple[RelationParams, list[float]]:
    """Train ``params`` in place on the base task and freeze it; returns it
    and the per-epoch mean losses.

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
        raise EmptyTrainSet("no training samples")
    if any(int(t) != 0 for t in train_set.tasks):
        raise ValidationError("alignment trains on the base task only")
    if any(s != "train" for s in train_set.splits):
        raise ValidationError("alignment training set must contain train-split records only")

    # Every prototype in id order; a label without one fails the lookup.
    ids = sorted({p.class_id for p in prototypes} | set(train_set.labels.tolist()))
    proto_mat = prototype_matrix(prototypes, ids)
    targets = np.searchsorted(ids, train_set.labels)

    state = adam_init(params, lr=hyper.lr, beta1=hyper.beta1, beta2=hyper.beta2,
                      epsilon=hyper.epsilon)
    n = len(train_set)
    history = []
    for epoch in range(hyper.epochs):
        order = Stream(derive_seed(hyper.seed, SCOPE_SHUFFLE, epoch)).permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch_size):
            batch = order[start:start + hyper.batch_size]
            loss, grads = loss_and_grad(params, train_set.vectors[batch], proto_mat,
                                        targets[batch])
            total += loss * batch.shape[0]
            adam_step(params, state, grads)
        history.append(total / n)
    return params.freeze(), history


# ---- checkpoint I/O ----


def _check_aln(path, weights, biases, sidecar) -> dict:
    """The ALN1 checks, run by the writer before it writes and by the loader
    after it reads: chained layers, the last of width 1, finite values; then
    ``sidecar()`` has an integer ``m >= 1``, half the first fan-in, and a
    finite ``slope >= 0``. Returns the sidecar."""
    if not weights:
        raise DimMismatch(f"{path}: no layers")
    for i in range(1, len(weights)):
        if weights[i].shape[0] != weights[i - 1].shape[1]:
            raise DimMismatch(f"{path}: layer {i} has {weights[i].shape[0]} rows, "
                              f"layer {i - 1} has {weights[i - 1].shape[1]} cols")
    if weights[-1].shape[1] != 1:
        raise DimMismatch(f"{path}: last layer has width {weights[-1].shape[1]}, not 1")
    for arr in (*weights, *biases):
        if not np.all(np.isfinite(arr)):
            raise CorruptRecord(f"{path}: non-finite parameter")
    meta = sidecar()
    m = meta.get("m")
    check_int(f"{path}: sidecar m", m, lo=1, error=CorruptRecord)
    slope = meta.get("slope", DEFAULT_SLOPE)
    check_real(f"{path}: sidecar slope", slope, lo=0.0, error=CorruptRecord)
    if weights[0].shape[0] != 2 * m:
        raise DimMismatch(f"{path}: first layer expects fan-in {weights[0].shape[0]}, "
                          f"sidecar says m={m}")
    return meta


def save_alignment(params: RelationParams, path, train_config: TrainConfig | None = None,
                   final_loss: float | None = None, loss_history=None) -> None:
    """Write ``params`` as ALN1 once its float32 layers pass ``load_alignment``'s checks."""
    with np.errstate(over="ignore"):  # a value past float32's range is inf: rejected
        weights, biases = ([np.ascontiguousarray(a, dtype="<f4") for a in arrays]
                           for arrays in (params.weights, params.biases))
    sidecar = {"m": params.m, "slope": params.slope, "final_loss": final_loss,
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
        raise DimMismatch(f"{path}: truncated header")
    (n_layers,) = _U32.unpack_from(blob, 4)
    off = 8
    weights, biases = [], []
    for _ in range(n_layers):
        if len(blob) < off + 8:
            raise DimMismatch(f"{path}: truncated layer header")
        rows, cols = _U32x2.unpack_from(blob, off)
        off += 8
        if len(blob) < off + 4 * (rows * cols + cols):
            raise DimMismatch(f"{path}: layer payload truncated")
        w = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=off)
        weights.append(w.reshape(rows, cols))
        biases.append(np.frombuffer(blob, dtype="<f4", count=cols, offset=off + w.nbytes))
        off += 4 * (rows * cols + cols)
    if off != len(blob):
        raise DimMismatch(f"{path}: {len(blob) - off} trailing bytes")
    meta = _check_aln(path, weights, biases, lambda: read_sidecar(path))
    return RelationParams(weights, biases, float(meta.get("slope", DEFAULT_SLOPE)),
                          meta["m"]).freeze(), meta
