"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own vectorized paths:
pure-Python loops and scalar math, so a bug in the package cannot hide in
its oracle.
"""

import math
import tracemalloc

import numpy as np


def ref_score_pair(params, v, e):
    """Loop-based forward pass of the relation scorer: (score, logit)."""
    h = [float(x) for x in v] + [float(x) for x in e]
    last = len(params.weights) - 1
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for j in range(w.shape[1]):
            s = float(b[j])
            for i in range(w.shape[0]):
                s += h[i] * float(w[i, j])
            out.append(s)
        if li < last:
            out = [o if o > 0.0 else params.slope * o for o in out]
        h = out
    z = h[0]
    return 1.0 / (1.0 + math.exp(-z)), z


def ref_scalar_adam(x0, grad_fn, lr, beta1, beta2, eps, steps):
    """Hand-rolled scalar Adam trajectory."""
    m = v = 0.0
    x = x0
    traj = []
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        x -= lr * mhat / (math.sqrt(vhat) + eps)
        traj.append(x)
    return traj


def flat_param_views(params):
    """(array, index) pairs covering every parameter coordinate."""
    views = []
    for arr in (*params.weights, *params.biases):
        flat = arr.reshape(-1)
        for i in range(flat.shape[0]):
            views.append((flat, i))
    return views


def central_difference_check(params, vs, protos, targets, h=1e-5, rtol=1e-4,
                             coords=None):
    """Compare every analytic gradient coordinate with central differences.

    Relative error uses the guarded denominator max(|analytic|, |fd|, 1e-3),
    so near-zero coordinates are compared absolutely at rtol * 1e-3. Returns
    the worst guarded relative error seen.
    """
    from tfa.alignment import loss_and_grad

    _, grads = loss_and_grad(params, vs, protos, targets)
    flat_grads = []
    for arr in (*grads.d_weights, *grads.d_biases):
        flat_grads.extend(arr.reshape(-1).tolist())
    views = flat_param_views(params)
    assert len(views) == len(flat_grads)
    if coords is None:
        coords = range(len(views))
    worst = 0.0
    for c in coords:
        flat, i = views[c]
        keep = flat[i]
        flat[i] = keep + h
        up = loss_and_grad(params, vs, protos, targets)[0]
        flat[i] = keep - h
        down = loss_and_grad(params, vs, protos, targets)[0]
        flat[i] = keep
        fd = (up - down) / (2.0 * h)
        ana = flat_grads[c]
        err = abs(ana - fd) / max(abs(ana), abs(fd), 1e-3)
        worst = max(worst, err)
        assert err <= rtol, (
            f"coordinate {c}: analytic {ana:.10g} vs finite difference {fd:.10g} "
            f"(guarded relative error {err:.3g})")
    return worst


def nearest_prototype_predictions(data, prototypes, indices):
    """Brute-force cosine argmax against all prototypes."""
    protos = sorted(prototypes, key=lambda p: p.class_id)
    ids = np.array([p.class_id for p in protos])
    mat = np.vstack([p.vector for p in protos])
    preds = []
    for i in indices:
        v = data.vectors[int(i)]
        sims = [float(np.dot(v, mat[j]) / (np.linalg.norm(v) * np.linalg.norm(mat[j])))
                for j in range(mat.shape[0])]
        preds.append(int(ids[int(np.argmax(sims))]))
    return np.array(preds)


def make_unit(stream, m):
    v = stream.normal(m)
    return v / np.linalg.norm(v)


# ---- the per-sample stream loop that schedule-then-score replaced ----


def ref_argmax_lowest_id(values, class_ids):
    values = np.asarray(values, dtype=np.float64)
    winners = np.nonzero(values == values.max())[0]
    return int(np.min(np.asarray(class_ids)[winners]))


def ref_cache_scores(cache, v, beta, class_ids):
    """Single-query retrieval: scatter-add each entry's affinity to its class."""
    from tfa.errors import DimMismatch

    keys, values = cache.pooled()
    ids = np.asarray(class_ids, dtype=np.int64)
    if values.size:
        known = set(int(c) for c in ids)
        for c in values:
            if int(c) not in known:
                raise DimMismatch(f"cache holds class {int(c)} missing from class order")
    out = np.zeros(ids.shape[0], dtype=np.float64)
    if values.size == 0:
        return out
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if keys.shape[1] != v.shape[0]:
        raise DimMismatch(f"query dimension {v.shape[0]} vs cache keys {keys.shape[1]}")
    u = np.clip(keys @ v, -1.0, 1.0)
    w = np.exp(-beta * (1.0 - u))
    pos_of = {int(c): i for i, c in enumerate(ids)}
    idx = np.array([pos_of[int(c)] for c in values], dtype=np.int64)
    np.add.at(out, idx, w)
    return out


class RefCache:
    """The dual cache as the per-class entry lists that the array store
    replaced: each admission pseudo-labels its row with the scalar entropy
    and re-scans its class queue for the first maximum-entropy entry.

    An entry is a ``(key, entropy)`` pair; a novel shot has entropy 0. Same
    contract as ``tfa.adaptor.DualCache`` for the names listed here.
    """

    def __init__(self, capacity, shots):
        self.capacity = capacity
        self.shots = shots
        self._base = {}
        self._novel = {}

    def try_insert_base(self, key, logits, class_ids):
        """The admission outcome's kind and the evicted entropy, or None."""
        from tfa.numerics import entropy, softmax

        cls = ref_argmax_lowest_id(logits, class_ids)
        h = entropy(softmax(np.asarray(logits, dtype=np.float64)))
        queue = self._base.setdefault(cls, [])
        evicted = None
        if len(queue) >= self.capacity:
            worst = max(range(len(queue)), key=lambda i: queue[i][1])
            if not h < queue[worst][1]:
                return "rejected", None
            evicted = queue.pop(worst)[1]
        queue.append((np.array(key, dtype=np.float64), h))
        return ("inserted" if evicted is None else "replaced"), evicted

    def insert_novel(self, key, label):
        from tfa.errors import ShotCapacityExceeded

        queue = self._novel.setdefault(int(label), [])
        if len(queue) >= self.shots:
            raise ShotCapacityExceeded(f"class {label} already holds {self.shots} novel shots")
        queue.append((np.array(key, dtype=np.float64), 0.0))

    def _entries(self):
        """(class, origin, key, entropy) of every entry: class ascending, base
        before novel, queue order within."""
        for cls in sorted(set(self._base) | set(self._novel)):
            for origin, queue in (("base_pseudo", self._base.get(cls, [])),
                                  ("novel_shot", self._novel.get(cls, []))):
                for key, h in queue:
                    yield cls, origin, key, h

    def pooled(self):
        entries = list(self._entries())
        if not entries:
            return np.zeros((0, 0), dtype=np.float64), np.zeros(0, dtype=np.int64)
        return (np.vstack([e[2] for e in entries]),
                np.array([e[0] for e in entries], dtype=np.int64))

    def stats(self):
        base_fill = {c: len(q) for c, q in sorted(self._base.items()) if q}
        novel_fill = {c: len(q) for c, q in sorted(self._novel.items()) if q}
        ent = [h for q in self._base.values() for _key, h in q]   # first-admission order
        return {
            "base_entries": sum(base_fill.values()),
            "novel_entries": sum(novel_fill.values()),
            "base_fill": base_fill,
            "novel_fill": novel_fill,
            "mean_base_entropy": float(np.mean(ent)) if ent else None,
        }

    def audit(self):
        import hashlib

        classes = {}
        for cls, origin, key, h in self._entries():
            classes.setdefault(str(cls), []).append({
                "class": cls,
                "origin": origin,
                "entropy": h,
                "key_digest": {
                    "head": [float(x) for x in key[:4]],
                    "hash64": hashlib.blake2b(key.tobytes(), digest_size=8).hexdigest(),
                },
            })
        return {"capacity": self.capacity, "shots": self.shots, "classes": classes}


def base_rows(cache, cls):
    """Keys and entropies of a ``DualCache``'s base entries of class ``cls``,
    in queue order."""
    rows = ~cache.novel & (cache.values == cls)
    return cache.keys[rows], cache.entropies[rows]


def ref_stream_predictions(cache, queries, logits, class_order, alpha, beta, admit):
    """Predict each query against the current ``RefCache``, then offer it for
    base admission if its pseudo-label is in ``admit``; same contract as
    ``tfa.protocol.stream_predictions``."""
    from tfa.alignment import _sigmoid

    preds = np.empty(queries.shape[0], dtype=np.int64)
    for pos in range(queries.shape[0]):
        row = logits[pos]
        v = queries[pos]
        b = ref_cache_scores(cache, v, beta, class_order)
        z = _sigmoid(row) + alpha * b
        preds[pos] = ref_argmax_lowest_id(z, class_order)
        if ref_argmax_lowest_id(row, class_order) in admit:
            cache.try_insert_base(v, row, class_order)
    return preds


# ---- the scorer kernel and Adam step that the allocation-lean versions replaced ----


def ref_forward(params, x, keep=False):
    """Logits for a (rows, 2m) block with ``np.where`` LeakyReLU; with ``keep``
    also the layer inputs and the hidden pre-activations."""
    acts = [x] if keep else None
    h = x
    last = len(params.weights) - 1
    pre_acts = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        if i == last:
            h = z
        else:
            if keep:
                pre_acts.append(z)
            h = np.where(z > 0.0, z, params.slope * z)
            if keep:
                acts.append(h)
    logits = h[:, 0]
    if keep:
        return logits, acts, pre_acts
    return logits


def ref_pairs(vs, protos):
    """The whole (B*C, 2m) pair matrix: row b*C + c is [vs[b], protos[c]]."""
    b, c = vs.shape[0], protos.shape[0]
    m = vs.shape[1]
    pairs = np.empty((b * c, 2 * m), dtype=np.float64)
    pairs[:, :m] = np.repeat(vs, c, axis=0)
    pairs[:, m:] = np.tile(protos, (b, 1))
    return pairs


def ref_score_matrix(params, vs, protos, chunk=8192):
    """(B, C) logits from the full pair matrix, forwarded ``chunk`` rows at a time."""
    vs = np.asarray(vs, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    b, c = vs.shape[0], protos.shape[0]
    pairs = ref_pairs(vs, protos)
    out = np.empty(b * c, dtype=np.float64)
    for start in range(0, b * c, chunk):
        stop = min(start + chunk, b * c)
        out[start:stop] = ref_forward(params, pairs[start:stop])
    return out.reshape(b, c)


def f64_score_matrix(params, vs, protos, chunk=256):
    """The float64 score table that the float32 hidden path replaced, bit for
    bit: the first layer in halves, ``max(1, chunk // C)`` samples per block,
    every layer in float64 and a row-reduced last layer. Weights of any float
    dtype are promoted exactly, so a loaded float32 scorer scores as before."""
    vs = np.asarray(vs, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    w0, m = params.weights[0].astype(np.float64), params.m
    a, cp = vs @ w0[:m], protos @ w0[m:] + params.biases[0]
    c = protos.shape[0]
    step = max(1, chunk // max(c, 1))
    last = len(params.weights) - 1
    out = np.empty((vs.shape[0], c), dtype=np.float64)
    for s0 in range(0, vs.shape[0], step):
        z = (a[s0:s0 + step, None, :] + cp[None, :, :]).reshape(-1, cp.shape[1])
        for i in range(1, last + 1):
            h = np.where(z > 0, z, params.slope * z)
            w, b = params.weights[i].astype(np.float64), params.biases[i]
            z = h @ w if i < last else (h * w[:, 0]).sum(axis=1, keepdims=True)
            z += b
        out[s0:s0 + step] = z[:, 0].reshape(-1, c)
    return out


def f32_logit_bound(params, vs, protos):
    """A (B, C) first-order bound on how far each float32-path logit of
    ``score_matrix`` may lie from ``f64_score_matrix``'s.

    With ``u = 2**-24``, float32's unit roundoff: casting the two first-layer
    halves and adding them errs by at most ``u(|a| + |cp|) + u|z|``; a
    LeakyReLU scales an error by at most ``max(1, slope)`` and rounds once
    more (``u|h|``); a float32 GEMM of fan-in ``n`` plus its bias errs by at
    most ``|dh| @ |W| + (n + 2)u (|h| @ |W| + |b|)`` whatever its summation
    order. The float64 last layer only carries ``|dh| @ |w|`` forward.
    """
    u = 2.0 ** -24
    vs = np.asarray(vs, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    b, c = vs.shape[0], protos.shape[0]
    x = ref_pairs(vs, protos)
    m = params.m
    w0 = params.weights[0].astype(np.float64)
    halves = np.abs(x[:, :m] @ w0[:m]) + np.abs(x[:, m:] @ w0[m:] + params.biases[0])
    _, acts, pre = ref_forward(params, x, keep=True)
    err = u * halves + u * np.abs(pre[0])
    gain = max(1.0, params.slope)
    last = len(params.weights) - 1
    for i in range(1, last + 1):
        h = np.abs(acts[i])
        dh = gain * err + u * h
        w = np.abs(params.weights[i].astype(np.float64))
        err = dh @ w
        if i < last:
            err += (w.shape[0] + 2) * u * (h @ w + np.abs(params.biases[i]))
    return err[:, 0].reshape(b, c)


def ref_loss_and_grad(params, vs, protos, targets):
    """Mean batch loss and gradient, gating the backward pass on the kept
    pre-activations: (loss, d_weights, d_biases)."""
    from tfa.alignment import _bce_elementwise, _sigmoid

    vs = np.asarray(vs, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    b, c = vs.shape[0], protos.shape[0]
    x = ref_pairs(vs, protos)
    t = np.zeros((b, c), dtype=np.float64)
    t[np.arange(b), np.asarray(targets, dtype=np.int64)] = 1.0
    t = t.reshape(-1)
    logits, acts, pre_acts = ref_forward(params, x, keep=True)
    loss = float(_bce_elementwise(logits, t).mean())
    d_weights = [None] * len(params.weights)
    d_biases = [None] * len(params.biases)
    delta = ((_sigmoid(logits) - t) / (b * c))[:, None]
    for i in range(len(params.weights) - 1, -1, -1):
        d_weights[i] = acts[i].T @ delta
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            upstream = delta @ params.weights[i].T
            gate = np.where(pre_acts[i - 1] > 0.0, 1.0, params.slope)
            delta = upstream * gate
    return loss, d_weights, d_biases


def ref_adam_step(params, state, grads):
    """One Adam update with a fresh temporary per operation; mutates in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for p, m, v, g in zip((*params.weights, *params.biases), state.m, state.v,
                          (*grads.d_weights, *grads.d_biases)):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)


# ---- the per-record synthetic generator that block draws replaced ----


def ref_unit(v):
    """One vector scaled by ``np.linalg.norm``, as a per-row normaliser did."""
    return v / float(np.linalg.norm(v))


def ref_generate_synthetic(cfg):
    """Columns, provenance and (class id, vector) prototypes of the synthetic
    world, drawn and normalised one row at a time; same contract as
    ``tfa.synth.generate_synthetic``."""
    from dataclasses import asdict

    from tfa.rng import SCOPE_CLASS_MEAN, SCOPE_PROTOTYPE, SCOPE_TEST, SCOPE_TRAIN, Stream, derive_seed
    from tfa.synth import class_layout

    def noisy(mean, sigma, stream, count):
        gauss = stream.normal(count * cfg.dim).reshape(count, cfg.dim)
        return [ref_unit(mean + sigma * gauss[i]) for i in range(count)]

    means, protos = {}, []
    for _task, class_ids in class_layout(cfg):
        for cid in class_ids:
            means[cid] = ref_unit(Stream(derive_seed(cfg.seed, SCOPE_CLASS_MEAN, cid)).normal(cfg.dim))
            stream = Stream(derive_seed(cfg.seed, SCOPE_PROTOTYPE, cid))
            protos.append((cid, noisy(means[cid], cfg.modality_gap_sigma, stream, 1)[0]))
    rows = []
    for task, class_ids in class_layout(cfg):
        n_train = cfg.train_per_base_class if task == 0 else cfg.shots
        for split, count, scope in (("train", n_train, SCOPE_TRAIN),
                                    ("test", cfg.test_per_class, SCOPE_TEST)):
            for cid in class_ids:
                stream = Stream(derive_seed(cfg.seed, scope, cid))
                for vec in noisy(means[cid], cfg.intra_class_sigma, stream, count):
                    rows.append((vec, cid, task, split))
    columns = {
        "vectors": np.vstack([r[0] for r in rows]),
        "labels": [r[1] for r in rows],
        "tasks": [r[2] for r in rows],
        "splits": [r[3] for r in rows],
        "class_names": [None] * len(rows),
    }
    provenance = {"kind": "synthetic", "seed": cfg.seed, "config": asdict(cfg)}
    return columns, provenance, protos


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated, numpy buffers included."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
