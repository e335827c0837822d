"""Training-free dual-cache adaptor: entropy-gated base cache, K-shot novel
cache, affinity retrieval, and residual fusion with the scorer output.

The base cache holds per-class bounded queues of test features keyed by the
entropy of the softmax over the logits that pseudo-labeled them: a new entry
is admitted while the class queue is below capacity, and once full it only
displaces the current maximum-entropy entry when its own entropy is strictly
lower. The novel cache holds up to K training features per novel class and
is never evicted. :class:`DualCache` stores both caches as parallel arrays,
one row per entry (key, class id, entropy, novel flag), class ascending,
base before novel within a class and admission order within each.

Retrieval pools both caches: for a unit-norm query v,

    b[c] = sum over entries (key, c) of exp(-beta * (1 - cos(v, key)))

and the fused score is ``z = a + alpha * b`` where ``a`` is the sigmoid
score vector. Cosines of unit vectors are plain dot products clamped to
[-1, 1]; the affinity is evaluated on that full range. One kernel,
:func:`retrieve`, evaluates b for a batch of queries as a key/value matrix
product; an optional live mask limits each query to the entries it may see.

Base-cache admission depends only on a query's pseudo-label and entropy,
never on the fused prediction, so a whole stream's insert/evict history can
be replayed before any query is scored (:func:`schedule_admissions`). The
replay takes every offered row's label and entropy from one batched call
(:func:`argmax_lowest_ids`, :func:`entropies`), checks every key norm before
it mutates the cache, and then runs the per-class queues on row indices and
Python floats. The one-row names (:func:`pseudo_label`, :func:`argmax_lowest_id`,
:meth:`DualCache.try_insert_base`) call the same batched code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

ORIGIN_BASE = "base_pseudo"
ORIGIN_NOVEL = "novel_shot"

_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class InsertOutcome:
    kind: str                      # "inserted" | "replaced" | "rejected"
    evicted: float | None = None   # the evicted entry's entropy, if replaced
    reason: str | None = None


def pseudo_label(logits: np.ndarray, class_ids: np.ndarray) -> tuple[int, float]:
    """Argmax class of one logit row (ties to the lowest class id) and the
    entropy of the row's softmax; columns are aligned to ``class_ids``."""
    row = np.reshape(np.asarray(logits, dtype=np.float64), (1, -1))
    h = float(entropies(row)[0])
    return int(argmax_lowest_ids(row, class_ids)[0]), h


def entropies(logits) -> np.ndarray:
    """Row-wise Shannon entropy (nats, ``0 * ln(0) := 0``) of the softmax of
    a (rows, classes) logit block, each row's bytes those of the one-vector
    ``entropy(softmax(row))``.

    A row in which some probability underflows to 0 sums its nonzero terms
    only, as the one-vector form does, which groups the sum differently. A
    row with a non-finite logit is rejected.
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)   # rows sum as 1-D vectors do
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        positive = p > 0.0
        h = -np.where(positive, p * np.log(p), 0.0).sum(axis=1)
    h = np.where(h > 0.0, h, 0.0)
    for i in np.flatnonzero(~positive.all(axis=1)):
        if not np.isfinite(logits[i]).all():
            raise ValueError("logit row contains non-finite entries")
        nz = p[i][positive[i]]
        h[i] = max(0.0, float(-(nz * np.log(nz)).sum()))
    return h


def argmax_lowest_id(values: np.ndarray, class_ids: np.ndarray) -> int:
    """Class id of the maximum value; exact ties resolve to the lowest id."""
    return int(argmax_lowest_ids(values, class_ids))


def argmax_lowest_ids(values: np.ndarray, class_ids: np.ndarray) -> np.ndarray:
    """Row-wise :func:`argmax_lowest_id` over the last axis of ``values``."""
    values = np.asarray(values, dtype=np.float64)
    winners = values == values.max(axis=-1, keepdims=True)
    if not winners.any(axis=-1).all():
        raise ValueError("argmax of scores containing NaN")
    ids = np.asarray(class_ids, dtype=np.int64)
    return np.where(winners, ids, np.iinfo(np.int64).max).min(axis=-1)


def affinity(u: float, beta: float, out: np.ndarray | None = None):
    """Retrieval weight exp(-beta * (1 - u)), into ``out`` if given; u=1 or
    beta=0 give weight 1."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    d = np.subtract(1.0, np.asarray(u, dtype=np.float64), out=out)
    return np.exp(np.multiply(-beta, d, out=out), out=out)


def _unit_rows(keys, what: str) -> np.ndarray:
    """A (rows, d) float64 block, checked that every row is unit-norm.

    Each norm is ``sqrt(row @ row)`` from one stacked matmul, as in
    ``synth.l2_normalize``; the error reports the first bad row's
    ``np.linalg.norm``.
    """
    rows = np.asarray(keys, dtype=np.float64)
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0, 0]
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_TOL))     # NaN norms too
    if bad.size:
        norm = float(np.linalg.norm(rows[bad[0]]))
        raise ValueError(f"{what} must be unit-norm (got norm {norm:.6g})")
    return rows


def _stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of ``a``, then rows of ``b``; an empty side adds nothing, whatever its width."""
    return b if not len(a) else a if not len(b) else np.concatenate([a, b])


class DualCache:
    """The base and novel caches as parallel arrays, one row per entry:
    ``keys`` (E, d), ``values`` (E,) class ids, ``entropies`` (E,), 0 for a
    novel shot, and ``novel`` (E,) flags.

    Rows run class ascending, base before novel within a class, and in
    admission order within each; a class's base rows are its queue.
    """

    def __init__(self, capacity: int = 5, shots: int = 5):
        if capacity < 1 or shots < 1:
            raise ValueError("capacity and shots must be >= 1")
        self.capacity = capacity
        self.shots = shots
        self._store(np.zeros((0, 0)), np.zeros(0, np.int64), np.zeros(0), np.zeros(0, bool))

    def _store(self, keys, values, ents, novel) -> None:
        """Keep these rows, put in row order by one stable sort (Python's:
        numpy's sort kernels would add ~0.25 MB of code pages to the RSS)."""
        rank = list(zip(values.tolist(), novel.tolist()))
        order = sorted(range(len(rank)), key=rank.__getitem__)
        self.keys, self.values = keys[order], values[order]
        self.entropies, self.novel = ents[order], novel[order]

    # -- mutation --

    def try_insert_base(self, key, logits, class_ids) -> InsertOutcome:
        """Admit a test feature under the entropy gate, pseudo-labeled by its
        scorer logits (columns aligned to ``class_ids``): the one-row case
        of :func:`schedule_admissions`."""
        keys = _unit_rows(np.reshape(key, (1, -1)), "cache key")
        cls, h = pseudo_label(logits, class_ids)
        before = self.entropies
        plan = self._admit_base(keys, [cls], [h], [0], 1)
        if len(plan.values) == len(before):
            return InsertOutcome("rejected", reason="HighEntropy")
        evicted = before[plan.stop[:len(before)] == 0].tolist()   # stopped at position 0
        return InsertOutcome("replaced", evicted[0]) if evicted else InsertOutcome("inserted")

    def _admit_base(self, keys, labels, ents, positions, n: int) -> Schedule:
        """Offer ``keys`` in order under the entropy gate, pseudo-labeled
        ``labels`` (Python ints) with entropies ``ents`` (Python floats);
        offered row i is the query at ``positions[i]`` of an ``n``-query stream.

        The per-class queues run on row indices. A queue below capacity
        appends; a full one evicts its first maximum-entropy entry, in queue
        order, only for a strictly lower entropy. Returns the schedule of the
        cache's rows, then the admissions in offer order, and keeps the rows
        that no admission evicted.
        """
        ent, vals = self.entropies.tolist(), self.values.tolist()
        start, stop = [-1] * len(ent), [n] * len(ent)
        queues: dict[int, list[int]] = {}
        for row in np.flatnonzero(~self.novel).tolist():
            queues.setdefault(vals[row], []).append(row)
        taken = []
        for i, (cls, h) in enumerate(zip(labels, ents)):
            queue = queues.setdefault(cls, [])
            if len(queue) >= self.capacity:
                worst = max(queue, key=ent.__getitem__)
                if not h < ent[worst]:
                    continue
                queue.remove(worst)
                stop[worst] = positions[i]
            queue.append(len(ent))
            taken.append(i)
            ent.append(h)
            vals.append(cls)
            start.append(positions[i])
            stop.append(n)
        plan = Schedule(_stacked(self.keys, keys[taken]), np.array(vals, dtype=np.int64),
                        np.array(start, dtype=np.int64), np.array(stop, dtype=np.int64))
        kept = plan.stop == n
        novel = np.concatenate([self.novel, np.zeros(len(taken), dtype=bool)])
        self._store(plan.keys[kept], plan.values[kept], np.array(ent)[kept], novel[kept])
        return plan

    def insert_novel(self, key, label: int) -> None:
        """Store one K-shot training feature; novel entries carry entropy 0."""
        key = _unit_rows(np.reshape(key, (1, -1)), "cache key")
        label = int(label)
        if np.count_nonzero(self.novel & (self.values == label)) >= self.shots:
            raise ValidationError(f"class {label} already holds {self.shots} novel shots")
        self._store(_stacked(self.keys, key), np.append(self.values, label),
                    np.append(self.entropies, 0.0), np.append(self.novel, True))

    # -- inspection --

    def __len__(self) -> int:
        return len(self.values)

    def stats(self) -> dict:
        base = ~self.novel
        return {
            "base_entries": int(base.sum()),
            "novel_entries": int(self.novel.sum()),
            "base_fill": dict(Counter(self.values[base].tolist())),     # rows run class ascending
            "novel_fill": dict(Counter(self.values[self.novel].tolist())),
            "mean_base_entropy": float(np.mean(self.entropies[base])) if base.any() else None,
        }

    def audit(self) -> dict:
        """JSON-friendly dump: per-class entries with a short key digest."""
        import hashlib  # loads OpenSSL (~3.6 MB resident); only the audit needs it

        classes: dict[str, list] = {}
        for key, cls, h, novel in zip(self.keys, self.values.tolist(),
                                      self.entropies.tolist(), self.novel.tolist()):
            classes.setdefault(str(cls), []).append({
                "class": cls,
                "origin": ORIGIN_NOVEL if novel else ORIGIN_BASE,
                "entropy": h,
                "key_digest": {
                    "head": [float(x) for x in key[:4]],
                    "hash64": hashlib.blake2b(key.tobytes(), digest_size=8).hexdigest(),
                },
            })
        return {"capacity": self.capacity, "shots": self.shots, "classes": classes}

    def pooled(self) -> tuple[np.ndarray, np.ndarray]:
        """Key matrix and value vector over all entries, in row order."""
        return self.keys, self.values


@dataclass(frozen=True)
class Schedule:
    """Every cache entry a stream's queries can see, with its live interval.

    The query at stream position ``q`` sees entry ``e`` iff
    ``start[e] < q <= stop[e]``. Entries present before the stream begins
    have ``start`` -1; an admitted query's entry starts at that query's own
    position. ``stop`` is the position of the query whose admission evicted
    the entry, or the stream length if none did. Each query is predicted
    before its own admission, so the query that evicts an entry still sees it.
    """

    keys: np.ndarray               # (E, d)
    values: np.ndarray             # (E,) class ids
    start: np.ndarray              # (E,)
    stop: np.ndarray               # (E,)

    def live(self, n: int) -> np.ndarray:
        """(n, E) visibility mask for stream positions 0..n-1."""
        q = np.arange(n)[:, None]
        return (self.start < q) & (q <= self.stop)


def schedule_admissions(cache: DualCache, queries, logits, class_ids, admit) -> Schedule:
    """Offer every stream query whose pseudo-label is in ``admit`` to the base
    cache, in stream order, and record the resulting entry intervals.

    ``logits`` holds one row per query, columns aligned to ``class_ids``.
    Labels and entropies of all offered rows come from one batched call, and
    every offered key is checked before the cache changes. The cache ends in
    the state per-sample insertion leaves; the schedule lists its rows as
    they stood before the stream, then the admissions in stream order.
    """
    class_ids = np.asarray(class_ids, dtype=np.int64)
    labels = argmax_lowest_ids(logits, class_ids)
    offered = np.flatnonzero(np.isin(labels, list(admit)))
    keys = _unit_rows(queries[offered], "cache key")
    return cache._admit_base(keys, labels[offered].tolist(), entropies(logits[offered]).tolist(),
                             offered.tolist(), queries.shape[0])


def retrieve(queries, keys, values, class_ids, betas, live=None) -> list[np.ndarray]:
    """Adaptive scores, one (queries, classes) array per value in ``betas``,
    columns in ``class_ids`` order:
    ``B = (exp(-beta * (1 - clip(Q K^T))) * live) @ onehot(values)``.

    ``clip(Q K^T)``, the one-hot value matrix and one weight buffer that
    every beta reuses (``clip(Q K^T)`` itself for one beta) are formed once,
    so beyond the outputs memory peaks at two (queries, entries) float64
    arrays, or one. ``live`` (queries x entries, optional) masks the entries
    each query sees. Every cached class must appear in ``class_ids``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    class_ids = np.asarray(class_ids, dtype=np.int64)
    if values.size == 0:
        return [np.zeros((queries.shape[0], class_ids.shape[0]), dtype=np.float64)
                for _ in betas]
    onehot = values[:, None] == class_ids[None, :]
    missing = ~onehot.any(axis=1)
    if missing.any():
        raise FormatError(
            f"cache holds class {int(values[missing][0])} missing from class order")
    onehot = onehot.astype(np.float64)
    u = queries @ keys.T
    np.clip(u, -1.0, 1.0, out=u)
    w = u if len(betas) == 1 else np.empty_like(u)
    out = []
    for beta in betas:
        affinity(u, beta, out=w)
        if live is not None:
            w *= live
        out.append(w @ onehot)
    return out


def cache_scores(cache: DualCache, v, beta: float, class_ids) -> np.ndarray:
    """Adaptive score vector aligned to an explicit class-id order."""
    keys, values = cache.pooled()
    v = np.asarray(v, dtype=np.float64).reshape(1, -1)
    return retrieve(v, keys, values, class_ids, [beta])[0][0]


def fuse(a, b, alpha: float) -> np.ndarray:
    """Residual fusion z = a + alpha * b of scorer and cache score arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise FormatError(f"fuse length mismatch: {a.shape} vs {b.shape}")
    return a + alpha * b
