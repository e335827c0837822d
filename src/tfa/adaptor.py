"""Training-free dual-cache adaptor: entropy-gated base cache, K-shot novel
cache, affinity retrieval, and residual fusion with the scorer output.

The base cache holds per-class bounded queues of test features keyed by the
entropy of the softmax over the logits that pseudo-labeled them: a new entry
is admitted while the class queue is below capacity, and once full it only
displaces the current maximum-entropy entry when its own entropy is strictly
lower. The novel cache holds up to K training features per novel class and
is never evicted.

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
it mutates the cache, and then runs the per-class queues on Python floats.
The one-row names (:func:`pseudo_label`, :func:`argmax_lowest_id`,
:meth:`DualCache.try_insert_base`) call the same batched code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, ShotCapacityExceeded
from .numerics import entropy, softmax

ORIGIN_BASE = "base_pseudo"
ORIGIN_NOVEL = "novel_shot"

POLICIES = ("off", "session0_only", "always")

_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class CacheEntry:
    key: np.ndarray
    value: int
    entropy: float
    origin: str


@dataclass(frozen=True)
class InsertOutcome:
    kind: str                      # "inserted" | "replaced" | "rejected"
    evicted: CacheEntry | None = None
    reason: str | None = None
    entry: CacheEntry | None = None    # the admitted entry, unless rejected


def pseudo_label(logits: np.ndarray, class_ids: np.ndarray) -> tuple[int, float]:
    """Argmax class of one logit row (ties to the lowest class id) and the
    entropy of the row's softmax; columns are aligned to ``class_ids``."""
    if len(logits) == 0:
        raise ValueError("pseudo_label of an empty logit row")
    row = np.reshape(np.asarray(logits, dtype=np.float64), (1, -1))
    h = float(entropies(row)[0])
    return int(argmax_lowest_ids(row, class_ids)[0]), h


def entropies(logits) -> np.ndarray:
    """Row-wise ``entropy(softmax(row))`` of a (rows, classes) logit block,
    equal to the scalar functions byte for byte.

    A row in which some probability underflows to 0 goes through the scalar
    functions: they sum over the nonzero terms only, which groups the sum
    differently. So does a row with a non-finite logit, which they reject.
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)   # rows sum as 1-D vectors do
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        positive = p > 0.0
        h = -np.where(positive, p * np.log(p), 0.0).sum(axis=1)
    h = np.where(h > 0.0, h, 0.0)
    for i in np.flatnonzero(~positive.all(axis=1)):
        h[i] = entropy(softmax(logits[i]))
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
    ``numerics.l2_normalize``; the error reports the first bad row's
    ``np.linalg.norm``.
    """
    rows = np.asarray(keys, dtype=np.float64)
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0, 0]
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_TOL))     # NaN norms too
    if bad.size:
        norm = float(np.linalg.norm(rows[bad[0]]))
        raise ValueError(f"{what} must be unit-norm (got norm {norm:.6g})")
    return rows


class DualCache:
    """Per-class bounded queues of base pseudo-label and novel shot entries."""

    def __init__(self, capacity: int = 5, shots: int = 5,
                 base_update_policy: str = "session0_only"):
        if capacity < 1 or shots < 1:
            raise ValueError("capacity and shots must be >= 1")
        if base_update_policy not in POLICIES:
            raise ValueError(f"unknown base_update_policy {base_update_policy!r}")
        self.capacity = capacity
        self.shots = shots
        self.base_update_policy = base_update_policy
        self._base: dict[int, list[CacheEntry]] = {}
        self._novel: dict[int, list[CacheEntry]] = {}

    # -- mutation --

    def try_insert_base(self, key, logits, class_ids) -> InsertOutcome:
        """Admit a test feature under the entropy gate, pseudo-labeled by its
        scorer logits (columns aligned to ``class_ids``): the one-row case
        of :func:`schedule_admissions`."""
        keys = _unit_rows(np.reshape(key, (1, -1)), "cache key")
        cls, h = pseudo_label(logits, class_ids)
        for _row, entry, evicted in self._admit_base(keys, [cls], [h]):
            kind = "inserted" if evicted is None else "replaced"
            return InsertOutcome(kind, evicted=evicted, entry=entry)
        return InsertOutcome("rejected", reason="HighEntropy")

    def _admit_base(self, keys, labels, ents) -> list:
        """Offer ``keys`` in order under the entropy gate, pseudo-labeled
        ``labels`` (Python ints) with entropies ``ents`` (Python floats).

        A class queue below capacity appends; a full one evicts its first
        maximum-entropy entry, in queue order, only for a strictly lower
        entropy. Returns one ``(row, entry, evicted or None)`` per admission.
        """
        admitted = []
        for row, (cls, h) in enumerate(zip(labels, ents)):
            queue = self._base.setdefault(cls, [])
            evicted = None
            if len(queue) >= self.capacity:
                worst = max(range(len(queue)), key=lambda i: queue[i].entropy)
                if not h < queue[worst].entropy:
                    continue
                evicted = queue.pop(worst)
            # a copy, so no entry keeps the whole offered block alive
            entry = CacheEntry(keys[row].copy(), cls, h, ORIGIN_BASE)
            queue.append(entry)
            admitted.append((row, entry, evicted))
        return admitted

    def insert_novel(self, key, label: int) -> None:
        """Store one K-shot training feature; novel entries carry entropy 0."""
        key = _unit_rows(np.reshape(key, (1, -1)), "cache key")[0].copy()
        queue = self._novel.setdefault(int(label), [])
        if len(queue) >= self.shots:
            raise ShotCapacityExceeded(
                f"class {label} already holds {self.shots} novel shots")
        queue.append(CacheEntry(key, int(label), 0.0, ORIGIN_NOVEL))

    # -- inspection --

    def base_entries(self, cls: int) -> list[CacheEntry]:
        return list(self._base.get(cls, []))

    def novel_entries(self, cls: int) -> list[CacheEntry]:
        return list(self._novel.get(cls, []))

    def entries(self) -> list[CacheEntry]:
        """All entries in deterministic order: class ascending, base before
        novel, queue order within."""
        out = []
        for cls in sorted(set(self._base) | set(self._novel)):
            out.extend(self._base.get(cls, []))
            out.extend(self._novel.get(cls, []))
        return out

    def __len__(self) -> int:
        return sum(len(q) for q in self._base.values()) + \
            sum(len(q) for q in self._novel.values())

    def stats(self) -> dict:
        base_fill = {c: len(q) for c, q in sorted(self._base.items()) if q}
        novel_fill = {c: len(q) for c, q in sorted(self._novel.items()) if q}
        ent = [e.entropy for q in self._base.values() for e in q]
        return {
            "base_entries": sum(base_fill.values()),
            "novel_entries": sum(novel_fill.values()),
            "base_fill": base_fill,
            "novel_fill": novel_fill,
            "mean_base_entropy": float(np.mean(ent)) if ent else None,
        }

    def audit(self) -> dict:
        """JSON-friendly dump: per-class entries with a short key digest."""
        import hashlib  # loads OpenSSL (~3.6 MB resident); only the audit needs it

        classes = {}
        for cls in sorted(set(self._base) | set(self._novel)):
            rows = []
            for e in (*self._base.get(cls, []), *self._novel.get(cls, [])):
                rows.append({
                    "class": e.value,
                    "origin": e.origin,
                    "entropy": e.entropy,
                    "key_digest": {
                        "head": [float(x) for x in e.key[:4]],
                        "hash64": hashlib.blake2b(e.key.tobytes(),
                                                  digest_size=8).hexdigest(),
                    },
                })
            classes[str(cls)] = rows
        return {"capacity": self.capacity, "shots": self.shots,
                "base_update_policy": self.base_update_policy, "classes": classes}

    def pooled(self) -> tuple[np.ndarray, np.ndarray]:
        """Key matrix and value vector over all entries, in :meth:`entries` order."""
        entries = self.entries()
        if not entries:
            return np.zeros((0, 0), dtype=np.float64), np.zeros(0, dtype=np.int64)
        return (np.vstack([e.key for e in entries]),
                np.array([e.value for e in entries], dtype=np.int64))


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
    the state per-sample insertion leaves; the schedule lists its entries as
    they stood before the stream, then the admissions in stream order.
    """
    class_ids = np.asarray(class_ids, dtype=np.int64)
    n = queries.shape[0]
    entries = cache.entries()
    start, stop = [-1] * len(entries), [n] * len(entries)
    row_of = {id(e): i for i, e in enumerate(entries)}
    labels = argmax_lowest_ids(logits, class_ids)
    offered = np.flatnonzero(np.isin(labels, list(admit)))
    offered_keys = _unit_rows(queries[offered], "cache key")
    ents = entropies(logits[offered]).tolist()
    positions = offered.tolist()
    for row, entry, evicted in cache._admit_base(offered_keys, labels[offered].tolist(), ents):
        pos = positions[row]
        if evicted is not None:
            stop[row_of[id(evicted)]] = pos
        row_of[id(entry)] = len(entries)
        entries.append(entry)
        start.append(pos)
        stop.append(n)
    if entries:
        keys = np.vstack([e.key for e in entries])
    else:
        keys = np.zeros((0, queries.shape[1]), dtype=np.float64)
    return Schedule(keys, np.array([e.value for e in entries], dtype=np.int64),
                    np.array(start, dtype=np.int64), np.array(stop, dtype=np.int64))


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
    if keys.shape[1] != queries.shape[1]:
        raise DimMismatch(f"query dimension {queries.shape[1]} vs cache keys {keys.shape[1]}")
    onehot = values[:, None] == class_ids[None, :]
    missing = ~onehot.any(axis=1)
    if missing.any():
        raise DimMismatch(
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
        raise DimMismatch(f"fuse length mismatch: {a.shape} vs {b.shape}")
    return a + alpha * b
