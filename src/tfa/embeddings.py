"""Embedding sets, class prototypes, and the EMB1 on-disk format.

EMB1 layout (little-endian throughout):

    bytes 0..3   magic "EMB1"
    bytes 4..7   u32 dimension m
    bytes 8..11  u32 record count n
    bytes 12..15 u32 flags (bit 0: vectors were stored unit-normalized)
    bytes 16..   n * m float32 values, row-major

Record metadata lives next to the binary in ``<file>.meta.json``::

    {"dim": m, "count": n, "records": [{"label": .., "task": .., "split": ..,
                                        "class_name": ..?}, ...]}

in binary row order. Prototype files reuse the same binary layout with
sidecar records ``{"class_id": .., "prompt_text": ..?}``.

Vectors are stored in 32-bit floats; loading re-normalizes each row to unit
Euclidean norm in 64-bit and validates the set invariants (finite values,
disjoint train label spaces across tasks, test labels inside their own
task's label space).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    CorruptRecord,
    DimMismatch,
    DisjointnessViolation,
    DuplicateClassId,
    check_int,
    load_json,
)

MAGIC = b"EMB1"
FLAG_NORMALIZED = 1
SPLITS = ("train", "test")

_HEADER = struct.Struct("<III")


@dataclass(frozen=True)
class SampleRecord:
    """One embedded sample: unit-norm feature vector plus its metadata."""

    vector: np.ndarray
    label: int
    task: int
    split: str
    class_name: str | None = None


@dataclass(frozen=True)
class ClassPrototype:
    """Text-side feature vector for one class."""

    class_id: int
    vector: np.ndarray
    prompt_text: str | None = None


@dataclass
class EmbeddingSet:
    """Ordered collection of samples over disjoint-label tasks, backed by
    parallel arrays."""

    dim: int
    vectors: np.ndarray                 # (n, dim) float64, unit rows
    labels: np.ndarray                  # (n,) int64
    tasks: np.ndarray                   # (n,) int64
    splits: list[str]
    class_names: list[str | None]
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    @classmethod
    def from_records(cls, dim: int, records, provenance: dict | None = None) -> "EmbeddingSet":
        records = list(records)
        vectors = (np.vstack([r.vector for r in records]) if records
                   else np.zeros((0, dim), dtype=np.float64))
        out = cls(
            dim=dim,
            vectors=np.asarray(vectors, dtype=np.float64),
            labels=np.array([r.label for r in records], dtype=np.int64),
            tasks=np.array([r.task for r in records], dtype=np.int64),
            splits=[r.split for r in records],
            class_names=[r.class_name for r in records],
            provenance=provenance or {},
        )
        out.validate()
        return out

    def task_ids(self) -> list[int]:
        return sorted(set(int(t) for t in self.tasks))

    def indices(self, task: int | None = None, split: str | None = None) -> np.ndarray:
        """Record indices filtered by task and/or split, in file order."""
        mask = np.ones(len(self), dtype=bool)
        if task is not None:
            mask &= self.tasks == task
        if split is not None:
            mask &= np.array([s == split for s in self.splits], dtype=bool)
        return np.nonzero(mask)[0]

    def label_space(self, task: int) -> set[int]:
        """Train label space C^t of one task."""
        idx = self.indices(task=task, split="train")
        return set(int(self.labels[i]) for i in idx)

    def subset(self, indices) -> "EmbeddingSet":
        idx = np.asarray(indices, dtype=np.int64)
        return EmbeddingSet(
            dim=self.dim,
            vectors=self.vectors[idx],
            labels=self.labels[idx],
            tasks=self.tasks[idx],
            splits=[self.splits[i] for i in idx],
            class_names=[self.class_names[i] for i in idx],
            provenance=dict(self.provenance),
        )

    def validate(self) -> None:
        n = len(self)
        if self.vectors.shape != (n, self.dim):
            raise DimMismatch(
                f"vector block is {self.vectors.shape}, expected ({n}, {self.dim})")
        if not np.all(np.isfinite(self.vectors)):
            raise CorruptRecord("non-finite value in embedding set")
        for s in self.splits:
            if s not in SPLITS:
                raise CorruptRecord(f"unknown split tag {s!r}")
        if np.any(self.labels < 0) or np.any(self.tasks < 0):
            raise CorruptRecord("labels and task indices must be non-negative")
        spaces = {t: self.label_space(t) for t in self.task_ids()}
        check_disjoint(list(spaces.items()))
        for i in self.indices(split="test"):
            t, y = int(self.tasks[i]), int(self.labels[i])
            if y not in spaces.get(t, set()):
                raise DisjointnessViolation(
                    f"test record {i} has label {y} outside task {t}'s train label space")


def check_disjoint(spaces) -> None:
    """Raise ``DisjointnessViolation`` unless the train label spaces, given as
    (task index, set of class ids) pairs, are pairwise disjoint."""
    for i, (a, space_a) in enumerate(spaces):
        for b, space_b in spaces[i + 1:]:
            overlap = space_a & space_b
            if overlap:
                raise DisjointnessViolation(
                    f"tasks {a} and {b} share train classes {sorted(overlap)}")


def merge_embedding_sets(sets) -> EmbeddingSet:
    """Concatenate sets (typically one per task) and re-validate."""
    sets = list(sets)
    if not sets:
        raise ValueError("nothing to merge")
    dim = sets[0].dim
    for s in sets[1:]:
        if s.dim != dim:
            raise DimMismatch(f"cannot merge dimension {s.dim} into {dim}")
    merged = EmbeddingSet(
        dim=dim,
        vectors=np.vstack([s.vectors for s in sets]) if any(len(s) for s in sets)
        else np.zeros((0, dim)),
        labels=np.concatenate([s.labels for s in sets]),
        tasks=np.concatenate([s.tasks for s in sets]),
        splits=[x for s in sets for x in s.splits],
        class_names=[x for s in sets for x in s.class_names],
        provenance={"kind": "merged", "parts": [s.provenance for s in sets]},
    )
    merged.validate()
    return merged


# ---- binary I/O ----


def _write_emb(path, dim: int, matrix: np.ndarray, sidecar_records: list[dict]) -> None:
    path = Path(path)
    n = matrix.shape[0]
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(dim, n, FLAG_NORMALIZED))
        f.write(payload)
    sidecar = {"dim": dim, "count": n, "records": sidecar_records}
    with open(_sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, sort_keys=True, indent=2)
        f.write("\n")


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def _read_emb(path) -> tuple[int, int, int, np.ndarray, list[dict]]:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagic(f"{path}: not an EMB1 file")
    if len(blob) < 16:
        raise DimMismatch(f"{path}: truncated header")
    dim, count, flags = _HEADER.unpack(blob[4:16])
    expected = 16 + 4 * dim * count
    if len(blob) != expected:
        raise DimMismatch(
            f"{path}: binary holds {len(blob) - 16} payload bytes, "
            f"header declares {4 * dim * count}")
    raw = np.frombuffer(blob, dtype="<f4", offset=16)
    matrix = raw.reshape(count, dim).astype(np.float64)
    sidecar_file = _sidecar_path(path)
    sidecar = load_json(sidecar_file)
    if not isinstance(sidecar, dict) or "records" not in sidecar:
        raise CorruptRecord(f"{sidecar_file}: malformed sidecar")
    if sidecar.get("dim") != dim or sidecar.get("count") != count:
        raise DimMismatch(
            f"{sidecar_file}: sidecar declares dim={sidecar.get('dim')} "
            f"count={sidecar.get('count')}, binary has dim={dim} count={count}")
    records = sidecar["records"]
    if not isinstance(records, list):
        raise CorruptRecord(f"{sidecar_file}: sidecar records is not a list")
    if len(records) != count:
        raise DimMismatch(
            f"{sidecar_file}: sidecar lists {len(records)} records, binary holds {count}")
    return dim, count, flags, matrix, records


def _renormalize(matrix: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(matrix)):
        raise CorruptRecord(f"non-finite float in {what}")
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms < 1e-300):
        bad = int(np.argmin(norms))
        raise CorruptRecord(f"{what}: record {bad} is a zero vector")
    return matrix / norms[:, None]


def _record_id(path, i: int, rec: dict, key: str) -> int:
    """A sidecar record's id field: an integer in [0, 2**63)."""
    value = rec[key]
    check_int(f"{path}: sidecar record {i} {key}", value, lo=0, error=CorruptRecord)
    if value >= 1 << 63:
        raise CorruptRecord(f"{path}: sidecar record {i} {key} exceeds int64, got {value}")
    return value


def save_embeddings(es: EmbeddingSet, path) -> None:
    sidecar = []
    for i in range(len(es)):
        rec = {"label": int(es.labels[i]), "task": int(es.tasks[i]), "split": es.splits[i]}
        if es.class_names[i] is not None:
            rec["class_name"] = es.class_names[i]
        sidecar.append(rec)
    _write_emb(path, es.dim, es.vectors, sidecar)


def load_embeddings(path) -> EmbeddingSet:
    dim, count, _flags, matrix, records = _read_emb(path)
    matrix = _renormalize(matrix, str(path))
    labels, tasks, splits, names = [], [], [], []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "label" not in rec or "task" not in rec \
                or "split" not in rec:
            raise CorruptRecord(f"{path}: sidecar record {i} is missing fields")
        labels.append(_record_id(path, i, rec, "label"))
        tasks.append(_record_id(path, i, rec, "task"))
        splits.append(str(rec["split"]))
        names.append(rec.get("class_name"))
    es = EmbeddingSet(
        dim=dim,
        vectors=matrix,
        labels=np.array(labels, dtype=np.int64),
        tasks=np.array(tasks, dtype=np.int64),
        splits=splits,
        class_names=names,
        provenance={"kind": "file", "path": str(path)},
    )
    es.validate()
    return es


def save_prototypes(protos, path) -> None:
    protos = list(protos)
    if not protos:
        raise ValueError("empty prototype set")
    dim = protos[0].vector.shape[0]
    matrix = np.vstack([p.vector for p in protos])
    sidecar = []
    for p in protos:
        rec = {"class_id": int(p.class_id)}
        if p.prompt_text is not None:
            rec["prompt_text"] = p.prompt_text
        sidecar.append(rec)
    _write_emb(path, dim, matrix, sidecar)


def load_prototypes(path) -> list[ClassPrototype]:
    _dim, _count, _flags, matrix, records = _read_emb(path)
    matrix = _renormalize(matrix, str(path))
    protos, seen = [], set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "class_id" not in rec:
            raise CorruptRecord(f"{path}: sidecar record {i} lacks class_id")
        cid = _record_id(path, i, rec, "class_id")
        if cid in seen:
            raise DuplicateClassId(f"{path}: class id {cid} appears twice")
        seen.add(cid)
        protos.append(ClassPrototype(cid, matrix[i], rec.get("prompt_text")))
    return protos
