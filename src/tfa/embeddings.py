"""Embedding sets, class prototypes, the EMB1 on-disk format, and the file
pair that EMB1 and ALN1 share: a binary that starts with a 4-byte magic and
a ``<file>.meta.json`` sidecar, a JSON object written with sorted keys and
indent 2. Only the file-pair functions here know that convention; each
loader parses its own header and reads the binary before the sidecar.

EMB1 layout (little-endian throughout):

    bytes 0..3   magic "EMB1"
    bytes 4..7   u32 dimension m
    bytes 8..11  u32 record count n
    bytes 12..15 u32 flags (bit 0: vectors were stored unit-normalized)
    bytes 16..   n * m float32 values, row-major

Record metadata lives in the sidecar::

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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    CorruptRecord,
    DimMismatch,
    DisjointnessViolation,
    DuplicateClassId,
    ValidationError,
    check_int,
    load_json,
)

MAGIC = b"EMB1"
FLAG_NORMALIZED = 1
SPLITS = ("train", "test")
COLUMNS = ("vectors", "labels", "tasks", "splits", "class_names")

_HEADER = struct.Struct("<III")


@dataclass(frozen=True)
class ClassPrototype:
    """Text-side feature vector for one class."""

    class_id: int
    vector: np.ndarray
    prompt_text: str | None = None


@dataclass
class EmbeddingSet:
    """Ordered collection of samples over disjoint-label tasks, held as the
    parallel per-row arrays named in ``COLUMNS``, each of length n."""

    dim: int
    vectors: np.ndarray                 # (n, dim) float64, unit rows
    labels: np.ndarray                  # (n,) int64
    tasks: np.ndarray                   # (n,) int64
    splits: np.ndarray                  # (n,) object: "train" or "test"
    class_names: np.ndarray             # (n,) object: str or None
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def task_ids(self) -> list[int]:
        return sorted(set(int(t) for t in self.tasks))

    def indices(self, task: int | None = None, split: str | None = None) -> np.ndarray:
        """Record indices filtered by task and/or split, in file order."""
        mask = np.ones(len(self), dtype=bool)
        if task is not None:
            mask &= self.tasks == task
        if split is not None:
            mask &= self.splits == split
        return np.nonzero(mask)[0]

    def label_space(self, task: int) -> set[int]:
        """Train label space C^t of one task."""
        return set(self.labels[self.indices(task=task, split="train")].tolist())

    def subset(self, indices) -> "EmbeddingSet":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, provenance=dict(self.provenance),
                       **{c: getattr(self, c)[idx] for c in COLUMNS})

    def validate(self) -> None:
        n = len(self)
        if self.vectors.shape != (n, self.dim):
            raise DimMismatch(
                f"vector block is {self.vectors.shape}, expected ({n}, {self.dim})")
        for c in COLUMNS[1:]:
            if not isinstance(getattr(self, c), np.ndarray) or getattr(self, c).shape != (n,):
                raise DimMismatch(f"{c} column is not a ({n},) array")
        if not np.all(np.isfinite(self.vectors)):
            raise CorruptRecord("non-finite value in embedding set")
        for s in self.splits:
            if s not in SPLITS:
                raise CorruptRecord(f"unknown split tag {s!r}")
        _check_texts(self.class_names, "class_name", "record")
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
        dim=dim, provenance={"kind": "merged", "parts": [s.provenance for s in sets]},
        **{c: np.concatenate([getattr(s, c) for s in sets]) for c in COLUMNS})
    merged.validate()
    return merged


# ---- the file pair: a binary and its JSON sidecar ----


def _sidecar_path(path) -> Path:
    """The JSON sidecar of the binary at ``path``: ``<file>.meta.json``."""
    return Path(str(path) + ".meta.json")


def write_pair(path, chunks, sidecar: dict) -> None:
    """Write the binary ``chunks`` in order to ``path``, then ``sidecar`` to
    its sidecar as sorted, indent-2 JSON with a trailing newline."""
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
    with open(_sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, sort_keys=True, indent=2)
        f.write("\n")


def read_binary(path, magic: bytes, what: str) -> bytes:
    """The bytes of the binary at ``path``; ``BadMagic`` unless they start
    with ``magic``."""
    blob = Path(path).read_bytes()
    if blob[:4] != magic:
        raise BadMagic(f"{path}: not an {what}")
    return blob


def read_sidecar(path) -> dict:
    """The sidecar of the binary at ``path``, which must be a JSON object."""
    doc = load_json(_sidecar_path(path))
    if not isinstance(doc, dict):
        raise CorruptRecord(f"{path}: sidecar is not a JSON object")
    return doc


def _write_emb(path, dim: int, matrix: np.ndarray, sidecar_records: list[dict]) -> None:
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    write_pair(path, (MAGIC, _HEADER.pack(dim, matrix.shape[0], FLAG_NORMALIZED), payload),
               {"dim": dim, "count": matrix.shape[0], "records": sidecar_records})


def _read_emb(path) -> tuple[int, int, int, np.ndarray, list[dict]]:
    path = Path(path)
    blob = read_binary(path, MAGIC, "EMB1 file")
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
    sidecar = read_sidecar(path)
    sidecar_file = _sidecar_path(path)
    if "records" not in sidecar:
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


def _check_texts(values, key: str, where: str) -> None:
    """Raise ``CorruptRecord`` at the first of ``values`` that is neither
    None nor a string, named as the sidecar loaders name it."""
    for i, value in enumerate(values):
        if value is not None and not isinstance(value, str):
            raise CorruptRecord(f"{where} {i} {key} must be a string, got {value!r}")


def _record_text(path, i: int, rec: dict, key: str) -> str | None:
    """A sidecar record's optional text field: None when absent, else a string."""
    value = rec.get(key)
    if key in rec and not isinstance(value, str):
        raise CorruptRecord(f"{path}: sidecar record {i} {key} must be a string, got {value!r}")
    return value


def save_embeddings(es: EmbeddingSet, path) -> None:
    _check_texts(es.class_names, "class_name", f"{path}: sidecar record")
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
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not {"label", "task", "split"} <= rec.keys():
            raise CorruptRecord(f"{path}: sidecar record {i} is missing fields")
        _record_id(path, i, rec, "label")
        _record_id(path, i, rec, "task")
        if rec["split"] not in SPLITS:
            raise CorruptRecord(
                f"{path}: sidecar record {i} split must be 'train' or 'test', got {rec['split']!r}")
        _record_text(path, i, rec, "class_name")
    es = EmbeddingSet(
        dim=dim,
        vectors=matrix,
        labels=np.array([rec["label"] for rec in records], dtype=np.int64),
        tasks=np.array([rec["task"] for rec in records], dtype=np.int64),
        splits=np.array([rec["split"] for rec in records], dtype=object),
        class_names=np.array([rec.get("class_name") for rec in records], dtype=object),
        provenance={"kind": "file", "path": str(path)},
    )
    es.validate()
    return es


def check_unique_ids(ids, where: str) -> None:
    """Raise ``DuplicateClassId`` at the first class id in ``ids`` seen before."""
    seen = set()
    for cid in ids:
        if cid in seen:
            raise DuplicateClassId(f"{where}: class id {cid} appears twice")
        seen.add(cid)


def prototype_matrix(prototypes, class_ids) -> np.ndarray:
    """The vectors of ``prototypes`` stacked in ``class_ids`` order: the one
    prototype lookup. Raises ``DuplicateClassId`` if two prototypes share a
    class id and ``ValidationError`` if a class id has no prototype."""
    check_unique_ids([p.class_id for p in prototypes], "prototypes")
    by_id = {p.class_id: p.vector for p in prototypes}
    missing = [c for c in class_ids if c not in by_id]
    if missing:
        raise ValidationError(f"no prototype for classes {missing}")
    return np.vstack([by_id[c] for c in class_ids])


def save_prototypes(protos, path) -> None:
    protos = list(protos)
    if not protos:
        raise ValueError("empty prototype set")
    check_unique_ids([int(p.class_id) for p in protos], str(path))
    _check_texts([p.prompt_text for p in protos], "prompt_text", f"{path}: sidecar record")
    matrix = np.vstack([p.vector for p in protos])
    sidecar = []
    for p in protos:
        rec = {"class_id": int(p.class_id)}
        if p.prompt_text is not None:
            rec["prompt_text"] = p.prompt_text
        sidecar.append(rec)
    _write_emb(path, matrix.shape[1], matrix, sidecar)


def load_prototypes(path) -> list[ClassPrototype]:
    _dim, _count, _flags, matrix, records = _read_emb(path)
    matrix = _renormalize(matrix, str(path))
    protos = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "class_id" not in rec:
            raise CorruptRecord(f"{path}: sidecar record {i} lacks class_id")
        cid = _record_id(path, i, rec, "class_id")
        protos.append(ClassPrototype(cid, matrix[i], _record_text(path, i, rec, "prompt_text")))
    check_unique_ids([p.class_id for p in protos], str(path))
    return protos
