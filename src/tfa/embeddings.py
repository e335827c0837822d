"""Embedding sets, class prototypes, the EMB1 on-disk format, and the file
pair that EMB1 and ALN1 share: a binary that starts with a 4-byte magic and
a ``<file>.meta.json`` sidecar, a JSON object written with sorted keys and
indent 2. Only the file-pair functions here know that convention; each
loader parses its own header and reads the binary before the sidecar.

EMB1 layout (little-endian throughout):

    bytes 0..3   magic "EMB1"
    bytes 4..7   u32 dimension m
    bytes 8..11  u32 record count n
    bytes 12..15 u32 flags (bit 0: every row's norm is within 1e-6 of 1)
    bytes 16..   n * m float32 values, row-major

Record metadata lives in the sidecar::

    {"dim": m, "count": n, "records": [{"label": .., "task": .., "split": ..,
                                        "class_name": ..?}, ...]}

in binary row order. Prototype files reuse the same binary layout with
sidecar records ``{"class_id": .., "prompt_text": ..?}``.

Each kind has one codec: its record fields and one set of checks, run by
``save_*`` on the float32 rows and records it is about to write and by
``load_*`` on those it read. Rows are finite and nonzero, fields keep their
rules, an embedding set keeps its invariants (disjoint train label spaces
across tasks, test labels inside their own task's label space) and a
prototype set names each class once. Loading re-normalizes rows in 64-bit.
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
        for i, name in enumerate(self.class_names):
            if name is not None and not isinstance(name, str):
                raise CorruptRecord(f"record {i} class_name must be a string, got {name!r}")
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
    """Write the bytes-like ``chunks`` in order to ``path``, then ``sidecar`` to
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


# ---- EMB1: one codec per kind, whose checks writer and loader share ----

# Each kind's sidecar record fields, in check order, with the rule a value
# meets: "id" an integer in [0, 2**63), "split" one of SPLITS, "text" a
# string when present (the one kind of field that may be absent). The
# embedding fields hold the columns COLUMNS[1:], in that order.
_EMB_FIELDS = {"label": "id", "task": "id", "split": "split", "class_name": "text"}
_PROTO_FIELDS = {"class_id": "id", "prompt_text": "text"}


def _check_record(where: str, rec, fields: dict) -> None:
    if not isinstance(rec, dict):
        raise CorruptRecord(f"{where} is not a JSON object")
    for key, rule in fields.items():
        value = rec.get(key)
        if key not in rec:
            if rule != "text":
                raise CorruptRecord(f"{where} lacks {key}")
        elif rule == "id" and not (type(value) is int and 0 <= value < 1 << 63):
            check_int(f"{where} {key}", value, lo=0, error=CorruptRecord)
            if value >= 1 << 63:
                raise CorruptRecord(f"{where} {key} exceeds int64, got {value}")
        elif rule == "split" and value not in SPLITS:
            raise CorruptRecord(f"{where} split must be 'train' or 'test', got {value!r}")
        elif rule == "text" and not isinstance(value, str):
            raise CorruptRecord(f"{where} {key} must be a string, got {value!r}")


def _decode(path, f32: np.ndarray, records: list, fields: dict, build):
    """The EMB1 checks, run by a writer before it writes and by a loader
    after it reads: finite float32 values, no zero row, and sidecar records
    that keep ``fields``' rules. ``build`` then makes the kind's value from
    the rows, re-normalized in float64, and runs the kind's own checks."""
    matrix = f32.astype(np.float64)
    if not np.all(np.isfinite(matrix)):
        raise CorruptRecord(f"non-finite float in {path}")
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms < 1e-300):
        raise CorruptRecord(f"{path}: record {int(np.argmin(norms))} is a zero vector")
    for i, rec in enumerate(records):
        _check_record(f"{path}: sidecar record {i}", rec, fields)
    matrix /= norms[:, None]
    return build(path, matrix, records)


def _save_emb(path, matrix, rows, fields: dict, build) -> None:
    """Write ``matrix`` and a record per row of ``rows`` (the values of
    ``fields``; None leaves one out) once they pass the loader's checks."""
    with np.errstate(over="ignore"):  # a value past float32's range is inf: rejected
        f32 = np.ascontiguousarray(matrix, dtype="<f4")
    records = [{k: v for k, v in zip(fields, row) if v is not None} for row in rows]
    _decode(path, f32, records, fields, build)
    count, dim = f32.shape
    unit = np.all(np.abs(np.linalg.norm(f32.astype(np.float64), axis=1) - 1.0) <= 1e-6)
    write_pair(path, (MAGIC, _HEADER.pack(dim, count, FLAG_NORMALIZED if unit else 0), f32),
               {"dim": dim, "count": count, "records": records})


def _load_emb(path, fields: dict, build):
    path = Path(path)
    blob = read_binary(path, MAGIC, "EMB1 file")
    if len(blob) < 16:
        raise DimMismatch(f"{path}: truncated header")
    dim, count, _flags = _HEADER.unpack(blob[4:16])
    if len(blob) != 16 + 4 * dim * count:
        raise DimMismatch(
            f"{path}: binary holds {len(blob) - 16} payload bytes, "
            f"header declares {4 * dim * count}")
    sidecar = read_sidecar(path)
    sidecar_file = _sidecar_path(path)
    records = sidecar.get("records")
    if not isinstance(records, list):
        raise CorruptRecord(f"{sidecar_file}: sidecar records is not a list")
    if sidecar.get("dim") != dim or sidecar.get("count") != count:
        raise DimMismatch(
            f"{sidecar_file}: sidecar declares dim={sidecar.get('dim')} "
            f"count={sidecar.get('count')}, binary has dim={dim} count={count}")
    if len(records) != count:
        raise DimMismatch(
            f"{sidecar_file}: sidecar lists {len(records)} records, binary holds {count}")
    f32 = np.frombuffer(blob, dtype="<f4", offset=16).reshape(count, dim)
    return _decode(path, f32, records, fields, build)


def _embedding_set(path, matrix: np.ndarray, records: list) -> EmbeddingSet:
    es = EmbeddingSet(matrix.shape[1], matrix, provenance={"kind": "file", "path": str(path)},
                      **{c: np.array([rec.get(k) for rec in records],
                                     dtype=np.int64 if rule == "id" else object)
                         for c, (k, rule) in zip(COLUMNS[1:], _EMB_FIELDS.items())})
    es.validate()
    return es


def _prototypes(path, matrix: np.ndarray, records: list) -> list[ClassPrototype]:
    check_unique_ids([rec["class_id"] for rec in records], str(path))
    return [ClassPrototype(rec["class_id"], row, rec.get("prompt_text"))
            for rec, row in zip(records, matrix)]


def save_embeddings(es: EmbeddingSet, path) -> None:
    columns = (np.asarray(getattr(es, c)).tolist() for c in COLUMNS[1:])
    _save_emb(path, es.vectors, zip(*columns), _EMB_FIELDS, _embedding_set)


def load_embeddings(path) -> EmbeddingSet:
    return _load_emb(path, _EMB_FIELDS, _embedding_set)


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
    _save_emb(path, np.vstack([p.vector for p in protos]),
              [(int(p.class_id), p.prompt_text) for p in protos], _PROTO_FIELDS, _prototypes)


def load_prototypes(path) -> list[ClassPrototype]:
    return _load_emb(path, _PROTO_FIELDS, _prototypes)
