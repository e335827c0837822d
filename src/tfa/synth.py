"""Synthetic task-stream generator emulating frozen encoders at desk scale.

Each class gets a mean direction drawn uniformly on the unit sphere (a
normalized standard Gaussian). Samples are ``normalize(mean + intra_class_sigma * g)``
and the class prototype is ``normalize(mean + modality_gap_sigma * g)``, so
``modality_gap_sigma`` plays the role of the systematic vision/text offset.
All Gaussians come from :mod:`tfa.rng` streams derived per (scope, class id),
which makes output depend only on the config, never on generation order.

Record order in the produced set: tasks ascending; within a task the train
split precedes the test split; within a split classes ascend; within a class
samples keep draw order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .embeddings import ClassPrototype, EmbeddingSet
from .errors import check_int, check_real, from_fields
from .rng import (
    SCOPE_CLASS_MEAN,
    SCOPE_PROTOTYPE,
    SCOPE_TEST,
    SCOPE_TRAIN,
    Stream,
    derive_seed,
)


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 1024
    base_classes: int = 20
    novel_tasks: int = 3
    classes_per_novel_task: int = 5
    train_per_base_class: int = 100
    test_per_class: int = 20
    shots: int = 5
    intra_class_sigma: float = 0.05
    modality_gap_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        """Every construction path is validated here."""
        for name in ("dim", "base_classes", "novel_tasks", "classes_per_novel_task",
                     "train_per_base_class", "test_per_class", "shots"):
            check_int(name, getattr(self, name), lo=1)
        for name in ("intra_class_sigma", "modality_gap_sigma"):
            check_real(name, getattr(self, name), lo=0.0)
        check_int("seed", self.seed)

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        return from_fields(cls, d, "synth")


def class_layout(cfg: SynthConfig) -> list[tuple[int, list[int]]]:
    """(task index, class ids) pairs; ids are dense and task-contiguous."""
    layout = [(0, list(range(cfg.base_classes)))]
    nxt = cfg.base_classes
    for t in range(1, cfg.novel_tasks + 1):
        layout.append((t, list(range(nxt, nxt + cfg.classes_per_novel_task))))
        nxt += cfg.classes_per_novel_task
    return layout


def l2_normalize(v) -> np.ndarray:
    """Scale a vector, or each row of a 2-D block, to unit Euclidean norm.
    Each squared norm is ``row @ row`` from one stacked (1, m) @ (m, 1) matmul,
    so a row's bytes depend only on that row; a vector is the one-row case.
    Its callers give it finite, nonzero rows only."""
    arr = np.asarray(v, dtype=np.float64)
    rows = np.atleast_2d(arr)
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0]
    return (rows / norms).reshape(arr.shape)


def _noisy(mean, sigma: float, stream: Stream, count: int, dim: int) -> np.ndarray:
    """``count`` unit rows ``normalize(mean + sigma * g)`` from one stream."""
    return l2_normalize(mean + sigma * stream.normal(count * dim).reshape(count, dim))


def generate_synthetic(cfg: SynthConfig) -> tuple[EmbeddingSet, list[ClassPrototype]]:
    def stream(scope: int, cid: int) -> Stream:
        return Stream(derive_seed(cfg.seed, scope, cid))

    layout = class_layout(cfg)
    ids = [cid for _task, class_ids in layout for cid in class_ids]
    means = l2_normalize(np.stack([stream(SCOPE_CLASS_MEAN, cid).normal(cfg.dim) for cid in ids]))
    protos = [ClassPrototype(cid, _noisy(means[cid], cfg.modality_gap_sigma,
                                         stream(SCOPE_PROTOTYPE, cid), 1, cfg.dim)[0]) for cid in ids]
    blocks, labels, tasks, splits = [], [], [], []
    for task, class_ids in layout:
        n_train = cfg.train_per_base_class if task == 0 else cfg.shots
        for split, count, scope in (("train", n_train, SCOPE_TRAIN),
                                    ("test", cfg.test_per_class, SCOPE_TEST)):
            for cid in class_ids:
                blocks.append(_noisy(means[cid], cfg.intra_class_sigma, stream(scope, cid),
                                     count, cfg.dim))
                labels += [cid] * count
                tasks += [task] * count
                splits += [split] * count
    data = EmbeddingSet(
        dim=cfg.dim, vectors=np.vstack(blocks),
        labels=np.array(labels, dtype=np.int64), tasks=np.array(tasks, dtype=np.int64),
        splits=np.array(splits, dtype=object), class_names=np.full(len(labels), None, dtype=object),
        provenance={"kind": "synthetic", "seed": cfg.seed, "config": asdict(cfg)})
    data.validate()
    return data, protos
