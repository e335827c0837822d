"""Experiment protocol: per-session shot ingestion, streaming inference with
cache mutation, and per-session evaluation, around a frozen scorer.

Sessions are numbered 0..T-1; session 0 is the base task (the only one any
parameters are ever trained on) and every later session contributes K-shot
novel classes. At session t the evaluation set is the union of the test
splits of tasks 0..t, streamed in a seeded shuffled order; each sample is
predicted against the current cache state *before* any insertion it may
trigger. Results are therefore order-dependent through the base cache, which
is why the stream seed is part of the trial: replaying a trial seed
reproduces every per-sample prediction exactly. :func:`run_session` keeps
no state of its own: it runs the last of the tasks it is given, which must
be tasks 0..t, on the cache those sessions left.

A session stream is computed schedule-then-score: admission needs only each
sample's pseudo-label and entropy, so the base cache's whole insert/evict
history is replayed first, giving every entry a live interval over stream
positions, and then all samples are scored in one masked matrix product.

Nor does admission depend on ``alpha`` or ``beta``. Configs that differ only
in those two form one sweep cell, and a cell runs each (trial, session) once:
one stream permutation, novel-shot ingestion, schedule, ``clip(Q K^T)`` and
live mask, and cache summary, then one cache score per distinct ``beta`` and
one fusion per config.

Trial seeds derive from the experiment seed as
``derive_seed(seed, SCOPE_TRIAL, trial_index)`` and session streams as
``derive_seed(trial_seed, SCOPE_STREAM, session)``. The alignment scorer is
an input: trained beforehand by :func:`train_base_alignment` (its own seed
lives in the alignment config), it scores every (test sample, class) pair
once per :func:`run_experiments` call, and all trials read that table.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import metrics
from .adaptor import DualCache, argmax_lowest_ids, fuse, retrieve, schedule_admissions
from .alignment import (
    RelationParams,
    TrainConfig,
    init_relation,
    score_matrix,
    train_alignment,
    _sigmoid,
)
from .embeddings import EmbeddingSet, check_disjoint, prototype_matrix
from .errors import (
    ConfigError,
    OutOfOrderSession,
    ShotCountMismatch,
    ValidationError,
    check_int,
    check_real,
    from_fields,
)
from .rng import SCOPE_SHOTS, SCOPE_STREAM, SCOPE_TRIAL, Stream, derive_seed

POLICIES = ("off", "session0_only", "always")

@dataclass(frozen=True)
class TaskSpec:
    index: int
    class_ids: tuple
    train_by_class: dict                 # class id -> tuple of record indices
    test_indices: tuple
    shots: int | None                    # None for the base task


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float = 2.0
    beta: float = 2.0
    capacity: int = 5
    shots: int = 5
    novel_capacity: int | None = None    # defaults to shots
    base_update_policy: str = "session0_only"
    seed: int = 0
    trials: int = 10
    align: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        """Every construction path is validated here, ``replace`` included."""
        check_real("alpha", self.alpha, lo=0.0)
        check_real("beta", self.beta, lo=0.0)
        check_int("capacity", self.capacity, lo=1)
        check_int("shots", self.shots, lo=1)
        check_int("novel_capacity", self.effective_novel_capacity(), lo=1)
        if self.base_update_policy not in POLICIES:
            raise ConfigError(f"base_update_policy must be one of {POLICIES}")
        check_int("trials", self.trials, lo=1)
        check_int("seed", self.seed)
        if not isinstance(self.align, TrainConfig):
            raise ConfigError(f"align must be a TrainConfig, got {type(self.align).__name__}")

    def effective_novel_capacity(self) -> int:
        return self.shots if self.novel_capacity is None else self.novel_capacity

    def to_dict(self) -> dict:
        """The config as plain data, as reports record it: ``align`` leaves
        out Adam's beta1, beta2 and epsilon."""
        align = self.align.to_dict()
        keep = ("epochs", "batch_size", "lr", "seed", "slope", "hidden")
        return {**asdict(self), "align": {k: align[k] for k in keep}}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        align = TrainConfig.from_dict(d.get("align", {}))
        return from_fields(cls, {**d, "align": align}, "experiment")


def build_tasks(data: EmbeddingSet) -> list[TaskSpec]:
    """Derive the task list from an embedding set's records and validate it;
    a novel task's shot count is that of its first class."""
    tids = data.task_ids()
    if tids != list(range(len(tids))):
        raise ValidationError(f"task indices must be contiguous from 0, got {tids}")
    tasks = []
    for t in tids:
        train_idx = data.indices(task=t, split="train")
        class_ids = tuple(sorted(set(int(data.labels[i]) for i in train_idx)))
        by_class = {c: tuple(int(i) for i in train_idx if int(data.labels[i]) == c)
                    for c in class_ids}
        test_idx = tuple(int(i) for i in data.indices(task=t, split="test"))
        shots = len(by_class[class_ids[0]]) if t and class_ids else None
        tasks.append(TaskSpec(t, class_ids, by_class, test_idx, shots))
    validate_tasks(tasks)
    return tasks


def validate_tasks(tasks) -> None:
    """Disjoint label spaces, per-class shot counts, and a base task with
    test records."""
    tasks = list(tasks)
    if not tasks:
        raise ValidationError("empty task list")
    for a in tasks:
        if not a.class_ids:
            raise ValidationError(f"task {a.index} has no classes")
    check_disjoint([(a.index, set(a.class_ids)) for a in tasks])
    for task in tasks:
        if task.index == 0:
            continue
        if task.shots is None:
            raise ShotCountMismatch(f"novel task {task.index} declares no shot count")
        for cid in task.class_ids:
            got = len(task.train_by_class.get(cid, ()))
            if got != task.shots:
                raise ShotCountMismatch(
                    f"task {task.index} class {cid}: {got} shots, expected {task.shots}")
    if not tasks[0].test_indices:
        raise ValidationError(f"base task {tasks[0].index} has no test records")


def _novel_shot_indices(task: TaskSpec, cid: int, cap: int, stream_seed: int):
    idxs = task.train_by_class[cid]
    if cap >= len(idxs):
        return idxs
    perm = Stream(derive_seed(stream_seed, SCOPE_SHOTS, cid)).permutation(len(idxs))
    return tuple(idxs[int(j)] for j in perm[:cap])


def stream_predictions(cache: DualCache, queries, logits, class_order, settings,
                       admit) -> list[np.ndarray]:
    """Predicted class of every query of a stream, in stream order, once per
    ``(alpha, beta)`` pair in ``settings``.

    Each query is predicted against the cache as it stands before the query
    itself is offered for base admission; queries whose pseudo-label is in
    ``admit`` are offered. ``logits`` has one row per query, columns aligned to
    ``class_order``. ``cache`` is left in its end-of-stream state.
    """
    plan = schedule_admissions(cache, queries, logits, class_order, admit)
    betas = list(dict.fromkeys(beta for _alpha, beta in settings))
    b = dict(zip(betas, retrieve(queries, plan.keys, plan.values, class_order, betas,
                                 plan.live(queries.shape[0]))))
    a = _sigmoid(logits)
    return [argmax_lowest_ids(fuse(a, b[beta], alpha), class_order)
            for alpha, beta in settings]


def _sweep_cell(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` with ``alpha`` and ``beta`` zeroed: configs with the same cell
    share every stream, novel shot and admission schedule."""
    return replace(cfg, alpha=0.0, beta=0.0)


def run_session(cache: DualCache, tasks, data: EmbeddingSet, cfgs, stream_seed: int,
                score_table: np.ndarray) -> list[metrics.SessionReport]:
    """Run the last of ``tasks``, which lists tasks 0..t, the sessions run so
    far on ``cache``: reveal its classes, ingest its shots, stream the test
    records of ``tasks`` in task order, and report once per config of ``cfgs``.

    ``cfgs`` are one sweep cell: they may differ only in ``alpha`` and
    ``beta``. ``score_table`` holds the frozen scorer's logits: rows the test
    records of tasks 0, 1, ... in that order, columns the classes in reveal
    order. The evaluation set is its first rows, so stream position i reads
    row ``order[i]``.
    """
    cfgs = list(cfgs)
    if not cfgs or len({_sweep_cell(c) for c in cfgs}) != 1:
        raise ConfigError("a session runs one or more configs that differ "
                          "only in alpha and beta")
    cfg = cfgs[0]
    tasks = list(tasks)
    indices = [t.index for t in tasks]
    if not tasks or indices != list(range(len(tasks))):
        raise OutOfOrderSession(f"sessions must run as tasks 0, 1, ..., got {indices}")
    task = tasks[-1]
    class_order = np.array([c for t in tasks for c in sorted(t.class_ids)], dtype=np.int64)
    base_class_ids = frozenset(tasks[0].class_ids)

    if task.index > 0:
        cap = cfg.effective_novel_capacity()
        for cid in sorted(task.class_ids):
            for idx in _novel_shot_indices(task, cid, cap, stream_seed):
                cache.insert_novel(data.vectors[idx], cid)

    eval_indices = np.array([i for t in tasks for i in t.test_indices], dtype=np.int64)
    n_eval = eval_indices.shape[0]
    order = Stream(derive_seed(stream_seed, SCOPE_STREAM)).permutation(n_eval)

    n_classes = class_order.shape[0]
    recs = eval_indices[order]
    insert_base = cfg.base_update_policy == "always" or (
        task.index == 0 and cfg.base_update_policy == "session0_only")
    all_preds = stream_predictions(
        cache, data.vectors[recs], score_table[order, :n_classes], class_order,
        [(c.alpha, c.beta) for c in cfgs],
        base_class_ids if insert_base else frozenset())
    truths = data.labels[recs].astype(np.int64)
    # Keys are decided here, as strings: the canonical JSON sorts them as
    # text ("10" before "2"), and that order is part of the report bytes.
    ids, inverse = np.unique(truths, return_inverse=True)
    n_per_class = np.bincount(inverse, minlength=ids.size)
    stats = cache.stats()
    reports = []
    for preds in all_preds:
        a_b, a_n = metrics.split_accuracy(preds, truths, base_class_ids)
        both_zero = a_b == 0.0 and a_n == 0.0 and a_n is not None
        hm = metrics.harmonic(a_b, a_n) if (a_b is not None and a_n is not None) else None
        hits = np.bincount(inverse[preds == truths], minlength=ids.size)
        reports.append(metrics.SessionReport(
            session=task.index,
            n_test=n_eval,
            n_classes=n_classes,
            accuracy=metrics.accuracy(preds, truths),
            base_accuracy=a_b,
            novel_accuracy=a_n,
            harmonic=hm,
            both_zero=bool(both_zero),
            per_class={str(c): [int(n), int(k)]
                       for c, n, k in zip(ids, n_per_class, hits)},
            cache=stats,
        ))
    return reports


def train_base_alignment(hyper: TrainConfig, data: EmbeddingSet, prototypes
                         ) -> tuple[RelationParams, list[float]]:
    """Initialise the scorer from ``hyper`` and train it on the base task's
    train split against the base classes' prototypes: the one init-and-train
    sequence. Returns the frozen scorer and its per-epoch losses."""
    base_train = data.subset(data.indices(task=0, split="train"))
    base_ids = set(int(y) for y in base_train.labels)
    protos0 = [p for p in prototypes if p.class_id in base_ids]
    params = init_relation(data.dim, hyper.seed, hyper.hidden, hyper.slope)
    return train_alignment(params, base_train, protos0, hyper)


def _checked_tasks(cfgs, data: EmbeddingSet) -> list[TaskSpec]:
    """The tasks built from ``data``, after checking each config's shot count
    against them."""
    tasks = build_tasks(data)
    for cfg in cfgs:
        for task in tasks[1:]:
            if task.shots != cfg.shots:
                raise ShotCountMismatch(
                    f"task {task.index} provides {task.shots} shots, "
                    f"config expects {cfg.shots}")
    return tasks


def run_experiment(cfg: ExperimentConfig, data: EmbeddingSet, prototypes,
                   alignment: RelationParams) -> metrics.ExperimentReport:
    """All trials, all sessions with the frozen scorer ``alignment``;
    deterministic for a fixed config and data."""
    return run_experiments([cfg], data, prototypes, alignment)[0]


def run_experiments(cfgs, data: EmbeddingSet, prototypes,
                    alignment: RelationParams) -> list[metrics.ExperimentReport]:
    """One report per config, in input order, each equal to
    ``run_experiment``'s for it.

    The frozen scorer's logits for a (test sample, class) pair depend on no
    experiment setting, so the whole test set is scored against every
    prototype once and all configs' trials read that one table. Configs
    that differ only in ``alpha`` and ``beta`` form one sweep cell and run
    every (trial, session) together (:func:`run_session`).
    """
    cfgs = list(cfgs)
    tasks = _checked_tasks(cfgs, data)
    if not alignment.frozen:
        raise ValidationError("experiments require a frozen alignment scorer")

    class_order = [c for t in tasks for c in sorted(t.class_ids)]
    proto_mat = prototype_matrix(prototypes, class_order)
    all_test = np.concatenate([np.array(t.test_indices, dtype=np.int64) for t in tasks])
    with np.errstate(over="ignore", invalid="ignore"):
        table = score_matrix(alignment, data.vectors[all_test], proto_mat)
    if not np.all(np.isfinite(table)):
        raise ValidationError("the scorer gives non-finite logits on this data")

    before = _param_digest(alignment)
    cells: dict[ExperimentConfig, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        cells.setdefault(_sweep_cell(cfg), []).append(i)
    trials = [[] for _ in cfgs]
    for cell, members in cells.items():
        group = [cfgs[i] for i in members]
        for t in range(cell.trials):
            trial_seed = derive_seed(cell.seed, SCOPE_TRIAL, t)
            cache = DualCache(cell.capacity, cell.effective_novel_capacity())
            sessions = [[] for _ in members]
            for task in tasks:
                stream_seed = derive_seed(trial_seed, SCOPE_STREAM, task.index)
                reps = run_session(cache, tasks[:task.index + 1], data, group, stream_seed,
                                   table)
                for per_cfg, rep in zip(sessions, reps):
                    per_cfg.append(rep)
            for i, per_cfg in zip(members, sessions):
                trials[i].append(metrics.TrialResult(seed=trial_seed, sessions=per_cfg))
    if _param_digest(alignment) != before:
        raise ValidationError("alignment parameters changed during inference")
    reports = []
    for cfg, cfg_trials in zip(cfgs, trials):
        aggs, dlt, hm = metrics.aggregate_trials(cfg_trials)
        reports.append(metrics.ExperimentReport(
            config={"experiment": cfg.to_dict(), "data_provenance": data.provenance},
            flags={"no_cache_baseline": cfg.alpha == 0.0},
            trials=cfg_trials,
            aggregate=aggs,
            delta=dlt,
            mean_harmonic=hm,
        ))
    return reports


def _param_digest(params: RelationParams) -> tuple:
    """CRC-32 of every parameter array, read in place, so that the check
    holds no copy of the scorer while the experiment runs."""
    return tuple(zlib.crc32(a) for a in (*params.weights, *params.biases))
