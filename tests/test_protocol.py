import copy
import dataclasses

import numpy as np
import pytest

import tfa.protocol
from tfa.alignment import TrainConfig, score_matrix
from tfa.errors import ConfigError, FormatError, ValidationError
from tfa.metrics import report_json
from tfa.protocol import (
    ExperimentConfig,
    TaskSpec,
    build_tasks,
    run_experiment,
    run_experiments,
    run_session,
    train_base_alignment,
    validate_tasks,
)
from tfa.adaptor import DualCache, retrieve, schedule_admissions
from tfa.synth import SynthConfig, generate_synthetic

from helpers import RefCache, ref_stream_predictions


@pytest.fixture(scope="module")
def small_world():
    cfg = SynthConfig(dim=32, base_classes=6, novel_tasks=2, classes_per_novel_task=2,
                      train_per_base_class=25, test_per_class=8, shots=5,
                      intra_class_sigma=0.05, modality_gap_sigma=0.15, seed=13)
    data, protos = generate_synthetic(cfg)
    exp = ExperimentConfig(trials=2, seed=3,
                           align=TrainConfig(epochs=4, batch_size=25, seed=2,
                                             hidden=(64, 32)))
    alignment, _ = train_base_alignment(exp.align, data, protos)
    return cfg, data, protos, exp, alignment


@pytest.fixture(scope="module")
def small_table(small_world):
    """The table ``run_experiments`` shares: every test record of tasks 0, 1,
    ... scored against every class in reveal order."""
    cfg, data, protos, exp, alignment = small_world
    tasks = build_tasks(data)
    by_id = {p.class_id: p.vector for p in protos}
    class_order = [c for t in tasks for c in sorted(t.class_ids)]
    test = [i for t in tasks for i in t.test_indices]
    return score_matrix(alignment, data.vectors[test],
                        np.stack([by_id[c] for c in class_order]))


# ---- task validation ----

def test_overlapping_tasks_rejected():
    t0 = TaskSpec(0, (0, 1, 3), {0: (0,), 1: (1,), 3: (2,)}, (), None)
    t1 = TaskSpec(1, (3, 4), {3: tuple(range(5)), 4: tuple(range(5))}, (), 5)
    with pytest.raises(ValidationError, match=r"tasks 0 and 1 share train classes \[3\]"):
        validate_tasks([t0, t1])


def test_wrong_shot_count_rejected():
    t0 = TaskSpec(0, (0,), {0: (0,)}, (), None)
    t1 = TaskSpec(1, (1,), {1: tuple(range(4))}, (), 5)
    with pytest.raises(ValidationError, match="task 1 class 1: 4 shots, expected 5"):
        validate_tasks([t0, t1])


@pytest.mark.parametrize("t1, error, message", [
    (TaskSpec(1, (), {}, (), 5), ValidationError, "task 1 has no classes"),
    (TaskSpec(1, (1,), {1: (1,)}, (), None), ValidationError, "novel task 1 declares no shot"),
], ids=["no-classes", "no-shot-count"])
def test_task_without_classes_or_shot_count_rejected(t1, error, message):
    t0 = TaskSpec(0, (0,), {0: (0,)}, (), None)
    with pytest.raises(error, match=message):
        validate_tasks([t0, t1])


def test_build_tasks_from_data(small_world):
    cfg, data, protos, exp, _ = small_world
    tasks = build_tasks(data)
    validate_tasks(tasks)
    assert len(tasks) == 3
    assert tasks[0].shots is None
    assert tasks[1].shots == 5 and tasks[2].shots == 5
    assert len(tasks[0].test_indices) == 6 * 8
    assert len(tasks[1].test_indices) == 2 * 8


def test_uneven_novel_shots_are_rejected_by_build_tasks(small_world):
    cfg, data, protos, exp, _ = small_world
    novel = build_tasks(data)[1]
    dropped = novel.train_by_class[novel.class_ids[-1]][0]
    with pytest.raises(ValidationError, match=f"task 1 class {novel.class_ids[-1]}: 4 shots"):
        build_tasks(data.subset([i for i in range(len(data)) if i != dropped]))


def test_experiment_rejects_wrong_k(small_world):
    cfg, data, protos, exp, alignment = small_world
    bad = ExperimentConfig(trials=1, shots=4, align=exp.align)
    with pytest.raises(ValidationError, match="task 1 provides 5 shots, config expects 4"):
        run_experiment(bad, data, protos, alignment=alignment)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(base_update_policy="sometimes")
    with pytest.raises(ConfigError, match="unknown experiment config keys"):
        ExperimentConfig.from_dict({"nope": 1})


@pytest.mark.parametrize("field,value", [
    ("alpha", "2"), ("alpha", float("nan")), ("alpha", float("inf")), ("alpha", True),
    ("beta", float("-inf")), ("beta", None), ("capacity", 2.0), ("capacity", "5"),
    ("shots", 5.0), ("trials", True), ("novel_capacity", 2.5), ("seed", "3"),
])
def test_config_rejects_mistyped_and_non_finite_settings(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict({field: value})
    # No loader in between: the dataclass itself rejects the value.
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value})


def test_config_is_frozen_hashable_and_replace_revalidates():
    cfg = ExperimentConfig(align=TrainConfig(hidden=[8, 4], slope=0.5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.alpha = 1.0
    assert hash(cfg) == hash(ExperimentConfig(align=TrainConfig(hidden=(8, 4), slope=0.5)))
    swept = dataclasses.replace(cfg, alpha=0.5)
    assert len({cfg, swept, cfg}) == 2 and swept.align is cfg.align
    with pytest.raises(ConfigError, match="alpha"):
        dataclasses.replace(cfg, alpha=-1.0)
    with pytest.raises(ConfigError, match="novel_capacity"):
        dataclasses.replace(cfg, novel_capacity=0)


@pytest.mark.parametrize("align", [{"epochs": 1}, None, 3])
def test_config_align_must_be_a_train_config(align):
    with pytest.raises(ConfigError, match="align must be a TrainConfig"):
        ExperimentConfig(align=align)


def test_config_validates_the_alignment_section():
    with pytest.raises(ConfigError, match="epochs"):
        ExperimentConfig.from_dict({"align": {"epochs": 0}})
    assert ExperimentConfig.from_dict({"align": {"hidden": [8, 4]}}).align.hidden == (8, 4)


@pytest.mark.parametrize("bad,error,message", [
    ({"alpha": float("nan")}, ConfigError, "alpha must be a finite number, got nan"),
    ({"shots": 4}, ValidationError, "task 1 provides 5 shots, config expects 4"),
])
def test_bad_experiment_fails_before_scoring(small_world, monkeypatch, bad, error, message):
    cfg, data, protos, exp, alignment = small_world
    calls = _counted_score_matrix(monkeypatch)
    with pytest.raises(error, match=message):
        run_experiment(ExperimentConfig(**{**vars(exp), **bad}), data, protos, alignment)
    assert calls == []



def test_duplicate_prototype_ids_fail_before_scoring(small_world, monkeypatch):
    # Two prototypes for one class: the experiment must not pick either.
    cfg, data, protos, exp, alignment = small_world
    calls = _counted_score_matrix(monkeypatch)
    twin = dataclasses.replace(protos[1], class_id=protos[0].class_id)
    with pytest.raises(FormatError, match=f"class id {protos[0].class_id} appears twice"):
        run_experiments([exp], data, [*protos, twin], alignment)
    assert calls == []


# ---- sessions ----

def test_sessions_must_run_in_order(small_world, small_table):
    cfg, data, protos, exp, alignment = small_world
    tasks = build_tasks(data)
    for prefix in ([], tasks[1:2], [tasks[0], tasks[2]], [tasks[0], tasks[0]]):
        with pytest.raises(ValidationError, match="sessions must run as tasks 0, 1, "):
            run_session(DualCache(5, 5), prefix, data, [exp], 1, small_table)


def test_session_zero_has_no_novel_side(small_world, small_table):
    cfg, data, protos, exp, alignment = small_world
    tasks = build_tasks(data)
    (rep,) = run_session(DualCache(5, 5), tasks[:1], data, [exp], 1, small_table)
    assert rep["session"] == 0
    assert rep["novel_accuracy"] is None and rep["harmonic"] is None
    assert rep["n_test"] == len(tasks[0].test_indices)
    assert rep["base_accuracy"] == rep["accuracy"]
    assert rep["cache"]["novel_entries"] == 0
    assert rep["cache"]["base_entries"] > 0
    assert rep["accuracy"] > 50.0


def test_cumulative_eval_set_size(small_world, small_table):
    cfg, data, protos, exp, alignment = small_world
    tasks = build_tasks(data)
    cache = DualCache(5, 5)
    sizes = []
    for t in range(len(tasks)):
        (rep,) = run_session(cache, tasks[:t + 1], data, [exp], t, small_table)
        sizes.append(rep["n_test"])
    expected = np.cumsum([len(t.test_indices) for t in tasks]).tolist()
    assert sizes == expected


def test_alignment_params_never_change_after_base(small_world, small_table):
    cfg, data, protos, exp, alignment = small_world
    tasks = build_tasks(data)
    before = [w.copy() for w in alignment.weights]
    cache = DualCache(5, 5)
    for t in range(len(tasks)):
        run_session(cache, tasks[:t + 1], data, [exp], t, small_table)
    for a, b in zip(alignment.weights, before):
        np.testing.assert_array_equal(a, b)
    assert alignment.frozen


def test_class_order_is_append_only(small_world, small_table, monkeypatch):
    cfg, data, protos, exp, alignment = small_world
    tasks = build_tasks(data)
    real, orders = tfa.protocol.stream_predictions, []
    def recorded(cache, queries, logits, class_order, *args):
        orders.append(class_order.tolist())
        return real(cache, queries, logits, class_order, *args)
    monkeypatch.setattr(tfa.protocol, "stream_predictions", recorded)
    cache = DualCache(5, 5)
    for t in range(len(tasks)):
        run_session(cache, tasks[:t + 1], data, [exp], t, small_table)
    assert len(orders) == len(tasks)
    for earlier, later in zip(orders, orders[1:]):
        assert later[:len(earlier)] == earlier


# ---- experiments ----

def test_experiment_report_is_deterministic(small_world):
    cfg, data, protos, exp, alignment = small_world
    r1 = run_experiment(exp, data, protos, alignment=alignment)
    r2 = run_experiment(exp, data, protos, alignment=alignment)
    assert report_json(r1) == report_json(r2)


def test_trial_mean_of_constant_metric(small_world):
    cfg, data, protos, exp, alignment = small_world
    rep = run_experiment(exp, data, protos, alignment=alignment)
    for agg in rep["aggregate"]["sessions"]:
        accs = [t["sessions"][agg["session"]]["accuracy"] for t in rep["trials"]]
        assert agg["accuracy_mean"] == pytest.approx(float(np.mean(accs)))
        if len(set(accs)) == 1:
            assert agg["accuracy_std"] == 0.0


def test_stream_order_only_matters_through_the_base_cache(small_world):
    cfg, data, protos, exp, alignment = small_world
    # with base insertions off and the full novel cache, per-class outcomes
    # are independent of the evaluation stream order (different seeds)
    base = {**exp.to_dict(), "base_update_policy": "off"}
    r1 = run_experiment(ExperimentConfig.from_dict({**base, "seed": 101}),
                        data, protos, alignment=alignment)
    r2 = run_experiment(ExperimentConfig.from_dict({**base, "seed": 202}),
                        data, protos, alignment=alignment)
    for t1, t2 in zip(r1["trials"], r2["trials"]):
        for s1, s2 in zip(t1["sessions"], t2["sessions"]):
            assert s1["per_class"] == s2["per_class"]


def test_no_cache_baseline_flag(small_world):
    cfg, data, protos, exp, alignment = small_world
    c = ExperimentConfig.from_dict({**exp.to_dict(), "alpha": 0.0, "trials": 1})
    rep = run_experiment(c, data, protos, alignment=alignment)
    assert rep["flags"]["no_cache_baseline"] is True


def test_always_policy_keeps_updating_the_base_cache(small_world):
    cfg, data, protos, exp, alignment = small_world
    c = ExperimentConfig.from_dict(
        {**exp.to_dict(), "base_update_policy": "always", "capacity": 2, "trials": 1})
    rep = run_experiment(c, data, protos, alignment=alignment)
    # per-class fills never shrink across sessions, stay within capacity, and
    # only base classes ever receive pseudo-label entries
    fills = [s["cache"]["base_fill"] for s in rep["trials"][0]["sessions"]]
    for earlier, later in zip(fills, fills[1:]):
        for cls, n in earlier.items():
            assert later.get(cls, 0) >= n
    for fill in fills:
        assert all(v <= 2 for v in fill.values())
        assert set(fill) <= set(range(6))
    assert rep["trials"][0]["sessions"][-1]["cache"]["base_entries"] > 0


def test_off_policy_never_fills_the_base_cache(small_world):
    cfg, data, protos, exp, alignment = small_world
    c = ExperimentConfig.from_dict(
        {**exp.to_dict(), "base_update_policy": "off", "trials": 1})
    rep = run_experiment(c, data, protos, alignment=alignment)
    for s in rep["trials"][0]["sessions"]:
        assert s["cache"]["base_entries"] == 0


def test_novel_capacity_below_shots_subsamples(small_world):
    cfg, data, protos, exp, alignment = small_world
    c = ExperimentConfig.from_dict({**exp.to_dict(), "novel_capacity": 2, "trials": 2})
    rep = run_experiment(c, data, protos, alignment=alignment)
    for trial in rep["trials"]:
        for s in trial["sessions"][1:]:
            fills = s["cache"]["novel_fill"].values()
            assert all(f == 2 for f in fills)


# ---- one score table shared by every config ----

def _counted_score_matrix(monkeypatch):
    calls = []
    real = tfa.protocol.score_matrix
    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(tfa.protocol, "score_matrix", counted)
    return calls


@pytest.mark.parametrize("sweep", [
    [{"alpha": a} for a in (0.0, 0.5, 2.0)],
    [{"beta": b} for b in (0.0, 2.0, 7.5)],
    [{"base_update_policy": "always", "capacity": c, "novel_capacity": min(c, 5)}
     for c in (1, 3, 6)],
], ids=["alpha", "beta", "cache-size-always"])
def test_shared_table_reports_match_single_runs(small_world, monkeypatch, sweep):
    cfg, data, protos, exp, alignment = small_world
    cfgs = [ExperimentConfig.from_dict({**exp.to_dict(), **s}) for s in sweep]
    singles = [report_json(run_experiment(c, data, protos, alignment=alignment))
               for c in cfgs]
    calls = _counted_score_matrix(monkeypatch)
    shared = run_experiments(cfgs, data, protos, alignment)
    assert calls == [sum(len(t.test_indices) for t in build_tasks(data))]
    assert [report_json(r) for r in shared] == singles


def test_run_experiments_validates_every_config_before_scoring(small_world, monkeypatch):
    cfg, data, protos, exp, alignment = small_world
    # An invalid config cannot be built, so it never reaches run_experiments;
    # a valid one whose shot count the tasks do not provide is rejected there.
    calls = _counted_score_matrix(monkeypatch)
    with pytest.raises(ConfigError, match="trials"):
        run_experiments([exp, dataclasses.replace(exp, trials=0)], data, protos, alignment)
    with pytest.raises(ValidationError, match="task 1 provides 5 shots, config expects 4"):
        run_experiments([exp, dataclasses.replace(exp, shots=4)], data, protos, alignment)
    with pytest.raises(ValidationError, match="frozen alignment scorer"):
        run_experiments([exp], data, protos, alignment.copy())
    assert calls == []


def test_a_scorer_changed_during_inference_is_rejected(small_world, monkeypatch):
    cfg, data, protos, exp, alignment = small_world
    scorer = copy.deepcopy(alignment)
    w = scorer.weights[1]
    real, done = tfa.protocol.run_session, []
    def tampering(*args, **kwargs):
        if not done:
            w.flags.writeable = True
            w[3, 2] = np.nextafter(w[3, 2], np.inf)      # one ulp of one weight
            done.append(True)
        return real(*args, **kwargs)
    monkeypatch.setattr(tfa.protocol, "run_session", tampering)
    with pytest.raises(ValidationError, match="alignment parameters changed during inference"):
        run_experiment(dataclasses.replace(exp, trials=1), data, protos, scorer)


# ---- schedule-then-score against the per-sample loop ----

def _recording(stream, log):
    def recorded(cache, *args):
        preds = stream(cache, *args)
        log.append(([p.tolist() for p in preds], cache.audit()))
        return preds
    return recorded


def _per_sample_loop(cache, queries, logits, class_order, settings, admit):
    """The per-sample oracle on a ``RefCache``, for a stream run for one config alone."""
    assert isinstance(cache, RefCache)
    ((alpha, beta),) = settings
    return [ref_stream_predictions(cache, queries, logits, class_order, alpha, beta, admit)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("policy", ["off", "session0_only", "always"])
def test_stream_matches_the_per_sample_loop(small_world, monkeypatch, policy, seed):
    # One grouped run_experiments call against the per-sample loop run for
    # each config alone on the list-of-entries oracle cache: per-sample
    # predictions, the cache audit after every session, and the report bytes.
    cfg, data, protos, exp, alignment = small_world
    cfgs = [ExperimentConfig.from_dict(
                {**exp.to_dict(), "base_update_policy": policy, "capacity": capacity,
                 "alpha": alpha, "beta": beta, "seed": seed, "trials": 2})
            for capacity in (1, 3, 10) for alpha in (0.0, 2.0) for beta in (0.0, 2.0)]
    batched = tfa.protocol.stream_predictions
    grouped = []
    monkeypatch.setattr(tfa.protocol, "stream_predictions", _recording(batched, grouped))
    reports = [report_json(r) for r in run_experiments(cfgs, data, protos, alignment)]
    ref_reports, ref_streams = [], []
    monkeypatch.setattr(tfa.protocol, "DualCache", RefCache)
    for c in cfgs:
        ref_streams.append([])
        monkeypatch.setattr(tfa.protocol, "stream_predictions",
                            _recording(_per_sample_loop, ref_streams[-1]))
        ref_reports.append(report_json(run_experiment(c, data, protos, alignment)))
    # one cell per capacity, in input order, each running 2 trials x 3 sessions
    assert len(grouped) == 3 * 2 * 3
    for i, ref in enumerate(ref_streams):
        cell, member = divmod(i, 4)
        calls = grouped[cell * 6:(cell + 1) * 6]
        assert len(ref) == len(calls) == 6
        for (preds, audit), ([ref_preds], ref_audit) in zip(calls, ref):
            assert preds[member] == ref_preds
            assert audit == ref_audit
    assert reports == ref_reports


# ---- one schedule per sweep cell ----

def test_sweep_cells_share_one_schedule_and_keep_input_order(small_world, monkeypatch):
    cfg, data, protos, exp, alignment = small_world
    base = dataclasses.replace(exp, base_update_policy="always", trials=2)
    settings = [(3, 0.5, 2.0), (5, 2.0, 2.0), (3, 2.0, 0.0), (5, 0.5, 7.5),
                (3, 0.5, 2.0), (5, 0.0, 2.0), (3, 2.0, 2.0), (3, 0.5, 0.0)]
    cfgs = [dataclasses.replace(base, capacity=c, alpha=a, beta=b) for c, a, b in settings]
    singles = [report_json(run_experiment(c, data, protos, alignment)) for c in cfgs]
    schedules, betas = [], []
    real_schedule, real_retrieve = tfa.protocol.schedule_admissions, tfa.protocol.retrieve
    def schedule(cache, *args):
        schedules.append(cache.capacity)
        return real_schedule(cache, *args)
    def retrieve_(queries, keys, values, class_ids, bs, live=None):
        betas.append(list(bs))
        return real_retrieve(queries, keys, values, class_ids, bs, live)
    monkeypatch.setattr(tfa.protocol, "schedule_admissions", schedule)
    monkeypatch.setattr(tfa.protocol, "retrieve", retrieve_)
    grouped = [report_json(r) for r in run_experiments(cfgs, data, protos, alignment)]
    assert grouped == singles
    # two cells (capacity 3, then 5), each one schedule per trial and session,
    # and one cache score per distinct beta of the cell
    assert schedules == [3] * 6 + [5] * 6
    assert betas == [[2.0, 0.0]] * 6 + [[2.0, 7.5]] * 6
    assert grouped[0] == grouped[4]


def test_a_session_runs_configs_of_one_sweep_cell_only(small_world, small_table):
    cfg, data, protos, exp, alignment = small_world
    tasks = build_tasks(data)
    for cfgs in ([], [exp, dataclasses.replace(exp, capacity=2)],
                 [exp, dataclasses.replace(exp, alpha=0.5, seed=4)]):
        with pytest.raises(ConfigError, match="differ only in alpha and beta"):
            run_session(DualCache(5, 5), tasks[:1], data, cfgs, 1, small_table)


def test_query_that_evicts_an_entry_still_sees_it():
    # capacity 1: query 0 is admitted to class 0, query 1 (lower entropy)
    # evicts it, query 2 (higher entropy) is rejected
    e = np.eye(3)
    queries = np.stack([e[0], e[1], e[1]])
    logits = np.array([[1.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
    cache = DualCache(capacity=1, shots=1)
    plan = schedule_admissions(cache, queries, logits, [0, 1], frozenset({0, 1}))
    assert plan.start.tolist() == [0, 1] and plan.stop.tolist() == [1, 3]
    assert plan.live(3).tolist() == [[False, False], [True, False], [False, True]]
    assert cache.values.tolist() == [0] and not cache.novel.any()
    np.testing.assert_array_equal(cache.keys[0], e[1])
    (b,) = retrieve(queries, plan.keys, plan.values, [0, 1], [2.0], plan.live(3))
    # query 1 sees the entry it evicts (key e0, cosine 0), not its own (e1)
    assert b[:, 0].tolist() == [0.0, np.exp(-2.0), 1.0]
    assert b[:, 1].tolist() == [0.0, 0.0, 0.0]
