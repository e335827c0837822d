"""Acceptance suite: one test per criterion (A5 split into its two clauses).

Each test prints a PASS line when its assertions hold, so ``pytest -v -s``
yields one line per criterion. A4/A5/A6 exercise the end-to-end calibration
preset; the scorer for it is trained once in the session fixture.
"""

import json

import numpy as np
import pytest

from tfa.adaptor import DualCache, cache_scores, fuse, pseudo_label, affinity
from tfa.alignment import _sigmoid, init_relation
from tfa.cli import main
from tfa.metrics import delta, harmonic
from tfa.numerics import entropy, softmax
from tfa.protocol import ExperimentConfig, run_experiments
from tfa.rng import Stream, derive_seed

from helpers import base_rows, central_difference_check, make_unit


def _announce(tag, detail=""):
    print(f"{tag}: PASS {detail}".rstrip())


# ---------------------------------------------------------------- A1


def test_a1_accuracy_decline_reproduces_published_values():
    rows = [
        ((87.3, 72.6), 16.8),   # full method, largest cross-dataset stream
        ((88.4, 1.9), 97.9),    # plain fine-tuning collapse
        ((81.0, 67.3), 16.9),   # joint-retraining reference
        ((90.8, 85.6), 5.75),
        ((87.7, 79.2), 9.6),
    ]
    for (first, last), published in rows:
        got = delta([first, last])
        assert abs(got - published) <= 0.1, (first, last, got, published)
    _announce("A1", f"({len(rows)} published pairs within +/-0.1)")


# ---------------------------------------------------------------- A2


def test_a2_gradients_match_central_differences():
    worst = 0.0
    draws = 0
    for k in range(20):
        m = 8 if k % 2 == 0 else 64
        hidden = (12, 7) if k % 2 == 0 else (10, 6)
        stream = Stream(derive_seed(4242, k))
        params = init_relation(m, seed=1000 + k, hidden=hidden)
        for b in params.biases:
            b += 0.1 * stream.normal(b.shape[0])
        n_b = 1 + int(stream.words(1)[0] % 3)
        n_c = 1 + int(stream.words(1)[0] % 4)
        vs = np.vstack([make_unit(stream, m) for _ in range(n_b)])
        protos = np.vstack([make_unit(stream, m) for _ in range(n_c)])
        targets = (stream.words(n_b) % n_c).astype(np.int64)
        worst = max(worst, central_difference_check(
            params, vs, protos, targets, h=1e-5, rtol=1e-4))
        draws += 1
    # one draw at the stock architecture, sampled coordinates
    m = 8
    stream = Stream(derive_seed(4242, 999))
    params = init_relation(m, seed=77)
    vs = np.vstack([make_unit(stream, m) for _ in range(2)])
    protos = np.vstack([make_unit(stream, m) for _ in range(2)])
    targets = np.array([0, 1])
    total = params.n_params()
    coords = sorted(int(w % total) for w in stream.words(200))
    worst = max(worst, central_difference_check(
        params, vs, protos, targets, h=1e-5, rtol=1e-4, coords=coords))
    _announce("A2", f"({draws} exhaustive draws + stock-architecture sample, "
                    f"worst guarded rel err {worst:.2e})")


# ---------------------------------------------------------------- A3


def test_a3_cache_invariants_over_randomized_streams():
    checks = 0
    for s in range(1000):
        stream = Stream(derive_seed(31337, s))
        w = stream.words(3)
        capacity = 1 + int(w[0] % 10)
        n_classes = 2 + int(w[1] % 7)
        n_ops = 10 + int(w[2] % 31)
        cache = DualCache(capacity=capacity, shots=3)
        ids = np.arange(n_classes)
        max_at_cap = {}
        for _ in range(n_ops):
            logits = 3.0 * stream.normal(n_classes)
            cls, h = pseudo_label(logits, ids)
            _, pre = base_rows(cache, cls)
            pre_max = max(pre, default=None)
            out = cache.try_insert_base(make_unit(stream, 6), logits, ids)
            _, post = base_rows(cache, cls)
            assert len(post) <= capacity                      # capacity safety
            if out.kind == "replaced":
                assert len(pre) == capacity
                assert out.evicted == pre_max                 # evicts the max
                assert h < pre_max                            # strict gate
            elif out.kind == "rejected":
                assert len(pre) == capacity and h >= pre_max
            else:
                assert len(pre) < capacity
            if len(post) == capacity:
                cur_max = max(post)
                if cls in max_at_cap:
                    assert cur_max <= max_at_cap[cls]         # monotone at cap
                max_at_cap[cls] = cur_max
            checks += 1
    _announce("A3", f"(1000 streams, {checks} insertions, zero violations)")


# ---------------------------------------------------------------- A4


@pytest.fixture(scope="module")
def calibration_runs(calibration):
    baseline_cfg = ExperimentConfig.from_dict(
        {**calibration.exp.to_dict(), "alpha": 0.0})
    full, baseline = run_experiments([calibration.exp, baseline_cfg], calibration.data,
                                     calibration.protos, calibration.alignment)
    return full, baseline


def test_a4_end_to_end_calibration_run(calibration_runs):
    full, baseline = calibration_runs
    final = full.aggregate[-1]
    assert final.accuracy_mean >= 95.0, f"final joint accuracy {final.accuracy_mean}"
    assert full.mean_harmonic >= 90.0, f"mean harmonic {full.mean_harmonic}"
    for agg in baseline.aggregate[1:]:
        assert agg.novel_mean <= 10.0, \
            f"no-cache novel accuracy {agg.novel_mean} at session {agg.session}"
    for agg in full.aggregate[1:]:
        assert agg.novel_mean >= 80.0, \
            f"cached novel accuracy {agg.novel_mean} at session {agg.session}"
    _announce("A4", f"(final acc {final.accuracy_mean:.2f}, "
                    f"mean harmonic {full.mean_harmonic:.2f}, "
                    f"no-cache A_n {[round(a.novel_mean, 1) for a in baseline.aggregate[1:]]}, "
                    f"cached A_n {[round(a.novel_mean, 1) for a in full.aggregate[1:]]})")


# ---------------------------------------------------------------- A5


def _sweep(calibration, axis, values):
    cfgs = []
    for v in values:
        d = calibration.exp.to_dict()
        if axis == "alpha":
            d["alpha"] = v
        else:
            d["capacity"] = int(v)
            d["novel_capacity"] = min(int(v), calibration.exp.shots)
        cfgs.append(ExperimentConfig.from_dict(d))
    reports = run_experiments(cfgs, calibration.data, calibration.protos,
                              calibration.alignment)
    return [rep.mean_harmonic for rep in reports]


def test_a5a_alpha_sweep_ordering(calibration):
    values = [0.0, 0.5, 1.0, 2.0, 3.0]
    hms = _sweep(calibration, "alpha", values)
    by_alpha = dict(zip(values, hms))
    assert min(hms) == by_alpha[0.0], f"minimum not at alpha=0: {by_alpha}"
    assert by_alpha[2.0] > by_alpha[0.0], f"alpha=2 not above alpha=0: {by_alpha}"
    # Known-unattainable on this preset: with near-separable synthetic data a
    # 0.5-weighted cache boost already exceeds the largest possible sigmoid
    # score gap, so mean harmonic accuracy plateaus for every alpha >= 0.5.
    # Kept as specified rather than weakened; see the analysis in the
    # project's decision notes.
    assert by_alpha[2.0] > by_alpha[0.5], \
        f"alpha=2 vs alpha=0.5 saturates on the calibration preset: {by_alpha}"
    _announce("A5a", f"(mean harmonic by alpha: {by_alpha})")


def test_a5b_capacity_sweep_shape(calibration):
    values = list(range(1, 11))
    hms = _sweep(calibration, "capacity", values)
    for lo, hi in zip(hms[:4], hms[1:5]):
        assert hi >= lo, f"capacity sweep decreases inside 1..5: {hms[:5]}"
    _announce("A5b", f"(mean harmonic by cache size 1..10: "
                     f"{[round(h, 2) for h in hms]})")


# ---------------------------------------------------------------- A6


SYNTH_A6 = {
    "dim": 32, "base_classes": 6, "novel_tasks": 2, "classes_per_novel_task": 2,
    "train_per_base_class": 25, "test_per_class": 5, "shots": 5,
    "intra_class_sigma": 0.05, "modality_gap_sigma": 0.15, "seed": 29,
}
RUN_A6 = {"trials": 3, "seed": 17,
          "align": {"epochs": 2, "batch_size": 25, "lr": 0.001, "seed": 6}}


def test_a6_cli_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps(SYNTH_A6))
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(RUN_A6))
    tasks = tmp_path / "tasks"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(tasks)]) == 0
    aln = tmp_path / "scorer.aln"
    assert main(["train-align", "--base", str(tasks / "task_000.emb"),
                 "--protos", str(tasks / "prototypes.emb"),
                 "--config", str(run_cfg), "--out", str(aln)]) == 0
    r1, r2, r3 = (tmp_path / n for n in ("r1.json", "r2.json", "r3.json"))
    for out in (r1, r2):
        assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                     "--config", str(run_cfg), "--out", str(out)]) == 0
    assert r1.read_bytes() == r2.read_bytes(), "same config must be byte-identical"
    assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                 "--config", str(run_cfg), "--seed", "18", "--out", str(r3)]) == 0
    assert r1.read_bytes() != r3.read_bytes(), "distinct seeds must differ"
    _announce("A6", "(byte-identical reports; distinct seeds differ)")


# ---------------------------------------------------------------- A7


def test_a7_equation_level_unit_oracles():
    # affinity: closed forms at 1e-9
    assert affinity(1.0, 5.0) == pytest.approx(1.0, abs=1e-9)
    assert affinity(0.7, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert affinity(0.0, 2.0) == pytest.approx(0.13533528323661269, abs=1e-9)

    # cache_scores: empty, exact-match one-hot, two-entry brute-force sum
    empty = DualCache()
    v = np.zeros(4)
    v[0] = 1.0
    np.testing.assert_array_equal(cache_scores(empty, v, 2.0, np.arange(3)), np.zeros(3))
    one = DualCache(shots=1)
    one.insert_novel(v, 1)
    np.testing.assert_allclose(cache_scores(one, v, 2.0, np.arange(2)), [0.0, 1.0], atol=1e-9)
    two = DualCache(shots=1)
    two.insert_novel(v, 1)
    orth = np.zeros(4)
    orth[1] = 1.0
    two.insert_novel(orth, 0)
    np.testing.assert_allclose(cache_scores(two, v, 2.0, np.arange(2)),
                               [np.exp(-2.0), 1.0], atol=1e-9)

    # fuse
    a = _sigmoid(np.log([0.2 / 0.8, 0.8 / 0.2]))
    np.testing.assert_allclose(fuse(a, np.array([1.0, 0.0]), 2.0), [2.2, 0.8],
                               atol=1e-9)
    np.testing.assert_allclose(fuse(a, np.zeros(2), 3.3), a, atol=1e-9)
    np.testing.assert_allclose(fuse(a, np.array([0.4, 0.1]), 0.0), a,
                               atol=1e-9)

    # pseudo_label: oracle-derived entropy at 1e-6, tie rule, singleton
    cls, h = pseudo_label(np.array([5.0, 0.0, 0.0]), np.arange(3))
    assert cls == 0 and h == pytest.approx(0.079869446510108941, abs=1e-6)
    cls, h = pseudo_label(np.array([2.0, 2.0, 2.0, 2.0]), np.arange(4))
    assert cls == 0 and h == pytest.approx(np.log(4.0), abs=1e-9)
    cls, h = pseudo_label(np.array([3.0]), np.arange(1))
    assert cls == 0 and h == 0.0

    # entropy
    assert entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-9)
    assert entropy([0.25] * 4) == pytest.approx(1.3862943611198906, abs=1e-9)
    assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.039720770839918, abs=1e-6)
    assert entropy(softmax([1.0, 2.0, 3.0])) == pytest.approx(
        -sum(p * np.log(p) for p in
             (0.090030573170380458, 0.24472847105479765, 0.66524095577482189)),
        abs=1e-9)

    # harmonic
    assert harmonic(50.0, 50.0) == pytest.approx(50.0, abs=1e-9)
    assert harmonic(93.0, 0.0) == 0.0
    assert harmonic(80.0, 60.0) == pytest.approx(68.571428571428571, abs=1e-9)
    _announce("A7", "(affinity, cache_scores, fuse, pseudo_label, entropy, harmonic)")
