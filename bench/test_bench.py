"""Tests of the benchmark's own machinery: span arithmetic, the wrappers and
the correctness gate. Run from the repository root with

    python3 -m pytest bench
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import traced_tfa  # noqa: E402


def _span(sid, parent, start, end, name="x.f"):
    return {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}


def test_self_time_of_a_hand_built_span_tree():
    recs = [
        _span(0, None, 0, 100, "x.root"),
        _span(1, 0, 10, 40),           # overlaps its sibling 2 over 30..40
        _span(2, 0, 30, 60),
        _span(3, 1, 15, 25),           # grandchild: counts against 1, not 0
        _span(4, 0, 90, 120),          # runs past its parent; clipped at 100
    ]
    # 0 is covered by [10, 60] and [90, 100]: 60 of its 100 ns.
    assert spans.self_times_ns(recs) == {0: 40, 1: 20, 2: 30, 3: 10, 4: 30}
    summary = spans.summarize(recs)
    assert summary["x.root"]["self_ms"] == 40 / 1e6
    assert summary["x.f"]["calls"] == 4
    assert summary["x.f"]["ms"] == (30 + 30 + 10 + 30) / 1e6
    assert summary["x.f"]["self_ms"] == (20 + 30 + 10 + 30) / 1e6


def test_tracer_records_parents_and_attrs():
    tracer = spans.Tracer("op")
    inner = tracer.wrap("m.inner", lambda x: x + 1, lambda a, k, r: {"n": r})
    outer = tracer.wrap("m.outer", lambda x: inner(inner(x)))
    assert outer(0) == 2
    (o_id, o_parent, o_name, *_), *children = tracer.spans
    assert (o_parent, o_name) == (None, "m.outer")
    assert [(c[1], c[2], c[5]) for c in children] == [(o_id, "m.inner", {"n": 1}),
                                                     (o_id, "m.inner", {"n": 2})]


def _bindings() -> dict:
    import tfa.cli  # noqa: F401
    from tfa.adaptor import DualCache
    from tfa.rng import Stream

    out = {(name, attr): value
           for name, mod in list(sys.modules.items()) if name == "tfa" or name.startswith("tfa.")
           for attr, value in vars(mod).items() if callable(value)}
    for cls in (DualCache, Stream):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def test_wrappers_restore_the_originals():
    import tfa.protocol
    from tfa.adaptor import DualCache

    before = _bindings()
    try:
        with traced_tfa.traced(spans.Tracer("op")):
            assert tfa.protocol.score_matrix is not before[("tfa.protocol", "score_matrix")]
            assert DualCache.try_insert_base is not before[("DualCache", "try_insert_base")]
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrapped_score_matrix_runs_once_per_run_experiment():
    import tfa.protocol
    from tfa.alignment import init_relation
    from tfa.synth import SynthConfig, generate_synthetic

    data, protos = generate_synthetic(SynthConfig(
        dim=8, base_classes=3, novel_tasks=2, classes_per_novel_task=2,
        train_per_base_class=2, test_per_class=3, shots=2, seed=3))
    scorer = init_relation(8, seed=1, hidden=(6, 4)).freeze()
    cfg = tfa.protocol.ExperimentConfig(shots=2, trials=3, seed=5)
    tracer = spans.Tracer("op")
    with traced_tfa.traced(tracer):
        for _ in range(2):
            tfa.protocol.run_experiment(cfg, data, protos, alignment=scorer)
    name_of = {s[0]: s[2] for s in tracer.spans}
    calls = [s for s in tracer.spans if s[2] == "alignment.score_matrix"]
    assert sum(1 for s in tracer.spans if s[2] == "protocol.run_experiment") == 2
    assert len(calls) == 2
    assert all(name_of[s[1]] == "protocol.run_experiment" for s in calls)
    assert sum(1 for s in tracer.spans if s[2] == "protocol.run_session") == 2 * 3 * 3


def _report(final=100.0, hm=100.0) -> bytes:
    doc = {"aggregate": {"delta": 0.0, "mean_harmonic": hm,
                         "sessions": [{"accuracy_mean": 100.0}, {"accuracy_mean": final}]},
           "config": {"experiment": {"alpha": 2.0}}}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def test_gate_rejects_a_report_with_one_byte_flipped(tmp_path):
    out = tmp_path / "report.json"
    gate = run.Gate("stream", seed=12345)
    good = _report()
    out.write_bytes(good)
    assert gate.check([out]) == []
    at = good.index(b'"delta": 0.0') + len(b'"delta": 0.')
    flipped = good[:at] + b"1" + good[at + 1:]
    assert len(flipped) == len(good) and sum(a != b for a, b in zip(good, flipped)) == 1
    out.write_bytes(flipped)
    (problem,) = gate.check([out])
    assert "$.aggregate.delta: 0.0 != 0.1" in problem


def test_gate_checks_the_reference_digest_and_the_floors(tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(_report(final=94.9, hm=89.0))
    ref = json.loads((run.REFERENCE_DIR / "seed0.json").read_text())
    problems = run.Gate("stream", seed=ref["seed"]).check([out])
    assert problems[0].startswith(f"sha256 {hashlib.sha256(out.read_bytes()).hexdigest()} "
                                  f"!= reference {ref['stream_sha256']}; against "
                                  f"seed0-stream.json: $.")
    assert problems[1:] == ["final accuracy 94.9 < 95.0", "mean harmonic 89.0 < 90.0"]


def test_reference_reports_match_their_digests():
    ref = json.loads((run.REFERENCE_DIR / "seed0.json").read_text())
    for workload in ("stream", "sweep"):
        blob = (run.REFERENCE_DIR / f"seed{ref['seed']}-{workload}.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == ref[f"{workload}_sha256"]


def test_loss_history_tolerance():
    ref = [0.5]
    assert run.check_loss_history({"loss_history": [0.5 * (1 + 0.5e-6)]}, ref) == []
    assert run.check_loss_history({"loss_history": [0.5 * (1 + 2e-6)]}, ref)
    assert run.check_loss_history({"loss_history": [float("nan")]}, None)


def test_speed_factor_scales_to_the_reference_speed():
    ref = run.CALIBRATION_REF_S
    assert run.speed_factor([ref, 5 * ref, ref / 5]) == 1.0
    # A machine twice as slow as the reference halves its wall times.
    assert run.speed_factor([2 * ref] * 3) == 0.5


def test_calibration_does_not_import_the_program():
    assert "tfa" not in run.CALIBRATION
