"""The benchmark's tracer wraps a fixed list of ``tfa`` names from outside.

Entering its ``traced`` context resolves every one of them, so deleting or
renaming a name the benchmark reads fails here, not only under
``pytest bench``. The counts it attaches read some arguments by position,
so a traced training run checks those too.
"""

import json
from pathlib import Path

import tfa.adaptor
import tfa.cli
import tfa.protocol

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import traced_tfa

    originals = (tfa.adaptor.pseudo_label, tfa.protocol.run_experiment,
                 tfa.adaptor.DualCache.__dict__["try_insert_base"])
    with traced_tfa.traced(spans.Tracer("t")):
        assert tfa.adaptor.pseudo_label is not originals[0]
    assert (tfa.adaptor.pseudo_label, tfa.protocol.run_experiment,
            tfa.adaptor.DualCache.__dict__["try_insert_base"]) == originals


def test_traced_training_counts_each_steps_pairs_and_flop(monkeypatch, tmp_path):
    # The tracer counts a training step's pairs as len(vs) * len(protos),
    # its second and third positional arguments. 12 base samples of 3
    # classes in batches of 5 make steps of 5, 5 and 2 samples per epoch.
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import traced_tfa

    synth = {"dim": 8, "base_classes": 3, "novel_tasks": 1, "classes_per_novel_task": 2,
             "train_per_base_class": 4, "test_per_class": 2, "shots": 2, "seed": 3}
    (tmp_path / "synth.json").write_text(json.dumps(synth))
    (tmp_path / "run.json").write_text(json.dumps(
        {"align": {"epochs": 2, "batch_size": 5, "seed": 2, "hidden": [4, 3]}}))
    assert tfa.cli.main(["synth", "--config", str(tmp_path / "synth.json"),
                         "--out", str(tmp_path)]) == 0
    tracer = spans.Tracer("t")
    with traced_tfa.traced(tracer):
        assert tfa.cli.main(["train-align", "--base", str(tmp_path / "task_000.emb"),
                             "--protos", str(tmp_path / "prototypes.emb"),
                             "--config", str(tmp_path / "run.json"),
                             "--out", str(tmp_path / "scorer.aln")]) == 0
    steps = [attrs for _, _, name, _, _, attrs in tracer.spans
             if name == "alignment.loss_and_grad"]
    assert [a["pairs"] for a in steps] == [5 * 3, 5 * 3, 2 * 3] * 2
    assert all(a["flop"] > 0 for a in steps)
