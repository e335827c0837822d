import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tfa.alignment
import tfa.cli
import tfa.errors
import tfa.protocol
from tfa.alignment import RelationParams, load_alignment, save_alignment
from tfa.cli import main
from tfa.embeddings import (
    ClassPrototype,
    load_embeddings,
    load_prototypes,
    prototype_matrix,
    save_embeddings,
    save_prototypes,
)
from tfa.protocol import ExperimentConfig

from helpers import f64_score_matrix


SYNTH_CFG = {
    "dim": 32, "base_classes": 5, "novel_tasks": 2, "classes_per_novel_task": 2,
    "train_per_base_class": 25, "test_per_class": 6, "shots": 5,
    "intra_class_sigma": 0.05, "modality_gap_sigma": 0.15, "seed": 21,
}

RUN_CFG = {
    "trials": 2, "seed": 9,
    "align": {"epochs": 3, "batch_size": 25, "lr": 0.001, "seed": 4, "hidden": [48, 24]},
}


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth + train-align once; reused by the run/ablate/report tests."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = write_json(root / "synth.json", SYNTH_CFG)
    run_cfg = write_json(root / "run.json", RUN_CFG)
    tasks = root / "tasks"
    assert main(["synth", "--config", synth_cfg, "--out", str(tasks)]) == 0
    aln = root / "scorer.aln"
    assert main(["train-align", "--base", str(tasks / "task_000.emb"),
                 "--protos", str(tasks / "prototypes.emb"),
                 "--config", run_cfg, "--out", str(aln)]) == 0
    return root, tasks, aln, run_cfg


def test_synth_writes_declared_files(workspace):
    root, tasks, _, _ = workspace
    names = sorted(p.name for p in tasks.glob("*.emb"))
    assert names == ["prototypes.emb", "task_000.emb", "task_001.emb", "task_002.emb"]
    side = json.loads((tasks / "task_000.emb.meta.json").read_text())
    assert side["count"] == 5 * 25 + 5 * 6


def test_synth_is_deterministic(tmp_path):
    cfg = write_json(tmp_path / "s.json", SYNTH_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", cfg, "--out", str(a)]) == 0
    assert main(["synth", "--config", cfg, "--out", str(b)]) == 0
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes()


SYNTH_DIM7 = {"dim": 7, "base_classes": 4, "novel_tasks": 2, "classes_per_novel_task": 3,
              "train_per_base_class": 9, "test_per_class": 5, "shots": 2, "seed": 11}
# The benchmark's synthetic world (bench/run.py SYNTH) at seed 0.
SYNTH_BENCH = {"dim": 64, "base_classes": 20, "novel_tasks": 3, "classes_per_novel_task": 5,
               "train_per_base_class": 10, "test_per_class": 20, "shots": 5,
               "intra_class_sigma": 0.05, "modality_gap_sigma": 0.15, "seed": 0}


@pytest.mark.parametrize("cfg,shas", [
    (SYNTH_DIM7, {
        "prototypes.emb": "e36166e0dde7e226ff2064dfd24b32ebce1b9c346cfacc942d2abd3b00e685fa",
        "prototypes.emb.meta.json": "128086dda120c979f701dcafd2d4e6c50741400c2863ba7808e9809bcc45bb4c",
        "task_000.emb": "0c87fdd094a7e3010e5e890671cdcd91203ed756bd592f9648c2b0cc7216a035",
        "task_000.emb.meta.json": "6269700bd6bc802bfd73dc5ea16ac755391cb1ea83376a0af57d4b9ee94d3a56",
        "task_001.emb": "e55903bab19ebc475b9d599b2623c557834b7a3604c3c0496081cb51efae9b6a",
        "task_001.emb.meta.json": "30a6cbafbd353d95a55f1d41f13215876d2feed5b27bbe079e19f80d29283203",
        "task_002.emb": "72029848e91a7f0ead9cf2fe69fbb851a1e04cd0ef1c273112eea9380372e188",
        "task_002.emb.meta.json": "85baccaee9d8e24ba931a7b86bb3420c925d407a35bdce6b511230ad47e30f34",
    }),
    (SYNTH_BENCH, {
        "prototypes.emb": "d34ccb64d9574ee85411ada47527866b2ba72652937950df6e07bdc7596e0486",
        "prototypes.emb.meta.json": "49ef4d71a83f3b53cdc1623ddb929d7c6847ea26bf2967673c4fd21348b4c5cf",
        "task_000.emb": "c3d7396eb86fcba0dedf4fb61e517faa8efa585cb586d0e844aedcfc35741b1a",
        "task_000.emb.meta.json": "d42b09f0a2f0e3a52e0fdd4e106ab2b07c665e7117b7306deb5e22816ae201fa",
        "task_001.emb": "7c4de74dee63b204eab5944bf7e323446f30065a023856fd560588b6499d7517",
        "task_001.emb.meta.json": "e2b702a6214500920814cec6595b0c0656d6887cdaa6128ef2aae05239f79a7d",
        "task_002.emb": "5216f142bb4fd3e44e74a3102d6285dfcfc00b181c15085499270e50aa68c5f2",
        "task_002.emb.meta.json": "ee6b218853ad08b00baa0403acadf2b53ae2ab1f3608b3a7f16a54c5031edabb",
        "task_003.emb": "e589957cd2dd6e36cbbfbb191266c011e1bef8593becf86499bb2bdab2047e55",
        "task_003.emb.meta.json": "5a0c76adb17e3b9031cc1e9fc10b109e45749f7e2d97068c3da9d803a8141571",
    }),
], ids=["dim7", "bench-shape"])
def test_synth_writes_the_recorded_bytes(tmp_path, cfg, shas):
    # SHA-256 of every file recorded when synth still built one record per row.
    out = tmp_path / "out"
    assert main(["synth", "--config", write_json(tmp_path / "s.json", cfg), "--out", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} == shas


def test_synth_rejects_negative_sigma(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {**SYNTH_CFG, "intra_class_sigma": -1.0})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "intra_class_sigma" in capsys.readouterr().err


def test_unknown_flag_is_rejected(capsys):
    assert main(["synth", "--out", "x", "--frobnicate"]) == 2


def test_train_align_rejects_non_base_file(workspace, tmp_path):
    root, tasks, _, run_cfg = workspace
    code = main(["train-align", "--base", str(tasks / "task_001.emb"),
                 "--protos", str(tasks / "prototypes.emb"),
                 "--config", run_cfg, "--out", str(tmp_path / "x.aln")])
    assert code == 4


def test_train_align_defaults_recorded(workspace, tmp_path):
    root, tasks, _, _ = workspace
    out = tmp_path / "d.aln"
    # no config file: stock defaults (epochs=10, batch=25, lr=0.001) apply;
    # keep the run cheap by overriding epochs only
    code = main(["train-align", "--base", str(tasks / "task_000.emb"),
                 "--protos", str(tasks / "prototypes.emb"),
                 "--out", str(out), "--epochs", "1"])
    assert code == 0
    meta = json.loads((tmp_path / "d.aln.meta.json").read_text())
    assert meta["train_config"]["batch_size"] == 25
    assert meta["train_config"]["lr"] == 0.001
    assert meta["train_config"]["epochs"] == 1
    assert meta["train_config"]["hidden"] == [2048, 1024]


def test_train_align_deterministic_checkpoint(workspace, tmp_path):
    root, tasks, _, run_cfg = workspace
    outs = []
    for name in ("r1.aln", "r2.aln"):
        out = tmp_path / name
        assert main(["train-align", "--base", str(tasks / "task_000.emb"),
                     "--protos", str(tasks / "prototypes.emb"),
                     "--config", run_cfg, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def bench_world(tmp_path_factory):
    """The benchmark's seed-0 synthetic world."""
    root = tmp_path_factory.mktemp("bench")
    assert main(["synth", "--config", write_json(root / "synth.json", SYNTH_BENCH),
                 "--out", str(root / "tasks")]) == 0
    return root


SMALL_ALIGN = {"epochs": 2, "batch_size": 30, "seed": 0, "hidden": [36, 20]}
# train-align configs on the bench world: the benchmark's inference scorer
# (1024/512, 24 steps) and its train op (2048/1024, 8 steps); the train op's
# widths in batches of 30, six of 600 pairs and a last one of 20 samples;
# then a 36/20 scorer whose 200 samples end in a partial batch of 20, at
# three slopes.
BENCH_ALIGN = {
    "scorer": {"seed": 0, "align": {"epochs": 3, "batch_size": 25, "lr": 0.001,
                                    "hidden": [1024, 512], "seed": 0}},
    "train": {"align": {"epochs": 1, "batch_size": 25, "lr": 0.001, "seed": 0}},
    "train-partial": {"align": {"epochs": 1, "batch_size": 30, "lr": 0.001, "seed": 0}},
    "partial": {"align": SMALL_ALIGN},
    "slope0": {"align": {**SMALL_ALIGN, "slope": 0.0}},
    "slope2.5": {"align": {**SMALL_ALIGN, "slope": 2.5}},
}


def _child(args, threads):
    """Run ``python args`` in a child process with ``threads`` BLAS threads
    and this checkout's ``src`` first on the path; return its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True,
                          text=True, timeout=300).stdout


def _train_align(world, name, threads):
    """Run ``tfa train-align`` with config ``name`` in a child process with
    ``threads`` BLAS threads; return the SHA-256s of the ALN1 and sidecar."""
    out = world / f"{name}-{threads}.aln"
    _child(["-m", "tfa", "train-align",
            "--base", str(world / "tasks" / "task_000.emb"),
            "--protos", str(world / "tasks" / "prototypes.emb"),
            "--config", write_json(world / f"{name}.json", BENCH_ALIGN[name]),
            "--out", str(out)], threads)
    return tuple(hashlib.sha256(f.read_bytes()).hexdigest()
                 for f in (out, Path(f"{out}.meta.json")))


# SHA-256s of the ALN1 and its sidecar, recorded at 1 BLAS thread when
# training first held the scorer's parameters in float32.
# Training runs its three hidden-layer GEMMs in float32 and sums dW2 in
# fixed 256-row pieces, so they are the same at 1 and 2 BLAS threads.
ALIGN_SHAS = {
    "scorer": ("30ae7a74dda746983d80143c21bdea3394aa7049e2c31fe541adc57151d5d5e3",
               "291a69ff32b489dfe44b813c1380e44ec8b553a024d90c8cc6aecd92c9bc2f79"),
    "train": ("4d26108d057a9c809d2b4237e2d74be80fbae06e2635d10927d46f06a7f42834",
              "ce988decb81c9eb99f18c2ca4bb89d0efc9595c87b8f781b4a580072d1c7e764"),
    "train-partial": ("da8e32a5bd35df9e50bba1150f5cc7a25b1b1a3b23801cdfa3b2318c2ea656a4",
                      "1f00a44cc510c149e62acd11f69b711d18a3b23e3cba34d81761ba151346c3d3"),
    "partial": ("c61b7658996101a92c977a54f63d76053ec38e994e89d4bc654ef4bef6751477",
                "ea6ca6594f5755d74102847fda08f51a1cd341842a3aa1d38545ca7a4cabb75b"),
    "slope0": ("8d0edcdb96ecbb88b2f75e61b8daab0f840a96bc5bc3791ab4068221214d5ea2",
               "cda11e769c91ebe73a007f91b2d6db897e3e78aba104f811ef81d2863a7211f1"),
    "slope2.5": ("dca7b4019cf86f4d4780fcf129e742551e0491bbec0c4da0d2af2e21208513c7",
                 "fd37d190d93b7ab1196724e2acb52b7573b6d7f90e3600dd3e9a99a5a2d55478"),
}


@pytest.mark.parametrize("name", sorted(ALIGN_SHAS))
def test_train_align_writes_the_recorded_bytes(bench_world, name):
    assert _train_align(bench_world, name, "1") == ALIGN_SHAS[name]


@pytest.mark.parametrize("name", sorted(ALIGN_SHAS))
def test_train_align_bytes_do_not_depend_on_blas_threads(bench_world, name):
    # The ALN1 and its sidecar, loss history included. Training sums dW2 =
    # h1ᵀ δ2, a reduction over every pair row of the batch, in fixed pieces,
    # so the trained parameters themselves do not depend on the threads
    # either (TRAINED_PARAM_SHAS).
    assert _train_align(bench_world, name, "2") == ALIGN_SHAS[name]


_TRAINED_PARAM_SHA = """
import hashlib, json, sys
from pathlib import Path
from tfa.alignment import TrainConfig
from tfa.embeddings import load_embeddings, load_prototypes
from tfa.protocol import train_base_alignment
tasks, align = Path(sys.argv[1]), json.loads(sys.argv[2])
params, _ = train_base_alignment(TrainConfig.from_dict(align),
                                 load_embeddings(tasks / "task_000.emb"),
                                 load_prototypes(tasks / "prototypes.emb"))
print(hashlib.sha256(b"".join(a.tobytes() for a in (*params.weights, *params.biases)))
      .hexdigest())
"""

# SHA-256 of the trained float32 weights then biases, in layer order, as
# the in-process training returns them, recorded with ALIGN_SHAS; 1 and 2
# BLAS threads give the same bytes.
TRAINED_PARAM_SHAS = {
    "scorer": "0ff64b9f97ebf091c8c2c955a41db84a374f55dd9ae4278974e24000b9c3dfb8",
    "train": "00bdf5ce209f78450f339bef2166407aa14519eb4e9acf7fe75abc336488792f",
    "train-partial": "ad25f91661bbd2b98d0b44d5af8701be5a3a606bed27a7fb4e0b96852cb456cc",
    "partial": "41dec5c540889788c5310ca529bac7fe07a5d43e7038f6b3195a01706b706e5f",
    "slope0": "2bc5ab9225e88b5d1ff8d2f1b0f5cb91091e27afc5cf47e5fc870b6a7d131468",
    "slope2.5": "27d08543105cce04f728b11b91ee36fe8fd5185f1511f7f9e2ebe2e380c60cda",
}


@pytest.mark.parametrize("name", sorted(TRAINED_PARAM_SHAS))
def test_trained_parameters_are_the_recorded_bytes(bench_world, name):
    for threads in ("1", "2"):
        out = _child(["-c", _TRAINED_PARAM_SHA, str(bench_world / "tasks"),
                      json.dumps(BENCH_ALIGN[name]["align"])], threads)
        assert out.strip() == TRAINED_PARAM_SHAS[name], f"{threads} BLAS threads"


def test_a_whole_run_writes_the_same_bytes_at_one_and_two_blas_threads(bench_world, tmp_path):
    # train-align then run, each in a child process with 1 and then 2 BLAS
    # threads: the ALN1, its sidecar and the report are the same bytes.
    tasks, cfg = bench_world / "tasks", write_json(tmp_path / "scorer.json", BENCH_ALIGN["scorer"])
    outputs = []
    for threads in ("1", "2"):
        aln, report = tmp_path / threads / "scorer.aln", tmp_path / threads / "report.json"
        aln.parent.mkdir()
        _child(["-m", "tfa", "train-align", "--base", str(tasks / "task_000.emb"), "--protos",
                str(tasks / "prototypes.emb"), "--config", cfg, "--out", str(aln)], threads)
        _child(["-m", "tfa", "run", "--tasks", str(tasks), "--align", str(aln), "--config", cfg,
                "--base-update-policy", "always", "--capacity", "10", "--trials", "2",
                "--out", str(report)], threads)
        outputs.append([f.read_bytes() for f in (aln, Path(f"{aln}.meta.json"), report)])
    assert hashlib.sha256(outputs[0][0]).hexdigest() == ALIGN_SHAS["scorer"][0]
    assert outputs[1] == outputs[0]


def _run_with_table(monkeypatch, argv, table):
    """Run ``argv`` in-process with ``table`` as the score table builder;
    return the report bytes, the tables built and every per-sample
    prediction array ``stream_predictions`` returned, in call order."""
    tables, preds = [], []
    stream = tfa.protocol.stream_predictions

    def built(*args):
        tables.append(table(*args))
        return tables[-1]

    def recorded(*args):
        out = stream(*args)
        preds.extend(out)
        return out

    monkeypatch.setattr(tfa.protocol, "score_matrix", built)
    monkeypatch.setattr(tfa.protocol, "stream_predictions", recorded)
    assert main(argv) == 0
    monkeypatch.undo()
    return Path(argv[argv.index("--out") + 1]).read_bytes(), tables, preds


@pytest.mark.parametrize("workload", ["sweep", "stream"])
def test_float32_table_gives_the_float64_oracle_predictions(bench_world, tmp_path,
                                                            monkeypatch, workload):
    # The benchmark's seed-0 world, scorer and op command lines, with
    # 2 stream trials instead of 6. The float32 hidden path moves logits by
    # about 1e-7; every per-sample prediction and every report byte must
    # still equal those from the float64 table.
    tasks = bench_world / "tasks"
    scorer = tmp_path / "scorer.aln"
    cfg = write_json(tmp_path / "scorer.json", BENCH_ALIGN["scorer"])
    assert main(["train-align", "--base", str(tasks / "task_000.emb"), "--protos",
                 str(tasks / "prototypes.emb"), "--config", cfg, "--out", str(scorer)]) == 0
    argv = ["--tasks", str(tasks), "--align", str(scorer), "--config", cfg]
    if workload == "sweep":
        argv = ["ablate", *argv, "--sweep", "alpha", "--values", "0,0.5,1,2,3", "--trials", "1"]
    else:
        argv = ["run", *argv, "--base-update-policy", "always", "--capacity", "10",
                "--trials", "2"]
    report, tables, preds = _run_with_table(
        monkeypatch, argv + ["--out", str(tmp_path / "f32.json")], tfa.alignment.score_matrix)
    want, want_tables, want_preds = _run_with_table(
        monkeypatch, argv + ["--out", str(tmp_path / "f64.json")], f64_score_matrix)
    assert len(tables) == len(want_tables) == 1
    assert 0.0 < np.abs(tables[0] - want_tables[0]).max() < 1e-6
    assert len(preds) == len(want_preds) > 0
    for got, exp in zip(preds, want_preds):
        assert got.tobytes() == exp.tobytes()
    assert report == want


def test_run_writes_byte_identical_reports(workspace, tmp_path):
    root, tasks, aln, run_cfg = workspace
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                     "--config", run_cfg, "--out", str(out)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["schema"] == "tfa-report-v1"
    assert len(doc["trials"]) == 2


def test_run_seed_changes_the_report(workspace, tmp_path):
    root, tasks, aln, run_cfg = workspace
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                 "--config", run_cfg, "--seed", "1", "--out", str(r1)]) == 0
    assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                 "--config", run_cfg, "--seed", "2", "--out", str(r2)]) == 0
    assert r1.read_bytes() != r2.read_bytes()


def test_run_missing_alignment_is_io_error(workspace, tmp_path):
    root, tasks, _, run_cfg = workspace
    code = main(["run", "--tasks", str(tasks), "--align", str(tmp_path / "ghost.aln"),
                 "--config", run_cfg, "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_run_alpha_zero_sets_baseline_flag(workspace, tmp_path, capsys):
    root, tasks, aln, run_cfg = workspace
    out = tmp_path / "r.json"
    assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                 "--config", run_cfg, "--alpha", "0", "--trials", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["flags"]["no_cache_baseline"] is True
    assert "no-cache baseline" in capsys.readouterr().out


def test_env_seed_fallback_and_flag_priority(workspace, tmp_path, monkeypatch):
    root, tasks, aln, _ = workspace
    cfg = write_json(tmp_path / "noseed.json", {k: v for k, v in RUN_CFG.items()
                                                if k != "seed"})
    monkeypatch.setenv("TFA_SEED", "77")
    out = tmp_path / "env.json"
    assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                 "--config", cfg, "--trials", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["experiment"]["seed"] == 77
    assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                 "--config", cfg, "--trials", "1", "--seed", "5",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["experiment"]["seed"] == 5


def test_ablate_alpha_prints_one_column_per_value(workspace, tmp_path, capsys):
    root, tasks, aln, run_cfg = workspace
    assert main(["ablate", "--tasks", str(tasks), "--align", str(aln),
                 "--config", run_cfg, "--trials", "1",
                 "--sweep", "alpha", "--values", "0,0.5,1,2,3"]) == 0
    table = capsys.readouterr().out.strip().split("\n")
    header = [c.strip() for c in table[0].strip("|").split("|")]
    assert header[1:] == ["0", "0.5", "1", "2", "3"]
    values = [c.strip() for c in table[2].strip("|").split("|")]
    assert len(values) == 6
    float(values[1])  # numeric


def test_ablate_cache_size_combined_report(workspace, tmp_path):
    root, tasks, aln, run_cfg = workspace
    out = tmp_path / "sweep.json"
    assert main(["ablate", "--tasks", str(tasks), "--align", str(aln),
                 "--config", run_cfg, "--trials", "1",
                 "--sweep", "cache-size", "--values", "1,3,5",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["sweep"] == "cache-size"
    assert doc["values"] == [1, 3, 5]
    assert len(doc["reports"]) == 3


def test_ablate_empty_values_is_config_error(workspace):
    root, tasks, aln, run_cfg = workspace
    assert main(["ablate", "--tasks", str(tasks), "--align", str(aln),
                 "--config", run_cfg, "--sweep", "alpha", "--values", " , "]) == 2


def test_ablate_sweeps_keep_the_base_config_align(workspace, tmp_path, monkeypatch):
    # A slope other than the default in the config's align section: every
    # sweep config carries the base align, and so does each report.
    root, tasks, aln, _ = workspace
    doc = {**RUN_CFG, "align": {**RUN_CFG["align"], "slope": 0.2}}
    run_cfg = write_json(tmp_path / "run.json", doc)
    seen = []
    real = tfa.cli.run_experiments
    def recorded(cfgs, *args):
        seen.extend(cfgs)
        return real(cfgs, *args)
    monkeypatch.setattr(tfa.cli, "run_experiments", recorded)
    base = ExperimentConfig.from_dict(doc).align
    assert base.slope == 0.2
    for sweep, values in (("alpha", "0,2"), ("cache-size", "1,3")):
        out = tmp_path / f"{sweep}.json"
        assert main(["ablate", "--tasks", str(tasks), "--align", str(aln),
                     "--config", run_cfg, "--trials", "1",
                     "--sweep", sweep, "--values", values, "--out", str(out)]) == 0
        reports = json.loads(out.read_text())["reports"]
        assert [r["config"]["experiment"]["align"] for r in reports] == [base.to_dict()] * 2
    assert len(seen) == 4 and all(c.align == base for c in seen)


def test_ablate_writes_the_same_bytes_as_one_run_per_value(workspace, monkeypatch):
    # SHA-256 of the combined report written when every sweep value still
    # rebuilt the score table in its own run.
    root, _, _, _ = workspace
    monkeypatch.chdir(root)
    assert main(["ablate", "--tasks", "tasks", "--align", "scorer.aln",
                 "--config", "run.json", "--sweep", "cache-size", "--values", "1,3,5",
                 "--base-update-policy", "always", "--out", "cache.json"]) == 0
    assert hashlib.sha256((root / "cache.json").read_bytes()).hexdigest() == \
        "6d6d31d1870a9c5765c819abc5767d2002b1002a43a19c75a88fa70ab5e9360c"


def test_cli_streams_never_take_the_one_row_admission_path(workspace, monkeypatch):
    # SHA-256s recorded while every stream query was still offered one row
    # at a time. The one-row names must now stay off the CLI's path.
    import tfa.adaptor

    def one_row(*args, **kwargs):
        raise AssertionError("one-row admission path called")

    monkeypatch.setattr(tfa.adaptor.DualCache, "try_insert_base", one_row)
    for name in ("pseudo_label", "argmax_lowest_id"):
        monkeypatch.setattr(tfa.adaptor, name, one_row)
    assert not hasattr(tfa, "pseudo_label")          # tfa.adaptor's name only
    root, _, _, _ = workspace
    monkeypatch.chdir(root)
    assert main(["ablate", "--tasks", "tasks", "--align", "scorer.aln", "--config", "run.json",
                 "--sweep", "alpha", "--values", "0,0.5,1,2,3", "--out", "alpha.json"]) == 0
    assert main(["run", "--tasks", "tasks", "--align", "scorer.aln", "--config", "run.json",
                 "--base-update-policy", "always", "--out", "always.json"]) == 0
    assert {f: hashlib.sha256((root / f).read_bytes()).hexdigest()
            for f in ("alpha.json", "always.json")} == {
        "alpha.json": "1ad2fc11ae8cae79c44eef898b8b8e0d294f815432bccc0ca4ba60f4e2f3ef33",
        "always.json": "e50344d69907265469178a90a4aca1d9ea93a3c42bd3d8a2cc7a02aac5d48179",
    }


WIDE_SYNTH = {
    "dim": 32, "base_classes": 6, "novel_tasks": 2, "classes_per_novel_task": 3,
    "train_per_base_class": 10, "test_per_class": 4, "shots": 3,
    "intra_class_sigma": 0.05, "modality_gap_sigma": 0.15, "seed": 5,
}

WIDE_RUN = {
    "trials": 2, "seed": 3, "shots": 3, "capacity": 3, "base_update_policy": "always",
    "align": {"epochs": 6, "batch_size": 10, "seed": 1, "hidden": [32, 16]},
}


@pytest.fixture(scope="module")
def wide_world(tmp_path_factory):
    """A 12-class world run from inside its directory, so the report's data
    provenance holds relative paths only."""
    root = tmp_path_factory.mktemp("wide")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        write_json("synth.json", WIDE_SYNTH)
        write_json("run.json", WIDE_RUN)
        assert main(["synth", "--config", "synth.json", "--out", "."]) == 0
        assert main(["train-align", "--base", "task_000.emb", "--protos", "prototypes.emb",
                     "--config", "run.json", "--out", "scorer.aln"]) == 0
        assert main(["run", "--tasks", ".", "--align", "scorer.aln",
                     "--config", "run.json", "--out", "report.json"]) == 0
    return root


def test_run_report_bytes_with_two_digit_class_ids(wide_world):
    # SHA-256 recorded when each report class still serialised itself. Class
    # ids 10 and 11 sort as text in per_class and as numbers in the cache fills.
    blob = (wide_world / "report.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == \
        "1e8e7239e00dfeb0f84fb42234f30e91d578699d1bd7e26506431fc057976eb3"
    last = json.loads(blob)["trials"][0]["sessions"][-1]
    assert list(last["per_class"])[:4] == ["0", "1", "10", "11"]
    assert list(last["cache"]["novel_fill"]) == ["6", "7", "8", "9", "10", "11"]


@pytest.mark.parametrize("fmt,sha", [
    ("csv", "dd3b2e85878e48232fc98546d35a2158193fda92dc13c9ae4c35c1a9c9c77619"),
    ("md", "436fd33fe43f4f66c43a7dfdf52981a7a5600e68daf4046399e74e22a673ee3f"),
])
def test_report_renders_the_recorded_bytes(wide_world, capsys, fmt, sha):
    # SHA-256 of the output recorded when `tfa report` still loaded the file
    # into report objects before rendering it.
    capsys.readouterr()
    assert main(["report", "--in", str(wide_world / "report.json"), "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


@pytest.mark.parametrize("sweep,values", [
    ("alpha", "1,nan"), ("beta", "inf"), ("cache-size", "inf"), ("cache-size", "nan"),
])
def test_ablate_rejects_non_finite_values(workspace, capsys, sweep, values):
    root, tasks, aln, run_cfg = workspace
    assert main(["ablate", "--tasks", str(tasks), "--align", str(aln),
                 "--config", run_cfg, "--sweep", sweep, "--values", values]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("setting", [{"alpha": "2"}, {"alpha": float("nan")},
                                     {"beta": float("inf")}, {"capacity": 2.5}])
def test_run_rejects_mistyped_and_non_finite_settings(workspace, tmp_path, capsys,
                                                       setting):
    root, tasks, aln, _ = workspace
    cfg = write_json(tmp_path / "bad.json", {**RUN_CFG, **setting})
    assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                 "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("align", [{"epochs": 0}, {"batch_size": 0}, {"lr": -1.0},
                                   {"hidden": [8, 0]}, {"epoch": 3}, {"hidden": []},
                                   {"hidden": [40]}, {"hidden": [40, 24, 16]}])
def test_train_align_rejects_bad_settings(workspace, tmp_path, capsys, align):
    root, tasks, _, _ = workspace
    cfg = write_json(tmp_path / "bad.json", {"align": align})
    out = tmp_path / "x.aln"
    assert main(["train-align", "--base", str(tasks / "task_000.emb"),
                 "--protos", str(tasks / "prototypes.emb"),
                 "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _run_hand_built_aln(workspace, tmp_path, layers):
    """``tfa run`` on an ALN1 of finite zero weights with ``layers``' shapes
    and a valid sidecar (m=32, slope 0.01); returns its path and exit code."""
    root, tasks, aln, run_cfg = workspace
    bad = tmp_path / "bad.aln"
    blob = tfa.alignment.ALN_MAGIC + len(layers).to_bytes(4, "little")
    for rows, cols in layers:
        blob += np.array([rows, cols], "<u4").tobytes() + bytes(4 * (rows * cols + cols))
    bad.write_bytes(blob)
    write_json(str(bad) + ".meta.json", {"m": 32, "slope": 0.01})
    return bad, main(["run", "--tasks", str(tasks), "--align", str(bad),
                      "--config", run_cfg, "--out", str(tmp_path / "r.json")])


@pytest.mark.parametrize("layers", [[(64, 5), (5, 1)], [(64, 5), (5, 4), (4, 3), (3, 1)]],
                         ids=["2", "4"])
def test_run_rejects_a_scorer_without_three_layers(workspace, tmp_path, capsys, layers):
    # Layers that chain, the last of width 1: everything but the layer count
    # is a valid ALN1.
    bad, code = _run_hand_built_aln(workspace, tmp_path, layers)
    assert code == 3
    assert capsys.readouterr().err == f"error: {bad}: {len(layers)} layers, not 3\n"


@pytest.mark.parametrize("layers, message", [
    ([(64, 5), (4, 3), (3, 1)], "layer 1 has 4 rows, layer 0 has 5 cols"),
    ([(64, 5), (5, 3), (3, 2)], "last layer has width 2, not 1"),
    ([(60, 5), (5, 3), (3, 1)], "first layer expects fan-in 60, sidecar says m=32"),
    ([(64, 0), (0, 4), (4, 1)], "layer 0 has width 0"),
    ([(64, 4), (4, 0), (0, 1)], "layer 1 has width 0"),
], ids=["unchained", "last-width-2", "fan-in-60", "width-0-first", "width-0-second"])
def test_run_rejects_three_layers_that_do_not_fit(workspace, tmp_path, capsys, layers, message):
    # Three layers, each check but one passing: the rows chain to the cols
    # before them, every layer is at least 1 wide, the last layer has width
    # 1 and the fan-in is 2m. No report is written.
    bad, code = _run_hand_built_aln(workspace, tmp_path, layers)
    assert code == 3
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_run_rejects_a_sidecar_without_m(workspace, tmp_path, capsys):
    root, tasks, aln, run_cfg = workspace
    bad = tmp_path / "bad.aln"
    bad.write_bytes(aln.read_bytes())
    meta = json.loads(Path(str(aln) + ".meta.json").read_text())
    del meta["m"]
    write_json(str(bad) + ".meta.json", meta)
    assert main(["run", "--tasks", str(tasks), "--align", str(bad),
                 "--config", run_cfg, "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.startswith("error: ")


# The "partial" sidecar's SHA-256 with the beta1, beta2 and epsilon that
# TrainConfig held before Adam's constants were fixed, recorded with
# ALIGN_SHAS (its loss history moves with them); its ALN1 bytes are
# ALIGN_SHAS["partial"][0].
PRE_ADAM_CONSTANTS_SIDECAR = "9d6cbdc92e60933968ba6c3854203ddb6cd9a04a127a4a05aa980136e390cc38"


def test_a_sidecar_with_adam_constants_still_loads_and_runs(bench_world, tmp_path):
    # A file pair as train-align wrote it before Adam's constants were fixed:
    # the same ALN1, and a sidecar whose train_config also holds beta1, beta2
    # and epsilon. The loader reads only m and slope, so it runs to the same
    # report bytes.
    cfg = write_json(tmp_path / "partial.json", BENCH_ALIGN["partial"])
    tasks = bench_world / "tasks"
    new, old = tmp_path / "new.aln", tmp_path / "old.aln"
    assert main(["train-align", "--base", str(tasks / "task_000.emb"), "--protos",
                 str(tasks / "prototypes.emb"), "--config", cfg, "--out", str(new)]) == 0
    old.write_bytes(new.read_bytes())
    meta = json.loads(Path(f"{new}.meta.json").read_text())
    meta["train_config"].update(beta1=0.9, beta2=0.999, epsilon=1e-8)
    text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    Path(f"{old}.meta.json").write_text(text)
    assert hashlib.sha256(old.read_bytes()).hexdigest() == ALIGN_SHAS["partial"][0]
    assert hashlib.sha256(text.encode()).hexdigest() == PRE_ADAM_CONSTANTS_SIDECAR
    reports = []
    for aln in (new, old):
        out = tmp_path / f"{aln.stem}.json"
        assert main(["run", "--tasks", str(tasks), "--align", str(aln), "--config", cfg,
                     "--trials", "1", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["train-align", "run", "ablate"])
def test_an_adam_constant_in_the_config_is_a_config_error(workspace, tmp_path, capsys,
                                                           command):
    root, tasks, aln, _ = workspace
    cfg = write_json(tmp_path / "run.json",
                     {**RUN_CFG, "align": {**RUN_CFG["align"], "beta1": 0.9}})
    out = tmp_path / "out"
    argv = {"train-align": ["train-align", "--base", str(tasks / "task_000.emb"),
                            "--protos", str(tasks / "prototypes.emb")],
            "run": ["run", "--tasks", str(tasks), "--align", str(aln)],
            "ablate": ["ablate", "--tasks", str(tasks), "--align", str(aln),
                       "--sweep", "alpha", "--values", "0,2"]}[command]
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown alignment config keys: ['beta1']\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "run.json"]


def test_report_renders_and_round_trips(workspace, tmp_path, capsys):
    root, tasks, aln, run_cfg = workspace
    out = tmp_path / "r.json"
    assert main(["run", "--tasks", str(tasks), "--align", str(aln),
                 "--config", run_cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(out), "--format", "md"]) == 0
    md = capsys.readouterr().out
    doc = json.loads(out.read_text())
    n_sessions = len(doc["aggregate"]["sessions"])
    assert md.count("\n| ") >= n_sessions  # one detail row per session
    assert "delta" in md
    assert main(["report", "--in", str(out), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    rows = csv_text.strip().split("\n")
    assert len(rows) == 1 + len(doc["trials"]) * n_sessions
    acc = float(rows[1].split(",")[3])
    assert acc == pytest.approx(doc["trials"][0]["sessions"][0]["accuracy"], abs=1e-3)


def test_report_rejects_corrupt_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", "--in", str(bad), "--format", "csv"]) == 3


def test_help_lists_defaults(capsys):
    assert main(["run", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse wrapping
    for needle in ("default: 2.0", "default: 5", "default: session0_only",
                   "default: 10", "default: K"):
        assert needle in text, needle


@pytest.mark.parametrize("command", ["run", "ablate", "train-align", "synth"])
@pytest.mark.parametrize("doc", [[1], {"align": None}, "config", 3])
def test_config_that_is_not_an_object_is_config_error(workspace, tmp_path, capsys,
                                                     command, doc):
    _, tasks, aln, _ = workspace
    cfg = write_json(tmp_path / "bad.json", doc)
    argv = {
        "run": ["run", "--tasks", str(tasks), "--align", str(aln),
                "--out", str(tmp_path / "r.json")],
        "ablate": ["ablate", "--tasks", str(tasks), "--align", str(aln),
                   "--sweep", "alpha", "--values", "0,1"],
        "train-align": ["train-align", "--base", str(tasks / "task_000.emb"),
                        "--protos", str(tasks / "prototypes.emb"),
                        "--out", str(tmp_path / "x.aln")],
        "synth": ["synth", "--out", str(tmp_path / "s")],
    }[command]
    assert main(argv + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,doc,field", [
    ("run", {**RUN_CFG, "seed": "abc"}, "seed"),
    ("run", {**RUN_CFG, "seed": None}, "seed"),
    ("ablate", {**RUN_CFG, "seed": None}, "seed"),
    ("train-align", {"align": {**RUN_CFG["align"], "seed": 1.5}}, "align.seed"),
    ("train-align", {"align": {**RUN_CFG["align"], "seed": None}}, "align.seed"),
    ("synth", {**SYNTH_CFG, "seed": None}, "seed"),
    ("synth", {**SYNTH_CFG, "dim": "abc"}, "dim"),
    ("synth", {**SYNTH_CFG, "seed": "abc"}, "seed"),
    ("synth", {**SYNTH_CFG, "modality_gap_sigma": "0.1"}, "modality_gap_sigma"),
])
def test_mistyped_seed_and_synth_settings_are_config_errors(workspace, tmp_path, capsys,
                                                            command, doc, field):
    _, tasks, aln, _ = workspace
    cfg = write_json(tmp_path / "bad.json", doc)
    argv = {
        "run": ["run", "--tasks", str(tasks), "--align", str(aln),
                "--out", str(tmp_path / "r.json")],
        "ablate": ["ablate", "--tasks", str(tasks), "--align", str(aln),
                   "--sweep", "alpha", "--values", "0,1"],
        "train-align": ["train-align", "--base", str(tasks / "task_000.emb"),
                        "--protos", str(tasks / "prototypes.emb"),
                        "--out", str(tmp_path / "x.aln")],
        "synth": ["synth", "--out", str(tmp_path / "s")],
    }[command]
    assert main(argv + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1


# ---- untrusted files: non-UTF-8 text and seeded corruption ----

FUZZ_SYNTH = {
    "dim": 8, "base_classes": 3, "novel_tasks": 1, "classes_per_novel_task": 2,
    "train_per_base_class": 4, "test_per_class": 2, "shots": 2,
    "intra_class_sigma": 0.05, "modality_gap_sigma": 0.1, "seed": 3,
}

FUZZ_RUN = {
    "trials": 1, "seed": 1, "shots": 2, "capacity": 2,
    "align": {"epochs": 1, "batch_size": 4, "seed": 2, "hidden": [4, 3]},
}

FUZZ_TARGETS = ("task_000.emb", "task_001.emb", "prototypes.emb", "scorer.aln",
                "task_000.emb.meta.json", "task_001.emb.meta.json",
                "prototypes.emb.meta.json", "scorer.aln.meta.json", "run.json",
                "report.json")


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    """A tiny synth task directory with its scorer, run config and report,
    all in one directory so a test can copy and corrupt any file of it."""
    root = tmp_path_factory.mktemp("fuzz")
    synth_cfg = write_json(root / "synth.json", FUZZ_SYNTH)
    assert main(["synth", "--config", synth_cfg, "--out", str(root)]) == 0
    write_json(root / "run.json", FUZZ_RUN)
    assert main(["train-align", "--base", str(root / "task_000.emb"),
                 "--protos", str(root / "prototypes.emb"),
                 "--config", str(root / "run.json"),
                 "--out", str(root / "scorer.aln")]) == 0
    (root / "synth.json").unlink()
    assert _run_world(root, root / "report.json") == 0
    return root


def _run_argv(world, out):
    return ["run", "--tasks", str(world), "--align", str(world / "scorer.aln"),
            "--config", str(world / "run.json"), "--out", str(out)]


def _run_world(world, out):
    return main(_run_argv(world, out))


def _copy_world(src, dst):
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def _mutate(blob: bytes, kind: str, rng) -> bytes:
    if kind == "truncate":
        return blob[:int(rng.integers(0, len(blob)))]
    if kind == "append":
        return blob + rng.integers(0, 256, int(rng.integers(1, 17)), dtype=np.uint8).tobytes()
    out = bytearray(blob)
    for pos in rng.integers(0, len(out), int(rng.integers(1, 4))):
        out[pos] ^= int(rng.integers(1, 256))
    return bytes(out)


@pytest.mark.parametrize("name", ["task_000.emb.meta.json", "prototypes.emb.meta.json",
                                  "scorer.aln.meta.json", "run.json"])
def test_non_utf8_text_is_a_format_error(tiny_world, tmp_path, capsys, name):
    world = _copy_world(tiny_world, tmp_path / "w")
    path = world / name
    path.write_bytes(b'{"alpha": "\xff"}' if name == "run.json"
                     else path.read_bytes().replace(b'"', b'"\xfe', 1))
    assert _run_world(world, tmp_path / "r.json") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("probe", ["long_int", "deep_nesting"])
@pytest.mark.parametrize("name,key", [("task_000.emb.meta.json", "dim"),
                                      ("prototypes.emb.meta.json", "dim"),
                                      ("scorer.aln.meta.json", "m")])
def test_unparseable_sidecars_are_format_errors(tiny_world, tmp_path, capsys, name, key,
                                                probe):
    # Python's json raises ValueError past 4,300 digits and RecursionError
    # past its nesting limit; both are parse failures of the file (exit 3).
    world = _copy_world(tiny_world, tmp_path / "w")
    path = world / name
    if probe == "long_int":
        text, n = re.subn(rf'"{key}": \d+', f'"{key}": {"7" * 5000}', path.read_text())
        assert n == 1
    else:
        text = "[" * 100_000 + "]" * 100_000
    path.write_text(text)
    assert _run_world(world, tmp_path / "r.json") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Case id -> value; the ids of the integer-field cases are pytest's own.
BAD_IDS = {"abc": "abc", "None": None, "value2": [0], str(2**70): 2**70, "1.5": 1.5, "True": True}
BAD_TEXTS = {"5": 5, "list": ["a", "b"], "dict": {"x": 1}, "None": None}
RECORD_FIELD_CASES = [
    pytest.param(name, key, value, id=f"{name}-{key}-{case}")
    for fields, values in (
        ([("task_000.emb.meta.json", "label"), ("task_000.emb.meta.json", "task"),
          ("prototypes.emb.meta.json", "class_id")], BAD_IDS),
        ([("task_000.emb.meta.json", "split"), ("task_000.emb.meta.json", "class_name"),
          ("prototypes.emb.meta.json", "prompt_text")], BAD_TEXTS),
        ([("task_000.emb.meta.json", "split")], {"valid": "valid", "Train": "Train", "empty": ""}))
    for name, key in fields for case, value in values.items()]


@pytest.mark.parametrize("name,key,value", RECORD_FIELD_CASES)
def test_structured_sidecar_record_fields_are_format_errors(tiny_world, tmp_path, capsys,
                                                           name, key, value):
    world = _copy_world(tiny_world, tmp_path / "w")
    path = world / name
    doc = json.loads(path.read_text())
    doc["records"][0][key] = value
    path.write_text(json.dumps(doc))
    assert _run_world(world, tmp_path / "r.json") == 3
    err = capsys.readouterr().err
    emb = world / name.removesuffix(".meta.json")
    assert err.startswith(f"error: {emb}: sidecar record 0 {key} ") and err.count("\n") == 1


@pytest.mark.parametrize("name,value", [("task_000.emb.meta.json", 5),
                                        ("task_000.emb.meta.json", None),
                                        ("task_000.emb.meta.json", True),
                                        ("task_000.emb.meta.json", 2.0),
                                        ("prototypes.emb.meta.json", 7)])
def test_sidecar_records_that_are_not_a_list_are_format_errors(tiny_world, tmp_path, capsys,
                                                              name, value):
    world = _copy_world(tiny_world, tmp_path / "w")
    path = world / name
    doc = json.loads(path.read_text())
    doc["records"] = value
    path.write_text(json.dumps(doc))
    assert _run_world(world, tmp_path / "r.json") == 3
    err = capsys.readouterr().err
    assert err == f"error: {path}: sidecar records is not a list\n"


def _error_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_error_class_maps_to_a_documented_exit_code():
    assert {c: c.exit_code for c in _error_classes(tfa.errors.TfaError)} == {
        tfa.errors.ConfigError: 2, tfa.errors.FormatError: 3, tfa.errors.ValidationError: 4}


def _drop_base_test_records(world, keep=lambda label: False):
    path = world / "task_000.emb"
    data = load_embeddings(path)
    save_embeddings(data.subset([i for i in range(len(data))
                                 if data.splits[i] == "train" or keep(data.labels[i])]), path)


def test_a_base_task_without_test_records_is_a_validation_error(tiny_world, tmp_path,
                                                                capsys):
    world = _copy_world(tiny_world, tmp_path / "w")
    _drop_base_test_records(world)
    assert _run_world(world, tmp_path / "r.json") == 4
    assert capsys.readouterr().err == "error: base task 0 has no test records\n"


def test_zero_base_accuracy_is_a_validation_error(tiny_world, tmp_path, capsys):
    # An all-zero scorer at alpha 0 predicts the lowest class id, 0, for
    # every sample, and the base test split holds no sample of class 0.
    world = _copy_world(tiny_world, tmp_path / "w")
    _drop_base_test_records(world, keep=lambda label: label != 0)
    scorer, _ = load_alignment(world / "scorer.aln")
    save_alignment(RelationParams([np.zeros_like(w) for w in scorer.weights],
                                  [np.zeros_like(b) for b in scorer.biases],
                                  scorer.slope, scorer.m), world / "scorer.aln")
    assert main(_run_argv(world, tmp_path / "r.json") + ["--alpha", "0"]) == 4
    err = capsys.readouterr().err
    assert err == "error: accuracy decline undefined for zero base accuracy\n"


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_non_finite_logits_are_a_validation_error(tiny_world, tmp_path, capsys, command):
    # A finite checkpoint whose logits overflow: 16→8→8→1 of weights ±3e38.
    # Three layers of float32 weights keep every float64 logit below ~1e120,
    # so it is the float32 hidden path that overflows, its products past
    # float32's range. No warning may escape (pytest turns one into an error).
    world = _copy_world(tiny_world, tmp_path / "w")
    signs = np.random.default_rng(5)
    sizes = [16, 8, 8, 1]
    weights = [3e38 * signs.choice([-1.0, 1.0], size=shape) for shape in zip(sizes, sizes[1:])]
    save_alignment(RelationParams(weights, [np.zeros(w.shape[1]) for w in weights], 0.01, 8),
                   world / "scorer.aln")
    argv = _run_argv(world, tmp_path / "r.json")
    if command == "ablate":
        argv = ["ablate", *argv[1:-2], "--sweep", "alpha", "--values", "0,1"]
    assert main(argv) == 4
    assert capsys.readouterr().err == "error: the scorer gives non-finite logits on this data\n"


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_hidden_values_past_float32_range_are_a_validation_error(tiny_world, tmp_path,
                                                                 capsys, command):
    # A finite checkpoint 16→16→16→1 whose first layer of weights ±3e38
    # gives pre-activations past float32's range but inside float64's, and
    # whose later layers of 1e-19 bring them back: every float64 logit is
    # finite, the float32 hidden path's are not. No warning may escape.
    world = _copy_world(tiny_world, tmp_path / "w")
    signs = np.random.default_rng(5)
    weights = [3e38 * signs.choice([-1.0, 1.0], size=(16, 16)), np.full((16, 16), 1e-19),
               np.full((16, 1), 1e-19)]
    save_alignment(RelationParams(weights, [np.zeros(16), np.zeros(16), np.zeros(1)], 0.01, 8),
                   world / "scorer.aln")
    scorer, _ = load_alignment(world / "scorer.aln")
    protos = load_prototypes(world / "prototypes.emb")
    protos = prototype_matrix(protos, sorted(p.class_id for p in protos))
    for task in sorted(world.glob("task_*.emb")):
        assert np.all(np.isfinite(f64_score_matrix(scorer, load_embeddings(task).vectors,
                                                   protos)))
    argv = _run_argv(world, tmp_path / "r.json")
    if command == "ablate":
        argv = ["ablate", *argv[1:-2], "--sweep", "alpha", "--values", "0,1"]
    assert main(argv) == 4
    assert capsys.readouterr().err == "error: the scorer gives non-finite logits on this data\n"


def test_a_diverged_training_writes_no_checkpoint(tiny_world, tmp_path, capsys):
    out = tmp_path / "x.aln"
    assert main(["train-align", "--base", str(tiny_world / "task_000.emb"),
                 "--protos", str(tiny_world / "prototypes.emb"),
                 "--config", str(tiny_world / "run.json"), "--out", str(out),
                 "--lr", "1e300"]) == 3
    assert capsys.readouterr().err == f"error: {out}: non-finite parameter\n"
    assert list(tmp_path.iterdir()) == []


def test_fuzz_world_runs_clean(tiny_world, tmp_path):
    assert _run_world(tiny_world, tmp_path / "r.json") == 0


@pytest.mark.parametrize("kind", ["truncate", "flip", "append"])
@pytest.mark.parametrize("name", FUZZ_TARGETS)
def test_corrupted_inputs_end_in_a_documented_exit_code(tiny_world, tmp_path, capsys,
                                                        name, kind):
    # A corrupted report is rendered in both formats and may only fail to
    # parse (3); any other file is an input of `tfa run`.
    rng = np.random.default_rng([FUZZ_TARGETS.index(name), len(kind)])
    original = (tiny_world / name).read_bytes()
    allowed = (0, 3) if name == "report.json" else (0, 2, 3, 4)
    for case in range(20):
        world = _copy_world(tiny_world, tmp_path / f"w{case}")
        (world / name).write_bytes(_mutate(original, kind, rng))
        if name == "report.json":
            argvs = [["report", "--in", str(world / name), "--format", fmt]
                     for fmt in ("csv", "md")]
        else:
            argvs = [_run_argv(world, world / "r.json")]
        for argv in argvs:
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert code in allowed, (name, kind, case, argv[0], code)
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, \
                    (name, kind, case, err)


# ---- inputs that only the command line can bring ----


def _run(world):
    return _run_argv(world, world / "r.json")


def _train(world):
    return ["train-align", "--base", str(world / "task_000.emb"),
            "--protos", str(world / "prototypes.emb"),
            "--config", str(world / "run.json"), "--out", str(world / "x.aln")]


def _ablate(sweep, values):
    return lambda world: [
        "ablate", "--tasks", str(world), "--align", str(world / "scorer.aln"),
        "--config", str(world / "run.json"), "--sweep", sweep, "--values", values]


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _sometimes_policy(world, monkeypatch):
    _edit_json(world / "run.json", lambda doc: doc.update(base_update_policy="sometimes"))


def _seed_from_env(world, monkeypatch):
    _edit_json(world / "run.json", lambda doc: doc.pop("seed"))
    monkeypatch.setenv("TFA_SEED", "abc")


def _no_task_files(world, monkeypatch):
    for path in world.glob("task_*.emb"):
        path.unlink()


def _short_checkpoint(world, monkeypatch):
    (world / "scorer.aln").write_bytes(b"ALN1xx")


def _record_not_object(world, monkeypatch):
    def edit(doc):
        doc["records"][0] = 5
    _edit_json(world / "task_000.emb.meta.json", edit)


def _record_count(world, monkeypatch):
    _edit_json(world / "task_000.emb.meta.json", lambda doc: doc["records"].pop())


def _missing_prototype(world, monkeypatch):
    save_prototypes(load_prototypes(world / "prototypes.emb")[:-1], world / "prototypes.emb")


def _tasks_0_and_2(world, monkeypatch):
    data = load_embeddings(world / "task_001.emb")
    data.tasks[:] = 2
    save_embeddings(data, world / "task_002.emb")
    (world / "task_001.emb").unlink()


def _no_records(world, monkeypatch):
    save_embeddings(load_embeddings(world / "task_000.emb").subset([]), world / "task_000.emb")
    (world / "task_001.emb").unlink()


def _narrow_prototypes(world, monkeypatch):
    protos = load_prototypes(world / "prototypes.emb")
    save_prototypes([ClassPrototype(p.class_id, p.vector[:4] + 1.0) for p in protos],
                    world / "prototypes.emb")


def _dimension_0(world, monkeypatch):
    (world / "task_000.emb").write_bytes(b"EMB1" + bytes(12))
    write_json(world / "task_000.emb.meta.json", {"dim": 0, "count": 0, "records": []})


def _first_row(value):
    def change(world, monkeypatch):
        path = world / "task_000.emb"
        blob = path.read_bytes()
        path.write_bytes(blob[:16] + np.full(8, value, "<f4").tobytes() + blob[48:])
    return change


def _sidecar_not_object(world, monkeypatch):
    write_json(world / "task_000.emb.meta.json", [1])


def _sidecar_dim(world, monkeypatch):
    _edit_json(world / "task_000.emb.meta.json", lambda doc: doc.update(dim=9))


def _edit_records(name, edit):
    def change(world, monkeypatch):
        _edit_json(world / name, lambda doc: edit(doc["records"]))
    return change


def _relabel(records, old, new):
    for rec in records:
        if rec["label"] == old:
            rec["label"] = new


def _first_test_label(records, label):
    next(rec for rec in records if rec["split"] == "test")["label"] = label


def _narrow_task_1(world, monkeypatch):
    data = load_embeddings(world / "task_001.emb")
    save_embeddings(replace(data, dim=4, vectors=data.vectors[:, :4] + 1.0),
                    world / "task_001.emb")


def _uneven_shots(world, monkeypatch):
    data = load_embeddings(world / "task_001.emb")
    drop = next(i for i in data.indices(split="train") if data.labels[i] == 4)
    save_embeddings(data.subset([i for i in range(len(data)) if i != drop]),
                    world / "task_001.emb")


def _duplicate_id(records):
    records[1]["class_id"] = records[0]["class_id"]


# Case id -> (change to the world, command, exit code, part of the message)
CLI_ONLY_ERRORS = {
    "TFA_SEED-abc": (_seed_from_env, _run, 2, "TFA_SEED must be an integer, got 'abc'"),
    "policy-sometimes": (_sometimes_policy, _run, 2,
                         "base_update_policy must be one of ('off', 'session0_only', 'always')"),
    "values-1,x": (None, _ablate("alpha", "1,x"), 2, "bad sweep value in '1,x'"),
    "cache-size-2.5": (None, _ablate("cache-size", "2.5"), 2,
                       "cache-size values must be positive integers, got 2.5"),
    "no-task-files": (_no_task_files, _run, 3, "no task_*.emb files under"),
    "aln-6-bytes": (_short_checkpoint, _run, 3, "truncated header"),
    "record-not-object": (_record_not_object, _run, 3, "sidecar record 0 is not a JSON object"),
    "record-count": (_record_count, _run, 3, "sidecar lists 17 records, binary holds 18"),
    "missing-prototype": (_missing_prototype, _run, 4, "no prototype for classes [4]"),
    "tasks-0-and-2": (_tasks_0_and_2, _run, 4,
                      "task indices must be contiguous from 0, got [0, 2]"),
    "no-records": (_no_records, _run, 4, "empty task list"),
    "no-records-train-align": (_no_records, _train, 4, "no training samples"),
    "prototype-dim-train-align": (_narrow_prototypes, _train, 3,
                                  "batch dimension does not match the scorer"),
    "prototype-dim-run": (_narrow_prototypes, _run, 3,
                          "sample/prototype dimension does not match the scorer"),
    "dimension-0": (_dimension_0, _train, 3, "dimension must be >= 1, got 0"),
    "non-finite-float": (_first_row(np.nan), _run, 3, "non-finite float in"),
    "zero-row": (_first_row(0.0), _run, 3, "task_000.emb: record 0 is a zero vector"),
    "sidecar-not-object": (_sidecar_not_object, _run, 3,
                           "task_000.emb: sidecar is not a JSON object"),
    "sidecar-dim": (_sidecar_dim, _run, 3,
                    "sidecar declares dim=9 count=18, binary has dim=8 count=18"),
    "overlapping-classes": (_edit_records("task_001.emb.meta.json",
                                          lambda recs: _relabel(recs, 3, 0)), _run, 4,
                            "tasks 0 and 1 share train classes [0]"),
    "test-label-outside-task": (_edit_records("task_001.emb.meta.json",
                                              lambda recs: _first_test_label(recs, 2)), _run, 4,
                                "has label 2 outside task 1's train label space"),
    "task-dims-4-and-8": (_narrow_task_1, _run, 3, "cannot merge dimension 4 into 8"),
    "duplicate-prototype-id": (_edit_records("prototypes.emb.meta.json", _duplicate_id), _run,
                               3, "prototypes.emb: class id 0 appears twice"),
    "uneven-shots": (_uneven_shots, _run, 4, "task 1 class 4: 1 shots, expected 2"),
    "shots-3": (None, lambda world: _run(world) + ["--shots", "3"], 4,
                "task 1 provides 2 shots, config expects 3"),
}


@pytest.mark.parametrize("case", sorted(CLI_ONLY_ERRORS))
def test_inputs_only_the_command_line_brings_exit_with_one_error_line(
        tiny_world, tmp_path, capsys, monkeypatch, case):
    change, command, code, message = CLI_ONLY_ERRORS[case]
    world = _copy_world(tiny_world, tmp_path / "w")
    if change:
        change(world, monkeypatch)
    files = sorted(world.iterdir())
    capsys.readouterr()
    assert main(command(world)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert sorted(world.iterdir()) == files          # no report, no checkpoint


# (path to a value of a real report, the raw JSON text put there or None to
# delete it, the exit codes allowed). An empty path replaces the whole file.
REPORT_PROBES = {
    "top-level-list": ((), "[1]", (3,)),
    "no-schema": (("schema",), None, (3,)),
    "wrong-schema": (("schema",), '"tfa-report-v2"', (3,)),
    "string-accuracy": (("trials", 0, "sessions", 0, "accuracy"), '"98.5"', (3,)),
    "null-accuracy": (("trials", 0, "sessions", 0, "accuracy"), "null", (3,)),
    "real-session": (("trials", 0, "sessions", 0, "session"), "1.7", (3,)),
    "huge-session": (("trials", 0, "sessions", 1, "session"), "1e400", (3,)),
    "bool-n-test": (("trials", 0, "sessions", 0, "n_test"), "true", (3,)),
    "nan-mean": (("aggregate", "sessions", 0, "accuracy_mean"), "NaN", (3,)),
    "infinite-delta": (("aggregate", "delta"), "Infinity", (3,)),
    "negative-n-classes": (("aggregate", "sessions", 1, "n_classes"), "-1", (3,)),
    "string-mean-harmonic": (("aggregate", "mean_harmonic"), '"50"', (3,)),
    "no-aggregate": (("aggregate",), None, (3,)),
    "trials-object": (("trials",), "{}", (3,)),
    "session-list": (("trials", 0, "sessions", 0), "[]", (3,)),
    "long-integer": (("trials", 0, "sessions", 0, "n_test"), "1" * 5000, (3,)),
    "deep-nesting": ((), "[" * 100000 + "]" * 100000, (3,)),
    "empty-per-class": (("trials", 0, "sessions", 0, "per_class"), "[]", (0, 3)),
    "huge-per-class": (("trials", 0, "sessions", 0, "per_class"), '{"0": [1e400, 1]}',
                       (0, 3)),
}


def _probe_text(doc, path, raw) -> str:
    if not path:
        return raw
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if raw is None:
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = "@probe@"
    return json.dumps(doc).replace('"@probe@"', raw)


@pytest.mark.parametrize("fmt", ["csv", "md"])
@pytest.mark.parametrize("probe", sorted(REPORT_PROBES))
def test_report_checks_the_document_it_renders(tiny_world, tmp_path, capsys, probe, fmt):
    path, raw, allowed = REPORT_PROBES[probe]
    bad = tmp_path / "bad.json"
    bad.write_text(_probe_text(json.loads((tiny_world / "report.json").read_text()),
                               path, raw))
    capsys.readouterr()
    code = main(["report", "--in", str(bad), "--format", fmt])
    err = capsys.readouterr().err
    assert code in allowed
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
