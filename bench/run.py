"""Benchmark driver for the tfa command line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload train|stream|sweep --seed N --seconds S --trace 0|1

Set-up makes every input from the seed with the CLI itself (``tfa synth``,
then ``tfa train-align`` for the scorer ``stream`` and ``sweep`` use), three
times over, and checks the three copies are byte-identical. Each op is then
a fresh ``python -m tfa ...`` child run on those inputs, one at a time,
exactly as a user runs it: one warm-up op, then ops until ``--seconds`` have
passed. A fixed calibration child runs after every set-up and every op, and
the timings are scaled to the speed the machine had when ``CALIBRATION_REF_S``
was recorded (see ``speed_factor``), so that the host's drift in speed
between runs cancels.
Every op's output goes through the correctness gate. With ``--trace 1``
ops alternate between traced (``bench/traced_tfa.py``) and untraced, and the
per-layer split is reported instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable summary, including the machine record. The driver
imports neither numpy nor tfa, and gives each child
``max(1, nproc - 1)`` BLAS threads, so on two or more cores the driver and
one child never use more threads than ``nproc``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
DEFAULT_SEED = 0
SETUP_REPS = 3
RUN_BUDGET_S = 170.0

# Calibration preset shape. The base train split is cut to its first 10
# samples per class (the synthetic draws are per class and sequential, so this
# is the seeded prefix of the 100-sample split); the inference ops never read
# base train samples, and training keeps the 25 x 20 pair step shape.
SYNTH = {"dim": 64, "base_classes": 20, "novel_tasks": 3, "classes_per_novel_task": 5,
         "train_per_base_class": 10, "test_per_class": 20, "shots": 5,
         "intra_class_sigma": 0.05, "modality_gap_sigma": 0.15}
TRAIN_ALIGN = {"epochs": 1, "batch_size": 25, "lr": 0.001}
# The inference scorer is narrower than the default 2048/1024 so that set-up
# (three trainings) and several ops fit in one run; 24 steps at this width
# clear the A4 floors.
SCORER_ALIGN = {"epochs": 3, "batch_size": 25, "lr": 0.001, "hidden": [1024, 512]}
STREAM_TRIALS = 6
SWEEP_VALUES = (0.0, 0.5, 1.0, 2.0, 3.0)

FINAL_ACCURACY_FLOOR = 95.0
MEAN_HARMONIC_FLOOR = 90.0
LOSS_RTOL = 1e-6

# A fixed child of the same kind of work as the ops: interpreter and numpy
# start-up, dense layers at the scorer's widths, an Adam-like elementwise
# update and a per-sample loop of small numpy calls. It never imports tfa, so
# no change to the program moves it.
CALIBRATION = r"""
import numpy as np
rng = np.random.default_rng(0)
x = rng.standard_normal((500, 128))
w1, w2 = rng.standard_normal((128, 2048)), rng.standard_normal((2048, 1024))
for _ in range(4):
    h = np.tanh(np.tanh(x @ w1) @ w2)
    g = h.T @ h
m, v, p = np.zeros(w2.size), np.zeros(w2.size), w2.ravel().copy()
for _ in range(4):
    m = 0.9 * m + 0.1 * p
    v = 0.999 * v + 0.001 * p * p
    p -= 1e-3 * m / (np.sqrt(v) + 1e-8)
keys, q = rng.standard_normal((50, 128)), rng.standard_normal((3000, 128))
s = 0.0
for row in q:
    s += float(np.max(keys @ row))
"""
# Median calibration wall time of a quiet period on the 2-core machine the
# baseline in README.md was measured on (OpenBLAS with 1 thread). Timings are
# reported at the speed that gave this figure.
CALIBRATION_REF_S = 0.80

PROBE = r"""
import ctypes, json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
rec = {"python": platform.python_version(), "numpy": numpy.__version__,
       "blas": blas.get("name"), "blas_version": blas.get("version"),
       "blas_threads": None, "blas_core": None}
libs = sorted({l.split()[-1] for l in open("/proc/self/maps") if "blas" in l and ".so" in l})
for lib in libs:
    try:
        h = ctypes.CDLL(lib)
    except OSError:
        continue
    for pre in ("scipy_openblas_", "openblas_"):
        for suf in ("64_", ""):
            n = getattr(h, pre + "get_num_threads" + suf, None)
            c = getattr(h, pre + "get_config" + suf, None)
            if n is not None and rec["blas_threads"] is None:
                n.restype = ctypes.c_int
                rec["blas_threads"] = n()
            if c is not None and rec["blas_core"] is None:
                c.restype = ctypes.c_char_p
                rec["blas_core"] = c().decode()
print(json.dumps(rec))
"""


class SetupError(RuntimeError):
    """Set-up could not produce the inputs; the run has no result."""


# ---- correctness gate ----


def first_diff(a, b, path: str = "$") -> str | None:
    """Path and values of the first field where two JSON documents differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: only in {'second' if key in b else 'first'}"
            found = first_diff(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_diff(x, y, f"{path}[{i}]")
            if found:
                return found
        return None if len(a) == len(b) else f"{path}: length {len(a)} != {len(b)}"
    return None if a == b and type(a) is type(b) else f"{path}: {a!r} != {b!r}"


def _json_diff(first: bytes, got: bytes) -> str:
    try:
        found = first_diff(json.loads(first), json.loads(got))
    except ValueError as e:
        return f"not JSON ({e})"
    return found or "same JSON, different bytes"


def _byte_diff(first: bytes, got: bytes) -> str:
    for i, (x, y) in enumerate(zip(first, got)):
        if x != y:
            return f"byte {i}: {x:#04x} != {y:#04x}"
    return f"length {len(first)} != {len(got)}"


def check_report(doc: dict, sweep: bool) -> list[str]:
    """A4 floors on a ``tfa run`` report, or on each alpha > 0 report of a
    combined ``tfa ablate`` file."""
    if sweep:
        pairs = [(v, r) for v, r in zip(doc["values"], doc["reports"]) if v > 0]
    else:
        pairs = [(None, doc)]
    problems = []
    for value, rep in pairs:
        tag = "" if value is None else f"alpha={value}: "
        final = rep["aggregate"]["sessions"][-1]["accuracy_mean"]
        hm = rep["aggregate"]["mean_harmonic"]
        if final < FINAL_ACCURACY_FLOOR:
            problems.append(f"{tag}final accuracy {final} < {FINAL_ACCURACY_FLOOR}")
        if hm is None or hm < MEAN_HARMONIC_FLOOR:
            problems.append(f"{tag}mean harmonic {hm} < {MEAN_HARMONIC_FLOOR}")
    return problems


def check_loss_history(meta: dict, reference: list | None) -> list[str]:
    hist = meta.get("loss_history") or []
    if len(hist) != TRAIN_ALIGN["epochs"] or not all(math.isfinite(x) for x in hist):
        return [f"loss history {hist!r} is not {TRAIN_ALIGN['epochs']} finite values"]
    if reference is not None:
        for i, (got, want) in enumerate(zip(hist, reference)):
            if abs(got - want) > LOSS_RTOL * abs(want):
                return [f"loss_history[{i}]: {got!r} differs from reference {want!r} "
                        f"by more than rtol {LOSS_RTOL}"]
    return []


class Gate:
    """Checks one workload's op outputs against the run's first op, the
    reference recorded for the default seed, and the quality floors."""

    def __init__(self, workload: str, seed: int):
        ref = json.loads((REFERENCE_DIR / "seed0.json").read_text())
        self.workload = workload
        self.reference = ref if seed == ref["seed"] else None
        self.first: list[bytes] | None = None

    def check(self, outputs: list[Path]) -> list[str]:
        blobs = [p.read_bytes() for p in outputs]
        problems = []
        if self.first is None:
            self.first = blobs
        else:
            for path, first, got in zip(outputs, self.first, blobs):
                if got != first:
                    diff = _byte_diff(first, got) if path.suffix == ".aln" \
                        else _json_diff(first, got)
                    problems.append(f"{path.name} differs from the run's first op: {diff}")
        if self.workload == "train":
            meta = json.loads(blobs[1])
            want = None if self.reference is None else self.reference["train_loss_history"]
            problems += check_loss_history(meta, want)
        else:
            if self.reference is not None:
                digest = hashlib.sha256(blobs[0]).hexdigest()
                want = self.reference[f"{self.workload}_sha256"]
                if digest != want:
                    doc = REFERENCE_DIR / f"seed{self.reference['seed']}-{self.workload}.json"
                    problems.append(f"sha256 {digest} != reference {want}; against "
                                    f"{doc.name}: {_json_diff(doc.read_bytes(), blobs[0])}")
            problems += check_report(json.loads(blobs[0]), self.workload == "sweep")
        return problems


# ---- child processes ----


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def child_env(work: Path, threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TFA_SEED", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
               TMPDIR=str(work), PYTHONHASHSEED="0")
    return env


def run_child(argv: list[str], cwd: Path, env: dict, deadline: float, log: Path) -> dict:
    """Run one child to completion; wall time from spawn to reaping, exit
    code and ``ru_maxrss`` from ``os.wait4``. A child still running at the
    deadline is killed and reported with exit code -9."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        status = usage = None
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except BaseException as e:
            # Timeout, interrupt or termination: never leave the child running.
            signal.setitimer(signal.ITIMER_REAL, 0)
            if status is None:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(e, _Timeout):
                raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


# ---- workloads ----


# One set-up for every workload, so that setup_s means the same thing on each:
# the seed's input files and the inference scorer.
SETUP_COMMANDS = (
    ["synth", "--config", "synth.json", "--out", "tasks"],
    ["train-align", "--base", "tasks/task_000.emb", "--protos", "tasks/prototypes.emb",
     "--config", "scorer.json", "--out", "scorer.aln"],
)


def op_command(workload: str, k: int) -> tuple[list[str], list[str]]:
    """tfa arguments of op ``k`` and the output files the gate reads."""
    if workload == "train":
        out = f"out/{k}.aln"
        return (["train-align", "--base", "tasks/task_000.emb", "--protos",
                 "tasks/prototypes.emb", "--config", "train.json", "--out", out],
                [out, out + ".meta.json"])
    out = f"out/{k}.json"
    if workload == "stream":
        return (["run", "--tasks", "tasks", "--align", "scorer.aln", "--config", "scorer.json",
                 "--base-update-policy", "always", "--capacity", "10",
                 "--trials", str(STREAM_TRIALS), "--out", out], [out])
    return (["ablate", "--tasks", "tasks", "--align", "scorer.aln", "--config", "scorer.json",
             "--sweep", "alpha", "--values", ",".join(f"{v:g}" for v in SWEEP_VALUES),
             "--trials", "1", "--out", out], [out])


def work_per_op(workload: str) -> tuple[str, int]:
    """Name and size of the work one op completes."""
    if workload == "train":
        samples = SYNTH["base_classes"] * SYNTH["train_per_base_class"]
        return "train_pairs", samples * SYNTH["base_classes"] * TRAIN_ALIGN["epochs"]
    classes = [SYNTH["base_classes"] + t * SYNTH["classes_per_novel_task"]
               for t in range(SYNTH["novel_tasks"] + 1)]
    per_trial = SYNTH["test_per_class"] * sum(classes)
    runs = STREAM_TRIALS if workload == "stream" else len(SWEEP_VALUES)
    return "predictions", per_trial * runs


def write_configs(d: Path, seed: int) -> None:
    d.mkdir(parents=True)
    (d / "out").mkdir()
    (d / "synth.json").write_text(json.dumps({**SYNTH, "seed": seed}))
    (d / "scorer.json").write_text(
        json.dumps({"seed": seed, "align": {**SCORER_ALIGN, "seed": seed}}))
    (d / "train.json").write_text(json.dumps({"align": {**TRAIN_ALIGN, "seed": seed}}))


def _tree_bytes(d: Path) -> dict:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


# ---- per-layer metrics ----

SETUP_LAYER_METRICS = ("synth.generate_synthetic.ms", "embeddings.save_embeddings.ms")
LAYERS = ("synth", "embeddings", "alignment", "adaptor", "protocol", "metrics", "rng", "cli")


def layer_metrics(records: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced op from its spans."""
    s = spans.summarize(records)

    def get(name, field="ms"):
        row = s.get(name)
        if row is None:
            return 0.0
        if field in ("calls", "ms", "self_ms"):
            return float(row[field])
        return float(row["attrs"][field])

    def per_s(amount, ms):
        return amount / (ms / 1000.0) if ms > 0 else 0.0

    out = {}
    for name, fields in (
        ("alignment.init_relation", ("ms",)),
        ("alignment.loss_and_grad", ("calls", "ms")), ("alignment.adam_step", ("calls", "ms")),
        ("alignment.train_alignment", ("self_ms",)), ("alignment.score_matrix", ("calls", "ms")),
        ("alignment.load_alignment", ("ms",)), ("alignment.save_alignment", ("ms",)),
        ("adaptor.cache_scores", ("calls", "ms")), ("adaptor.try_insert_base", ("calls", "ms")),
        ("adaptor.insert_novel", ("calls", "ms")), ("adaptor.pseudo_label", ("calls", "ms")),
        ("adaptor.argmax_lowest_id", ("calls", "ms")),
        ("protocol.run_session", ("calls", "ms", "self_ms")),
        ("protocol.run_experiment", ("self_ms",)), ("protocol.build_tasks", ("ms",)),
        ("protocol.validate_tasks", ("ms",)), ("metrics.aggregate_trials", ("ms",)),
        ("metrics.report_json", ("ms",)), ("embeddings.load_embeddings", ("ms",)),
        ("embeddings.load_prototypes", ("ms",)), ("embeddings.merge_embedding_sets", ("ms",)),
        ("embeddings.save_embeddings", ("ms",)), ("synth.generate_synthetic", ("ms",)),
        ("rng.Stream.permutation", ("calls", "ms")), ("cli.cmd_ablate", ("self_ms",)),
        ("cli.main", ("ms",)),
    ):
        for field in fields:
            out[f"{name}.{field}"] = get(name, field)
    lg_gflop = get("alignment.loss_and_grad", "flop") / 1e9
    out["alignment.loss_and_grad.gflop"] = lg_gflop
    out["alignment.loss_and_grad.gflop_per_s"] = per_s(lg_gflop, out["alignment.loss_and_grad.ms"])
    out["alignment.adam_step.mb_touched"] = get("alignment.adam_step", "bytes") / 1e6
    out["alignment.score_matrix.pairs"] = get("alignment.score_matrix", "pairs")
    out["alignment.score_matrix.gflop_per_s"] = per_s(
        get("alignment.score_matrix", "flop") / 1e9, out["alignment.score_matrix.ms"])
    calls = out["adaptor.cache_scores.calls"]
    out["adaptor.cache_scores.keys_per_call"] = (
        get("adaptor.cache_scores", "keys") / calls if calls else 0.0)
    inserts = out["adaptor.try_insert_base.calls"]
    for kind in ("inserted", "replaced", "rejected"):
        out[f"adaptor.try_insert_base.{kind}"] = get("adaptor.try_insert_base", kind)
    admitted = out["adaptor.try_insert_base.inserted"] + out["adaptor.try_insert_base.replaced"]
    out["adaptor.admit_ratio"] = admitted / inserts if inserts else 0.0
    for name in ("load_embeddings", "load_prototypes", "merge_embedding_sets"):
        out[f"embeddings.{name}.mb"] = get(f"embeddings.{name}", "bytes") / 1e6
    selfs = spans.self_times_ns(records)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(selfs[r["id"]] for r in records
                                      if r["name"].split(".")[0] == layer) / 1e6
    out["process.outside_main_ms"] = wall_s * 1000.0 - out["cli.main.ms"]
    return out


def acceptance_shares(workload: str, m: dict, wall_ms: float) -> dict[str, float]:
    """Share of the traced op's wall time spent where the workload aims."""
    if workload == "train":
        parts = {"loss_and_grad+adam_step":
                 m["alignment.loss_and_grad.ms"] + m["alignment.adam_step.ms"]}
    elif workload == "sweep":
        parts = {"score_matrix": m["alignment.score_matrix.ms"]}
    else:
        parts = {"run_session.self+adaptor":
                 m["protocol.run_session.self_ms"] + m["adaptor.self_ms"]}
    return {k: v / wall_ms for k, v in parts.items()}


# ---- the run ----


def _median(values):
    return statistics.median(values) if values else 0.0


def speed_factor(cal_s: list[float]) -> float:
    """Factor that scales a run's wall times to the reference speed.

    The host's speed drifts by a fifth or more over minutes, so the same code
    reads differently from one run to the next. The calibration child is
    timed throughout the run, beside the set-ups and ops; the ratio of its
    reference time to its median in this run is how much faster the machine
    was than when the reference was recorded. Program changes do not move
    the calibration, so they show in the scaled timings as in the raw ones.
    """
    return CALIBRATION_REF_S / statistics.median(cal_s)


def _fmt_count(values) -> str:
    return f"median of {len(values)}; no high percentile (fewer than 10 samples beyond any)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "stream", "sweep"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tfa" / "cli.py").is_file():
        print(f"error: no tfa sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, nproc - 1)
    load_before = os.getloadavg()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, work, deadline, nproc, threads, load_before)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()


def _run(args, work: Path, deadline: float, nproc: int, threads: int, load_before) -> int:
    workload, seed, trace = args.workload, args.seed, args.trace
    work.mkdir(parents=True)
    env = child_env(work, threads)
    py = sys.executable
    traced_entry = str(BENCH_DIR / "traced_tfa.py")
    span_dir = work / "spans"
    span_dir.mkdir()

    def tfa_argv(tfa_args, op_id=None):
        if op_id is None:
            return [py, "-m", "tfa", *tfa_args]
        return [py, traced_entry, str(span_dir / f"{op_id}.jsonl"), op_id, *tfa_args]

    probe = work / "probe.log"
    res = run_child([py, "-c", PROBE], work, env, deadline, probe)
    if res["code"] != 0:
        raise SetupError(f"machine probe failed: {_tail(probe)}")
    machine = {"nproc": nproc, **json.loads(probe.read_text().strip().splitlines()[-1]),
               "blas_threads_configured": threads}

    # Untraced runs time the calibration child after every set-up and op.
    cal_s = []

    def calibrate() -> float:
        if trace:
            return 0.0
        log = work / "calibration.log"
        res = run_child([py, "-c", CALIBRATION], work, env, deadline, log)
        if res["code"] != 0:
            raise SetupError(f"calibration exited {res['code']}: {_tail(log)}")
        cal_s.append(res["wall_s"])
        return res["wall_s"]

    # Set-up, SETUP_REPS times; each copy must be byte-identical to the first.
    setup_s, setup_layers = [], []
    for rep in range(SETUP_REPS):
        d = work / f"setup{rep}"
        t0 = time.perf_counter()
        write_configs(d, seed)
        ids = []
        for i, cmd in enumerate(SETUP_COMMANDS):
            op_id = f"setup{rep}.{i}" if trace else None
            log = work / f"setup{rep}.{i}.log"
            res = run_child(tfa_argv(cmd, op_id), d, env, deadline, log)
            if res["code"] != 0:
                raise SetupError(f"set-up step `tfa {cmd[0]}` exited {res['code']}: {_tail(log)}")
            ids.append(op_id)
        setup_s.append(time.perf_counter() - t0)
        calibrate()
        if trace:
            recs = [r for i in ids for r in spans.load(span_dir / f"{i}.jsonl")]
            setup_layers.append(layer_metrics(recs, 0.0))
        if rep:
            first, got = _tree_bytes(work / "setup0"), _tree_bytes(d)
            bad = sorted(k for k in set(first) | set(got) if first.get(k) != got.get(k))
            if bad:
                raise SetupError(f"set-up is not deterministic: {bad[0]} differs between copies")
    inputs = work / "setup0"

    # Ops: one warm-up, then until --seconds have passed. Traced runs
    # alternate traced and untraced ops, starting traced.
    gate = Gate(workload, seed)
    ops = []                # (k, traced, result, problems)
    k = 0
    measure_start = None
    while True:
        traced = bool(trace) and k > 0 and k % 2 == 1
        tfa_args, outputs = op_command(workload, k)
        log = work / f"op{k}.log"
        res = run_child(tfa_argv(tfa_args, f"op{k}" if traced else None),
                        inputs, env, deadline, log)
        if res["code"] != 0:
            problems = [f"exit code {res['code']}: {_tail(log)}"]
        else:
            try:
                problems = gate.check([inputs / o for o in outputs])
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                problems = [f"unreadable output: {e!r}"]
        for o in outputs:
            (inputs / o).unlink(missing_ok=True)
        ops.append((k, traced, res, problems))
        print(f"op {k}{' warm-up' if k == 0 else ''}{' traced' if traced else ''}: "
              f"{res['wall_s']:.3f} s, rss {res['rss_mb']:.1f} MB, "
              f"{'ok' if not problems else 'FAILED: ' + '; '.join(problems)}", flush=True)
        spent = res["wall_s"] + calibrate()
        k += 1
        now = time.monotonic()
        if measure_start is None:
            measure_start = now
            continue
        kinds = {t for _, t, _, _ in ops[1:]}
        done = now - measure_start >= args.seconds and (not trace or kinds == {True, False})
        if done or now + 1.5 * spent > deadline:
            break

    failed = sum(1 for op in ops if op[3])
    load_after = os.getloadavg()
    machine.update(loadavg_before=[round(x, 2) for x in load_before],
                   loadavg_after=[round(x, 2) for x in load_after])
    measured = ops[1:]
    plain = [op[2] for op in measured if not op[1]]
    work_name, work_size = work_per_op(workload)
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {workload}, seed {seed}: {len(ops)} ops (1 warm-up), {failed} failed")
    first_problem = next((f"op {op[0]}: {op[3][0]}" for op in ops if op[3]), None)
    if first_problem:
        print(f"first failure: {first_problem}")
    if gate.first is not None:
        print(f"first op output sha256 {hashlib.sha256(gate.first[0]).hexdigest()}")

    if not trace:
        factor = speed_factor(cal_s)
        raw_op_s, raw_setup_s = _median([r["wall_s"] for r in plain]), _median(setup_s)
        op_s = raw_op_s * factor
        metrics = {
            "op_s": (op_s, "s"),
            "setup_s": (raw_setup_s * factor, "s"),
            "work_per_s": (work_size / op_s if op_s else 0.0, "1/s"),
            "peak_rss_mb": (_median([r["rss_mb"] for r in plain]), "MB"),
        }
        print(f"  calibration        {_median(cal_s):.4f} s ({_fmt_count(cal_s)}); "
              f"reference {CALIBRATION_REF_S} s, so timings are scaled by {factor:.4f}")
        print(f"  setup_s            {metrics['setup_s'][0]:.4f} s ({_fmt_count(setup_s)}; "
              f"unscaled {raw_setup_s:.4f} s)")
        print(f"  op_s               {op_s:.4f} s ({_fmt_count(plain)}; "
              f"unscaled {raw_op_s:.4f} s)")
        print(f"  {work_name + '_per_s':<18} {metrics['work_per_s'][0]:.1f} 1/s "
              f"({work_size} {work_name} per op; reported as work_per_s)")
        print(f"  peak_rss_mb        {metrics['peak_rss_mb'][0]:.1f} MB")
        print(f"  failed_frac        {failed / len(ops):.4f} ({failed}/{len(ops)})")
        print(f"  {_quality_line(workload, gate)}")
    else:
        per_op, shares = [], []
        for k, traced, res, problems in measured:
            if traced and not problems:
                recs = spans.load(span_dir / f"op{k}.jsonl")
                m = layer_metrics(recs, res["wall_s"])
                per_op.append(m)
                shares.append(acceptance_shares(workload, m, res["wall_s"] * 1000.0))
        untraced_s = _median([r["wall_s"] for r in plain])
        traced_s = _median([op[2]["wall_s"] for op in measured if op[1]])
        metrics = {}
        for name in sorted(per_op[0]) if per_op else []:
            source = setup_layers if name in SETUP_LAYER_METRICS else per_op
            metrics[name] = (_median([m[name] for m in source]), _unit(name))
        overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        print(f"  traced op {traced_s:.3f} s vs untraced {untraced_s:.3f} s "
              f"({len(per_op)} traced, {len(plain)} untraced)")
        for key in shares[0] if shares else []:
            print(f"  share of traced op wall in {key}: "
                  f"{100 * _median([s[key] for s in shares]):.1f}%")
        split = {layer: _median([m[f'{layer}.self_ms'] for m in per_op]) for layer in LAYERS}
        split["outside cli.main"] = _median([m["process.outside_main_ms"] for m in per_op])
        print("  self time by layer (ms): " + ", ".join(f"{k} {v:.1f}" for k, v in split.items()))

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "ms": "ms", "self_ms": "ms", "gflop": "GFLOP",
            "gflop_per_s": "GFLOP/s", "mb_touched": "MB", "mb": "MB", "pairs": "count",
            "keys_per_call": "count", "inserted": "count", "replaced": "count",
            "rejected": "count", "admit_ratio": "ratio", "outside_main_ms": "ms"}[suffix]


def _quality_line(workload: str, gate: Gate) -> str:
    if gate.first is None:
        return "quality            n/a (no op output)"
    if workload == "train":
        meta = json.loads(gate.first[1])
        return f"train_loss         {meta['final_loss']!r} (final epoch, ALN1 sidecar)"
    doc = json.loads(gate.first[0])
    hms = doc["mean_harmonic"] if workload == "sweep" else [doc["aggregate"]["mean_harmonic"]]
    return "mean_harmonic      " + ", ".join(f"{h}" for h in hms) + " %"


if __name__ == "__main__":
    raise SystemExit(main())
