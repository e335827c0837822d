"""Evaluation metrics and report emission.

Accuracies are percentages in [0, 100]. Per-session results split into base
and novel parts; the harmonic accuracy 2*A_b*A_n/(A_b+A_n) summarizes their
balance, and the accuracy decline Delta = |acc_T - acc_0| / acc_0 * 100
summarizes end-to-end degradation. A report is one plain document from the
start (``experiment_report``): ``trials`` lists ``{"seed", "sessions"}``,
each session a dict of ``session, n_test, n_classes, accuracy,
base_accuracy, novel_accuracy, harmonic, both_zero, per_class`` (str(class
id) -> [n, correct]) and ``cache``; ``aggregate`` holds the per-session
means, ``delta`` and ``mean_harmonic``. It is written as canonical JSON
(sorted keys, floats rounded to 4 decimals, byte-deterministic), checked on
the way back in by ``check_report``, and rendered as CSV with the fixed
column order ``trial,session,n_test,acc,A_b,A_n,A_h`` or as a markdown
summary with one wide accuracy row plus the per-session detail table (1
decimal place).
"""

from __future__ import annotations

import csv as _csv
import io
import json

import numpy as np

from .errors import FormatError, ValidationError, check_int, check_real


def accuracy(predictions, truths) -> float:
    """Percentage of matching entries."""
    preds = np.asarray(predictions)
    ys = np.asarray(truths)
    if preds.shape != ys.shape:
        raise ValueError("predictions and truths differ in length")
    if preds.size == 0:
        raise ValidationError("accuracy of an empty set")
    return 100.0 * float(np.count_nonzero(preds == ys)) / preds.size


def split_accuracy(predictions, truths, base_classes) -> tuple[float | None, float | None]:
    """(A_b, A_n): accuracy over base-labeled and novel-labeled samples.

    A side with no samples is reported as None.
    """
    preds = np.asarray(predictions)
    ys = np.asarray(truths)
    if preds.size == 0:
        raise ValidationError("split_accuracy of an empty set")
    base = np.array([int(y) in base_classes for y in ys])
    a_b = accuracy(preds[base], ys[base]) if base.any() else None
    a_n = accuracy(preds[~base], ys[~base]) if (~base).any() else None
    return a_b, a_n


def harmonic(a_b: float, a_n: float) -> float:
    """Harmonic accuracy; zero if either side is zero."""
    if a_b < 0 or a_n < 0:
        raise ValueError("accuracies must be >= 0")
    if a_b == 0.0 or a_n == 0.0:
        return 0.0
    return 2.0 * a_b * a_n / (a_b + a_n)


def delta(session_accuracies) -> float:
    """Accuracy decline |acc_T - acc_0| / acc_0 * 100 over a session series."""
    accs = [float(a) for a in session_accuracies]
    if len(accs) < 2:
        raise ValueError("delta needs at least two sessions")
    if accs[0] <= 0.0:
        raise ValidationError("accuracy decline undefined for zero base accuracy")
    return abs(accs[-1] - accs[0]) / accs[0] * 100.0


# ---- the report document ----

SCHEMA = "tfa-report-v1"


def _mean_opt(values):
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def aggregate_trials(trials: list) -> tuple[list, float, float | None]:
    """Per-session aggregate dicts over trials, plus delta and mean harmonic."""
    aggs = []
    for s in range(len(trials[0]["sessions"])):
        reports = [t["sessions"][s] for t in trials]
        accs = [r["accuracy"] for r in reports]
        aggs.append({
            "session": s,
            "n_test": reports[0]["n_test"],
            "n_classes": reports[0]["n_classes"],
            "accuracy_mean": float(np.mean(accs)),
            "accuracy_std": float(np.std(accs)),
            "base_mean": _mean_opt([r["base_accuracy"] for r in reports]),
            "novel_mean": _mean_opt([r["novel_accuracy"] for r in reports]),
            "harmonic_mean": _mean_opt([r["harmonic"] for r in reports]),
        })
    d = delta([a["accuracy_mean"] for a in aggs]) if len(aggs) >= 2 else 0.0
    return aggs, d, _mean_opt([a["harmonic_mean"] for a in aggs])


def experiment_report(config: dict, flags: dict, trials: list) -> dict:
    """The report document of ``trials``, each ``{"seed", "sessions"}`` with
    one session dict per session run: what is written, checked and rendered."""
    aggs, d, hm = aggregate_trials(trials)
    return {
        "schema": SCHEMA,
        "config": config,
        "flags": flags,
        "trials": trials,
        "aggregate": {"sessions": aggs, "delta": d, "mean_harmonic": hm},
    }


# ---- boundary check and emission ----

# Every field the renderers read, nested as in the document: "int" and
# "real" must be finite and >= 0, "real?" the same or null.
_RENDERED_FIELDS = {
    "trials": [{"sessions": [{
        "session": "int", "n_test": "int", "accuracy": "real",
        "base_accuracy": "real?", "novel_accuracy": "real?", "harmonic": "real?",
    }]}],
    "aggregate": {"delta": "real", "mean_harmonic": "real?", "sessions": [{
        "session": "int", "n_test": "int", "n_classes": "int", "accuracy_mean": "real",
        "base_mean": "real?", "novel_mean": "real?", "harmonic_mean": "real?",
    }]},
}


def _check_fields(value, spec, path: str) -> None:
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise FormatError(f"{path} must be an object")
        for key, sub in spec.items():
            if key not in value:
                raise FormatError(f"{path} has no {key!r}")
            _check_fields(value[key], sub, f"{path}.{key}")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            raise FormatError(f"{path} must be a list")
        for i, item in enumerate(value):
            _check_fields(item, spec[0], f"{path}[{i}]")
    elif spec == "int":
        check_int(path, value, lo=0, error=FormatError)
    elif not (spec == "real?" and value is None):
        check_real(path, value, lo=0, error=FormatError)


def check_report(doc) -> dict:
    """Return ``doc`` if it is a report document the renderers can read;
    raise FormatError otherwise. This is the boundary check for report
    files: the schema tag, and the type and range of every rendered field."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise FormatError(f"not a report file: schema is not {SCHEMA!r}")
    _check_fields(doc, _RENDERED_FIELDS, "report")
    return doc


def _round_floats(x):
    if isinstance(x, float):
        v = round(x, 4)
        return 0.0 if v == 0.0 else v
    if isinstance(x, dict):
        return {k: _round_floats(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round_floats(v) for v in x]
    return x


def canonical_json(doc) -> str:
    """Canonical JSON: sorted keys, 4-decimal floats, deterministic bytes.

    Keys sort as they are given: string keys (``per_class``)
    lexicographically, integer keys (cache fills) numerically.
    """
    return json.dumps(_round_floats(doc), sort_keys=True, indent=2) + "\n"


def report_json(doc: dict) -> str:
    return canonical_json(doc)


def _cell(x) -> str:
    return "" if x is None else f"{x:.4f}"


def report_csv(doc: dict) -> str:
    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(["trial", "session", "n_test", "acc", "A_b", "A_n", "A_h"])
    for ti, trial in enumerate(doc["trials"]):
        for s in trial["sessions"]:
            w.writerow([ti, s["session"], s["n_test"], _cell(s["accuracy"]),
                        _cell(s["base_accuracy"]), _cell(s["novel_accuracy"]),
                        _cell(s["harmonic"])])
    return buf.getvalue()


def _md1(x) -> str:
    return "-" if x is None else f"{x:.1f}"


def report_markdown(doc: dict) -> str:
    agg = doc["aggregate"]
    aggs = agg["sessions"]
    lines = []
    lines.append("| classes | " + " | ".join(str(a["n_classes"]) for a in aggs) + " | delta |")
    lines.append("|" + "---|" * (len(aggs) + 2))
    lines.append("| accuracy | " + " | ".join(_md1(a["accuracy_mean"]) for a in aggs)
                 + f" | {_md1(agg['delta'])} |")
    lines.append("")
    lines.append("| session | n_test | acc | A_b | A_n | A_h |")
    lines.append("|" + "---|" * 6)
    for a in aggs:
        lines.append(f"| {a['session']} | {a['n_test']} | {_md1(a['accuracy_mean'])} | "
                     f"{_md1(a['base_mean'])} | {_md1(a['novel_mean'])} | "
                     f"{_md1(a['harmonic_mean'])} |")
    lines.append("")
    lines.append(f"mean harmonic accuracy: {_md1(agg['mean_harmonic'])}")
    return "\n".join(lines) + "\n"


def emit_report(doc: dict, fmt: str) -> str:
    """Render a report document (``experiment_report``'s, or a file that
    passed ``check_report``) as ``"json"``, ``"csv"`` or ``"md"``."""
    if fmt == "json":
        return canonical_json(doc)
    if fmt == "csv":
        return report_csv(doc)
    if fmt == "md":
        return report_markdown(doc)
    raise ValueError(f"unknown report format {fmt!r}")
