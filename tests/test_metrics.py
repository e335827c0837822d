import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfa.errors import ValidationError
from tfa.metrics import (
    accuracy,
    aggregate_trials,
    check_report,
    delta,
    emit_report,
    experiment_report,
    harmonic,
    report_csv,
    report_json,
    report_markdown,
    split_accuracy,
)

accs = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def test_accuracy_basics():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 100.0
    assert accuracy([1, 2, 3], [4, 5, 6]) == 0.0
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 75.0
    with pytest.raises(ValidationError, match="^accuracy of an empty set"):
        accuracy([], [])
    with pytest.raises(ValueError, match="differ in length"):
        accuracy([1, 2], [1])


def test_split_accuracy_sides():
    base = {0, 1}
    a_b, a_n = split_accuracy([0, 1, 5, 5], [0, 1, 5, 6], base)
    assert a_b == 100.0 and a_n == 50.0
    a_b, a_n = split_accuracy([0, 1], [0, 1], base)
    assert a_b == 100.0 and a_n is None
    a_b, a_n = split_accuracy([0, 9], [1, 5], base)
    assert a_b == 0.0 and a_n == 0.0
    with pytest.raises(ValidationError, match="split_accuracy of an empty set"):
        split_accuracy([], [], base)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=60),
       st.sets(st.integers(0, 9)))
def test_split_accuracy_matches_exhaustive_tally(pairs, base):
    preds = [p for p, _ in pairs]
    truths = [t for _, t in pairs]
    nb = cb = nn = cn = 0
    for p, t in pairs:
        if t in base:
            nb += 1
            cb += p == t
        else:
            nn += 1
            cn += p == t
    a_b, a_n = split_accuracy(preds, truths, base)
    if nb:
        assert a_b == pytest.approx(100.0 * cb / nb)
    else:
        assert a_b is None
    if nn:
        assert a_n == pytest.approx(100.0 * cn / nn)
    else:
        assert a_n is None
    # joint accuracy is the sample-weighted combination of the two sides
    joint = accuracy(preds, truths)
    assert joint == pytest.approx((cb + cn) * 100.0 / (nb + nn))


def test_harmonic_examples():
    assert harmonic(66.0, 66.0) == pytest.approx(66.0, abs=1e-12)
    assert harmonic(80.0, 0.0) == 0.0
    assert harmonic(0.0, 0.0) == 0.0
    assert harmonic(80.0, 60.0) == pytest.approx(68.571428571428571, abs=1e-9)
    with pytest.raises(ValueError, match=">= 0"):
        harmonic(-1.0, 1.0)


@given(accs, accs)
def test_harmonic_bounds(a, b):
    h = harmonic(a, b)
    assert min(a, b) - 1e-9 <= h <= max(a, b) + 1e-9
    assert h <= (a + b) / 2.0 + 1e-9


def test_delta_published_rows():
    # published accuracy-decline values reproduce within +/-0.1
    rows = [((87.3, 72.6), 16.8), ((88.4, 1.9), 97.9), ((81.0, 67.3), 16.9),
            ((90.8, 85.6), 5.75), ((87.7, 79.2), 9.6), ((81.0, 1.6), 98.0)]
    for (first, last), published in rows:
        assert abs(delta([first, last]) - published) <= 0.1


def test_delta_constant_series_is_zero():
    assert delta([50.0, 50.0, 50.0]) == 0.0


def test_delta_errors():
    with pytest.raises(ValueError):
        delta([50.0])
    with pytest.raises(ValidationError, match="undefined for zero base accuracy"):
        delta([0.0, 10.0])


@given(st.lists(accs, min_size=2, max_size=8).filter(lambda xs: xs[0] > 1.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_delta_scale_invariance(series, k):
    scaled = [x * k for x in series]
    assert delta(scaled) == pytest.approx(delta(series), rel=1e-9, abs=1e-9)


def _session(idx, acc, a_b=None, a_n=None, n=10, classes=5):
    hm = None
    if a_b is not None and a_n is not None:
        hm = harmonic(a_b, a_n)
    return {"session": idx, "n_test": n, "n_classes": classes, "accuracy": acc,
            "base_accuracy": a_b, "novel_accuracy": a_n, "harmonic": hm,
            "both_zero": False, "per_class": {}, "cache": None}


def test_mean_harmonic():
    reps = [_session(0, 99.0, a_b=99.0),
            _session(1, 80.0, 90.0, 90.0),
            _session(2, 70.0, 70.0, 70.0)]
    reps[1]["harmonic"] = 60.0
    reps[2]["harmonic"] = 80.0
    assert aggregate_trials([{"seed": 1, "sessions": reps}])[2] == pytest.approx(70.0)
    assert aggregate_trials([{"seed": 1, "sessions": [_session(0, 99.0, a_b=99.0)]}])[2] is None


def _report():
    trials = []
    for seed in (11, 22):
        trials.append({"seed": seed, "sessions": [
            _session(0, 98.0, a_b=98.0, n=40, classes=4),
            _session(1, 90.0 + seed / 100.0, 95.0, 85.0, n=50, classes=6),
        ]})
    return experiment_report({"experiment": {"seed": 1}}, {}, trials)


def test_aggregate_means():
    rep = _report()
    aggs = rep["aggregate"]["sessions"]
    assert aggs[1]["accuracy_mean"] == pytest.approx((90.11 + 90.22) / 2)
    assert aggs[0]["novel_mean"] is None
    assert rep["aggregate"]["mean_harmonic"] == pytest.approx(
        np.mean([t["sessions"][1]["harmonic"] for t in rep["trials"]]))


def test_json_emission_is_byte_deterministic():
    r1, r2 = _report(), _report()
    assert report_json(r1) == report_json(r2)
    assert report_json(r1).endswith("\n")
    # the parsed form passes the boundary check and renders as the report does
    doc = check_report(json.loads(report_json(r1)))
    assert doc["aggregate"]["delta"] == pytest.approx(r1["aggregate"]["delta"], abs=1e-4)
    assert report_csv(doc) == report_csv(r1)
    assert report_markdown(doc) == report_markdown(r1)


def test_csv_shape_and_values():
    rep = _report()
    lines = report_csv(rep).strip().split("\n")
    assert lines[0] == "trial,session,n_test,acc,A_b,A_n,A_h"
    assert len(lines) == 1 + 2 * 2  # header + trials x sessions
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "40"]
    assert first[5] == ""  # A_n absent at session 0
    assert float(lines[2].split(",")[5]) == pytest.approx(85.0)


def test_markdown_contains_wide_row_and_parses_back():
    rep = _report()
    md = report_markdown(rep)
    lines = md.strip().split("\n")
    wide = lines[2]
    cells = [c.strip() for c in wide.strip("|").split("|")]
    assert cells[0] == "accuracy"
    # wide row: one accuracy per session plus delta, at 1 decimal
    aggs = rep["aggregate"]["sessions"]
    assert len(cells) == 2 + len(aggs)
    assert float(cells[1]) == pytest.approx(round(aggs[0]["accuracy_mean"], 1))
    assert float(cells[-1]) == pytest.approx(round(rep["aggregate"]["delta"], 1))
    # per-session detail rows parse back to the same 1-decimal numbers
    detail = [l for l in lines if l.startswith("| 1 |")][0]
    vals = [c.strip() for c in detail.strip("|").split("|")]
    assert float(vals[2]) == pytest.approx(round(aggs[1]["accuracy_mean"], 1))
    assert "mean harmonic accuracy" in lines[-1]


def test_emit_report_dispatch():
    doc = _report()
    assert emit_report(doc, "json") == report_json(doc)
    assert emit_report(doc, "csv") == report_csv(doc)
    assert emit_report(doc, "md") == report_markdown(doc)
    with pytest.raises(ValueError):
        emit_report(doc, "xml")
