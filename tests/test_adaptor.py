import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfa.adaptor import (
    DualCache,
    affinity,
    argmax_lowest_id,
    argmax_lowest_ids,
    cache_scores,
    entropies,
    fuse,
    pseudo_label,
    retrieve,
    schedule_admissions,
)
from tfa.alignment import _sigmoid, init_relation, score_matrix
from tfa.errors import DimMismatch, ShotCapacityExceeded
from tfa.numerics import entropy, l2_normalize, softmax
from tfa.protocol import stream_predictions
from tfa.rng import Stream

from helpers import base_rows, make_unit, ref_cache_scores, traced_peak


def row(logits, ids=None):
    """A logit row and its class ids, ``0..n-1`` unless given."""
    logits = np.asarray(logits, dtype=float)
    return logits, np.arange(logits.shape[0]) if ids is None else np.asarray(ids)


def unit(m, seed):
    return make_unit(Stream(seed), m)


# ---- pseudo labels ----

def test_pseudo_label_confident_case():
    cls, h = pseudo_label(*row([5.0, 0.0, 0.0]))
    assert cls == 0
    # softmax+entropy oracle value
    assert h == pytest.approx(0.079869446510108941, abs=1e-9)
    assert h == pytest.approx(entropy(softmax([5.0, 0.0, 0.0])), abs=1e-15)


def test_pseudo_label_tie_goes_to_lowest_class_id():
    cls, h = pseudo_label(*row([1.0, 1.0, 1.0, 1.0]))
    assert cls == 0
    assert h == pytest.approx(np.log(4.0), abs=1e-12)
    cls, _ = pseudo_label(*row([1.0, 1.0], ids=[9, 4]))
    assert cls == 4


def test_pseudo_label_single_class():
    cls, h = pseudo_label(*row([2.5]))
    assert cls == 0 and h == 0.0


# ---- batched entropies: the scalar functions' bytes, row by row ----

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _assert_scalar_bytes(block):
    """Every row of ``entropies(block)`` is ``entropy(softmax(row))``'s bytes."""
    got = entropies(block)
    want = np.array([entropy(softmax(r)) for r in np.asarray(block)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == want.shape
    bad = [i for i in range(len(want)) if got[i:i + 1].tobytes() != want[i:i + 1].tobytes()]
    assert bad == [], f"rows {bad[:5]}: {got[bad[:5]]} vs {want[bad[:5]]}"


@pytest.mark.parametrize("width", range(1, 301))
def test_entropies_equal_the_scalar_functions_at_every_width(width):
    # numpy's pairwise sum regroups at 8 and at 128 terms, so every width
    # up to 300 is its own case.
    stream = Stream(1000 + width)
    rows = [scale * stream.normal(width) + shift
            for scale, shift in ((1e-3, 0.0), (0.3, -2.5), (1.0, 0.0), (4.0, 1.0), (30.0, 0.0))
            for _ in range(4)]
    ties = [np.zeros(width), np.full(width, -2.0)]
    if width > 1:
        top = np.round(stream.normal(width), 1)
        top[[0, -1]] = top.max() + 1.0          # the maximum, twice
        ties.append(top)
    block = np.vstack(rows + ties)
    _assert_scalar_bytes(block)
    # the layout of the block does not move a row's bytes
    _assert_scalar_bytes(np.asfortranarray(block))
    _assert_scalar_bytes(np.hstack([block, block])[:, ::2])
    if width > 1:
        # a spread that underflows probabilities to 0 takes the scalar path
        under = block[:4].copy()
        under[:, -1] -= 1e4
        under[1, : width // 2] -= 800.0
        assert all(np.any(softmax(r) == 0.0) for r in under)
        _assert_scalar_bytes(np.vstack([under, block]))


@pytest.fixture(scope="module")
def bench_tables():
    """The benchmark's seed-0, -207 and -603 worlds and scorers (synth shape
    and scorer set-up from ``bench/run.py``): each 700 x 35 score table."""
    import sys

    sys.path.insert(0, str(BENCH))
    try:
        import run as bench_run
    finally:
        sys.path.remove(str(BENCH))
    from tfa.alignment import TrainConfig
    from tfa.protocol import build_tasks, train_base_alignment
    from tfa.synth import SynthConfig, generate_synthetic

    tables = {}
    for seed in (0, 207, 603):
        data, protos = generate_synthetic(SynthConfig(**bench_run.SYNTH, seed=seed))
        hyper = TrainConfig.from_dict({**bench_run.SCORER_ALIGN, "seed": seed})
        scorer, _ = train_base_alignment(hyper, data, protos)
        tasks = build_tasks(data)
        by_id = {p.class_id: p.vector for p in protos}
        order = [c for t in tasks for c in sorted(t.class_ids)]
        test = [i for t in tasks for i in t.test_indices]
        tables[seed] = score_matrix(scorer, data.vectors[test],
                                    np.stack([by_id[c] for c in order]))
    return tables


@pytest.mark.parametrize("seed", [0, 207, 603])
def test_entropies_equal_the_scalar_functions_on_bench_tables(bench_tables, seed):
    table = bench_tables[seed]
    assert table.shape == (700, 35)
    for n_classes in (20, 25, 30, 35):        # the session widths a stream reads
        _assert_scalar_bytes(table[:, :n_classes])


def test_entropies_reject_what_the_scalar_functions_reject():
    for bad in ([0.0, np.inf], [np.nan, 1.0], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            entropies(np.array([[0.5, 0.5], bad]))
        with pytest.raises(ValueError, match="non-finite"):
            pseudo_label(np.array(bad), np.arange(2))


# ---- base cache ----

def _row_with_entropy(cls, n_classes, sharpness):
    logits = np.zeros(n_classes)
    logits[cls] = sharpness
    return row(logits)


def test_insert_below_capacity():
    cache = DualCache(capacity=5, shots=5)
    out = cache.try_insert_base(unit(4, 1), *_row_with_entropy(0, 3, 4.0))
    assert out.kind == "inserted" and len(base_rows(cache, 0)[1]) == 1


def test_replacement_evicts_the_max_entropy_entry():
    cache = DualCache(capacity=5, shots=5)
    # entropies decrease as sharpness grows
    sharps = [8.0, 4.0, 3.0, 2.5, 1.0]
    for k, s in enumerate(sharps):
        assert cache.try_insert_base(unit(4, k), *_row_with_entropy(0, 3, s)).kind == "inserted"
    worst = base_rows(cache, 0)[1].max()
    mid_row = _row_with_entropy(0, 3, 2.0)  # entropy between the stored ones
    _, mid_h = pseudo_label(*mid_row)
    out = cache.try_insert_base(unit(4, 99), *mid_row)
    assert out.kind == "replaced"
    assert out.evicted == pytest.approx(worst)
    assert mid_h < worst
    assert len(base_rows(cache, 0)[1]) == 5
    assert base_rows(cache, 0)[1].max() < worst


def test_equal_entropy_is_rejected():
    cache = DualCache(capacity=2, shots=1)
    for k in range(2):
        cache.try_insert_base(unit(4, k), *_row_with_entropy(0, 3, 1.0))
    out = cache.try_insert_base(unit(4, 9), *_row_with_entropy(0, 3, 1.0))
    assert out.kind == "rejected" and out.reason == "HighEntropy"


def test_higher_entropy_is_rejected_at_capacity():
    cache = DualCache(capacity=1, shots=1)
    cache.try_insert_base(unit(4, 0), *_row_with_entropy(1, 3, 5.0))
    out = cache.try_insert_base(unit(4, 1), *_row_with_entropy(1, 3, 0.5))
    assert out.kind == "rejected"


@pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.6, 0.6, 0.6]])
def test_every_insert_path_rejects_a_key_that_is_not_unit_norm(bad):
    logits, ids = _row_with_entropy(0, 3, 2.0)
    good = unit(3, 0)
    cache = DualCache(capacity=2, shots=2)
    with pytest.raises(ValueError, match="cache key must be unit-norm"):
        cache.insert_novel(np.array(bad), 1)
    with pytest.raises(ValueError, match="cache key must be unit-norm"):
        cache.try_insert_base(np.array(bad), logits, ids)
    # a batch is checked whole before the cache changes
    with pytest.raises(ValueError, match="cache key must be unit-norm"):
        schedule_admissions(cache, np.stack([good, np.array(bad)]), np.stack([logits, logits]),
                            ids, frozenset({0}))
    assert len(cache) == 0


# ---- novel cache ----

def test_novel_capacity_is_k():
    cache = DualCache(capacity=5, shots=5)
    for k in range(5):
        cache.insert_novel(unit(4, k), 12)
    with pytest.raises(ShotCapacityExceeded):
        cache.insert_novel(unit(4, 6), 12)


def test_novel_total_count_and_verbatim_keys():
    cache = DualCache(capacity=5, shots=3)
    keys = {}
    for cls in (4, 7, 9):
        for k in range(3):
            key = unit(6, 10 * cls + k)
            keys[(cls, k)] = key
            cache.insert_novel(key, cls)
    assert len(cache) == 9
    for cls in (4, 7, 9):
        rows = np.flatnonzero(cache.values == cls)
        assert len(rows) == 3
        for k, r in enumerate(rows):
            np.testing.assert_array_equal(cache.keys[r], keys[(cls, k)])
            assert cache.entropies[r] == 0.0 and cache.novel[r]


# ---- affinity / retrieval / fusion ----

def test_affinity_closed_forms():
    assert affinity(1.0, 3.7) == pytest.approx(1.0, abs=1e-15)
    assert affinity(0.123, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert affinity(0.0, 2.0) == pytest.approx(0.13533528323661269, abs=1e-12)


def test_cache_scores_empty_cache_is_zero():
    cache = DualCache()
    np.testing.assert_array_equal(cache_scores(cache, unit(4, 0), 2.0, np.arange(6)),
                                  np.zeros(6))


def test_cache_scores_exact_match_is_one_hot():
    cache = DualCache(shots=1)
    v = unit(5, 3)
    cache.insert_novel(v, 2)
    b = cache_scores(cache, v, 2.0, np.arange(4))
    np.testing.assert_allclose(b, [0, 0, 1.0, 0], atol=1e-12)


def test_cache_scores_two_entries_brute_force():
    # keys at cosine 1 and ~0 to the query, values j=1 and k=3, beta=2
    m = 4
    v = np.array([1.0, 0.0, 0.0, 0.0])
    orth = np.array([0.0, 1.0, 0.0, 0.0])
    cache = DualCache(shots=1)
    cache.insert_novel(v, 1)
    cache.insert_novel(orth, 3)
    b = cache_scores(cache, v, 2.0, np.arange(5))
    expected = np.zeros(5)
    expected[1] = np.exp(-2.0 * (1.0 - 1.0))
    expected[3] = np.exp(-2.0 * (1.0 - 0.0))
    np.testing.assert_allclose(b, expected, atol=1e-12)
    assert b[3] == pytest.approx(0.13533528323661269, abs=1e-9)


def test_cache_scores_rejects_out_of_range_class():
    cache = DualCache(shots=1)
    cache.insert_novel(unit(4, 0), 9)
    with pytest.raises(DimMismatch):
        cache_scores(cache, unit(4, 1), 2.0, np.arange(5))


def test_fuse_examples():
    a = _sigmoid(np.log([0.2 / 0.8, 0.8 / 0.2]))  # scores (0.2, 0.8)
    np.testing.assert_allclose(fuse(a, [1.0, 0.0], 2.0), [2.2, 0.8], atol=1e-12)
    np.testing.assert_allclose(fuse(a, [0.0, 0.0], 7.0), a, atol=0)
    np.testing.assert_allclose(fuse(a, [0.3, 0.4], 0.0), a, atol=0)
    with pytest.raises(DimMismatch):
        fuse(a, [1.0, 2.0, 3.0], 1.0)


# ---- full prediction path: one query through the stream kernels ----

def _tiny_scorer(m=6):
    return init_relation(m, seed=5, hidden=(8, 4))


def _one_query(params, stream, n_classes):
    """Unit prototypes, one unit query, the query's logit row and scores."""
    protos = np.stack([make_unit(stream, 6) for _ in range(n_classes)])
    v = make_unit(stream, 6)
    logits = score_matrix(params, v[None, :], protos)
    return v, logits, _sigmoid(logits[0])


def _predict(cache, v, logits, alpha, beta):
    """Fused scores and predicted class of one query; the cache is not updated."""
    ids = np.arange(logits.shape[1])
    z = fuse(_sigmoid(logits[0]), cache_scores(cache, v, beta, ids), alpha)
    (pred,) = stream_predictions(cache, v[None, :], logits, ids, [(alpha, beta)], frozenset())
    assert pred.shape == (1,) and pred[0] == argmax_lowest_id(z, ids)
    return z, int(pred[0])


def test_predict_with_empty_cache_matches_argmax_a():
    params = _tiny_scorer()
    v, logits, a = _one_query(params, Stream(8), 4)
    z, cls = _predict(DualCache(), v, logits, alpha=2.0, beta=2.0)
    assert cls == int(np.argmax(a))
    np.testing.assert_allclose(z, a, atol=0)


def test_predict_alpha_zero_ignores_cache():
    params = _tiny_scorer()
    stream = Stream(9)
    v, logits, _ = _one_query(params, stream, 3)
    cache = DualCache(shots=5)
    for k in range(5):
        cache.insert_novel(make_unit(stream, 6), 2)
    z0, c0 = _predict(cache, v, logits, alpha=0.0, beta=2.0)
    z1, c1 = _predict(DualCache(), v, logits, alpha=0.0, beta=2.0)
    assert c0 == c1
    np.testing.assert_allclose(z0, z1, atol=0)


def test_predict_novel_shot_flips_the_argmax():
    # one cached shot equal to the query adds exactly alpha to that class
    params = _tiny_scorer()
    v, logits, a = _one_query(params, Stream(10), 3)
    cache = DualCache(shots=1)
    cache.insert_novel(v, 2)
    z, cls = _predict(cache, v, logits, alpha=2.0, beta=2.0)
    assert z[2] == pytest.approx(a[2] + 2.0, abs=1e-12)
    if (a.max() - a[2]) < 2.0:
        assert cls == 2


# ---- invariants ----

@given(st.integers(min_value=1, max_value=6), st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.floats(min_value=0.1, max_value=8.0)),
    min_size=1, max_size=60))
@settings(max_examples=120, deadline=None)
def test_capacity_safety_and_monotone_max(capacity, events):
    cache = DualCache(capacity=capacity, shots=3)
    stream = Stream(0)
    max_at_capacity = {}
    for cls, sharp in events:
        logits, ids = _row_with_entropy(cls, 5, sharp)
        labeled_cls, h = pseudo_label(logits, ids)
        _, pre = base_rows(cache, labeled_cls)
        pre_max = max(pre, default=None)
        out = cache.try_insert_base(make_unit(stream, 4), logits, ids)
        _, post = base_rows(cache, labeled_cls)
        assert len(post) <= capacity
        if out.kind == "replaced":
            assert len(pre) == capacity
            assert out.evicted == pre_max
            assert h < pre_max
        elif out.kind == "rejected":
            assert len(pre) == capacity and h >= pre_max
        else:
            assert len(pre) < capacity
        if len(post) == capacity:
            cur = max(post)
            if labeled_cls in max_at_capacity:
                assert cur <= max_at_capacity[labeled_cls] + 1e-15
            max_at_capacity[labeled_cls] = cur


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
       st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=6))
def test_alpha_zero_argmax_invariance(a, b):
    n = min(len(a), len(b))
    a, b = np.asarray(a[:n]), np.asarray(b[:n])
    ids = np.arange(n)
    assert argmax_lowest_id(fuse(a, b, 0.0), ids) == argmax_lowest_id(a, ids)


def test_beta_monotonicity():
    cache = DualCache(shots=3)
    stream = Stream(4)
    for cls in (0, 1):
        for k in range(3):
            cache.insert_novel(make_unit(stream, 8), cls)
    v = make_unit(stream, 8)
    prev = cache_scores(cache, v, 0.0, np.arange(2))
    for beta in (0.5, 1.0, 2.0, 4.0):
        cur = cache_scores(cache, v, beta, np.arange(2))
        assert np.all(cur <= prev + 1e-12)
        prev = cur


def test_duplicated_entry_doubles_its_contribution():
    key = unit(5, 2)
    v = unit(5, 3)
    single = DualCache(shots=2)
    single.insert_novel(key, 1)
    double = DualCache(shots=2)
    double.insert_novel(key, 1)
    double.insert_novel(key, 1)
    b1 = cache_scores(single, v, 2.0, np.arange(3))
    b2 = cache_scores(double, v, 2.0, np.arange(3))
    np.testing.assert_allclose(b2[1], 2.0 * b1[1], atol=1e-12)


def test_cache_scores_aligns_to_explicit_class_order():
    cache = DualCache(shots=1)
    v = unit(4, 7)
    cache.insert_novel(v, 20)
    out = cache_scores(cache, v, 2.0, [30, 20, 10])
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-12)
    with pytest.raises(DimMismatch):
        cache_scores(cache, v, 2.0, [30, 10])


def test_audit_dump_is_json_friendly():
    cache = DualCache(capacity=2, shots=2)
    cache.try_insert_base(unit(4, 0), *_row_with_entropy(1, 3, 2.0))
    cache.insert_novel(unit(4, 1), 1)
    dump = cache.audit()
    doc = json.dumps(dump)
    assert "hash64" in doc
    rows = dump["classes"]["1"]
    assert {r["origin"] for r in rows} == {"base_pseudo", "novel_shot"}
    assert all(len(r["key_digest"]["head"]) == 4 for r in rows)
    assert all(len(r["key_digest"]["hash64"]) == 16 for r in rows)
    head = rows[0]
    key = base_rows(cache, 1)[0][0]
    assert head["key_digest"]["hash64"] == \
        hashlib.blake2b(key.tobytes(), digest_size=8).hexdigest()


def test_retrieve_rows_match_single_query_scores():
    cache = DualCache(capacity=2, shots=2)
    stream = Stream(9)
    for cls in (4, 1, 7):
        for _ in range(2):
            cache.insert_novel(make_unit(stream, 6), cls)
    queries = np.stack([make_unit(stream, 6) for _ in range(5)])
    keys, values = cache.pooled()
    (batch,) = retrieve(queries, keys, values, [7, 4, 1, 0], [1.5])
    # batched and single-query products, and the per-entry scatter-add, sum
    # in different orders: equal to float64 rounding, not bit for bit
    for q, row in zip(queries, batch):
        for single in (cache_scores, ref_cache_scores):
            np.testing.assert_allclose(row, single(cache, q, 1.5, [7, 4, 1, 0]),
                                       rtol=1e-14, atol=1e-15)
    assert np.all(batch[:, 3] == 0.0)
    # a live mask drops exactly the masked entries
    live = np.ones((5, len(values)), dtype=bool)
    live[:, values == 4] = False
    (masked,) = retrieve(queries, keys, values, [7, 4, 1, 0], [1.5], live)
    assert np.all(masked[:, 1] == 0.0)
    np.testing.assert_array_equal(masked[:, [0, 2]], batch[:, [0, 2]])


def _retrieve_with_temporaries(queries, keys, values, class_ids, betas, live):
    """``retrieve`` before its weights moved into one reused buffer."""
    onehot = (values[:, None] == np.asarray(class_ids)[None, :]).astype(np.float64)
    u = np.clip(queries @ keys.T, -1.0, 1.0)
    return [(np.exp(-beta * (1.0 - u)) * live) @ onehot for beta in betas]


def test_retrieve_in_one_buffer_keeps_the_bytes_and_bounds_its_memory():
    rng = np.random.default_rng(4)
    queries, keys = (l2_normalize(rng.normal(size=(n, 16))) for n in (2000, 300))
    keys[0] = queries[0]  # a cosine at the clip bound
    values = rng.integers(0, 35, size=300)
    class_ids, betas = list(range(35)), [0.0, 1.5, 5.5]
    live = rng.random((2000, 300)) < 0.7
    # Beyond its outputs and 0.5 MB of slack, retrieve holds two (Q, E)
    # float64 arrays, and one when a single beta lets the weights overwrite
    # clip(Q K^T).
    for bs, arrays in ((betas, 2), (betas[1:2], 1)):
        want = _retrieve_with_temporaries(queries, keys, values, class_ids, bs, live)
        got, peak = traced_peak(retrieve, queries, keys, values, class_ids, bs, live)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert peak <= arrays * 2000 * 300 * 8 + len(bs) * 2000 * 35 * 8 + (1 << 19)


def test_affinity_out_is_the_same_formula():
    u = np.linspace(-1.0, 1.0, 101)
    out = np.empty_like(u)
    assert affinity(u, 2.5, out=out) is out
    assert out.tobytes() == affinity(u, 2.5).tobytes()
    with pytest.raises(ValueError):
        affinity(u, -1.0, out=out)


def test_argmax_lowest_ids_is_row_wise_with_ties_to_lowest_id():
    ids = np.array([30, 10, 20])
    values = np.array([[1.0, 2.0, 2.0], [5.0, 0.0, 5.0], [0.0, 0.0, 0.0], [3.0, 1.0, 2.0]])
    assert argmax_lowest_ids(values, ids).tolist() == [10, 20, 10, 30]
    assert [argmax_lowest_id(v, ids) for v in values] == [10, 20, 10, 30]
    with pytest.raises(ValueError):
        argmax_lowest_ids(np.array([[np.nan, 1.0]]), [0, 1])
