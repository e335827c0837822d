import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tfa.alignment import init_relation, load_alignment, save_alignment
from tfa.embeddings import (
    COLUMNS,
    ClassPrototype,
    EmbeddingSet,
    load_embeddings,
    load_prototypes,
    merge_embedding_sets,
    save_embeddings,
    save_prototypes,
)
from tfa.errors import FormatError, ValidationError
from tfa.rng import Stream
from tfa.synth import l2_normalize


def _columns_set(vectors, labels, tasks, splits):
    """A validated set built from its columns, with no class names."""
    es = EmbeddingSet(dim=vectors.shape[1], vectors=vectors,
                      labels=np.array(labels, dtype=np.int64), tasks=np.array(tasks, dtype=np.int64),
                      splits=np.array(splits, dtype=object),
                      class_names=np.full(len(labels), None, dtype=object))
    es.validate()
    return es


def _tiny_set(seed=0, m=8):
    stream = Stream(seed)
    rows = []
    for task, labels in ((0, (0, 1)), (1, (2,))):
        for split, count in (("train", 3), ("test", 2)):
            for label in labels:
                for _ in range(count):
                    rows.append((l2_normalize(stream.normal(m)), label, task, split))
    vectors, labels, tasks, splits = zip(*rows)
    return _columns_set(np.vstack(vectors), labels, tasks, splits)


def test_round_trip_is_exact_at_f32(tmp_path):
    es = _tiny_set()
    path = tmp_path / "set.emb"
    save_embeddings(es, path)
    back = load_embeddings(path)
    np.testing.assert_array_equal(es.vectors.astype("<f4"), back.vectors.astype("<f4"))
    assert back.labels.tolist() == es.labels.tolist()
    assert back.tasks.tolist() == es.tasks.tolist()
    np.testing.assert_array_equal(back.splits, es.splits)


def test_save_load_save_is_byte_stable(tmp_path):
    es = _tiny_set(seed=5, m=64)
    p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
    save_embeddings(es, p1)
    save_embeddings(load_embeddings(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_vectors_are_unit_norm(tmp_path):
    es = _tiny_set(seed=2, m=33)
    path = tmp_path / "set.emb"
    save_embeddings(es, path)
    back = load_embeddings(path)
    norms = np.linalg.norm(back.vectors, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"XYZ9" + b"\x00" * 32)
    with pytest.raises(FormatError, match="not an EMB1 file"):
        load_embeddings(path)


def test_sidecar_count_disagrees(tmp_path):
    es = _tiny_set()
    path = tmp_path / "set.emb"
    save_embeddings(es, path)
    side = json.loads((tmp_path / "set.emb.meta.json").read_text())
    side["count"] = side["count"] + 1
    side["records"].append(side["records"][0])
    (tmp_path / "set.emb.meta.json").write_text(json.dumps(side))
    with pytest.raises(FormatError,
                       match="sidecar declares dim=8 count=16, binary has dim=8 count=15"):
        load_embeddings(path)


def test_truncated_payload(tmp_path):
    es = _tiny_set()
    path = tmp_path / "set.emb"
    save_embeddings(es, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])  # drop one float: binary no longer matches header
    with pytest.raises(FormatError, match="payload bytes, header declares"):
        load_embeddings(path)


def test_nonfinite_payload_is_corrupt(tmp_path):
    es = _tiny_set()
    path = tmp_path / "set.emb"
    save_embeddings(es, path)
    blob = bytearray(path.read_bytes())
    blob[16:20] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="non-finite float in"):
        load_embeddings(path)


def test_overlapping_train_spaces_rejected(tmp_path):
    es = _tiny_set()
    path = tmp_path / "set.emb"
    save_embeddings(es, path)
    side = json.loads((tmp_path / "set.emb.meta.json").read_text())
    for rec in side["records"]:
        if rec["task"] == 1:
            rec["label"] = 0  # collide with task 0's label space
    (tmp_path / "set.emb.meta.json").write_text(json.dumps(side))
    with pytest.raises(ValidationError, match="share train classes"):
        load_embeddings(path)


def test_test_label_outside_own_task_rejected():
    vectors = np.eye(4)[:3]
    with pytest.raises(ValidationError, match="has label 1 outside task 0's train label space"):
        # the test record's label 1 is task 1's
        _columns_set(vectors, [0, 1, 1], [0, 1, 0], ["train", "train", "test"])


def test_prototype_round_trip(tmp_path):
    protos = [ClassPrototype(3, l2_normalize([1.0, 2.0, 2.0]), "a chair"),
              ClassPrototype(7, l2_normalize([0.0, 1.0, 0.0]))]
    path = tmp_path / "protos.emb"
    save_prototypes(protos, path)
    back = load_prototypes(path)
    assert [p.class_id for p in back] == [3, 7]
    assert back[0].prompt_text == "a chair"
    assert back[1].prompt_text is None
    np.testing.assert_allclose(back[0].vector, protos[0].vector, atol=1e-7)


def test_duplicate_class_id(tmp_path):
    protos = [ClassPrototype(7, l2_normalize([1.0, 0.0])),
              ClassPrototype(8, l2_normalize([0.0, 1.0]))]
    path = tmp_path / "protos.emb"
    save_prototypes(protos, path)
    side = json.loads((tmp_path / "protos.emb.meta.json").read_text())
    side["records"][1]["class_id"] = 7
    (tmp_path / "protos.emb.meta.json").write_text(json.dumps(side))
    with pytest.raises(FormatError, match="class id 7 appears twice"):
        load_prototypes(path)


def test_save_prototypes_rejects_duplicate_class_ids_before_writing(tmp_path):
    protos = [ClassPrototype(7, l2_normalize([1.0, 0.0])),
              ClassPrototype(8, l2_normalize([0.0, 1.0])),
              ClassPrototype(7, l2_normalize([1.0, 1.0]))]
    path = tmp_path / "protos.emb"
    with pytest.raises(FormatError, match="class id 7 appears twice"):
        save_prototypes(protos, path)
    assert list(tmp_path.iterdir()) == []


def test_save_prototypes_rejects_an_empty_set_and_dimension_0(tmp_path):
    path = tmp_path / "protos.emb"
    with pytest.raises(ValueError, match="empty prototype set"):
        save_prototypes([], path)
    with pytest.raises(FormatError, match="dimension must be >= 1, got 0"):
        save_prototypes([ClassPrototype(0, np.zeros(0))], path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("row, flags", [([3.0, 4.0], 0), ([0.6, 0.8], 1),
                                        ([0.6, 0.8 * (1 + 1e-5)], 0)])
def test_the_normalized_flag_follows_the_written_rows(tmp_path, row, flags):
    path = tmp_path / "protos.emb"
    save_prototypes([ClassPrototype(0, np.array(row))], path)
    assert np.frombuffer(path.read_bytes()[4:16], dtype="<u4").tolist() == [2, 1, flags]
    np.testing.assert_allclose(load_prototypes(path)[0].vector, row / np.linalg.norm(row),
                               rtol=1e-6)


def test_zero_vector_prototype_is_corrupt(tmp_path):
    protos = [ClassPrototype(0, l2_normalize([1.0, 0.0]))]
    path = tmp_path / "protos.emb"
    save_prototypes(protos, path)
    blob = bytearray(path.read_bytes())
    blob[16:24] = np.zeros(2, dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="record 0 is a zero vector"):
        load_prototypes(path)


def test_emb1_binary_layout_is_exact(tmp_path):
    # documented layout: magic, u32 dim, u32 count, u32 flags, f32 rows
    import struct
    es = _columns_set(l2_normalize([[1.0, 2.0, 2.0], [0.0, 3.0, 4.0]]), [0, 1], [0, 0],
                      ["train", "train"])
    path = tmp_path / "layout.emb"
    save_embeddings(es, path)
    blob = path.read_bytes()
    assert blob[:4] == b"EMB1"
    assert struct.unpack("<III", blob[4:16]) == (3, 2, 1)
    assert len(blob) == 16 + 4 * 3 * 2
    floats = np.frombuffer(blob, dtype="<f4", offset=16).reshape(2, 3)
    np.testing.assert_array_equal(floats, es.vectors.astype("<f4"))


def test_merge_rejects_dim_mismatch():
    with pytest.raises(FormatError, match="cannot merge dimension 16 into 8"):
        merge_embedding_sets([_tiny_set(m=8), _tiny_set(m=16)])


def test_merge_keeps_order_and_validates():
    a, b = _tiny_set(seed=1), _tiny_set(seed=2)
    merged = merge_embedding_sets([a.subset(a.indices(task=0)), b.subset(b.indices(task=1))])
    assert len(merged) == len(a.indices(task=0)) + len(b.indices(task=1))


def test_subset_and_merge_keep_every_column_an_array():
    es = _tiny_set(seed=3)
    es.class_names[0] = "chair"
    part = es.subset([4, 0])
    merged = merge_embedding_sets([part, es.subset([])])
    for s, n in ((part, 2), (merged, 2)):
        for c in COLUMNS:
            col = getattr(s, c)
            assert isinstance(col, np.ndarray) and col.shape[0] == n
        assert s.splits.dtype == s.class_names.dtype == object
    assert merged.class_names.tolist() == [None, "chair"]
    assert merged.labels.dtype == merged.tasks.dtype == np.int64
    assert merged.vectors.tobytes() == es.vectors[[4, 0]].tobytes()


def test_class_names_round_trip(tmp_path):
    es = _tiny_set()
    es.class_names[1] = "lamp"
    save_embeddings(es, tmp_path / "set.emb")
    back = load_embeddings(tmp_path / "set.emb")
    assert back.class_names.tolist() == es.class_names.tolist()
    assert back.splits.dtype == back.class_names.dtype == object


@pytest.mark.parametrize("column", COLUMNS[1:])
def test_validate_rejects_a_column_that_is_not_an_n_array(column):
    # A list column would make indices() compare the whole list to a split.
    es = _tiny_set()
    full = getattr(es, column)
    for bad in (full[:-1], full.reshape(-1, 1), full.tolist()):
        setattr(es, column, bad)
        with pytest.raises(FormatError, match=f"{column} column is not a"):
            es.validate()


BAD_NAMES = [5, 2.5, ["a", "b"], {"x": 1}, b"chair"]


@pytest.mark.parametrize("name", BAD_NAMES, ids=repr)
def test_save_embeddings_writes_no_class_name_its_loader_rejects(tmp_path, name):
    es = _tiny_set()
    es.class_names[2] = name
    path = tmp_path / "set.emb"
    with pytest.raises(FormatError, match="record 2 class_name must be a string") as raised:
        save_embeddings(es, path)
    assert str(raised.value) == \
        f"{path}: sidecar record 2 class_name must be a string, got {name!r}"
    assert not path.exists()


@pytest.mark.parametrize("name", [5, 2.5, ["a", "b"], {"x": 1}, True], ids=repr)
def test_load_embeddings_rejects_a_class_name_that_is_not_a_string(tmp_path, name):
    es = _tiny_set()
    path = tmp_path / "set.emb"
    save_embeddings(es, path)
    meta = tmp_path / "set.emb.meta.json"
    side = json.loads(meta.read_text())
    side["records"][2]["class_name"] = name
    meta.write_text(json.dumps(side))
    with pytest.raises(FormatError, match="record 2 class_name must be a string") as raised:
        load_embeddings(path)
    # the same words the writer uses for an in-memory set holding this value
    assert str(raised.value) == \
        f"{path}: sidecar record 2 class_name must be a string, got {name!r}"


@pytest.mark.parametrize("text", [7, 1.5, ["a chair"], {"x": 1}], ids=repr)
def test_save_prototypes_writes_no_prompt_text_its_loader_rejects(tmp_path, text):
    protos = [ClassPrototype(3, l2_normalize([1.0, 2.0, 2.0]), "a chair"),
              ClassPrototype(7, l2_normalize([0.0, 1.0, 0.0]), text)]
    path = tmp_path / "protos.emb"
    with pytest.raises(FormatError, match="record 1 prompt_text must be a string") as raised:
        save_prototypes(protos, path)
    # the same words the loader uses for a sidecar holding this value
    assert str(raised.value) == \
        f"{path}: sidecar record 1 prompt_text must be a string, got {text!r}"
    assert not path.exists()


# ---- every writer rejects what its loader rejects ----

def _prototypes():
    return [ClassPrototype(3, l2_normalize([1.0, 2.0, 2.0]), "a chair"),
            ClassPrototype(7, l2_normalize([0.0, 1.0, 0.0]))]


WRITERS = {  # kind: (a valid value, its writer, its loader)
    "embeddings": (_tiny_set, save_embeddings, load_embeddings),
    "prototypes": (_prototypes, save_prototypes, load_prototypes),
    "alignment": (lambda: init_relation(4, seed=6, hidden=(5, 3)), save_alignment,
                  lambda path: load_alignment(path)[0]),
}


def _sidecar_edit(record=None, **changes):
    """Set sidecar keys, or keys of sidecar record ``record``."""
    def doctor(path):
        side_path = Path(str(path) + ".meta.json")
        side = json.loads(side_path.read_text())
        (side if record is None else side["records"][record]).update(changes)
        side_path.write_text(json.dumps(side))
    return doctor


def _first_floats(values):
    """Overwrite the first float32 values of the payload, at byte 16 in both
    EMB1 and ALN1 (after the ALN1 layer count and first layer shape)."""
    def doctor(path):
        blob = bytearray(path.read_bytes())
        raw = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore"):
            blob[16:16 + 4 * len(values)] = raw.astype("<f4").tobytes()
        path.write_bytes(bytes(blob))
    return doctor


def _set_column(column, value):
    def spoil(es):
        getattr(es, column)[0] = value
    return spoil


def _set_prototype(i, **changes):
    def spoil(protos):
        protos[i] = replace(protos[i], **changes)
    return spoil


def _set_weight(value, by_hand=False):
    def spoil(params):
        if by_hand:  # a float32 scorer cannot hold the value: float64 weights built by hand
            params.weights = [w.astype(np.float64) for w in params.weights]
        params.weights[0][0, 0] = value
    return spoil


def _set_attr(**changes):
    def spoil(params):
        for k, v in changes.items():
            setattr(params, k, v)
    return spoil


# case: (kind, spoil the valid value in place, do the same to its written file)
WRITER_CASES = {
    "negative-label": ("embeddings", _set_column("labels", -1), _sidecar_edit(0, label=-1)),
    "negative-task": ("embeddings", _set_column("tasks", -1), _sidecar_edit(0, task=-1)),
    "split-valid": ("embeddings", _set_column("splits", "valid"), _sidecar_edit(0, split="valid")),
    "nan-vector": ("embeddings", _set_column("vectors", np.nan), _first_floats([np.nan] * 8)),
    "vector-past-f32": ("embeddings", _set_column("vectors", 1e39), _first_floats([1e39] * 8)),
    "zero-vector": ("embeddings", _set_column("vectors", 0.0), _first_floats([0.0] * 8)),
    "negative-class-id": ("prototypes", _set_prototype(0, class_id=-1),
                          _sidecar_edit(0, class_id=-1)),
    "duplicate-class-id": ("prototypes", _set_prototype(1, class_id=3),
                           _sidecar_edit(1, class_id=3)),
    "nan-prototype": ("prototypes", _set_prototype(0, vector=np.full(3, np.nan)),
                      _first_floats([np.nan] * 3)),
    "prototype-past-f32": ("prototypes", _set_prototype(0, vector=np.array([1e39, 0.0, 0.0])),
                           _first_floats([1e39])),
    "zero-prototype": ("prototypes", _set_prototype(0, vector=np.zeros(3)),
                       _first_floats([0.0] * 3)),
    "nan-weight": ("alignment", _set_weight(np.nan), _first_floats([np.nan])),
    "weight-past-f32": ("alignment", _set_weight(1e39, by_hand=True), _first_floats([1e39])),
    "nan-slope": ("alignment", _set_attr(slope=np.nan), _sidecar_edit(slope=np.nan)),
    "fan-in-not-2m": ("alignment", _set_attr(m=3), _sidecar_edit(m=3)),
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_each_writer_rejects_what_its_loader_rejects(tmp_path, case):
    kind, spoil, doctor = WRITER_CASES[case]
    make, save, load = WRITERS[kind]
    # The valid value round-trips; its file, doctored, gives the loader's error.
    good, again = tmp_path / "good", tmp_path / "again"
    save(make(), good)
    save(load(good), again)
    assert again.read_bytes() == good.read_bytes()
    doctor(good)
    with pytest.raises(FormatError) as loaded:
        load(good)
    value = make()
    spoil(value)
    bad = tmp_path / "bad"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError) as written:
            save(value, bad)
    assert type(written.value) is type(loaded.value)
    assert str(written.value) == str(loaded.value).replace(str(good), str(bad))
    assert not bad.exists() and not Path(str(bad) + ".meta.json").exists()
