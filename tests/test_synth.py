import numpy as np
import pytest

from tfa.errors import ConfigError
from tfa.synth import SynthConfig, generate_synthetic

from helpers import nearest_prototype_predictions, ref_generate_synthetic


def small(**kw):
    base = dict(dim=32, base_classes=4, novel_tasks=2, classes_per_novel_task=2,
                train_per_base_class=6, test_per_class=4, shots=3,
                intra_class_sigma=0.05, modality_gap_sigma=0.05, seed=1)
    base.update(kw)
    return SynthConfig(**base)


def test_zero_noise_samples_equal_prototypes():
    data, protos = generate_synthetic(small(intra_class_sigma=0.0, modality_gap_sigma=0.0))
    by_id = {p.class_id: p.vector for p in protos}
    for i in range(len(data)):
        np.testing.assert_array_equal(data.vectors[i], by_id[int(data.labels[i])])


def test_zero_noise_nearest_prototype_is_perfect():
    data, protos = generate_synthetic(small(intra_class_sigma=0.0, modality_gap_sigma=0.0))
    idx = data.indices(split="test")
    preds = nearest_prototype_predictions(data, protos, idx)
    assert np.all(preds == data.labels[idx])


def test_counts_match_config():
    cfg = small()
    data, protos = generate_synthetic(cfg)
    n_classes = cfg.base_classes + cfg.novel_tasks * cfg.classes_per_novel_task
    assert len(protos) == n_classes
    assert len(data.indices(task=0, split="train")) == cfg.base_classes * cfg.train_per_base_class
    for t in range(1, cfg.novel_tasks + 1):
        assert len(data.indices(task=t, split="train")) == cfg.classes_per_novel_task * cfg.shots
        assert len(data.indices(task=t, split="test")) == cfg.classes_per_novel_task * cfg.test_per_class
    # every novel class has exactly K shots
    for t in range(1, cfg.novel_tasks + 1):
        idx = data.indices(task=t, split="train")
        labels, counts = np.unique(data.labels[idx], return_counts=True)
        assert np.all(counts == cfg.shots)


def test_same_seed_is_bit_identical():
    d1, p1 = generate_synthetic(small())
    d2, p2 = generate_synthetic(small())
    np.testing.assert_array_equal(d1.vectors, d2.vectors)
    assert d1.labels.tolist() == d2.labels.tolist()
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a.vector, b.vector)


def test_different_seed_differs():
    d1, _ = generate_synthetic(small(seed=1))
    d2, _ = generate_synthetic(small(seed=2))
    assert not np.array_equal(d1.vectors, d2.vectors)


@pytest.mark.parametrize("m", [32, 64])
def test_low_noise_nearest_prototype_oracle(m):
    # exhaustive cosine argmax oracle: >= 99% at sigma 0.05 for m >= 32
    cfg = small(dim=m, base_classes=8, train_per_base_class=4, test_per_class=10, seed=3)
    data, protos = generate_synthetic(cfg)
    idx = data.indices(split="test")
    preds = nearest_prototype_predictions(data, protos, idx)
    acc = float(np.mean(preds == data.labels[idx]))
    assert acc >= 0.99


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="intra_class_sigma"):
        SynthConfig(intra_class_sigma=-0.1)
    with pytest.raises(ConfigError, match="base_classes"):
        SynthConfig(base_classes=0)
    with pytest.raises(ConfigError, match="unknown synth config keys"):
        SynthConfig.from_dict({"dim": 8, "nope": 1})


@pytest.mark.parametrize("field,value", [
    ("dim", "8"), ("dim", 8.0), ("shots", True), ("test_per_class", None),
    ("modality_gap_sigma", float("nan")), ("intra_class_sigma", "0.1"), ("seed", 1.5),
])
def test_constructing_a_config_checks_every_field(field, value):
    # No loader in between: the dataclass itself rejects the value.
    with pytest.raises(ConfigError, match=field):
        SynthConfig(**{field: value})


def test_vectors_are_unit_norm():
    data, protos = generate_synthetic(small())
    assert np.max(np.abs(np.linalg.norm(data.vectors, axis=1) - 1.0)) <= 1e-12
    for p in protos:
        assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-12


@pytest.mark.parametrize("cfg", [
    SynthConfig(dim=64, base_classes=4, novel_tasks=2, classes_per_novel_task=3,
                train_per_base_class=9, test_per_class=5, shots=2, seed=11),
    small(dim=7, seed=4),
    small(dim=64, base_classes=20, novel_tasks=3, classes_per_novel_task=5,
          train_per_base_class=10, test_per_class=20, shots=5, modality_gap_sigma=0.15, seed=0),
    small(dim=129, intra_class_sigma=0.0, modality_gap_sigma=0.0, seed=2),
    small(dim=1, base_classes=2, novel_tasks=1, classes_per_novel_task=1, seed=8),
], ids=["dim64", "dim7", "bench-shape", "dim129-zero-noise", "dim1"])
def test_block_draws_equal_the_per_record_generator(cfg):
    data, protos = generate_synthetic(cfg)
    columns, provenance, ref_protos = ref_generate_synthetic(cfg)
    assert data.vectors.dtype == np.float64
    assert data.vectors.shape == columns["vectors"].shape
    assert data.vectors.tobytes() == columns["vectors"].tobytes()
    assert data.labels.dtype == data.tasks.dtype == np.int64
    assert data.labels.tolist() == columns["labels"]
    assert data.tasks.tolist() == columns["tasks"]
    assert data.splits.tolist() == columns["splits"]
    assert data.class_names.tolist() == columns["class_names"]
    assert data.provenance == provenance
    assert [p.class_id for p in protos] == [cid for cid, _ in ref_protos]
    for p, (_, vec) in zip(protos, ref_protos):
        assert p.vector.shape == vec.shape and p.vector.tobytes() == vec.tobytes()
