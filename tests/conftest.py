import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tfa.alignment import TrainConfig
from tfa.protocol import ExperimentConfig, train_base_alignment
from tfa.synth import SynthConfig, generate_synthetic


def calibration_config(seed: int = 7) -> SynthConfig:
    """Small separable preset used by the end-to-end calibration suite.

    The modality gap of 0.15 is calibrated so that nearest-prototype
    classification stays at ~100% while the frozen scorer alone generalizes
    poorly to unseen prototypes (novel-class accuracy collapses without the
    cache), which is the regime the calibration run exercises.
    """
    return SynthConfig(
        dim=64,
        base_classes=20,
        novel_tasks=3,
        classes_per_novel_task=5,
        train_per_base_class=100,
        test_per_class=20,
        shots=5,
        intra_class_sigma=0.05,
        modality_gap_sigma=0.15,
        seed=seed,
    )


@pytest.fixture(scope="session")
def calibration():
    """Calibration world shared by the acceptance suite: synthetic stream
    (m=64, 20 base classes at 100 train / 20 test, 3 novel tasks x 5 classes,
    K=5, 20 test each, sigma 0.05) plus the scorer trained at the stock
    hyperparameters (10 epochs, batch 25, lr 0.001). Training dominates the
    suite's runtime, so it happens once here.
    """
    synth = calibration_config(seed=7)
    data, protos = generate_synthetic(synth)
    exp = ExperimentConfig(
        alpha=2.0, beta=2.0, capacity=5, shots=5, trials=5, seed=11,
        align=TrainConfig(epochs=10, batch_size=25, lr=0.001, seed=5),
    )
    alignment, history = train_base_alignment(exp.align, data, protos)
    return SimpleNamespace(synth=synth, data=data, protos=protos, exp=exp,
                           alignment=alignment, history=history)
