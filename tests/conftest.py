import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tfa.alignment import TrainConfig
from tfa.protocol import ExperimentConfig, train_base_alignment
from tfa.synth import calibration_config, generate_synthetic


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
