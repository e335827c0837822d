"""Training-free dual-cache adaptor for few-shot class-incremental
classification over precomputed embedding vectors."""

from .adaptor import DualCache, affinity, fuse
from .alignment import (
    RelationParams,
    TrainConfig,
    init_relation,
    load_alignment,
    save_alignment,
    train_alignment,
)
from .embeddings import (
    ClassPrototype,
    EmbeddingSet,
    load_embeddings,
    load_prototypes,
    save_embeddings,
    save_prototypes,
)
from .metrics import accuracy, delta, emit_report, harmonic, split_accuracy
from .protocol import (
    ExperimentConfig,
    TaskSpec,
    run_experiment,
    run_experiments,
    run_session,
    validate_tasks,
)
from .synth import SynthConfig, generate_synthetic

__version__ = "0.1.0"
