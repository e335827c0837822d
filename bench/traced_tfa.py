"""Run the tfa command line with the public functions of every layer traced.

Usage: python3 bench/traced_tfa.py SPANS_JSONL OP_ID TFA_ARGS...

Each layer function is wrapped from outside: the wrapper replaces every
binding of the original in every ``tfa`` module namespace, because callers
read the name from their own module (``run_session`` calls
``tfa.protocol.score_matrix``, not ``tfa.alignment.score_matrix``). Methods
are wrapped on their class. The spans stay in memory and are written to
SPANS_JSONL when the command exits; the command's own outputs are the same
bytes as an untraced run's.

Counts attached to spans (pairs, flop, bytes, cache keys) are computed from
array shapes, not measured.
"""

from __future__ import annotations

import contextlib
import os
import sys

import spans

FUNCTIONS = {
    "synth": ("generate_synthetic",),
    "embeddings": ("load_embeddings", "load_prototypes", "merge_embedding_sets",
                   "save_embeddings", "save_prototypes"),
    "alignment": ("init_relation", "train_alignment", "loss_and_grad", "adam_step",
                  "score_matrix", "load_alignment", "save_alignment"),
    "adaptor": ("cache_scores", "pseudo_label", "argmax_lowest_id"),
    "protocol": ("build_tasks", "validate_tasks", "run_session", "run_experiment"),
    "metrics": ("aggregate_trials", "report_json"),
    "cli": ("main", "cmd_synth", "cmd_train_align", "cmd_run", "cmd_ablate",
            "cmd_report"),
}

# (module, class, method, span name)
METHODS = (
    ("adaptor", "DualCache", "try_insert_base", "adaptor.try_insert_base"),
    ("adaptor", "DualCache", "insert_novel", "adaptor.insert_novel"),
    ("rng", "Stream", "permutation", "rng.Stream.permutation"),
)


def _flop(params, pairs: int, backward: bool) -> int:
    """Multiply-add flop of the scorer's dense layers for ``pairs`` rows.

    The backward pass forms every weight gradient and the input gradient of
    every layer but the first, as ``loss_and_grad`` does.
    """
    sizes = params.layer_sizes()
    macs = [a * b for a, b in zip(sizes, sizes[1:])]
    flop = 2 * pairs * sum(macs)
    if backward:
        flop += 2 * pairs * sum(macs) + 2 * pairs * sum(macs[1:])
    return flop


def _file_bytes(path) -> int:
    return os.path.getsize(path) + os.path.getsize(f"{path}.meta.json")


ATTRS = {
    "alignment.loss_and_grad": lambda a, k, r: {
        "pairs": len(a[1]) * len(a[2]), "flop": _flop(a[0], len(a[1]) * len(a[2]), True)},
    "alignment.score_matrix": lambda a, k, r: {
        "pairs": r.size, "flop": _flop(a[0], r.size, False)},
    # Adam reads parameter, gradient and both moments and writes three of them.
    "alignment.adam_step": lambda a, k, r: {"bytes": 7 * 8 * a[0].n_params()},
    "adaptor.cache_scores": lambda a, k, r: {"keys": int(a[0].pooled()[1].size)},
    "adaptor.try_insert_base": lambda a, k, r: {r.kind: 1},
    "embeddings.load_embeddings": lambda a, k, r: {"bytes": _file_bytes(a[0])},
    "embeddings.load_prototypes": lambda a, k, r: {"bytes": _file_bytes(a[0])},
    "embeddings.merge_embedding_sets": lambda a, k, r: {"bytes": r.vectors.nbytes},
}


@contextlib.contextmanager
def traced(tracer: spans.Tracer):
    """Wrap every listed function and method; restore the originals on exit."""
    import tfa.cli  # noqa: F401  (imports every tfa module)

    modules = [m for n, m in list(sys.modules.items()) if n == "tfa" or n.startswith("tfa.")]
    undo = []
    try:
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"tfa.{layer}"]
            for name in names:
                orig = getattr(home, name)
                span = f"{layer}.{name}"
                wrapper = tracer.wrap(span, orig, ATTRS.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        for layer, cls_name, name, span in METHODS:
            cls = getattr(sys.modules[f"tfa.{layer}"], cls_name)
            orig = cls.__dict__[name]
            undo.append((cls, name, orig))
            setattr(cls, name, tracer.wrap(span, orig, ATTRS.get(span)))
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: traced_tfa.py SPANS_JSONL OP_ID TFA_ARGS...", file=sys.stderr)
        return 2
    spans_path, op_id, tfa_argv = argv[0], argv[1], argv[2:]
    import tfa.cli

    tracer = spans.Tracer(op_id)
    try:
        with traced(tracer):
            return tfa.cli.main(tfa_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
