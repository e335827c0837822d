"""The benchmark's tracer wraps a fixed list of ``tfa`` names from outside.

Entering its ``traced`` context resolves every one of them, so deleting or
renaming a name the benchmark reads fails here, not only under
``pytest bench``.
"""

from pathlib import Path

import tfa.adaptor
import tfa.protocol

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import traced_tfa

    originals = (tfa.adaptor.pseudo_label, tfa.protocol.run_experiment,
                 tfa.adaptor.DualCache.__dict__["try_insert_base"])
    with traced_tfa.traced(spans.Tracer("t")):
        assert tfa.adaptor.pseudo_label is not originals[0]
    assert (tfa.adaptor.pseudo_label, tfa.protocol.run_experiment,
            tfa.adaptor.DualCache.__dict__["try_insert_base"]) == originals
