"""The traced benchmark's span tracer still binds to every name it patches.

``bench/tracing.py`` wraps package functions and methods by name, so a
refactor that renames or removes one of them breaks ``bench/run.py --trace 1``
without failing any other test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from entroloss import sequences
from entroloss.sequences import estimate_jump, make_sharp_sequence

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_one_element_per_grid_point():
    element, eigvalsh = sequences.StateSequence.element, np.linalg.eigvalsh
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        seq = make_sharp_sequence(energy=1.0, n_grid=(16, 32, 64, 128, 256, 512))
        sequences.estimate_jump(seq, sequences.entropy_of, closed_form_key="entropy")
    finally:
        tracer.uninstall()
    metrics = tracer.metrics([], 0.0)
    assert metrics["sequences.estimate_jump.calls"] == 1
    assert metrics["sequences.element.calls"] == 6
    assert sequences.StateSequence.element is element and np.linalg.eigvalsh is eigvalsh
    assert sequences.estimate_jump is estimate_jump
