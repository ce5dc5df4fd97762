"""The traced benchmark's span tracer still binds to every name it patches.

``bench/tracing.py`` wraps package functions and methods by name, so a
refactor that renames or removes one of them breaks ``bench/run.py --trace 1``
without failing any other test.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from entroloss import cli, sequences
from entroloss.sequences import estimate_jump, make_sharp_sequence
from entroloss.suites import SUITES

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


def test_tracer_spans_each_suite_of_a_cli_run(tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"command": "suite", "suite": {"ids": ["P4", "C2"]}, "output": {"dir": str(tmp_path), "format": "json"}}))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert cli.run(["--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.arrays()["name"]
    assert [int(np.sum(spans == tracer.names.index(f"suites.{sid}"))) for sid in ("P4", "C2")] == [1, 1]
    written = [json.loads((tmp_path / f"{sid}_report.json").read_text()) for sid in ("P4", "C2")]
    assert tracer.metrics(SUITES, 0.0)["suites.checks"] == sum(len(report["checks"]) for report in written)
    assert list(SUITES) == ["P1", "C1", "C2", "C3", "C-maj", "C-sep", "T1", "C7", "P5", "P6", "P7", "P-CB", "P4", "T2"]
