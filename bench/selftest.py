"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

1. Counts repeat: two traced runs of each workload, in fresh processes with
   one seed, report the same optim.evals, sequences.element.calls and
   kernel.*.calls.  The same runs show each workload on its layers: on
   roof-anchors optim, roofs and kernel hold at least 80% of self time, and
   the other two workloads make no optimizer evaluations.
2. Tracing is invisible to the program: traced operations write the same
   report bytes and return the same values as untraced ones.
3. The checks can fail: with a perturbed reference, fail_ratio rises above 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from unittest import mock

import run

SEED = 7
COUNTS = ("optim.evals", "sequences.element.calls") + tuple(f"kernel.{k}.calls" for k in ("eigvalsh", "eigh", "svd", "qr", "einsum"))
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'pass' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def traced_metrics(workload: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"result-{workload}-s{SEED}-t1.json").read_text())
    return {k: v["value"] for k, v in result["metrics"].items()}, record["notes"]["self time share"]


def test_counts_repeat_and_layers(workloads) -> None:
    for name in workloads.WORKLOADS:
        first, share = traced_metrics(name)
        second, _ = traced_metrics(name)
        for key in COUNTS:
            expect(first[key] == second[key], f"{name}: {key} repeats ({first[key]} and {second[key]})")
        if name == "roof-anchors":
            stack = sum(share.get(k, 0.0) for k in ("optim", "roofs", "kernel"))
            expect(stack >= 0.8, f"{name}: optim + roofs + kernel hold {stack:.1%} of self time")
        else:
            expect(first["optim.evals"] == 0, f"{name}: no optimizer evaluations")


def output_of(workloads, wl, i: int, tracer=None):
    op = wl.prepare(i)
    if tracer:
        tracer.install()
    try:
        result = op.run()
    finally:
        if tracer:
            tracer.uninstall()
    error = op.check(result)
    expect(error is None, f"{wl.name} op {i} ({op.kind}) {'traced' if tracer else 'untraced'} passes its check")
    return workloads.digest_dir(wl.out_dir) if hasattr(wl, "out_dir") else repr(result)


def test_tracing_leaves_outputs_identical(workloads, tracing) -> None:
    ops = {"roof-anchors": [0], "suite-sweep": [0], "dense-identities": list(range(9))}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(SEED, run.OUT / "selftest")
        for i in ops[name]:
            plain = output_of(workloads, wl, i)
            traced = output_of(workloads, wl, i, tracing.Tracer())
            expect(plain == traced, f"{name} op {i}: traced output identical to untraced")


def fail_ratio(wl, indices) -> float:
    errors = [run.run_op(wl.prepare(i))[2] for i in indices]
    return sum(e is not None for e in errors) / len(errors)


def test_perturbed_reference_raises_fail_ratio(workloads) -> None:
    workdir = run.OUT / "selftest"
    dense = workloads.DenseIdentities(SEED, workdir)
    expect(fail_ratio(dense, range(4)) == 0.0, "dense-identities: fail_ratio 0 with true references")
    exact = workloads.reference_entropy
    with mock.patch.object(workloads, "reference_entropy", lambda p: exact(p) + 1e-6):
        ratio = fail_ratio(dense, range(4))
    expect(ratio == 1.0, f"dense-identities: entropy reference off by 1e-6 gives fail_ratio {ratio}")

    roof = workloads.RoofAnchors(SEED, workdir)
    grid = workloads.el.formation_two_member_grid
    with mock.patch.object(workloads.el, "formation_two_member_grid", lambda s: grid(s) + 0.05):
        ratio = fail_ratio(roof, [0])
    expect(ratio == 1.0, f"roof-anchors: grid oracle off by 0.05 gives fail_ratio {ratio}")

    suite = workloads.SuiteSweep(SEED, workdir)
    fail_ratio(suite, [0])
    suite.digests[0] = "0" * 64
    ratio = fail_ratio(suite, [len(suite.cycle)])
    expect(ratio == 1.0, f"suite-sweep: altered first-pass digest gives fail_ratio {ratio}")


def main() -> int:
    run.import_program()
    import tracing
    import workloads

    try:
        test_tracing_leaves_outputs_identical(workloads, tracing)
        test_perturbed_reference_raises_fail_ratio(workloads)
        test_counts_repeat_and_layers(workloads)
    finally:
        shutil.rmtree(run.OUT / "selftest", ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
