"""entroloss benchmark: one workload per layer stack, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and from nowhere else.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it, starting with ``#``, record the environment,
the tail percentile and, in a traced run, self time per layer.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time to import
  entroloss and complete the workload's first operation;
* a warm-up operation, untimed;
* a timed phase of whole cycles of the workload until the operations have
  taken ``--seconds`` seconds; one caller starts each operation when the
  previous one returns, and every output is checked outside the timing.

``--trace 1`` runs a fixed list of operations, each once untraced and once
traced, and reports the per-layer metrics; their counts repeat exactly for a
seed.  The spans are written to ``bench/_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def import_program():
    """Import entroloss from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "entroloss" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'entroloss'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import entroloss

    if Path(entroloss.__file__).resolve().parent != (SRC / "entroloss").resolve():
        sys.exit(f"bench: imported entroloss from {entroloss.__file__}, not from {SRC}")
    return entroloss


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)  # one fresh-interpreter setup_s sample
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "ENTROLOSS_THREADS": os.environ.get("ENTROLOSS_THREADS"),
        "commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


def run_op(op, timed_call=None):
    """Run one operation; return (wall s, cpu s, error or None). Checks are untimed."""
    call = timed_call or op.run
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = call()
        error = None
    except Exception as exc:  # a raising operation is a failed one; the loop goes on
        error = f"{op.kind}: raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
    if error:
        print(f"bench: FAILED {error}", file=sys.stderr)
    return wall, cpu, error


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def setup_probes(args) -> list:
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: setup probe exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def probe(args) -> None:
    t0 = time.perf_counter()
    import_program()
    import workloads  # brings in entroloss.cli, which the package itself does not import

    t1 = time.perf_counter()
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        op = workloads.WORKLOADS[args.workload](args.seed, workdir).prepare(0)
        wall, _, error = run_op(op)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": (t1 - t0) + wall, "error": error}))


def timed_run(wl, args) -> tuple:
    probes = setup_probes(args)
    run_op(wl.prepare(0))  # warm-up
    lat, cpu, errors, by_kind = [], 0.0, 0, {}
    i = 0
    while True:
        op = wl.prepare(i)
        wall, c, error = run_op(op)
        lat.append(wall)
        by_kind.setdefault(op.kind, []).append(wall)
        cpu += c
        errors += error is not None
        i += 1
        if i % len(wl.cycle) == 0 and sum(lat) >= args.seconds:
            break
    t_s, t_pct, t_beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": t_s,
        "cpu_per_op_s": cpu / len(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": errors / len(lat),
    }
    errors += sum(p["error"] is not None for p in probes)
    info = {
        "op_tail_s": f"p{t_pct:.1f} of {len(lat)} samples, {t_beyond} beyond it",
        "setup_s samples": [round(p["setup_s"], 4) for p in probes],
        "timed phase": f"{len(lat)} operations ({len(lat) // len(wl.cycle)} cycles), {sum(lat):.2f} s in the program",
        "median s by kind": {k: round(statistics.median(v), 4) for k, v in by_kind.items()},
        "fail_ratio": metrics["fail_ratio"],
    }
    return metrics, len(lat) + len(probes), errors, info


def traced_run(wl, args) -> tuple:
    import tracing
    from entroloss.suites import SUITES

    run_op(wl.prepare(0))  # warm-up
    ops = range(wl.trace_ops)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for i in ops:  # each operation untraced and traced, alternating which goes first
        for traced_now in (i % 2 == 1, i % 2 == 0):
            op = wl.prepare(i)
            if not traced_now:
                untraced.append(run_op(op))
                continue
            tracer.op_id = i
            tracer.install()
            try:
                traced.append(run_op(op, tracer.wrap(op.run, "bench.op")))
            finally:
                tracer.uninstall()
    t_u, t_t = sum(r[0] for r in untraced), sum(r[0] for r in traced)
    ratio = statistics.median(t[0] / u[0] for t, u in zip(traced, untraced))
    metrics = tracer.metrics(SUITES, overhead_pct=100.0 * (ratio - 1.0))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}.npz")
    layers = tracer.layer_self_times()
    total = sum(layers.values())
    info = {
        "operations": f"{len(ops)} operations, {t_u:.3f} s untraced and {t_t:.3f} s traced",
        "self time share": {k: round(v / total, 4) for k, v in layers.items() if v > 0},
    }
    errors = sum(r[2] is not None for r in untraced + traced)
    return metrics, 2 * len(ops), errors, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = OUT / f"run-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        metrics, attempted, failed, info = (traced_run if args.trace else timed_run)(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "environment": env, "notes": info, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# environment " + json.dumps(env))
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value) if not isinstance(value, str) else value}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
