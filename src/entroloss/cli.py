"""Config-driven command line front end.

A run is described by a single JSON config (numbers decimal, complex entries
as [re, im] pairs) naming one of four commands: ``quantity`` evaluates a
named functional on given states/channels, ``sequence`` runs a built-in
family and reports jump estimates, ``suite`` executes registered bound
suites, and ``report`` consolidates previously written suite outputs.
Reruns with the same config and seed produce byte-identical files, on any
core count for one numpy build: a command runs on one BLAS thread
(``_one_blas_thread``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from ._optim import OptimizerBudget
from .channels import (
    QuantumOperation,
    channel_mutual_information,
    coherent_information,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    measure_prepare_channel,
    output_entropy,
    partial_trace_channel,
)
from .energy import Hamiltonian, gibbs_threshold, mean_energy
from .errors import (
    ConfigError,
    DimensionOverflowError,
    EntrolossError,
    InvalidParameterError,
    MissingArtifactsError,
    SuiteFailureError,
)
from .info import (
    Ensemble,
    conditional_entropy,
    conditional_mutual_information,
    holevo_quantity,
    mutual_information,
    relative_entropy,
    von_neumann_entropy,
)
from .operators import TraceClassElement, integer_parameter, integer_parameters
from .roofs import (
    BoundedValue,
    c_squashed_entanglement_k,
    classical_correlations,
    constrained_holevo_estimate,
    entanglement_of_formation,
    quantum_discord,
    squashed_entanglement_k,
)
from .sequences import DEFAULT_WINDOW, FUNCTIONALS, builtin_families, check_grid, read_jump, series
from .suites import SUITES, SuiteCheck, SuiteReport, suite_run, walk


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _reject_unknown(section: dict, allowed: set, path: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under '{path}'")


def _required(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"'{path}.{key}' is required")
    return section[key]


def _floats(value) -> np.ndarray:
    """``value`` as a float array, NaN and infinities refused like any other
    invalid number; every float a config holds, scalars included, passes here."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"numbers must be finite, got {value!r}")
    return arr


def _float(value) -> float:
    return _floats(float(value)).item()


def _float_list(value) -> list:
    return [_float(v) for v in value]


# the one integer rule at the two bounds a config slot takes: a seed (from a
# config or ``--seed``), ``budget.iterations`` and a kept factor's index are
# non-negative, every other size checked here is a count >= 1
_nonnegative = functools.partial(integer_parameter, name="value", least=0)
_count = functools.partial(integer_parameter, name="value", least=1)
_counts = functools.partial(integer_parameters, name="value", least=1)


def _names(value, path: str) -> list:
    """A list of names, as ``suite.ids`` and ``sequence.functionals`` take them."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"'{path}' must be a list of names, got {value!r}")
    return value


def _as(kind, value, path: str):
    """``kind(value)`` for the config value at ``path``; a value it rejects is a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'{path}' is not a valid value: {exc}") from exc


def _converted(params, kinds: dict, path: str) -> dict:
    """``params`` with each key converted by ``kinds[key]`` through ``_as`` at
    ``path.<key>``; a key ``kinds`` does not name is refused."""
    if not isinstance(params, dict):
        raise ConfigError(f"'{path}' must be an object")
    _reject_unknown(params, set(kinds), path)
    return {k: _as(kinds[k], v, f"{path}.{k}") for k, v in params.items()}


def _object(config: dict, key: str) -> dict:
    section = config.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' must be an object")
    return section


def _at(path: str, build, *args, **kwargs):
    """Run ``build``, reporting an out-of-range parameter at the config key ``path``."""
    try:
        return build(*args, **kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(f"'{path}': {exc}") from exc


def _complex_matrix(entries, path: str) -> np.ndarray:
    arr = _as(_floats, entries, path)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ConfigError(f"'{path}' must be a matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def parse_state(spec: dict, path: str) -> TraceClassElement:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"'{path}' must be an object with a 'kind'")
    kind = spec["kind"]
    factors = spec.get("factor_dims")
    factors = factors if factors is None else _as(_counts, factors, f"{path}.factor_dims")
    if kind == "matrix":
        _reject_unknown(spec, {"kind", "entries", "factor_dims"}, path)
        entries = _complex_matrix(_required(spec, "entries", path), f"{path}.entries")
        return TraceClassElement(entries, factor_dims=factors)
    if kind == "diag":
        _reject_unknown(spec, {"kind", "values", "factor_dims"}, path)
        values = _as(_floats, _required(spec, "values", path), f"{path}.values")
        return TraceClassElement(values.reshape(-1), factor_dims=factors)  # flat: nested values would build a matrix
    if kind == "pure":
        _reject_unknown(spec, {"kind", "amplitudes", "factor_dims"}, path)
        amp = _as(_floats, _required(spec, "amplitudes", path), f"{path}.amplitudes")
        if amp.ndim != 2 or amp.shape[1] != 2:
            raise ConfigError(f"'{path}.amplitudes' must be a vector of [re, im] pairs")
        v = amp[:, 0] + 1j * amp[:, 1]
        norm = np.linalg.norm(v)
        if not 0.0 < norm < math.inf:
            raise ConfigError(f"'{path}.amplitudes' must have a finite nonzero norm, got {norm}")
        v = v / norm
        return TraceClassElement.pure(v, factor_dims=factors)
    if kind == "bell":
        _reject_unknown(spec, {"kind"}, path)
        return TraceClassElement.pure(np.array([1.0, 0, 0, 1.0]) / math.sqrt(2), factor_dims=(2, 2))
    if kind == "max_mixed":
        _reject_unknown(spec, {"kind", "dim", "factor_dims"}, path)
        d = _as(_count, _required(spec, "dim", path), f"{path}.dim")
        return TraceClassElement(np.full(d, 1.0 / d), factor_dims=factors)
    raise ConfigError(f"'{path}.kind' = {kind!r} is not a recognized state kind")


def parse_channel(spec: dict, path: str) -> QuantumOperation:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"'{path}' must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "identity":
        _reject_unknown(spec, {"kind", "dim"}, path)
        return identity_channel(_as(_count, _required(spec, "dim", path), f"{path}.dim"))
    if kind == "depolarizing":
        _reject_unknown(spec, {"kind", "p", "dim"}, path)
        p = _as(_float, _required(spec, "p", path), f"{path}.p")
        return _at(path, depolarizing_channel, p, spec.get("dim", 2))
    if kind == "dephasing":
        _reject_unknown(spec, {"kind", "p"}, path)
        return _at(path, dephasing_channel, _as(_float, _required(spec, "p", path), f"{path}.p"))
    if kind == "partial_trace":
        _reject_unknown(spec, {"kind", "dims", "keep"}, path)
        dims = _as(_counts, _required(spec, "dims", path), f"{path}.dims")
        return partial_trace_channel(dims, _as(_nonnegative, _required(spec, "keep", path), f"{path}.keep"))
    if kind == "measure_prepare":
        _reject_unknown(spec, {"kind", "povm", "preps"}, path)
        povm = [_complex_matrix(m, f"{path}.povm") for m in _required(spec, "povm", path)]
        preps = [parse_state(s, f"{path}.preps") for s in _required(spec, "preps", path)]
        return measure_prepare_channel(povm, preps)
    if kind == "kraus":
        _reject_unknown(spec, {"kind", "operators"}, path)
        return QuantumOperation([_complex_matrix(m, f"{path}.operators") for m in _required(spec, "operators", path)])
    raise ConfigError(f"'{path}.kind' = {kind!r} is not a recognized channel kind")


def parse_hamiltonian(spec: dict, path: str) -> Hamiltonian:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"'{path}' must be an object with a 'kind'")
    kind = spec["kind"]

    def number(key, default):
        return _as(_float, spec.get(key, default), f"{path}.{key}")

    def truncation():  # checked by Hamiltonian, named at ``path`` by _at
        return _required(spec, "truncation_dim", path)

    if kind == "log":
        _reject_unknown(spec, {"kind", "scale", "offset", "truncation_dim"}, path)
        return _at(path, Hamiltonian.logarithmic, number("scale", 1.0), number("offset", 0.0), truncation())
    if kind == "linear":
        _reject_unknown(spec, {"kind", "offset", "slope", "truncation_dim"}, path)
        return _at(path, Hamiltonian.linear, number("offset", 0.0), number("slope", 1.0), truncation())
    if kind == "table":
        _reject_unknown(spec, {"kind", "values"}, path)
        return _at(path, Hamiltonian.from_table, _as(_floats, _required(spec, "values", path), f"{path}.values"))
    raise ConfigError(f"'{path}.kind' = {kind!r} is not a recognized level law")


def parse_budget(spec: dict, seed: int) -> OptimizerBudget:
    _reject_unknown(spec, {"restarts", "iterations", "seed"}, "budget")
    return OptimizerBudget(
        restarts=_as(_count, spec.get("restarts", 16), "budget.restarts"),
        iterations=_as(_nonnegative, spec.get("iterations", 2000), "budget.iterations"),
        seed=_as(_nonnegative, spec.get("seed", seed), "budget.seed"),
    )


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, BoundedValue):
        return {
            "value": x.value,
            "direction": x.direction.value,
            "converged": x.converged,
            "gap_estimate": x.gap_estimate,
            "provenance": "exact" if x.exact else "optimizer",
        }
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return "%.17g" % float(x)


def write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_quantity(section: dict, budget: OptimizerBudget, out_dir: str, fmt: str) -> int:
    allowed = {
        "name",
        "state",
        "sigma",
        "ensemble",
        "channel",
        "hamiltonian",
        "members",
        "povm_size",
        "extension_dim",
    }
    _reject_unknown(section, allowed, "quantity")
    name = section.get("name")
    if not name:
        raise ConfigError("'quantity.name' is required")
    if not isinstance(name, str):  # a list or object name is no table key
        raise ConfigError(f"unknown quantity {name!r}")

    def state(key="state"):
        return parse_state(_required(section, key, "quantity"), f"quantity.{key}")

    def channel():
        return parse_channel(_required(section, "channel", "quantity"), "quantity.channel")

    def hamiltonian():
        return parse_hamiltonian(_required(section, "hamiltonian", "quantity"), "quantity.hamiltonian")

    def size(key, default=None):  # each estimator checks its size, named at its key by _at
        return default if section.get(key) is None else section[key]

    def holevo():
        spec = section.get("ensemble")
        if not spec:
            raise ConfigError("'quantity.ensemble' is required for holevo")
        _reject_unknown(spec, {"weights", "states"}, "quantity.ensemble")
        members = [parse_state(s, "quantity.ensemble.states") for s in _required(spec, "states", "quantity.ensemble")]
        weights = _as(_floats, _required(spec, "weights", "quantity.ensemble"), "quantity.ensemble.weights")
        return holevo_quantity(Ensemble(weights, members))

    exact = {
        "entropy": lambda: von_neumann_entropy(state()),
        "relative_entropy": lambda: relative_entropy(state(), state("sigma")),
        "mutual_information": lambda: mutual_information(state()),
        "conditional_entropy": lambda: conditional_entropy(state()),
        "conditional_mutual_information": lambda: conditional_mutual_information(state()),
        "holevo": holevo,
        "gibbs_threshold": lambda: gibbs_threshold(hamiltonian()),
        "mean_energy": lambda: mean_energy(state(), hamiltonian()),
        "output_entropy": lambda: output_entropy(channel(), state()),
        "coherent_information": lambda: coherent_information(channel(), state()),
        "channel_mutual_information": lambda: channel_mutual_information(channel(), state()),
    }
    # optimizer-backed quantities: name -> (size key, estimator, default size)
    estimators = {
        "entanglement_of_formation": ("members", entanglement_of_formation, None),
        "classical_correlations": ("povm_size", classical_correlations, None),
        "quantum_discord": ("povm_size", quantum_discord, None),
        "c_squashed_entanglement": ("members", c_squashed_entanglement_k, 2),
        "squashed_entanglement": ("extension_dim", squashed_entanglement_k, 1),
    }
    record: dict = {"name": name}
    if name in exact:
        record["value"] = exact[name]()
        record["provenance"] = "exact"
    elif name in estimators:
        key, estimator, default = estimators[name]
        record["value"] = _at(f"quantity.{key}", estimator, state(), size(key, default), budget)
    elif name == "constrained_holevo":
        members = size("members", 2)
        record["value"] = _at("quantity.members", constrained_holevo_estimate, channel(), state(), members, budget)
    else:
        raise ConfigError(f"unknown quantity {name!r}")

    payload = _jsonable(record)
    print(json.dumps(payload, sort_keys=True))
    if fmt in ("json", "both"):
        write_json(os.path.join(out_dir, "quantity.json"), record)
    if fmt in ("csv", "both"):
        value = payload["value"]
        if isinstance(value, dict):
            write_csv(
                os.path.join(out_dir, "quantity.csv"),
                ["name", "value", "direction", "converged", "gap_estimate"],
                [[name, value["value"], value["direction"], value["converged"], value["gap_estimate"]]],
            )
        else:
            write_csv(os.path.join(out_dir, "quantity.csv"), ["name", "value"], [[name, value]])
    return 0


_SEQUENCE_PARAMS = {
    "energy": _float,
    "energies": _float_list,
    "seed": _nonnegative,
    "sigma": lambda spec: parse_state(spec, "sequence.params.sigma"),
}
_SUITE_PARAMS = {"energy": _float, "seed": _nonnegative, "range_trials": _count, "grid": _counts}


def cmd_sequence(section: dict, out_dir: str, fmt: str) -> int:
    _reject_unknown(section, {"family", "params", "functionals", "window", "grid"}, "sequence")
    family = section.get("family")
    registry = builtin_families()
    if family not in registry:
        raise ConfigError(f"unknown family {family!r}; available: {sorted(registry)}")
    params = _converted(section.get("params", {}), _SEQUENCE_PARAMS, "sequence.params")
    if family == "mix_to_pure":
        _required(params, "sigma", "sequence.params")
    if "grid" in section:
        params["n_grid"] = _at("sequence.grid", check_grid, _as(_counts, section["grid"], "sequence.grid"))
    try:  # with the grid checked, a builder refuses only the family's energies
        seq = _at(f"sequence.params.{'energies' if family == 'product' else 'energy'}", registry[family], **params)
    except TypeError as exc:
        raise ConfigError(f"'sequence.params' do not fit family {family!r}: {exc}") from exc
    names = _names(section.get("functionals", ["entropy"]), "sequence.functionals")
    for fname in names:
        if fname not in FUNCTIONALS:
            raise ConfigError(f"'sequence.functionals': unknown functional {fname!r}; available: {sorted(FUNCTIONALS)}")
    points = len(seq.n_grid)
    if "window" in section:
        window = _as(_count, section["window"], "sequence.window")
    else:  # the default window shrinks to fit a short grid
        window = max(min(DEFAULT_WINDOW, points // 2), 1)
    _at("sequence.grid", check_grid, seq.n_grid, window)
    try:  # one walk scores every functional and the distance to the limit
        *columns, distances = series(seq, *names, seq.limit_distance)
    except DimensionOverflowError as exc:  # the elements grow with n
        raise ConfigError(f"'sequence.grid': {exc}") from exc
    estimates = {}
    table = {"n": list(seq.n_grid)}
    for fname, values in zip(names, columns):
        key = fname if fname in seq.closed_forms else None
        est = read_jump(seq, fname, values, distances, window=window, closed_form_key=key)
        table[fname] = values
        estimates[fname] = {
            "limit_value": est.limit_value,
            "tail_sup": est.tail_sup,
            "loss": est.loss,
            "gain": est.gain,
            "loss_closed_form": est.loss_closed_form,
            "window": est.window,
            "monotone_tail": est.monotone_tail,
            "converging": est.converging,
        }
    payload = {"family": family, "params": section.get("params", {}), "estimates": estimates}
    print(json.dumps(_jsonable(payload), sort_keys=True))
    if fmt in ("json", "both"):
        write_json(os.path.join(out_dir, f"sequence_{family}.json"), payload)
    if fmt in ("csv", "both"):
        header = list(table)
        rows = [[table[k][i] for k in header] for i in range(points)]
        write_csv(os.path.join(out_dir, f"sequence_{family}.csv"), header, rows)
    return 0


def _write_suite_outputs(report: SuiteReport, out_dir: str, fmt: str) -> None:
    safe_id = report.suite_id.replace("/", "_")
    # each check's record, from SuiteCheck's own fields (dataclasses.asdict and
    # astuple would deep-copy every value, about 9 us a check against 1)
    names = [f.name for f in dataclasses.fields(SuiteCheck)]
    checks = [[getattr(c, k) for k in names] for c in report.checks]
    if fmt in ("json", "both"):
        payload = {
            "suite_id": report.suite_id,
            "title": report.title,
            "params": report.params,
            "passed": report.passed,
            "max_slack": report.max_slack,
            "checks": [dict(zip(names, row)) for row in checks],
            "series": report.series,
        }
        write_json(os.path.join(out_dir, f"{safe_id}_report.json"), payload)
    if fmt in ("csv", "both"):
        write_csv(os.path.join(out_dir, f"{safe_id}_checks.csv"), names, checks)
        if report.series:
            header = list(report.series)
            length = len(report.series[header[0]])
            rows = [[report.series[k][i] for k in header] for i in range(length)]
            write_csv(os.path.join(out_dir, f"{safe_id}_series.csv"), header, rows)


def cmd_suite(section: dict, out_dir: str, fmt: str) -> int:
    _reject_unknown(section, {"ids", "params"}, "suite")
    ids = section.get("ids", "all")
    if ids == "all":
        ids = list(SUITES)
    ids = _names([ids] if isinstance(ids, str) else ids, "suite.ids")
    params = _converted(section.get("params", {}), _SUITE_PARAMS, "suite.params")
    if "grid" in params:  # checked here, so that a walk refuses only the energy
        params["grid"] = _at("suite.params.grid", check_grid, params["grid"], DEFAULT_WINDOW)
    walked = _at("suite.params.energy", walk, ids, params)  # every family the suites read, walked once
    all_passed = True
    for suite_id in ids:
        report = suite_run(suite_id, params, walked)
        _write_suite_outputs(report, out_dir, fmt)
        status = "pass" if report.passed else "FAIL"
        print(f"[{status}] {report.suite_id}: {report.title} ({len(report.checks)} checks)")
        all_passed = all_passed and report.passed
    if not all_passed:
        raise SuiteFailureError("one or more suite checks failed; reports were written")
    return 0


def cmd_report(section: dict, out_dir: str, fmt: str) -> int:
    _reject_unknown(section, {"dir"}, "report")
    src = section.get("dir", out_dir)
    names = sorted(n for n in os.listdir(src) if n.endswith("_report.json")) if os.path.isdir(src) else []
    if not names:
        raise MissingArtifactsError(f"no suite reports found under {src!r}")
    rows = []
    for name in names:
        path = os.path.join(src, name)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            rows.append(
                [
                    data["suite_id"],
                    data["title"],
                    "pass" if data["passed"] else "fail",
                    float(data["max_slack"]),  # as written, a number or "inf"
                    len(data["checks"]),
                ]
            )
        except (OSError, ValueError, LookupError, TypeError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(f"{path!r} is not a suite report: {type(exc).__name__}: {exc}") from exc
    header = ["suite_id", "claim", "status", "max_slack", "checks"]
    for row in rows:
        print(f"{row[0]:8s} {row[2]:4s} max_slack={_fmt(row[3])} {row[1]}")
    if fmt in ("json", "both"):
        write_json(
            os.path.join(out_dir, "summary.json"),
            {"suites": [dict(zip(header, row)) for row in rows]},
        )
    if fmt in ("csv", "both"):
        write_csv(os.path.join(out_dir, "summary.csv"), header, rows)
    return 0 if all(r[2] == "pass" for r in rows) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroloss",
        description="compute entropic quantities, run sequence families, and verify bound suites",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (default: config or '.')")
    parser.add_argument("--format", choices=("json", "csv", "both"), default=None)
    return parser


TOP_LEVEL_KEYS = {"command", "seed", "output", "budget", "quantity", "sequence", "suite", "report"}

# "{}" is "set" or "get"; numpy wheels ship the scipy_openblas builds
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@functools.cache
def _openblas():
    """(set, get) thread-count functions of the OpenBLAS numpy loaded, or None."""
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
        for symbol in _OPENBLAS_SYMBOLS:
            set_threads = getattr(handle, symbol.format("set"), None)
            get_threads = getattr(handle, symbol.format("get"), None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the caller's count after it.

    A command's BLAS calls are small (dots at n = 2**16, matrices of at most
    129 dims): threaded, they save little wall time, leave an idle worker
    busy-waiting through the numpy work that follows, and round dot products
    by the host's core count, so report bytes would depend on it.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    try:
        if not isinstance(config, dict):
            raise ConfigError("top-level config must be an object")
        _reject_unknown(config, TOP_LEVEL_KEYS, "config")
        command = config.get("command")
        if command not in ("quantity", "sequence", "suite", "report"):
            raise ConfigError(f"'command' must be one of quantity/sequence/suite/report, got {command!r}")
        output = _object(config, "output")
        _reject_unknown(output, {"dir", "format"}, "output")
        out_dir = args.out or output.get("dir", ".")
        fmt = args.format or output.get("format", "both")
        if fmt not in ("json", "csv", "both"):
            raise ConfigError(f"'output.format' must be json/csv/both, got {fmt!r}")
        os.makedirs(out_dir, exist_ok=True)
        seed = _as(_nonnegative, config.get("seed", 0), "seed") if args.seed is None else _as(_nonnegative, args.seed, "--seed")
        budget = parse_budget(_object(config, "budget"), seed)
        section = _object(config, command)
        with _one_blas_thread():
            if command == "quantity":
                return cmd_quantity(section, budget, out_dir, fmt)
            if command == "sequence":
                return cmd_sequence(section, out_dir, fmt)
            if command == "suite":
                return cmd_suite(section, out_dir, fmt)
            return cmd_report(section, out_dir, fmt)
    except (ConfigError, MissingArtifactsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SuiteFailureError as exc:
        print(f"suite failure: {exc}", file=sys.stderr)
        return 1
    except EntrolossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
