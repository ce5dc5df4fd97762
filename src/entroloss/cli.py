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
from .suites import SUITES, SuiteCheck, suite_run, walk


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _read(section, path: str, kinds: dict, required=()) -> dict:
    """``section`` with each key converted by ``kinds[key]``: the one reader of a
    config object. A non-object, a key ``kinds`` does not name, a missing
    ``required`` key and a value its kind refuses are each a ConfigError at
    ``path`` or ``path.<key>``."""
    if not isinstance(section, dict):
        raise ConfigError(f"'{path}' must be an object")
    unknown = set(section) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under '{path}'")
    for key in required:
        if key not in section:
            raise ConfigError(f"'{path}.{key}' is required")
    values = {}
    for key, value in section.items():
        try:
            values[key] = kinds[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"'{path}.{key}' is not a valid value: {exc}") from exc
    return values


def _given(value):
    """The kind of a value kept as given: a library call checks it, or a later step."""
    return value


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


def _names(value) -> list:
    """A list of names, as ``suite.ids`` and ``sequence.functionals`` take them."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"must be a list of names, got {value!r}")
    return value


def _complex_matrix(entries) -> np.ndarray:
    arr = _floats(entries)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("must be a matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _amplitudes(value) -> np.ndarray:
    """A vector of [re, im] pairs, normalized."""
    amp = _floats(value)
    if amp.ndim != 2 or amp.shape[1] != 2:
        raise ValueError("must be a vector of [re, im] pairs")
    v = amp[:, 0] + 1j * amp[:, 1]
    norm = np.linalg.norm(v)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"must have a finite nonzero norm, got {norm}")
    return v / norm


def _at(path: str, build, *args, **kwargs):
    """Run ``build``, reporting an out-of-range parameter at the config key ``path``."""
    try:
        return build(*args, **kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(f"'{path}': {exc}") from exc


def _of_kind(spec, path: str, noun: str, table: dict):
    """The object ``spec`` describes. ``table`` maps each kind to (key kinds,
    required keys, build); ``spec`` is read by its kind's keys, and ``build``
    takes the converted values by key, an out-of-range one named at ``path``."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"'{path}' must be an object with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"'{path}.kind' = {kind!r} is not a recognized {noun}")
    kinds, required, build = table[kind]
    values = _read(spec, path, {"kind": _given, **kinds}, required)
    del values["kind"]
    return _at(path, build, **values)


# The kind tables are built at each call from this module's globals, so that a
# function patched on the module, as the bench tracer patches them, is the one
# a parse calls.


def _state_kinds() -> dict:
    """State kind -> (key kinds, required keys, build)."""
    factors = {"factor_dims": _counts}

    def diag(values, factor_dims=None):  # flat: nested values would build a matrix
        return TraceClassElement(values.reshape(-1), factor_dims)

    def bell():
        return TraceClassElement.pure(np.array([1.0, 0, 0, 1.0]) / math.sqrt(2), factor_dims=(2, 2))

    def max_mixed(dim, factor_dims=None):
        return TraceClassElement(np.full(dim, 1.0 / dim), factor_dims)

    return {
        "matrix": ({"entries": _complex_matrix, **factors}, ("entries",), TraceClassElement),
        "diag": ({"values": _floats, **factors}, ("values",), diag),
        "pure": ({"amplitudes": _amplitudes, **factors}, ("amplitudes",), TraceClassElement.pure),
        "bell": ({}, (), bell),
        "max_mixed": ({"dim": _count, **factors}, ("dim",), max_mixed),
    }


def _channel_kinds(path: str) -> dict:
    """Channel kind -> (key kinds, required keys, build) for the channel at ``path``."""

    def matrices(entries):
        return [_complex_matrix(m) for m in entries]

    def kraus(operators):
        return QuantumOperation(operators)

    return {
        "identity": ({"dim": _count}, ("dim",), identity_channel),
        "depolarizing": ({"p": _float, "dim": _given}, ("p",), depolarizing_channel),
        "dephasing": ({"p": _float}, ("p",), dephasing_channel),
        "partial_trace": ({"dims": _counts, "keep": _nonnegative}, ("dims", "keep"), partial_trace_channel),
        "measure_prepare": ({"povm": matrices, "preps": _states(f"{path}.preps")}, ("povm", "preps"), measure_prepare_channel),
        "kraus": ({"operators": matrices}, ("operators",), kraus),
    }


def _level_laws() -> dict:
    """Level law -> (key kinds, required keys, build); ``Hamiltonian`` checks ``truncation_dim``."""

    def log(truncation_dim, scale=1.0, offset=0.0):
        return Hamiltonian.logarithmic(scale, offset, truncation_dim)

    def linear(truncation_dim, offset=0.0, slope=1.0):
        return Hamiltonian.linear(offset, slope, truncation_dim)

    truncated = {"offset": _float, "truncation_dim": _given}
    return {
        "log": ({"scale": _float, **truncated}, ("truncation_dim",), log),
        "linear": ({"slope": _float, **truncated}, ("truncation_dim",), linear),
        "table": ({"values": _floats}, ("values",), Hamiltonian.from_table),
    }


def _states(path: str):
    """The kind of a list of states, each read at ``path``."""
    return lambda specs: [parse_state(spec, path) for spec in specs]


def parse_state(spec, path: str) -> TraceClassElement:
    return _of_kind(spec, path, "state kind", _state_kinds())


def parse_channel(spec, path: str) -> QuantumOperation:
    return _of_kind(spec, path, "channel kind", _channel_kinds(path))


def parse_hamiltonian(spec, path: str) -> Hamiltonian:
    return _of_kind(spec, path, "level law", _level_laws())


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


def _columns(table: dict):
    """(header, rows) of a table held as equal-length columns."""
    return list(table), zip(*table.values())


def _write(out_dir: str, fmt: str, json_files: dict, csv_files: dict) -> None:
    """The one output rule: ``json_files`` (name -> payload) are written for
    json or both, ``csv_files`` (name -> (header, rows)) for csv or both,
    each through this module's ``write_json`` and ``write_csv``."""
    if fmt in ("json", "both"):
        for name, payload in json_files.items():
            write_json(os.path.join(out_dir, name), payload)
    if fmt in ("csv", "both"):
        for name, (header, rows) in csv_files.items():
            write_csv(os.path.join(out_dir, name), header, rows)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_quantity(section, budget: OptimizerBudget, out_dir: str, fmt: str) -> int:
    def ensemble(spec):
        kinds = {"weights": _floats, "states": _states("quantity.ensemble.states")}
        given = _read(spec, "quantity.ensemble", kinds, ("weights", "states"))
        return Ensemble(given["weights"], given["states"])

    kinds = {
        "name": _given,
        "state": lambda spec: parse_state(spec, "quantity.state"),
        "sigma": lambda spec: parse_state(spec, "quantity.sigma"),
        "ensemble": ensemble,
        "channel": lambda spec: parse_channel(spec, "quantity.channel"),
        "hamiltonian": lambda spec: parse_hamiltonian(spec, "quantity.hamiltonian"),
        # each estimator checks its size, named at its key by _at
        **dict.fromkeys(("members", "povm_size", "extension_dim"), _given),
    }
    raw = _read(section, "quantity", dict.fromkeys(kinds, _given), ("name",))

    def roof(estimator, key, default=None):
        size = default if raw.get(key) is None else raw[key]
        return lambda *inputs: _at(f"quantity.{key}", estimator, *inputs, size, budget)

    # name -> (the config keys of its inputs, function of them)
    exact = {
        "entropy": (("state",), von_neumann_entropy),
        "relative_entropy": (("state", "sigma"), relative_entropy),
        "mutual_information": (("state",), mutual_information),
        "conditional_entropy": (("state",), conditional_entropy),
        "conditional_mutual_information": (("state",), conditional_mutual_information),
        "holevo": (("ensemble",), holevo_quantity),
        "gibbs_threshold": (("hamiltonian",), gibbs_threshold),
        "mean_energy": (("state", "hamiltonian"), mean_energy),
        "output_entropy": (("channel", "state"), output_entropy),
        "coherent_information": (("channel", "state"), coherent_information),
        "channel_mutual_information": (("channel", "state"), channel_mutual_information),
    }
    # optimizer-backed quantities, each with its size key and default size
    estimators = {
        "entanglement_of_formation": (("state",), roof(entanglement_of_formation, "members")),
        "classical_correlations": (("state",), roof(classical_correlations, "povm_size")),
        "quantum_discord": (("state",), roof(quantum_discord, "povm_size")),
        "c_squashed_entanglement": (("state",), roof(c_squashed_entanglement_k, "members", 2)),
        "squashed_entanglement": (("state",), roof(squashed_entanglement_k, "extension_dim", 1)),
        "constrained_holevo": (("channel", "state"), roof(constrained_holevo_estimate, "members", 2)),
    }
    name = raw["name"]
    if not isinstance(name, str) or name not in exact.keys() | estimators.keys():  # a list or object is no name
        raise ConfigError(f"'quantity.name': unknown quantity {name!r}")
    inputs, function = exact[name] if name in exact else estimators[name]
    # only the inputs the named quantity takes are parsed, each one required
    given = _read({key: raw[key] for key in inputs if key in raw}, "quantity", kinds, inputs)
    record = {"name": name, "value": function(*(given[key] for key in inputs))}
    if name in exact:
        record["provenance"] = "exact"

    payload = _jsonable(record)
    print(json.dumps(payload, sort_keys=True))
    value = payload["value"]
    if isinstance(value, dict):  # a bounded value
        header = ["name", "value", "direction", "converged", "gap_estimate"]
        row = [name, *(value[key] for key in header[1:])]
    else:
        header, row = ["name", "value"], [name, value]
    _write(out_dir, fmt, {"quantity.json": record}, {"quantity.csv": (header, [row])})
    return 0


def cmd_sequence(section, out_dir: str, fmt: str) -> int:
    kinds = {"family": _given, "params": _given, "functionals": _names, "window": _count, "grid": check_grid}
    given = _read(section, "sequence", kinds)
    family = given.get("family")
    registry = builtin_families()
    if not isinstance(family, str) or family not in registry:
        raise ConfigError(f"unknown family {family!r}; available: {sorted(registry)}")
    param_kinds = {
        "energy": _float,
        "energies": _float_list,
        "seed": _nonnegative,
        "sigma": lambda spec: parse_state(spec, "sequence.params.sigma"),
    }
    params = _read(given.get("params", {}), "sequence.params", param_kinds, ("sigma",) if family == "mix_to_pure" else ())
    if "grid" in given:
        params["n_grid"] = given["grid"]
    try:  # with the grid checked, a builder refuses only the family's energies
        seq = _at(f"sequence.params.{'energies' if family == 'product' else 'energy'}", registry[family], **params)
    except TypeError as exc:
        raise ConfigError(f"'sequence.params' do not fit family {family!r}: {exc}") from exc
    names = given.get("functionals", ["entropy"])
    for fname in names:
        if fname not in FUNCTIONALS:
            raise ConfigError(f"'sequence.functionals': unknown functional {fname!r}; available: {sorted(FUNCTIONALS)}")
    # the default window shrinks to fit a short grid
    window = given.get("window", max(min(DEFAULT_WINDOW, len(seq.n_grid) // 2), 1))
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
        estimates[fname] = {k: v for k, v in dataclasses.asdict(est).items() if k != "values"}
    payload = {"family": family, "params": given.get("params", {}), "estimates": estimates}
    print(json.dumps(_jsonable(payload), sort_keys=True))
    _write(out_dir, fmt, {f"sequence_{family}.json": payload}, {f"sequence_{family}.csv": _columns(table)})
    return 0


def cmd_suite(section, out_dir: str, fmt: str) -> int:
    def ids(value):  # "all", one id or a list of ids
        return list(SUITES) if value == "all" else _names([value] if isinstance(value, str) else value)

    param_kinds = {
        "energy": _float,
        "seed": _nonnegative,
        "range_trials": _count,
        "grid": lambda grid: check_grid(grid, DEFAULT_WINDOW),  # two trailing windows
    }
    given = _read(section, "suite", {"ids": ids, "params": lambda params: _read(params, "suite.params", param_kinds)})
    suite_ids, params = given.get("ids", list(SUITES)), given.get("params", {})
    walked = _at("suite.params.energy", walk, suite_ids, params)  # every family the suites read, walked once
    # each check's record, from SuiteCheck's own fields (dataclasses.asdict and
    # astuple would deep-copy every value, about 9 us a check against 1)
    fields = [f.name for f in dataclasses.fields(SuiteCheck)]
    all_passed = True
    for suite_id in suite_ids:
        report = suite_run(suite_id, params, walked)
        safe_id = report.suite_id.replace("/", "_")
        checks = [[getattr(c, k) for k in fields] for c in report.checks]
        record = {
            "suite_id": report.suite_id,
            "title": report.title,
            "params": report.params,
            "passed": report.passed,
            "max_slack": report.max_slack,
            "checks": [dict(zip(fields, row)) for row in checks],
            "series": report.series,
        }
        csv_files = {f"{safe_id}_checks.csv": (fields, checks)}
        if report.series:
            csv_files[f"{safe_id}_series.csv"] = _columns(report.series)
        _write(out_dir, fmt, {f"{safe_id}_report.json": record}, csv_files)
        status = "pass" if report.passed else "FAIL"
        print(f"[{status}] {report.suite_id}: {report.title} ({len(report.checks)} checks)")
        all_passed = all_passed and report.passed
    if not all_passed:
        raise SuiteFailureError("one or more suite checks failed; reports were written")
    return 0


def cmd_report(section, out_dir: str, fmt: str) -> int:
    src = _read(section, "report", {"dir": _given}).get("dir", out_dir)
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
    summary = {"suites": [dict(zip(header, row)) for row in rows]}
    _write(out_dir, fmt, {"summary.json": summary}, {"summary.csv": (header, rows)})
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
        top = _read(config, "config", dict.fromkeys(TOP_LEVEL_KEYS, _given))
        command = top.get("command")
        if command not in ("quantity", "sequence", "suite", "report"):
            raise ConfigError(f"'command' must be one of quantity/sequence/suite/report, got {command!r}")

        def section(key):  # a section given as null reads as an empty one
            return {} if top.get(key) is None else top[key]

        output = _read(section("output"), "output", {"dir": _given, "format": _given})
        out_dir = args.out or output.get("dir", ".")
        fmt = args.format or output.get("format", "both")
        if fmt not in ("json", "csv", "both"):
            raise ConfigError(f"'output.format' must be json/csv/both, got {fmt!r}")
        os.makedirs(out_dir, exist_ok=True)
        flag, seed = ("seed", top.get("seed", 0)) if args.seed is None else ("--seed", args.seed)
        seed = _at(flag, _nonnegative, seed)
        budget = _read(section("budget"), "budget", {"restarts": _count, "iterations": _nonnegative, "seed": _nonnegative})
        budget = OptimizerBudget(**{"seed": seed, **budget})
        given = section(command)
        with _one_blas_thread():
            if command == "quantity":
                return cmd_quantity(given, budget, out_dir, fmt)
            if command == "sequence":
                return cmd_sequence(given, out_dir, fmt)
            if command == "suite":
                return cmd_suite(given, out_dir, fmt)
            return cmd_report(given, out_dir, fmt)
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
