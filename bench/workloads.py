"""The three benchmark workloads: seeded inputs, one program call per operation,
and a check of every output against a reference the benchmark computes itself.

Each workload is a fixed cycle of operations.  ``prepare(i)`` builds the
inputs of operation ``i`` from the workload seed alone, outside any timed
region, and returns an ``Op``.  ``Op.run`` is the timed call into the program;
``Op.check`` takes what ``run`` returned and gives an error string, or None
when the output is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import entroloss as el
from entroloss import cli


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# references: plain numpy, independent of the program's own functionals
# ---------------------------------------------------------------------------


def reference_entropy(p) -> float:
    """Shannon entropy (nats) of nonnegative weights, e.g. a spectrum."""
    p = np.clip(np.asarray(p, dtype=float).reshape(-1), 0.0, None)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def matrix_entropy(m: np.ndarray) -> float:
    return reference_entropy(np.linalg.eigvalsh(m))


def schmidt_entropy(psi: np.ndarray, rows: int) -> float:
    """Entropy of the first ``rows``-dimensional factor of a pure state."""
    s = np.linalg.svd(psi.reshape(rows, -1), compute_uv=False)
    return reference_entropy(s**2)


def two_qubit_mutual_information(rho: np.ndarray) -> float:
    t = rho.reshape(2, 2, 2, 2)
    rho_a = np.einsum("abcb->ac", t)
    rho_b = np.einsum("abac->bc", t)
    return matrix_entropy(rho_a) + matrix_entropy(rho_b) - matrix_entropy(rho)


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _gaussian(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pure_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = _gaussian(rng, dim)
    return v / np.linalg.norm(v)


def density_matrix(g: np.ndarray) -> np.ndarray:
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def rank_two_mixture(rng: np.random.Generator) -> np.ndarray:
    """Two-qubit state of rank 2: the grid oracle's domain."""
    return density_matrix(_gaussian(rng, 4, 2))


def isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, rows, cols))
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def matrix_spec(rho: np.ndarray, factor_dims) -> dict:
    return {"kind": "matrix", "entries": np.stack([rho.real, rho.imag], axis=-1).tolist(), "factor_dims": list(factor_dims)}


def _close(label: str, value: float, reference: float, tol: float) -> str | None:
    if abs(value - reference) <= tol:  # False for NaN
        return None
    return f"{label}: {value!r} vs reference {reference!r} (tolerance {tol})"


# ---------------------------------------------------------------------------
# CLI-driven workloads
# ---------------------------------------------------------------------------


class _CliWorkload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        self.out_dir = workdir / "out"
        workdir.mkdir(parents=True, exist_ok=True)

    def _write_config(self, name: str, config: dict) -> Path:
        path = self.workdir / name
        path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        return path

    def _fresh_out_dir(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()

    def _cli(self, config: Path, fmt: str) -> Callable[[], int]:
        argv = ["--config", str(config), "--out", str(self.out_dir), "--format", fmt]

        def run() -> int:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.run(argv)

        return run


class RoofAnchors(_CliWorkload):
    """Optimizer-backed ``quantity`` calls on two-qubit states, default budget.

    Each cycle draws five rank-2 two-qubit mixtures and one pure three-qubit
    state.  Formation runs on three of the mixtures, the Koashi-Winter pair on
    the marginals of the pure state, the squashed variants on the other two.
    """

    name = "roof-anchors"
    cycle = ("formation", "kw_classical", "kw_formation", "formation", "c_squashed", "formation", "squashed")
    trace_ops = len(cycle)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._inputs = (-1, {})  # the current cycle's inputs
        self._kw_classical: dict = {}

    def _cycle_inputs(self, c: int) -> dict:
        if self._inputs[0] != c:
            rng = np.random.default_rng([self.seed, c])
            mixtures = [rank_two_mixture(rng) for _ in range(5)]
            psi = pure_vector(rng, 8)
            t = np.outer(psi, psi.conj()).reshape((2,) * 6)
            self._inputs = (
                c,
                {
                    "formation": mixtures[:3],
                    "c_squashed": mixtures[3],
                    "squashed": mixtures[4],
                    "omega_ab": np.einsum("abcdec->abde", t).reshape(4, 4),
                    "omega_ac": np.einsum("abcdbf->acdf", t).reshape(4, 4),
                    "h_a": schmidt_entropy(psi, 2),
                },
            )
        return self._inputs[1]

    def prepare(self, i: int) -> Op:
        c, pos = divmod(i, len(self.cycle))
        kind = self.cycle[pos]
        inputs = self._cycle_inputs(c)
        if kind == "formation":
            rho = inputs["formation"][self.cycle[:pos].count("formation")]
            spec = {"name": "entanglement_of_formation", "members": 2}
        elif kind == "kw_classical":
            rho = inputs["omega_ab"]
            spec = {"name": "classical_correlations"}
        elif kind == "kw_formation":
            rho = inputs["omega_ac"]
            spec = {"name": "entanglement_of_formation", "members": 2}
        elif kind == "c_squashed":
            rho = inputs["c_squashed"]
            spec = {"name": "c_squashed_entanglement", "members": 2}
        else:
            rho = inputs["squashed"]
            spec = {"name": "squashed_entanglement", "extension_dim": 2}
        spec["state"] = matrix_spec(rho, (2, 2))
        config = self._write_config("quantity.json", {"command": "quantity", "seed": 0, "quantity": spec})
        self._fresh_out_dir()

        def check(rc) -> str | None:
            if rc != 0:
                return f"{kind}: exit code {rc}"
            result = json.loads((self.out_dir / "quantity.json").read_text(encoding="utf-8"))["value"]
            value = float(result["value"])
            if not math.isfinite(value):
                return f"{kind}: value {value!r}"
            if kind == "formation":
                grid = el.formation_two_member_grid(el.TraceClassElement(rho, factor_dims=(2, 2)))
                return _close("formation against the two-member grid oracle", value, grid, 1e-2)
            if kind == "kw_classical":
                self._kw_classical[c] = result
                return None
            if kind == "kw_formation":
                cb = self._kw_classical.get(c)
                if cb is None:
                    return "Koashi-Winter: the classical-correlations half is missing"
                if not (cb["converged"] and result["converged"]):
                    return None
                return _close("Koashi-Winter C_B(AB) + E_F(AC)", float(cb["value"]) + value, inputs["h_a"], 5e-3)
            bound = two_qubit_mutual_information(rho)
            if kind == "squashed":
                bound *= 0.5
            if value <= bound + 1e-9:
                return None
            return f"{kind}: {value!r} exceeds its upper bound {bound!r}"

        return Op(kind, self._cli(config, "json"), check)


class SuiteSweep(_CliWorkload):
    """``entroloss suite`` with ids=all over a seeded pool of (energy, T2 seed) configs.

    The pool repeats every ``len(cycle)`` passes; a repeated config must
    reproduce the first pass's report files byte for byte.
    """

    name = "suite-sweep"
    cycle = ("suite",) * 4
    trace_ops = 2 * len(cycle)
    energy_range = (0.5, 2.0)  # energies near 3 leave the sharp family's domain at n = 16

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(self.seed)
        self.configs = []
        for j in range(len(self.cycle)):
            params = {"energy": float(rng.uniform(*self.energy_range)), "seed": int(rng.integers(1, 2**31))}
            config = {"command": "suite", "seed": 0, "suite": {"ids": "all", "params": params}}
            self.configs.append(self._write_config(f"suite-{j}.json", config))
        self.digests: dict = {}

    def prepare(self, i: int) -> Op:
        j = i % len(self.cycle)
        self._fresh_out_dir()

        def check(rc) -> str | None:
            if rc != 0:
                return f"suite pass: exit code {rc}"
            digest = digest_dir(self.out_dir)
            first = self.digests.setdefault(j, digest)
            if digest != first:
                return f"suite pass: config {j} wrote different report bytes on a repeat"
            return None

        return Op("suite", self._cli(self.configs[j], "both"), check)


# ---------------------------------------------------------------------------
# direct calls on dense inputs
# ---------------------------------------------------------------------------


class DenseIdentities:
    """Dense random tripartite pure states and random channels, exact identities at 1e-8."""

    name = "dense-identities"
    cycle = (("tri", 2), ("chan", 2), ("tri", 3), ("chan", 4), ("tri", 4), ("chan", 8), ("tri", 6), ("chan", 16), ("tri", 8))
    trace_ops = 2 * len(cycle)
    tol = 1e-8

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)

    def prepare(self, i: int) -> Op:
        c, pos = divmod(i, len(self.cycle))
        kind, d = self.cycle[pos]
        rng = np.random.default_rng([self.seed, c, pos])
        if kind == "tri":
            return self._tripartite(rng, d)
        return self._channel(rng, d)

    def _tripartite(self, rng: np.random.Generator, d: int) -> Op:
        psi = pure_vector(rng, d**3)
        omega = np.outer(psi, psi.conj())
        h_a = schmidt_entropy(psi, d)
        h_b = schmidt_entropy(psi.reshape(d, d, d).transpose(1, 0, 2).reshape(-1), d)
        h_c = schmidt_entropy(psi.reshape(d, d, d).transpose(2, 0, 1).reshape(-1), d)

        def run():
            w = el.TraceClassElement(omega, factor_dims=(d, d, d))
            cmi = el.conditional_mutual_information(w, check=True)
            i_ab = float(el.mutual_information(el.partial_trace(w, [0, 1])))
            i_ac = float(el.mutual_information(el.partial_trace(w, [0, 2])))
            return cmi, i_ab, i_ac, el.von_neumann_entropy(el.partial_trace(w, [0]))

        def check(out) -> str | None:
            cmi, i_ab, i_ac, prog_h_a = out
            return (
                _close(f"d={d} purity identity I(A:B) + I(A:C)", i_ab + i_ac, 2.0 * prog_h_a, self.tol)
                or _close(f"d={d} H(A)", prog_h_a, h_a, self.tol)
                or _close(f"d={d} I(A:C|B) of a pure state", cmi, h_a + h_c - h_b, self.tol)
            )

        return Op(f"tri{d}", run, check)

    def _channel(self, rng: np.random.Generator, d: int) -> Op:
        kraus_rank = 2
        v = isometry(rng, d * kraus_rank, d)
        kraus = [v[k::kraus_rank, :] for k in range(kraus_rank)]
        rho = density_matrix(_gaussian(rng, d, d))
        dilated = (v @ rho @ v.conj().T).reshape(d, kraus_rank, d, kraus_rank)
        h_in = matrix_entropy(rho)
        mutual = h_in + matrix_entropy(np.einsum("ajbj->ab", dilated)) - matrix_entropy(np.einsum("ajak->jk", dilated))

        def run():
            op = el.QuantumOperation(kraus)
            state = el.TraceClassElement(rho)
            return (
                el.channel_mutual_information(op, state),
                el.coherent_information(op, state),
                el.stinespring_entropy_residual(op, state),
            )

        def check(out) -> str | None:
            cmi, ci, residual = out
            return (
                _close(f"d={d} channel mutual information", cmi, mutual, self.tol)
                or _close(f"d={d} coherent information", ci, mutual - h_in, self.tol)
                or _close(f"d={d} Stinespring entropy residual", residual, 0.0, self.tol)
            )

        return Op(f"chan{d}", run, check)


WORKLOADS = {w.name: w for w in (RoofAnchors, SuiteSweep, DenseIdentities)}
