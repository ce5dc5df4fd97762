"""Span tracing for the traced benchmark run, applied from outside the program.

``Tracer.install`` replaces each traced function at every module binding
site: modules import functions by name, so ``suites.estimate_jump`` and
``sequences.estimate_jump`` are separate bindings, as are
``roofs.minimize_isometry`` and ``_optim.minimize_isometry``.  It also wraps
four class methods and the numpy kernels the program reaches through
``np.linalg`` and ``np.einsum``.  ``uninstall`` puts every original back.

Spans stay in memory (name, start, end, parent span, operation id) until the
run ends.  A span's self time is its duration minus that of its children;
a layer's self time is the sum over its spans.  Layers are named after the
program's modules; ``bench`` is the benchmark's own code inside an operation.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np

KERNELS = ("eigvalsh", "eigh", "svd", "qr", "einsum")
LAYERS = ("optim", "roofs", "kernel", "operators", "info", "channels", "energy", "majorization", "sequences", "suites", "cli", "bench")
# functions outside the package's public namespace that the layer metrics need
EXTRA_FUNCTIONS = (("_optim", "minimize_isometry"), ("cli", "run"), ("cli", "write_json"), ("cli", "write_csv"))
# span names that differ from "<layer>.<function>"
RENAMED = {
    "info.von_neumann_entropy": "info.entropy",
    "info.conditional_mutual_information": "info.cmi",
    "energy.sharp_sequence_state": "energy.sharp_state",
    "operators.purification_amplitude": "operators.purification",
    "sequences.lift_by_purification": "sequences.lift",
    "roofs.formation_two_member_grid": "roofs.oracle",
}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []  # open spans per name, to tell outermost spans
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outermost = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.converged = 0
        self.bounded = 0
        self.exact = 0
        self.checks = 0
        self.failed_checks = 0
        self.bytes_written = 0
        self.element_keys: set = set()
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, fn, name: str, *, kernel=False, name_of=None, before=None, after=None):
        """``fn`` recording one span per call; kernels only beneath a program span."""
        fixed = self._id(name)
        clock = time.perf_counter
        stack, active = self.stack, self._active
        names, starts, ends, parents, ops, outer = self.name, self.start, self.end, self.parent, self.op, self.outermost

        def traced(*args, **kwargs):
            if kernel and not stack:
                return fn(*args, **kwargs)
            nid = self._id(name_of(args)) if name_of else fixed
            if before:
                args = before(args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            outer.append(active[nid] == 0)
            ends.append(0.0)
            active[nid] += 1
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                active[nid] -= 1
            if after:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- hooks ----------------------------------------------------------------

    def _objective_wrapped(self, args):
        return (self.wrap(args[0], "roofs.objective"),) + args[1:]

    def _after_search(self, args, result):
        self.converged += bool(result.converged)

    def _after_roof(self, args, result):
        if hasattr(result, "exact"):
            self.bounded += 1
            self.exact += bool(result.exact)

    def _after_suite(self, args, report):
        self.checks += len(report.checks)
        self.failed_checks += sum(not c.passed for c in report.checks)

    def _after_write(self, args, result):
        self.bytes_written += os.path.getsize(args[0])

    def _after_element(self, args, result):
        seq, n = args[0], int(args[1])
        tags = seq.tags
        self.element_keys.add((self.op_id, tags.get("family"), tags.get("energy"), tags.get("energies"), bool(tags.get("lifted")), n))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import entroloss
        from entroloss import operators, sequences

        targets = {}
        for attr, fn in vars(entroloss).items():
            if isinstance(fn, types.FunctionType) and fn.__module__.startswith("entroloss."):
                targets[fn] = f"{_layer(fn.__module__)}.{attr}"
        for module, attr in EXTRA_FUNCTIONS:
            fn = getattr(importlib.import_module(f"entroloss.{module}"), attr)
            targets[fn] = f"{_layer(module)}.{attr}"

        wrappers = {}
        for fn, name in targets.items():
            name = RENAMED.get(name, name)
            layer = name.split(".")[0]
            hooks = {}
            if name == "optim.minimize_isometry":
                hooks = {"before": self._objective_wrapped, "after": self._after_search}
            elif name == "suites.suite_run":
                hooks = {"name_of": lambda args: f"suites.{args[0]}", "after": self._after_suite}
            elif name in ("cli.write_json", "cli.write_csv"):
                hooks = {"after": self._after_write}
            elif layer == "roofs" and name != "roofs.oracle":
                hooks = {"after": self._after_roof}
            wrappers[fn] = self.wrap(fn, name, **hooks)

        for mod_name, module in list(sys.modules.items()):
            if mod_name == "entroloss" or mod_name.startswith("entroloss."):
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        self._patch(module, attr, wrappers[value])

        methods = (
            (operators.TraceClassElement, "__init__", "operators.construct", {}),
            (operators.TraceClassElement, "spectrum", "operators.spectrum", {}),
            (sequences.StateSequence, "element", "sequences.element", {"after": self._after_element}),
            (sequences.StateSequence, "is_converging", "sequences.is_converging", {}),
        )
        for cls, attr, name, hooks in methods:
            self._patch(cls, attr, self.wrap(getattr(cls, attr), name, **hooks))
        for attr in KERNELS:
            owner = np if attr == "einsum" else np.linalg
            self._patch(owner, attr, self.wrap(getattr(owner, attr), f"kernel.{attr}", kernel=True))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict:
        fields = ("name", "start", "end", "parent", "op", "outermost")
        return {f: np.asarray(getattr(self, f)) for f in fields}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

    def layer_self_times(self) -> dict:
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        by_name = np.bincount(a["name"], weights=self_time, minlength=len(self.names))
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(self.names):
            out[name.split(".")[0]] += float(by_name[nid])
        return out

    def metrics(self, suite_ids, overhead_pct: float) -> dict:
        a = self.arrays()
        dur = a["end"] - a["start"]
        calls_by = np.bincount(a["name"], minlength=len(self.names))
        secs_by = np.bincount(a["name"], weights=dur * (a["outermost"] > 0), minlength=len(self.names))

        def calls(name):
            return int(calls_by[self._ids[name]]) if name in self._ids else 0

        def secs(name):
            return float(secs_by[self._ids[name]]) if name in self._ids else 0.0

        m = {f"{layer}.self_s": s for layer, s in self.layer_self_times().items()}
        evals = calls("roofs.objective")
        searches = calls("optim.minimize_isometry")
        m.update(
            {
                "optim.calls": searches,
                "optim.evals": evals,
                "optim.evals_per_call": evals / searches if searches else 0.0,
                "optim.us_per_eval": 1e6 * secs("optim.minimize_isometry") / evals if evals else 0.0,
                "optim.converged_ratio": self.converged / searches if searches else 0.0,
                "roofs.calls": sum(calls(n) for n in self.names if n.startswith("roofs.") and n not in ("roofs.objective", "roofs.oracle")),
                "roofs.exact_ratio": self.exact / self.bounded if self.bounded else 0.0,
                "roofs.objective_s": secs("roofs.objective"),
                "roofs.oracle.s": secs("roofs.oracle"),
                "majorization.calls": sum(calls(n) for n in self.names if n.startswith("majorization.")),
                "sequences.element_distinct_ratio": len(self.element_keys) / calls("sequences.element") if calls("sequences.element") else 0.0,
                "suites.checks": self.checks,
                "suites.failed_checks": self.failed_checks,
                "cli.write.s": secs("cli.write_json") + secs("cli.write_csv"),
                "cli.bytes_written": self.bytes_written,
                "trace.spans": len(self.start),
                "trace.overhead_pct": overhead_pct,
            }
        )
        for k in KERNELS:
            m[f"kernel.{k}.calls"], m[f"kernel.{k}.s"] = calls(f"kernel.{k}"), secs(f"kernel.{k}")
        for name in (
            "operators.construct", "operators.partial_trace", "operators.spectrum", "info.entropy",
            "info.relative_entropy", "info.mutual_information", "info.cmi", "channels.apply",
            "energy.sharp_state", "sequences.element", "sequences.estimate_jump", "cli.run",
        ):
            m[f"{name}.calls"], m[f"{name}.s"] = calls(name), secs(name)
        for name in (
            "operators.purification", "channels.channel_mutual_information", "channels.coherent_information",
            "energy.gibbs_state", "sequences.is_converging", "sequences.lift",
        ):
            m[f"{name}.s"] = secs(name)
        for sid in suite_ids:
            m[f"suites.{sid}.s"] = secs(f"suites.{sid}")
        return m
