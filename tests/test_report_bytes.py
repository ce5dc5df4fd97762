"""A suite pass writes the same bytes as one run on reference kernels.

``entroloss suite ids=all`` runs twice in process: on the shipped code, and
with test-local references swapped in for the entropy kernel (a clip, then
eta as a gather of the positive entries) and for C-maj's pair loop (each
pair sorted and checked for majorization twice, as the loop and the public
decomposition each did on their own).  Every report file, stdout and the
exit code must match.  The reference is recomputed on the same machine, so
no stored digest ties the test to one libm.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

from entroloss import info, suites
from entroloss.cli import run
from entroloss.sequences import make_sharp_sequence
from helpers import spectral_entropy_by_gather


def _majorizes(lam, mu):
    """Padded partial-sum dominance after sorting both spectra."""
    lam, mu = np.sort(lam), np.sort(mu)
    n = max(lam.size, mu.size)
    sums = []
    for w in (lam, mu):
        padded = np.zeros(n)
        padded[: w.size] = w[::-1]
        sums.append(np.cumsum(padded))
    return bool(np.all(sums[0] >= sums[1] - 1e-10))


def _two_sort_pairs(p, rng):
    """C-maj's pair loop with the majorization check run by the loop and again
    inside the decomposition, on freshly sorted spectra."""
    grid = p["grid"]
    low = make_sharp_sequence(energy=0.6 * p["energy"], n_grid=grid)
    high = make_sharp_sequence(energy=p["energy"], n_grid=grid)
    out = {"n": list(grid), "ordered": True, "h_low": [], "h_high": [], "kl_term": [], "gap_term": [], "residual": []}
    for n in grid:
        rho, sigma = low.element(n), high.element(n)
        out["ordered"] = out["ordered"] and _majorizes(rho.diag, sigma.diag)
        lam, mu = (x.eigenvalues()[::-1].copy() for x in (rho, sigma))
        assert _majorizes(lam, mu)
        lam, mu = np.clip(lam, 0.0, None), np.clip(mu, 0.0, None)
        on = mu > 1e-300
        lam_on, mu_on = lam[on], mu[on]
        d = float(np.sum(lam_on[lam_on > 0] * np.log(lam_on[lam_on > 0]))) - float(np.sum(lam_on * np.log(mu_on)))
        f = float(np.sum((mu_on - lam_on) * (-np.log(mu_on))))
        d, f = max(d, 0.0), max(f, 0.0)
        hn_low, hn_high = info.von_neumann_entropy(rho), info.von_neumann_entropy(sigma)
        out["kl_term"].append(d)
        out["gap_term"].append(f)
        out["residual"].append(abs(hn_high - hn_low - d - f))
        out["h_low"].append(hn_low)
        out["h_high"].append(hn_high)
    return out


def _suite_pass(tmp_path, name, energy, seed):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"command": "suite", "suite": {"ids": "all", "params": {"energy": energy, "seed": seed}}}))
    out = tmp_path / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run(["--config", str(cfg), "--out", str(out), "--format", "both"])
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return code, stdout.getvalue(), files


@pytest.mark.parametrize("energy, seed", [(1.2, 12345), (0.5, 1)])
def test_suite_pass_bytes_match_the_reference_kernels(tmp_path, monkeypatch, energy, seed):
    shipped = _suite_pass(tmp_path, "shipped", energy, seed)

    scored, walked = [], []

    def reference_entropy(eigs):
        scored.append(np.size(eigs))
        return spectral_entropy_by_gather(eigs)

    def reference_pairs(p, rng):
        walked.append(p["grid"])
        return _two_sort_pairs(p, rng)

    c_maj = suites.SUITES["C-maj"]
    assert c_maj.rows[0] is suites._majorized_pairs
    monkeypatch.setattr(info, "spectral_entropy", reference_entropy)
    monkeypatch.setitem(suites.SUITES, "C-maj", dataclasses.replace(c_maj, rows=(reference_pairs,) + c_maj.rows[1:]))
    reference = _suite_pass(tmp_path, "reference", energy, seed)

    assert len(walked) == 1 and len(scored) > 100  # the references ran
    code, stdout, files = shipped
    assert code == 0 and len(files) == 42
    assert (code, stdout) == reference[:2]
    assert sorted(files) == sorted(reference[2])
    changed = [name for name in files if files[name] != reference[2][name]]
    assert changed == []
