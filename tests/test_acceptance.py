"""Acceptance criteria, one test per criterion, each printing a pass/fail line."""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from entroloss import (
    Hamiltonian,
    TraceClassElement,
    coherent_information,
    conditional_mutual_information,
    entanglement_of_formation,
    entropy_k_approximation,
    entropy_k_gap,
    estimate_jump,
    formation_two_member_grid,
    formation_two_qubit_closed_form,
    gibbs_identity_residual,
    gibbs_threshold,
    koashi_winter_residual,
    lift_by_purification,
    majorizes,
    make_sharp_sequence,
    mean_energy,
    mutual_information,
    partial_trace,
    rearrangement,
    stinespring_entropy_residual,
    suite_run,
    trace_distance,
    von_neumann_entropy,
)
from entroloss._optim import OptimizerBudget
from entroloss.rand import random_channel, random_density, random_pure
from entroloss.sequences import entropy_of, marginal_entropy_of, mutual_information_of
from helpers import random_probability

DIMS = (2, 3, 4)
INSTANCES = 200


@contextmanager
def criterion(num, label, seconds):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {label}", flush=True)
        raise
    elapsed = time.time() - t0
    assert elapsed < seconds, f"criterion {num} took {elapsed:.1f}s, budget {seconds}s"
    print(f"[PASS] criterion {num}: {label} ({elapsed:.1f}s)", flush=True)


def test_criterion_1_identity_suite():
    rng = np.random.default_rng(101)
    with criterion(1, "identity suite (purity, dilation, Gibbs, cmi forms) at 1e-8", 60):
        for d in DIMS:
            for _ in range(INSTANCES):
                # purity identity: I(A:B) + I(A:C) = 2 H(A) on rank-one tripartite
                w = random_pure(d**3, rng, factor_dims=(d, d, d))
                i_ab = float(mutual_information(partial_trace(w, [0, 1])))
                i_ac = float(mutual_information(partial_trace(w, [0, 2])))
                h_a = von_neumann_entropy(partial_trace(w, [0]))
                assert abs(i_ab + i_ac - 2 * h_a) <= 1e-8
        for d in DIMS:
            for _ in range(INSTANCES):
                op = random_channel(d, d, 2, rng)
                rho = random_density(d, rng)
                assert stinespring_entropy_residual(op, rho) <= 1e-8
        h = Hamiltonian.logarithmic(1.0, 0.0, 128)
        for d in DIMS:
            for trial in range(INSTANCES):
                if trial % 2:
                    p = rng.random(d)
                    rho = TraceClassElement(p / p.sum(), diagonal=True)
                else:
                    rho = random_density(d, rng)  # the identity holds for any state
                lam = 1.2 + rng.random()
                assert gibbs_identity_residual(rho, h, lam, 64) <= 1e-8
        for d in DIMS:
            for _ in range(INSTANCES):
                w = random_density(d**3, rng, factor_dims=(d, d, d))
                # the four-formula agreement at 1e-8 is enforced inside
                conditional_mutual_information(w, check=True)


def test_criterion_2_inequality_suite():
    rng = np.random.default_rng(202)
    with criterion(2, "inequality suite (ssa, subadditivity, mi bound, pinsker, mirsky, ...)", 120):
        violations = 0
        for _ in range(INSTANCES):
            w = random_density(8, rng, factor_dims=(2, 2, 2))
            violations += conditional_mutual_information(w, check=False) < -1e-9
        for _ in range(INSTANCES):
            w = random_density(6, rng, factor_dims=(2, 3))
            h_ab = von_neumann_entropy(w)
            h_a = von_neumann_entropy(partial_trace(w, [0]))
            h_b = von_neumann_entropy(partial_trace(w, [1]))
            violations += h_ab > h_a + h_b + 1e-9
            violations += h_a > h_ab + h_b + 1e-9
            violations += h_b > h_ab + h_a + 1e-9
            violations += float(mutual_information(w)) > 2 * min(h_a, h_b) + 1e-9
        for _ in range(INSTANCES):
            p = np.sort(random_probability(5, rng))[::-1]
            q = 0.5 * p + 0.5 * np.mean([rng.permutation(p) for _ in range(4)], axis=0)
            q = np.sort(q / q.sum())[::-1]
            rho = TraceClassElement(p, diagonal=True)
            sigma = TraceClassElement(q, diagonal=True)
            assert majorizes(rho, sigma)
            gap = von_neumann_entropy(sigma) - von_neumann_entropy(rho)
            violations += gap < 0.5 * np.abs(p - q).sum() ** 2 - 1e-8
            h_weights = np.sort(rng.random(5))
            violations += float(np.dot(p, h_weights)) > float(np.dot(q, h_weights)) + 1e-9
        for _ in range(INSTANCES):
            a, b = random_density(5, rng), random_density(5, rng)
            lhs = np.abs(a.eigenvalues_descending() - b.eigenvalues_descending()).sum()
            violations += lhs > trace_distance(a, b) + 1e-9
        h = Hamiltonian.from_table(sorted(np.cumsum(rng.random(4))))
        for _ in range(INSTANCES):
            rho = random_density(4, rng)
            violations += mean_energy(rearrangement(rho, h), h) > mean_energy(rho, h) + 1e-9
        assert violations == 0


def test_criterion_3_sharp_sequence_loss():
    with criterion(3, "sharp-sequence entropy loss within [0.8, 1.2] of g(H)(E - E0)", 30):
        h = Hamiltonian.logarithmic(1.0, 0.0, (1 << 16) + 1)
        g = float(gibbs_threshold(h))
        energy, e0 = 1.0, h.ground_energy
        seq = make_sharp_sequence(h, energy)
        assert seq.n_grid[-1] == 1 << 16
        assert seq.element(1 << 16).diagonal  # diagonal fast path required
        est = estimate_jump(seq, entropy_of, closed_form_key="entropy")
        target = g * (energy - e0)
        assert 0.8 * target <= est.loss_closed_form <= 1.2 * target
        # bound chain at every grid point: rearranged energy below mean energy
        # below the budget; the entropy side is the windowed/closed estimate
        for n in seq.n_grid:
            rho = seq.element(n)
            e_sorted = mean_energy(rearrangement(rho, h), h)
            e_mean = mean_energy(rho, h)
            assert e_sorted <= e_mean + 1e-9
            assert e_mean <= energy + 1e-10
        report = suite_run("P4", {"energy": energy})
        assert report.passed


def test_criterion_4_lifted_mutual_information_sharpness():
    with criterion(4, "lifted sharp sequence: loss(I) = 2 loss(H_A) within 5%", 30):
        seq = make_sharp_sequence(energy=1.0)
        lifted = lift_by_purification(seq)
        est_i = estimate_jump(lifted, mutual_information_of, closed_form_key="mutual_information")
        est_h = estimate_jump(lifted, lambda x: marginal_entropy_of(x, 0), closed_form_key="marginal_entropy")
        assert abs(float(est_i.loss) - 2 * float(est_h.loss)) <= 0.05 * float(est_i.loss)
        assert abs(est_i.loss_closed_form - 2 * est_h.loss_closed_form) <= 0.05 * est_i.loss_closed_form
        # rank-aware evaluation validated against the dense pipeline at small n
        small = make_sharp_sequence(energy=1.0, n_grid=[8, 12, 16, 20, 24, 28])
        lifted_small = lift_by_purification(small)
        for n in (8, 16, 28):
            omega = lifted_small.element(n)
            dense = float(mutual_information(omega.to_element()))
            assert abs(mutual_information_of(omega) - dense) <= 1e-8


def test_criterion_5_optimizer_anchors():
    rng = np.random.default_rng(505)
    with criterion(5, "exact anchors and formation-vs-grid-oracle agreement", 600):
        budget = OptimizerBudget()  # default budget
        for _ in range(5):
            rho = random_density(4, rng)
            assert entropy_k_approximation(rho, 1).value == 0.0
            gap = entropy_k_gap(rho, 1)
            assert gap.value == pytest.approx(von_neumann_entropy(rho), abs=1e-12)
            assert gap.exact
        bell = TraceClassElement.pure(np.array([1, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2))
        ef_bell = entanglement_of_formation(bell, budget=budget)
        assert abs(ef_bell.value - math.log(2.0)) <= 1e-6
        worst = 0.0
        for _ in range(20):
            a = random_pure(4, rng, (2, 2))
            b = random_pure(4, rng, (2, 2))
            t = 0.25 + 0.5 * rng.random()
            omega = TraceClassElement(
                t * a.to_matrix() + (1 - t) * b.to_matrix(), (2, 2), validate=False
            )
            est = entanglement_of_formation(omega, members=2, budget=budget)
            oracle = formation_two_member_grid(omega, grid_points=10_000)
            worst = max(worst, abs(est.value - oracle))
            exact = formation_two_qubit_closed_form(omega)
            assert exact - 1e-12 <= est.value <= exact + 1e-6
        assert worst <= 1e-2, f"worst formation-vs-oracle deviation {worst}"


def test_criterion_6_koashi_winter():
    rng = np.random.default_rng(606)
    with criterion(6, "Koashi-Winter residual at 5e-3 on random tripartite pure states", 900):
        budget = OptimizerBudget()  # default budget
        excluded = []
        residuals = []
        for idx in range(20):
            psi = random_pure(8, rng, (2, 2, 2))
            res = koashi_winter_residual(psi, budget)
            if not res.converged:
                excluded.append((idx, res.residual))
                continue
            residuals.append(res.residual)
            assert res.residual <= 5e-3, f"instance {idx} residual {res.residual}"
        if excluded:
            print(f"  excluded non-converged instances: {excluded}", flush=True)
        assert len(residuals) >= 15, "too few converged instances for a meaningful check"


def test_criterion_7_channel_suite():
    rng = np.random.default_rng(707)
    with criterion(7, "channel suite: output-entropy equality, data processing, ci range", 120):
        report = suite_run("T2")
        assert report.passed
        by_claim = {c.claim: c for c in report.checks}
        ident = by_claim["identity channel: output-entropy loss equals the input-entropy loss"]
        unit = by_claim["unitary channel: output-entropy loss equals the input-entropy loss"]
        assert abs(ident.lhs - ident.rhs) <= 0.05 * max(ident.rhs, 1e-12)
        assert abs(unit.lhs - unit.rhs) <= 0.05 * max(unit.rhs, 1e-12)
        for claim, check in by_claim.items():
            if "output loss <= input loss" in claim:
                assert check.passed
        # coherent information range on an independent random sweep
        for _ in range(50):
            d = int(rng.integers(2, 4))
            op = random_channel(d, d, 2, rng)
            rho = random_density(d, rng)
            assert abs(coherent_information(op, rho)) <= von_neumann_entropy(rho) + 1e-9


def test_criterion_8_deterministic_reports(tmp_path):
    from entroloss.cli import run

    with criterion(8, "byte-identical reports for identical config and seed", 300):
        cfg = tmp_path / "all_suites.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "suite",
                    "seed": 42,
                    "suite": {"ids": "all"},
                    "output": {"format": "both"},
                }
            )
        )
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run(["--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["--config", str(cfg), "--out", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2)) and names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
