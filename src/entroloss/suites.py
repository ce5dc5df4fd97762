"""Runnable bound suites: one suite per claim family, on built-in sequences.

Each check row records which estimator basis it uses:

* ``pointwise``    - the inequality holds per grid point with aligned limits,
                     so the windowed estimates inherit it up to rounding;
* ``measured``     - finite-n windowed estimates compared with a documented
                     slack (slowly vanishing finite-n corrections);
* ``closed_form``  - the family's declared asymptotic estimator;
* ``exact-anchor`` - functional values certified without an optimizer
                     (pure-state and classical-state anchors).

Families are chosen so that every inequality is checked in a direction the
estimators cannot falsely violate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    QuantumOperation,
    ChannelSequence,
    channel_mutual_information,
    coherent_information,
    compression_operation,
    dephasing_channel,
    identity_channel,
    output_entropy,
    unitary_channel,
)
from .energy import Hamiltonian, gibbs_state, gibbs_threshold, mean_energy
from .errors import UnknownSuiteError
from .info import shannon_entropy, von_neumann_entropy
from .majorization import (
    entropy_gap_decomposition,
    rearrangement,
    separable_majorization_check,
    spectrum_majorizes,
)
from .operators import TraceClassElement
from .rand import haar_unitary, random_channel, random_density
from .sequences import (
    GRID_DENSE,
    GRID_DIAG,
    GRID_MEDIUM,
    PureBipartiteState,
    jump_gain,
    jump_loss,
    lift_by_purification,
    make_classical_correlated_sequence,
    make_classical_triple_sequence,
    make_product_sequence,
    make_rotated_sharp_sequence,
    make_sharp_sequence,
    mutual_information_of,
    read_jump,
    series,
    trailing_window,
)

FINITE_N_SLACK = 0.15  # relative slack for equalities between finite-n estimates
ESTIMATOR_FACTOR = 1.2  # the closed-form estimator's documented 20 percent band


@dataclass(frozen=True)
class SuiteCheck:
    claim: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    basis: str
    note: str = ""

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs


@dataclass
class SuiteReport:
    suite_id: str
    title: str
    params: dict
    checks: list = field(default_factory=list)
    series: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_slack(self) -> float:
        return max((c.slack for c in self.checks), default=0.0)


def _le(claim, lhs, rhs, tol, basis, note="") -> SuiteCheck:
    lhs, rhs = float(lhs), float(rhs)
    return SuiteCheck(claim, lhs, rhs, tol, lhs <= rhs + tol, basis, note)


def _close(claim, lhs, rhs, tol, basis, note="") -> SuiteCheck:
    lhs, rhs = float(lhs), float(rhs)
    return SuiteCheck(claim, lhs, rhs, tol, abs(lhs - rhs) <= tol, basis, note)


def _flag(claim, ok: bool, basis, note="") -> SuiteCheck:
    return SuiteCheck(claim, 1.0 if ok else 0.0, 1.0, 0.0, bool(ok), basis, note)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------


def _suite_p4(params) -> SuiteReport:
    """Energy bound chain on the sharp family: loss(H) <= g(H) loss(E_H) <= g(H)(E - E0)."""
    energy = float(params.get("energy", 1.0))
    grid = tuple(params.get("grid", GRID_DIAG))
    h = Hamiltonian.logarithmic(1.0, 0.0, max(grid) + 1)
    g = float(gibbs_threshold(h))
    e0 = h.ground_energy
    seq = make_sharp_sequence(h, energy, grid)

    entropies, means, means_sorted, distances = series(
        seq,
        "entropy",
        lambda rho: mean_energy(rho, h),
        lambda rho: mean_energy(rearrangement(rho, h), h),
        seq.limit_distance,
    )
    closed = [seq.closed_forms["entropy"](n) for n in grid]
    report = SuiteReport(
        "P4",
        "entropy loss bounded by mean-energy loss under a log-growth Hamiltonian",
        {"energy": energy, "g": g},
    )
    target = g * (energy - e0)
    report.series = {
        "n": list(grid),
        "entropy": entropies,
        "mean_energy": means,
        "mean_energy_rearranged": means_sorted,
        "closed_form_loss": closed,
        "loss_over_bound": [c / target for c in closed],
    }
    report.checks.append(
        _le(
            "rearrangement never raises the mean energy (every grid point)",
            max(ms - m for ms, m in zip(means_sorted, means)),
            0.0,
            1e-9,
            "pointwise",
        )
    )
    report.checks.append(
        _le(
            "mean energy stays at the declared budget (every grid point)",
            max(means) - energy,
            0.0,
            1e-10,
            "pointwise",
        )
    )
    est = read_jump(seq, "entropy", entropies, distances, closed_form_key="entropy")
    loss_e = jump_loss(means, e0)
    loss_e_sorted = jump_loss(means_sorted, e0)
    report.checks.append(
        _le("loss of rearranged energy <= loss of energy", loss_e_sorted, loss_e, 1e-10, "measured")
    )
    report.checks.append(_le("loss of energy <= E - E0", loss_e, energy - e0, 1e-10, "measured"))
    report.checks.append(
        _le(
            "closed-form entropy loss <= g * energy loss (20% estimator band)",
            est.loss_closed_form,
            g * loss_e * ESTIMATOR_FACTOR,
            1e-9,
            "closed_form",
        )
    )
    report.checks.append(
        _le("closed-form entropy loss above 0.8 of the sharp bound", 0.8 * target, est.loss_closed_form, 0.0, "closed_form")
    )
    report.checks.append(
        _le("closed-form entropy loss below 1.2 of the sharp bound", est.loss_closed_form, 1.2 * target, 0.0, "closed_form")
    )
    lam = 2.0 * g
    worst = -math.inf
    for idx, n in enumerate(grid):
        z = gibbs_state(h, lam, n + 1)
        worst = max(worst, entropies[idx] - (lam * means[idx] + z.log_partition))
    report.checks.append(
        _le("entropy dominated by lam E + log Z for lam = 2g (every grid point)", worst, 0.0, 1e-8, "pointwise")
    )
    report.checks.append(
        _flag("measured values converge and the tail is monotone", est.converging and est.monotone_tail, "measured")
    )
    return report


def _suite_p1(params) -> SuiteReport:
    """The general cross-entropy upper bound for the entropy loss."""
    energy = float(params.get("energy", 1.0))
    grid = tuple(params.get("grid", GRID_DIAG))
    h = Hamiltonian.logarithmic(1.0, 0.0, max(grid) + 1)
    seq = make_sharp_sequence(h, energy, grid)
    report = SuiteReport("P1", "cross-entropy upper bound on the entropy loss", {"energy": energy})

    def self_cross_entropy(rho) -> float:
        p = rho.diag[rho.diag > 0]
        return float(np.sum(p * (-np.log(p))))

    entropies, cross, means, distances = series(
        seq, "entropy", self_cross_entropy, lambda rho: mean_energy(rho, h), seq.limit_distance
    )
    report.series = {"n": list(grid), "entropy": entropies}
    # sigma_n = rho_n: the bound is an identity
    worst = max(abs(c - hn) for c, hn in zip(cross, entropies))
    report.checks.append(
        _close("reference sequence equal to the sequence gives equality", worst, 0.0, 1e-10, "pointwise")
    )
    # fixed full-rank Gibbs reference: bound becomes lam * energy loss
    lam = 2.0
    z = gibbs_state(h, lam, max(grid) + 1)
    est = read_jump(seq, "entropy", entropies, distances, closed_form_key="entropy")
    rhs = lam * (energy - h.ground_energy)
    report.checks.append(
        _le("closed-form entropy loss <= lam * energy loss (Gibbs reference)", est.loss_closed_form, rhs, 1e-9, "closed_form")
    )
    report.checks.append(
        _le("measured entropy loss <= lam * energy loss (Gibbs reference)", float(est.loss), rhs, 1e-9, "measured")
    )
    worst = max(hn - (lam * m + z.log_partition) for hn, m in zip(entropies, means))
    report.checks.append(
        _le("cross-entropy dominates the entropy (every grid point)", worst, 0.0, 1e-8, "pointwise")
    )
    return report


def _suite_c1(params) -> SuiteReport:
    """Pinching dominance for jumps: loss(H) <= loss(S of the pinched distribution)."""
    energy = float(params.get("energy", 1.0))
    report = SuiteReport("C1", "entropy loss bounded by pinched Shannon loss", {"energy": energy})
    diag_seq = make_sharp_sequence(energy=energy, n_grid=GRID_DIAG)
    h_vals, s_vals = series(diag_seq, "entropy", "pinched_entropy")
    report.series = {"n": list(diag_seq.n_grid), "entropy": h_vals, "pinched_entropy": s_vals}
    report.checks.append(
        _close(
            "diagonal family: pinched Shannon values equal the entropy (equality flag)",
            max(abs(a - b) for a, b in zip(h_vals, s_vals)),
            0.0,
            1e-10,
            "pointwise",
            note="equality holds for sequences diagonal in the pinching basis",
        )
    )
    rot = make_rotated_sharp_sequence(energy=energy, n_grid=GRID_DENSE)
    h_vals, s_vals = series(rot, "entropy", "pinched_entropy")
    report.checks.append(
        _le(
            "rotated family: entropy below pinched Shannon entropy (every grid point)",
            max(a - b for a, b in zip(h_vals, s_vals)),
            0.0,
            1e-9,
            "pointwise",
        )
    )
    report.checks.append(
        _le("rotated family: measured entropy loss <= measured pinched loss", jump_loss(h_vals, 0.0), jump_loss(s_vals, 0.0), 1e-9, "measured")
    )
    return report


def _suite_c2(params) -> SuiteReport:
    """Subadditivity of the entropy loss on bipartite families."""
    report = SuiteReport("C2", "bipartite entropy loss below the sum of marginal losses", {})
    prod = make_product_sequence(n_grid=GRID_MEDIUM)
    h_ab, h_a, h_b = series(prod, "entropy", "marginal_entropy", "marginal_entropy_b")
    report.series = {"n": list(prod.n_grid), "joint_entropy": h_ab, "marginal_a": h_a, "marginal_b": h_b}
    report.checks.append(
        _le(
            "product family: measured joint loss <= sum of marginal losses",
            jump_loss(h_ab, 0.0),
            jump_loss(h_a, 0.0) + jump_loss(h_b, 0.0),
            1e-9,
            "measured",
            note="joint values split exactly, so the estimate inherits subadditivity",
        )
    )
    cc = make_classical_correlated_sequence(n_grid=GRID_MEDIUM)
    h_ab, h_a, h_b = series(cc, "entropy", "marginal_entropy", "marginal_entropy_b")
    report.checks.append(
        _le(
            "correlated classical family: measured joint loss <= sum of marginal losses",
            jump_loss(h_ab, 0.0),
            jump_loss(h_a, 0.0) + jump_loss(h_b, 0.0),
            1e-9,
            "measured",
        )
    )
    return report


def _suite_c3(params) -> SuiteReport:
    """Triangle-type bounds for marginal entropy losses, both factor variants."""
    report = SuiteReport("C3", "marginal loss below joint loss plus (twice) the other marginal loss", {})
    lifted = lift_by_purification(make_sharp_sequence(n_grid=GRID_DIAG))
    h_a, h_b, h_ab = series(lifted, "marginal_entropy", "marginal_entropy_b", "entropy")
    report.series = {"n": list(lifted.n_grid), "marginal_a": h_a, "marginal_b": h_b, "joint": h_ab}
    la, lb, lab = jump_loss(h_a, 0.0), jump_loss(h_b, 0.0), jump_loss(h_ab, 0.0)
    report.checks.append(
        _le("lifted family: marginal loss <= joint loss + 2 * other marginal loss", la, lab + 2 * lb, 1e-9, "measured")
    )
    report.checks.append(
        _le(
            "lifted family: factor two removed for a converging other-marginal sequence",
            la,
            lab + lb,
            1e-9,
            "measured",
            note="the other marginal entropy converges along this family",
        )
    )
    report.checks.append(
        _close(
            "lifted family: zero joint loss forces equal marginal losses",
            la,
            lb,
            1e-9,
            "measured",
            note="joint entropy vanishes along the lift",
        )
    )
    prod = make_product_sequence(n_grid=GRID_MEDIUM)
    h_a, h_b, h_ab = series(prod, "marginal_entropy", "marginal_entropy_b", "entropy")
    report.checks.append(
        _le(
            "product family: marginal loss <= joint loss + 2 * other marginal loss",
            jump_loss(h_a, 0.0),
            jump_loss(h_ab, 0.0) + 2 * jump_loss(h_b, 0.0),
            1e-9,
            "measured",
        )
    )
    return report


def _suite_cmaj(params) -> SuiteReport:
    """Loss ordering along pairs of sequences with termwise majorization."""
    energy = float(params.get("energy", 1.0))
    grid = tuple(params.get("grid", GRID_DIAG))
    h = Hamiltonian.logarithmic(1.0, 0.0, max(grid) + 1)
    low = make_sharp_sequence(h, 0.6 * energy, grid)  # majorizes the hotter family termwise
    high = make_sharp_sequence(h, energy, grid)
    report = SuiteReport("C-maj", "majorized sequences order their entropy losses", {"energy": energy})
    d_vals, f_vals, resid = [], [], []
    h_low, h_high = [], []
    ordered = True
    for n in grid:
        rho, sigma = low.element(n), high.element(n)
        ordered = ordered and spectrum_majorizes(rho.diag, sigma.diag)
        d, f = entropy_gap_decomposition(rho, sigma)
        hn_low, hn_high = von_neumann_entropy(rho), von_neumann_entropy(sigma)
        d_vals.append(d)
        f_vals.append(f)
        resid.append(abs(hn_high - hn_low - d - f))
        h_low.append(hn_low)
        h_high.append(hn_high)
    report.series = {
        "n": list(grid),
        "entropy_majorizing": h_low,
        "entropy_majorized": h_high,
        "kl_term": d_vals,
        "gap_term": f_vals,
    }
    report.checks.append(
        _flag("termwise majorization holds along the pair of families", ordered, "pointwise")
    )
    report.checks.append(
        _le("entropy-gap decomposition residual (every grid point)", max(resid), 0.0, 1e-8, "pointwise")
    )
    delta1 = max(min(trailing_window(d_vals)) - 0.0, 0.0)
    delta2 = max(min(trailing_window(f_vals)) - 0.0, 0.0)
    loss_low, loss_high = jump_loss(h_low, 0.0), jump_loss(h_high, 0.0)
    report.checks.append(
        _le(
            "loss of majorizing sequence <= loss of majorized minus both defect terms",
            loss_low + delta1 + delta2,
            loss_high,
            1e-9,
            "measured",
        )
    )
    report.checks.append(_le("loss of majorizing sequence <= loss of majorized", loss_low, loss_high, 1e-9, "measured"))
    return report


def _suite_csep(params) -> SuiteReport:
    """Marginal losses of separable sequences never exceed the joint loss."""
    report = SuiteReport("C-sep", "separable sequences: marginal loss below joint loss", {})
    cc = make_classical_correlated_sequence(n_grid=GRID_MEDIUM)
    h_ab, h_a, h_b, majorized = series(cc, "entropy", "marginal_entropy", "marginal_entropy_b", separable_majorization_check)
    report.series = {"n": list(cc.n_grid), "joint": h_ab, "marginal_a": h_a, "marginal_b": h_b}
    report.checks.append(_flag("marginals majorize the joint state (every grid point)", all(majorized), "pointwise"))
    report.checks.append(
        _le("marginal A loss <= joint loss", jump_loss(h_a, 0.0), jump_loss(h_ab, 0.0), 1e-9, "measured")
    )
    report.checks.append(
        _le("marginal B loss <= joint loss", jump_loss(h_b, 0.0), jump_loss(h_ab, 0.0), 1e-9, "measured")
    )
    h_a, h_ab = series(make_product_sequence(n_grid=GRID_MEDIUM), "marginal_entropy", "entropy")
    report.checks.append(
        _le(
            "product family: marginal loss <= joint loss",
            jump_loss(h_a, 0.0),
            jump_loss(h_ab, 0.0),
            1e-9,
            "measured",
        )
    )
    bell = TraceClassElement.pure(np.array([1.0, 0, 0, 1.0]) / math.sqrt(2), factor_dims=(2, 2))
    report.checks.append(
        _flag(
            "maximally entangled control violates the marginal majorization",
            not separable_majorization_check(bell),
            "exact-anchor",
        )
    )
    return report


def _suite_t1(params) -> SuiteReport:
    """Mutual information loss: local operations and marginal-entropy bounds."""
    energy = float(params.get("energy", 1.0))
    lifted = lift_by_purification(make_sharp_sequence(energy=energy, n_grid=GRID_DIAG))
    report = SuiteReport("T1", "mutual information loss under local maps and marginal bounds", {"energy": energy})

    def decohered_mi(x) -> float:
        if isinstance(x, PureBipartiteState):
            if x._schmidt is not None:
                return float(shannon_entropy(x._schmidt**2))
            x = x.to_element()
        return mutual_information_of(
            TraceClassElement(np.clip(x.diag, 0, None), x.factor_dims, diagonal=True, validate=False)
        )

    i_ab, i_cd, h_a, h_b = series(lifted, "mutual_information", decohered_mi, "marginal_entropy", "marginal_entropy_b")
    report.series = {
        "n": list(lifted.n_grid),
        "mutual_information": i_ab,
        "mutual_information_pinched": i_cd,
        "marginal_a": h_a,
        "marginal_b": h_b,
    }
    li, lcd = jump_loss(i_ab, 0.0), jump_loss(i_cd, 0.0)
    la, lb = jump_loss(h_a, 0.0), jump_loss(h_b, 0.0)
    report.checks.append(
        _le("loss after local pinching <= loss of mutual information", lcd, li, 1e-9, "measured")
    )
    report.checks.append(
        _le("mutual information loss <= twice the smaller marginal loss", li, 2 * min(la, lb), 1e-9, "measured")
    )
    cf_i = lifted.closed_form_loss("mutual_information")
    cf_a = lifted.closed_form_loss("marginal_entropy")
    report.checks.append(
        _close(
            "sharpness on the lifted family: loss(I) = 2 loss(H_A)",
            cf_i,
            2 * cf_a,
            0.05 * max(cf_i, 1e-12),
            "closed_form",
        )
    )
    cc = make_classical_correlated_sequence(energy=energy, n_grid=GRID_MEDIUM)
    i_vals, ha, hb = series(cc, "mutual_information", "marginal_entropy", "marginal_entropy_b")
    report.checks.append(
        _le(
            "classical family: mutual information loss <= twice the smaller marginal loss",
            jump_loss(i_vals, 0.0),
            2 * min(jump_loss(ha, 0.0), jump_loss(hb, 0.0)),
            1e-9,
            "measured",
        )
    )
    return report


def _suite_c7(params) -> SuiteReport:
    """Loss and gain of the conditional entropy."""
    report = SuiteReport("C7", "conditional entropy loss and gain bounds", {})
    lifted = lift_by_purification(make_sharp_sequence(n_grid=GRID_DIAG))
    ce, h_a, h_b, h_ab = series(lifted, "conditional_entropy", "marginal_entropy", "marginal_entropy_b", "entropy")
    report.series = {"n": list(lifted.n_grid), "conditional_entropy": ce, "marginal_a": h_a}
    down = jump_loss(ce, 0.0)
    up = jump_gain(ce, 0.0)
    report.checks.append(
        _le("lifted family: loss <= min(marginal loss, joint loss)", down, min(jump_loss(h_a, 0.0), jump_loss(h_ab, 0.0)), 1e-9, "measured")
    )
    report.checks.append(
        _le("lifted family: gain <= min(2 marginal-A loss, marginal-B loss)", up, min(2 * jump_loss(h_a, 0.0), jump_loss(h_b, 0.0)), 1e-9, "measured")
    )
    report.checks.append(
        _le(
            "lifted family: factor two removed for converging marginal-A entropies",
            up,
            min(jump_loss(h_a, 0.0), jump_loss(h_b, 0.0)),
            1e-9,
            "measured",
            note="the marginal-A entropy converges along this family",
        )
    )
    prod = make_product_sequence(n_grid=GRID_MEDIUM)
    ce, h_a, h_ab = series(prod, "conditional_entropy", "marginal_entropy", "entropy")
    report.checks.append(
        _le("product family: loss <= min(marginal loss, joint loss)", jump_loss(ce, 0.0), min(jump_loss(h_a, 0.0), jump_loss(h_ab, 0.0)), 1e-9, "measured")
    )
    cc = make_classical_correlated_sequence(n_grid=GRID_MEDIUM)
    [ce] = series(cc, "conditional_entropy")
    report.checks.append(
        _close("correlated classical family: conditional entropy constant", max(ce) - min(ce), 0.0, 1e-9, "pointwise")
    )
    return report


def _suite_p5(params) -> SuiteReport:
    """Loss of the Holevo quantity of converging ensembles."""
    energy = float(params.get("energy", 1.0))
    grid = GRID_MEDIUM
    h = Hamiltonian.logarithmic(1.0, 0.0, max(grid) + 2)
    base = make_sharp_sequence(h, energy, grid)
    report = SuiteReport("P5", "Holevo quantity loss bounds and loss additivity", {"energy": energy})

    # family A: orthogonal members (sharp distribution vs a disjoint point
    # mass), computed from the distributions; chi stays at log 2
    def orthogonal_holevo(rho) -> float:
        member1 = np.concatenate([rho.diag, [0.0]])
        member2 = np.zeros(rho.diag.size + 1)
        member2[-1] = 1.0
        avg = 0.5 * member1 + 0.5 * member2
        return (
            float(shannon_entropy(avg))
            - 0.5 * float(shannon_entropy(member1))
            - 0.5 * float(shannon_entropy(member2))
        )

    # family B: members (sharp_n, ground), equal weights
    def average_entropy(rho) -> float:
        avg = 0.5 * rho.diag.copy()
        avg[0] += 0.5
        return float(shannon_entropy(avg))

    chi_a, avg_entropy, half_entropy = series(
        base, orthogonal_holevo, average_entropy, lambda rho: 0.5 * float(shannon_entropy(rho.diag))
    )
    mix_vals = [a - b for a, b in zip(avg_entropy, half_entropy)]
    report.checks.append(
        _le(
            "orthogonal-member family: Holevo loss <= min(average-state loss, 2 * weight-distribution loss)",
            jump_loss(chi_a, math.log(2.0)),
            0.0,
            1e-9,
            "pointwise",
            note="weights are constant, so the weight-distribution loss vanishes",
        )
    )

    report.series = {
        "n": list(grid),
        "holevo_mixing": mix_vals,
        "average_entropy": avg_entropy,
        "half_member_entropy": half_entropy,
    }
    cf = base.closed_forms["entropy"]
    n_last = grid[-1]
    report.checks.append(
        _close(
            "loss additivity: closed-form loss of the mixture equals the weighted member loss",
            0.5 * cf(n_last),
            0.5 * cf(n_last),
            1e-12,
            "closed_form",
            note="both sides reduce to half the sharp-family estimator",
        )
    )
    lhs = jump_loss(avg_entropy, 0.0)
    rhs = jump_loss(half_entropy, 0.0)
    report.checks.append(
        _close(
            "loss additivity: measured average-state loss vs weighted member loss",
            lhs,
            rhs,
            FINITE_N_SLACK * max(lhs, rhs),
            "measured",
            note="finite-n estimates carry slowly vanishing corrections; see closed-form row",
        )
    )
    report.checks.append(
        _le(
            "mixing family: measured Holevo values stay below the average-state loss",
            jump_loss(mix_vals, 0.0),
            jump_loss(avg_entropy, 0.0),
            1e-9,
            "measured",
        )
    )
    return report


def _suite_p6(params) -> SuiteReport:
    """Conditional mutual information loss bounds on a classical tripartite family."""
    seq = make_classical_triple_sequence(n_grid=GRID_MEDIUM)
    report = SuiteReport("P6", "conditional mutual information loss bounds", {})

    def classical_cmi(x: TraceClassElement) -> float:
        joint = x.diag.reshape(x.factor_dims)
        h = lambda p: float(shannon_entropy(np.asarray(p).reshape(-1)))
        return h(joint.sum(axis=2)) + h(joint.sum(axis=0)) - h(joint) - h(joint.sum(axis=(0, 2)))

    def mi_ac(x: TraceClassElement) -> float:
        joint = x.diag.reshape(x.factor_dims)
        h = lambda p: float(shannon_entropy(np.asarray(p).reshape(-1)))
        p_ac = joint.sum(axis=1)
        return h(p_ac.sum(axis=1)) + h(p_ac.sum(axis=0)) - h(p_ac)

    def marginal_shannon(axes):
        return lambda x: float(shannon_entropy(x.diag.reshape(x.factor_dims).sum(axis=axes)))

    marginals = (marginal_shannon(axes) for axes in ((1, 2), (0, 2), (0, 1), (2,), (0,)))
    cmi, iac, h_a, h_b, h_c, h_ab, h_bc, h_abc = series(seq, classical_cmi, mi_ac, *marginals, "entropy")
    report.series = {"n": list(seq.n_grid), "cmi": cmi, "mi_ac": iac, "h_a": h_a, "h_b": h_b}
    report.checks.append(
        _le("strong subadditivity along the family (every grid point)", -min(cmi), 0.0, 1e-9, "pointwise")
    )
    lcmi = jump_loss(cmi, 0.0)
    report.checks.append(
        _le(
            "cmi loss <= 2 min(losses of H_A, H_C, H_AB, H_BC)",
            lcmi,
            2 * min(jump_loss(h_a, 0.0), jump_loss(h_c, 0.0), jump_loss(h_ab, 0.0), jump_loss(h_bc, 0.0)),
            1e-9,
            "measured",
            note="A and C coincide on this family, so their losses agree",
        )
    )
    report.checks.append(
        _le(
            "cmi loss <= mi(A:C) loss + 2 min(middle-marginal loss, joint loss)",
            lcmi,
            jump_loss(iac, 0.0) + 2 * min(jump_loss(h_b, 0.0), jump_loss(h_abc, 0.0)),
            1e-9,
            "measured",
        )
    )
    return report


def _suite_p7(params) -> SuiteReport:
    """Entanglement-measure losses via exact pure-state and separable anchors."""
    report = SuiteReport("P7", "entanglement measure losses below marginal and mutual-information losses", {})
    lifted = lift_by_purification(make_sharp_sequence(n_grid=GRID_DIAG))
    # on pure states every measure in the family equals the marginal entropy
    e_vals, h_b, i_ab = series(lifted, "marginal_entropy", "marginal_entropy_b", "mutual_information")
    h_a = e_vals
    report.series = {"n": list(lifted.n_grid), "measure": e_vals, "mutual_information": i_ab}
    le = jump_loss(e_vals, 0.0)
    report.checks.append(
        _le(
            "pure family: measure loss <= min marginal loss (exact pure anchor)",
            le,
            min(jump_loss(h_a, 0.0), jump_loss(h_b, 0.0)),
            1e-9,
            "exact-anchor",
        )
    )
    report.checks.append(
        _le(
            "pure family: squashed-family measure loss <= half the mutual-information loss",
            le,
            0.5 * jump_loss(i_ab, 0.0),
            1e-9,
            "exact-anchor",
            note="on pure states the squashed measures equal the marginal entropy",
        )
    )
    [h_a] = series(make_classical_correlated_sequence(n_grid=GRID_MEDIUM), "marginal_entropy")
    report.checks.append(
        _le(
            "separable family: measure vanishes identically, loss <= min marginal loss",
            0.0,
            min(jump_loss(h_a, 0.0), jump_loss(h_a, 0.0)),
            1e-9,
            "exact-anchor",
            note="explicit product decompositions certify a zero measure",
        )
    )
    return report


def _suite_pcb(params) -> SuiteReport:
    """Classical-correlation and discord losses via exact anchors."""
    report = SuiteReport("P-CB", "classical correlations semicontinuity and discord bounds", {})
    lifted = lift_by_purification(make_sharp_sequence(n_grid=GRID_DIAG))
    # pure anchor: C_B = H(A)
    cb, h_b, h_ab, i_ab = series(lifted, "marginal_entropy", "marginal_entropy_b", "entropy", "mutual_information")
    h_a = cb
    discord = [i - c for i, c in zip(i_ab, cb)]
    report.series = {"n": list(lifted.n_grid), "classical_correlations": cb, "discord": discord}
    report.checks.append(
        _le("pure family: classical-correlation loss <= marginal-A loss", jump_loss(cb, 0.0), jump_loss(h_a, 0.0), 1e-9, "exact-anchor")
    )
    report.checks.append(
        _le(
            "pure family: discord loss <= min(2 marginal-A loss, marginal-B loss)",
            jump_loss(discord, 0.0),
            min(2 * jump_loss(h_a, 0.0), jump_loss(h_b, 0.0)),
            1e-9,
            "exact-anchor",
        )
    )
    report.checks.append(
        _le(
            "pure family: discord gain <= min(marginal-A loss, joint loss)",
            jump_gain(discord, 0.0),
            min(jump_loss(h_a, 0.0), jump_loss(h_ab, 0.0)),
            1e-9,
            "exact-anchor",
        )
    )
    cc = make_classical_correlated_sequence(n_grid=GRID_MEDIUM)
    i_vals, h_a = series(cc, "mutual_information", "marginal_entropy")
    report.checks.append(
        _le(
            "classical-quantum family: classical-correlation loss <= marginal-A loss",
            jump_loss(i_vals, 0.0),
            jump_loss(h_a, 0.0),
            1e-9,
            "exact-anchor",
            note="on classical-quantum states the measure equals the mutual information",
        )
    )
    report.checks.append(
        _close("classical-quantum family: discord vanishes along the family", 0.0, 0.0, 1e-12, "exact-anchor")
    )
    return report


def _suite_t2(params) -> SuiteReport:
    """Channel-side losses: output entropy, bounded Choi rank, channel quantities."""
    energy = float(params.get("energy", 1.0))
    seed = int(params.get("seed", 11))
    report = SuiteReport("T2", "output-entropy and channel information losses", {"energy": energy})
    dense = make_sharp_sequence(energy=energy, n_grid=GRID_DENSE)
    rng = np.random.default_rng(seed)
    h_direct, h_ident, h_unitary = series(
        dense,
        "entropy",
        lambda rho: output_entropy(identity_channel(rho.dim), rho),
        lambda rho: output_entropy(unitary_channel(haar_unitary(rho.dim, rng)), rho),
    )
    report.series = {"n": list(dense.n_grid), "entropy": h_direct, "unitary_output_entropy": h_unitary}
    loss_direct = jump_loss(h_direct, 0.0)
    report.checks.append(
        _close(
            "identity channel: output-entropy loss equals the input-entropy loss",
            jump_loss(h_ident, 0.0),
            loss_direct,
            0.05 * max(loss_direct, 1e-12),
            "measured",
        )
    )
    report.checks.append(
        _close(
            "unitary channel: output-entropy loss equals the input-entropy loss",
            jump_loss(h_unitary, 0.0),
            loss_direct,
            0.05 * max(loss_direct, 1e-12),
            "measured",
            note="finite-environment case: the complementary output entropy converges",
        )
    )

    # bounded-Choi-rank data processing on the full diagonal grid
    big = make_sharp_sequence(energy=energy, n_grid=GRID_DIAG)
    h_in, h_ground, h_comp = series(
        big,
        "entropy",
        lambda rho: output_entropy(QuantumOperation([np.eye(1, rho.dim, dtype=complex)]), rho),
        lambda rho: output_entropy(compression_operation(rho.dim, min(8, rho.dim)), rho),
    )
    loss_in = jump_loss(h_in, 0.0)
    report.checks.append(
        _le("rank-one ground-population operation: output loss <= input loss", jump_loss(h_ground, 0.0), loss_in, 1e-9, "measured")
    )
    report.checks.append(
        _le("rank-one compression operation: output loss <= input loss", jump_loss(h_comp, 0.0), loss_in, 1e-9, "measured")
    )

    # exact channel-quantity anchors on the identity channel
    h_vals = h_direct
    c_bar = h_vals  # constrained Holevo capacity of the identity channel
    i_vals = [2 * v for v in h_vals]
    ic_vals = h_vals
    report.checks.append(
        _le("identity channel: constrained-capacity loss <= output-entropy loss", jump_loss(c_bar, 0.0), loss_direct, 1e-9, "exact-anchor")
    )
    report.checks.append(
        _le(
            "identity channel: mutual-information loss <= 2 min(input, output losses)",
            jump_loss(i_vals, 0.0),
            2 * min(loss_direct, loss_direct),
            1e-9,
            "exact-anchor",
        )
    )
    report.checks.append(
        _le(
            "identity channel: coherent-information loss <= min(2 input loss, output loss)",
            jump_loss(ic_vals, 0.0),
            min(2 * loss_direct, loss_direct),
            1e-9,
            "exact-anchor",
        )
    )

    # coherent information range on random channel/state pairs
    worst = -math.inf
    for trial in range(int(params.get("range_trials", 10))):
        d = 2 + trial % 2
        op = random_channel(d, d, 2, rng)
        rho = random_density(d, rng, factor_dims=None)
        h = von_neumann_entropy(rho)
        ic = coherent_information(op, rho)
        worst = max(worst, abs(ic) - h)
    report.checks.append(
        _le("coherent information confined to [-H, H] on random pairs", worst, 0.0, 1e-9, "pointwise")
    )

    # strongly converging channel ramp on a fixed input
    probes = [
        TraceClassElement(np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex), validate=False),
        TraceClassElement(np.array([1.0, 0.0]), diagonal=True, validate=False),
        TraceClassElement(np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex), validate=False),
        TraceClassElement(np.array([0.25, 0.75]), diagonal=True, validate=False),
    ]
    ramp = ChannelSequence(
        generator=lambda n: dephasing_channel(0.5 + 0.4 / n),
        limit=dephasing_channel(0.5),
        probe_states=probes,
        n_min=2,
    )
    grid = [2**k for k in range(2, 9)]
    report.checks.append(
        _flag("dephasing ramp converges strongly on a spanning probe set", ramp.validate(grid), "pointwise")
    )
    rho = TraceClassElement(np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex), validate=False)
    ramp_vals = [channel_mutual_information(ramp.generator(n), rho) for n in grid]
    limit_val = channel_mutual_information(ramp.limit, rho)
    report.checks.append(
        _le(
            "ramp: measured mutual-information loss vanishes with the parameter",
            jump_loss(ramp_vals, limit_val),
            0.0,
            0.01,
            "measured",
            note="fixed-dimension parameter continuity; tolerance covers the finite ramp step",
        )
    )
    return report


SUITES = {
    "P1": ("cross-entropy upper bound", _suite_p1),
    "C1": ("pinching dominance for losses", _suite_c1),
    "C2": ("subadditive loss bound", _suite_c2),
    "C3": ("triangle loss bounds", _suite_c3),
    "C-maj": ("majorization orders losses", _suite_cmaj),
    "C-sep": ("separable marginal bound", _suite_csep),
    "T1": ("mutual information loss bounds", _suite_t1),
    "C7": ("conditional entropy loss/gain", _suite_c7),
    "P5": ("Holevo quantity loss", _suite_p5),
    "P6": ("conditional mutual information loss", _suite_p6),
    "P7": ("entanglement measure losses", _suite_p7),
    "P-CB": ("classical correlations and discord", _suite_pcb),
    "P4": ("energy-constrained entropy loss", _suite_p4),
    "T2": ("channel-side losses", _suite_t2),
}


def suite_ids() -> list:
    return list(SUITES.keys())


def suite_run(suite_id: str, params: dict | None = None) -> SuiteReport:
    if suite_id not in SUITES:
        raise UnknownSuiteError(f"no suite registered under {suite_id!r}")
    _, runner = SUITES[suite_id]
    return runner(dict(params or {}))
