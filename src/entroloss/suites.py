"""Runnable bound suites: one suite per claim family, on built-in sequences.

The suites are data, run by one engine.  ``SUITES`` maps each id to a
``Suite``: a report title, params and series, and rows under headings.

* A *heading* names the source its rows read: a ``FAMILIES`` name with the
  functionals walked on that family, or a callable for bespoke work that
  no family walk fits (C-maj's pair loop, C-sep's entangled control, T2's
  random pairs and dephasing ramp).  A family's key holds all that changes
  its elements: the constructor, the energy and the grid.
* A *row* is one check: a claim, a relation (``_le`` or ``_close``), an
  lhs, an rhs, a tolerance, a basis and a note.  A boolean row is ``_close``
  of its truth value to 1.0 at tolerance 0.0.
* A *side* is a column name (standing for that column's loss), a constant,
  or a small function of the reads; the reads record each (source, column)
  that a side reads.

``walk`` walks each family key once, for the union of the functionals the
requested suites read on it, then runs each bespoke work once, and
``suite_run`` builds a report from the walk.  A walk lives for one
``suite_run`` call or one ``entroloss suite`` command; nothing is cached at
module level and no element outlives its walk.  Only identical constructor
calls share a key: T1 at an energy other than 1 has its own lifted and
correlated families, and a ``grid`` parameter gives P1, P4 and C-maj their
own sharp family.  Columns are scored by the library's own functionals
(``info``, ``sequences``, ``energy``, ``channels``, ``majorization``), so
a fault there can fail a row; the exceptions are P1's
``self_cross_entropy``, the independent side of its equality row, and P5's
``orthogonal_holevo``.

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
    ChannelSequence,
    channel_mutual_information,
    coherent_information,
    compression_operation,
    dephasing_channel,
    identity_channel,
    output_entropy,
    unitary_channel,
)
from .energy import gibbs_state, gibbs_threshold, mean_energy
from .errors import UnknownSuiteError
from .info import Ensemble, conditional_mutual_information, shannon_entropy, von_neumann_entropy
from .majorization import _gap_terms, _majorizes_sorted, rearrangement, separable_majorization_check
from .operators import TraceClassElement, integer_parameter, partial_trace
from .rand import haar_unitary, random_channel, random_density
from .sequences import (
    DEFAULT_WINDOW,
    FUNCTIONALS,
    GRID_DENSE,
    GRID_DIAG,
    GRID_MEDIUM,
    PureBipartiteState,
    check_grid,
    jump_gain,
    jump_loss,
    lift_by_purification,
    make_classical_correlated_sequence,
    make_classical_triple_sequence,
    make_product_sequence,
    make_rotated_sharp_sequence,
    make_sharp_sequence,
    read_jump,
    series,
    trailing_window,
)

FINITE_N_SLACK = 0.15  # relative slack for equalities between finite-n estimates
ESTIMATOR_FACTOR = 1.2  # the closed-form estimator's documented 20 percent band

# functional names as the claims write them
H, H_A, H_B, I_AB, H_A_GIVEN_B = "entropy", "marginal_entropy", "marginal_entropy_b", "mutual_information", "conditional_entropy"
E, E_SORTED, PINCHED = "mean_energy", "mean_energy_rearranged", "pinched_entropy"


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


# ---------------------------------------------------------------------------
# the suite table: sources, rows and suites, and the engine that runs them
# ---------------------------------------------------------------------------


def _lifted(energy, n_grid):
    return lift_by_purification(make_sharp_sequence(energy=energy, n_grid=n_grid))


def _product(energy, n_grid):
    """The product family; its energy slot holds the two factors' energies."""
    return make_product_sequence(energy, n_grid=n_grid)


# name -> (constructor, energy, grid), the key of the family's walk; a slot
# "energy" or "grid" takes the pass's value
FAMILIES = {
    "sharp": (make_sharp_sequence, "energy", "grid"),
    "sharp_diag": (make_sharp_sequence, "energy", GRID_DIAG),
    "sharp_dense": (make_sharp_sequence, "energy", GRID_DENSE),
    "sharp_medium": (make_sharp_sequence, "energy", GRID_MEDIUM),
    "rotated_sharp": (make_rotated_sharp_sequence, "energy", GRID_DENSE),
    "lifted": (_lifted, 1.0, GRID_DIAG),
    "lifted_at_energy": (_lifted, "energy", GRID_DIAG),
    "correlated": (make_classical_correlated_sequence, 1.0, GRID_MEDIUM),
    "correlated_at_energy": (make_classical_correlated_sequence, "energy", GRID_MEDIUM),
    "product": (_product, (1.0, 0.5), GRID_MEDIUM),
    "triple": (make_classical_triple_sequence, 1.0, GRID_MEDIUM),
}


def _self_cross_entropy(rho) -> float:
    p = rho.diag[rho.diag > 0]
    return float(np.sum(p * (-np.log(p))))


def _decohered_mi(x: PureBipartiteState) -> float:
    """Mutual information after pinching both sides of a Schmidt-form state:
    the stored entropy of s^2, its pinching on the (k, k) entries."""
    return x.marginal_entropy()


def _orthogonal_holevo(rho) -> float:
    """Holevo quantity of the sharp distribution and a disjoint point mass,
    equal weights, from the distributions; it stays at log 2."""
    member1 = np.concatenate([rho.diag, [0.0]])
    member2 = np.zeros(rho.diag.size + 1)
    member2[-1] = 1.0
    avg = 0.5 * member1 + 0.5 * member2
    return shannon_entropy(avg) - 0.5 * shannon_entropy(member1) - 0.5 * shannon_entropy(member2)


def _average_entropy(rho) -> float:
    """Entropy of the equal-weight average of the members (sharp_n, ground)."""
    ground = TraceClassElement(np.eye(1, rho.dim).reshape(-1))
    return von_neumann_entropy(Ensemble([0.5, 0.5], [rho, ground]).average)


def _mi_ac(x) -> float:
    """I(A:C) = H(A) + H(C) - H(AC) of the AC marginal, unscaled; the library's
    ``mutual_information`` divides by the trace first, which moves the last bit."""
    ac = partial_trace(x, [0, 2])
    return FUNCTIONALS[H_A](ac) + FUNCTIONALS[H_B](ac) - von_neumann_entropy(ac)


def _marginal(keep):
    return lambda x: von_neumann_entropy(partial_trace(x, keep))


_FUNCTIONALS = {
    **FUNCTIONALS,
    "self_cross_entropy": _self_cross_entropy,
    "separable": separable_majorization_check,
    "decohered_mi": _decohered_mi,
    "orthogonal_holevo": _orthogonal_holevo,
    "average_entropy": _average_entropy,
    "half_entropy": lambda rho: 0.5 * von_neumann_entropy(rho),
    "cmi": lambda x: conditional_mutual_information(x, check=False),
    "mi_ac": _mi_ac,
    **{f"marginal_entropy_{part}": _marginal(keep) for part, keep in (("c", [2]), ("ab", [0, 1]), ("bc", [1, 2]))},
    "identity_output_entropy": lambda rho: output_entropy(identity_channel(rho.dim), rho),
    "ground_output_entropy": lambda rho: output_entropy(compression_operation(rho.dim, 1), rho),
    "compression_output_entropy": lambda rho: output_entropy(compression_operation(rho.dim, min(8, rho.dim)), rho),
}


def _functional(name: str, seq, rng):
    """The functional ``name`` on the elements of ``seq``; four of them read
    the family or the pass's generator."""
    h = seq.tags.get("hamiltonian")
    bound = {
        "limit_distance": seq.limit_distance,
        E: lambda rho: mean_energy(rho, h),
        E_SORTED: lambda rho: mean_energy(rearrangement(rho, h), h),
        "unitary_output_entropy": lambda rho: output_entropy(unitary_channel(haar_unitary(rho.dim, rng)), rho),
    }
    return bound[name] if name in bound else _FUNCTIONALS[name]


def _majorized_pairs(p, rng) -> dict:
    """C-maj's pair loop over two sharp families on the default Hamiltonian;
    the colder one majorizes the hotter one termwise.  Each spectrum is sorted
    once; a pair out of order clears ``ordered`` and still yields its terms."""
    grid = p["grid"]
    low = make_sharp_sequence(energy=0.6 * p["energy"], n_grid=grid)
    high = make_sharp_sequence(energy=p["energy"], n_grid=grid)
    out = {"n": list(grid), "ordered": True, "h_low": [], "h_high": [], "kl_term": [], "gap_term": [], "residual": []}
    for n in grid:
        rho, sigma = low.element(n), high.element(n)
        lam, mu = rho.eigenvalues(), sigma.eigenvalues()
        out["ordered"] = out["ordered"] and _majorizes_sorted(lam, mu)
        d, f = _gap_terms(lam, mu)
        hn_low, hn_high = von_neumann_entropy(rho), von_neumann_entropy(sigma)
        out["kl_term"].append(d)
        out["gap_term"].append(f)
        out["residual"].append(abs(hn_high - hn_low - d - f))
        out["h_low"].append(hn_low)
        out["h_high"].append(hn_high)
    return out


def _entangled_control(p, rng) -> dict:
    bell = TraceClassElement.pure(np.array([1.0, 0, 0, 1.0]) / math.sqrt(2), factor_dims=(2, 2))
    return {"separable": separable_majorization_check(bell)}


def _coherent_range(p, rng) -> dict:
    """max |I_c| - H over random channel/state pairs, drawn after the walk's unitaries."""
    worst = -math.inf
    for trial in range(p["range_trials"]):
        d = 2 + trial % 2
        op = random_channel(d, d, 2, rng)
        rho = random_density(d, rng, factor_dims=None)
        h = von_neumann_entropy(rho)
        worst = max(worst, abs(coherent_information(op, rho)) - h)
    return {"worst": worst}


def _dephasing_ramp(p, rng) -> dict:
    """A strongly converging channel ramp, on a spanning probe set and on the first probe as input."""
    probes = [
        TraceClassElement(np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)),
        TraceClassElement(np.array([1.0, 0.0])),
        TraceClassElement(np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)),
        TraceClassElement(np.array([0.25, 0.75])),
    ]
    ramp = ChannelSequence(
        generator=lambda n: dephasing_channel(0.5 + 0.4 / n),
        limit=dephasing_channel(0.5),
        probe_states=probes,
        n_min=2,
    )
    grid = [2**k for k in range(2, 9)]
    converges = ramp.validate(grid)
    rho = probes[0]
    values = [channel_mutual_information(ramp.generator(n), rho) for n in grid]
    return {"converges": converges, "values": values, "limit": channel_mutual_information(ramp.limit, rho)}


@dataclass
class Walk:
    """One pass: its parameters, its generator, its families by key, and its
    columns by (family key or bespoke work, name)."""

    params: dict
    rng: np.random.Generator
    families: dict = field(default_factory=dict)
    columns: dict = field(default_factory=dict)

    def key(self, heading):
        """A heading's source: its family's key or its bespoke work."""
        if callable(heading):
            return heading
        return tuple(self.params[v] if isinstance(v, str) else v for v in FAMILIES[heading[0]])


class _Reads:
    """What the sides under ``heading`` read; ``sources`` records each (source, column) read."""

    def __init__(self, walked: Walk, heading):
        self.p = walked.params
        self._walked = walked
        self._source = walked.key(heading)
        self.sources = set()

    def __getitem__(self, name: str):
        """The column ``name`` (``"n"`` is the grid), or a bespoke work's value."""
        self.sources.add((self._source, name))
        return self._walked.columns[self._source, name]

    def __call__(self, name: str, limit: float = 0.0) -> float:
        """The loss of column ``name`` against ``limit``."""
        return jump_loss(self[name], limit)

    @property
    def family(self):
        """The family itself, for its Hamiltonian and grid; no source is recorded."""
        return self._walked.families[self._source]

    def closed(self, name: str) -> float:
        """The family's closed-form loss of functional ``name``."""
        self.sources.add((self._source, "closed_form"))
        return self.family.closed_form_loss(name)

    def jump(self, name: str):
        self.sources.add((self._source, "closed_form"))
        return read_jump(self.family, name, self[name], self["limit_distance"], closed_form_key=name)


def _side(side, r: _Reads):
    """A side's value: a column name stands for the loss of that column."""
    if isinstance(side, str):
        return r(side)
    return side(r) if callable(side) else side


@dataclass(frozen=True)
class Row:
    """One check, ``relation(claim, lhs, rhs, tol, basis, note)``, with ``tol`` a float
    or a function of (lhs, rhs)."""

    claim: str
    relation: object
    lhs: object
    rhs: object = None
    tol: object = 1e-9
    basis: str = "measured"
    note: str = ""

    def check(self, r: _Reads) -> SuiteCheck:
        lhs = _side(self.lhs, r)
        rhs = _side(self.rhs, r)
        tol = self.tol(lhs, rhs) if callable(self.tol) else self.tol
        return self.relation(self.claim, lhs, rhs, tol, self.basis, self.note)


@dataclass(frozen=True)
class Suite:
    """A registered suite.  In ``rows`` each row reads the source named by the
    heading above it: a tuple of a ``FAMILIES`` name and the functionals
    walked on that family, or a bespoke work, fn(params, rng) -> dict of
    values.  ``series`` maps report columns to a functional name or fn(reads)
    of the first source, after its grid "n"; ``params`` reads it too."""

    title: str
    series: dict
    rows: tuple
    params: object = lambda r: {}


def _energy(r) -> dict:
    return {"energy": r.p["energy"]}


def _max_gap(a: str, b: str, size=lambda d: d):
    """The side max over the grid of size(a_n - b_n)."""
    return lambda r: max(size(x - y) for x, y in zip(r[a], r[b]))


def _g(r) -> float:
    return gibbs_threshold(r.family.tags["hamiltonian"])


def _e0(r) -> float:
    return r.family.tags["hamiltonian"].ground_energy


def _p4_bound(r) -> float:
    """g (E - E0), the sharp bound on the entropy loss."""
    return _g(r) * (r.p["energy"] - _e0(r))


def _p4_closed_forms(r) -> list:
    return [r.family.closed_forms[H](n) for n in r.family.n_grid]


def _p4_gibbs_excess(r) -> float:
    """P4's Gibbs loop: max over n of H(rho_n) - (lam E(rho_n) + log Z_n), lam = 2g, Z_n on n + 1 levels."""
    h, lam = r.family.tags["hamiltonian"], 2.0 * _g(r)
    entropies, means = r[H], r[E]
    worst = -math.inf
    for idx, n in enumerate(r.family.n_grid):
        z = gibbs_state(h, lam, n + 1)
        worst = max(worst, entropies[idx] - (lam * means[idx] + z.log_partition))
    return worst


def _p1_bound(r) -> float:
    """lam (E - E0) for the fixed Gibbs reference at lam = 2."""
    return 2.0 * (r.p["energy"] - _e0(r))


def _p1_cross_excess(r) -> float:
    """max over n of H(rho_n) - (lam E(rho_n) + log Z) for the full-rank Gibbs reference at lam = 2."""
    lam = 2.0
    z = gibbs_state(r.family.tags["hamiltonian"], lam, max(r.family.n_grid) + 1)
    return max(hn - (lam * m + z.log_partition) for hn, m in zip(r[H], r[E]))


def _holevo_mixing(r) -> list:
    return [a - b for a, b in zip(r["average_entropy"], r["half_entropy"])]


def _discord(r) -> list:
    return [i - c for i, c in zip(r["mutual_information"], r["marginal_entropy"])]


def _defect(r, name) -> float:
    return max(min(trailing_window(r[name])) - 0.0, 0.0)


def _band_of_rhs(lhs, rhs) -> float:
    return 0.05 * max(rhs, 1e-12)


SUITES = {
    "P1": Suite(
        "cross-entropy upper bound on the entropy loss",
        params=_energy,
        series={"entropy": H},
        rows=(
            ("sharp", H, "self_cross_entropy", E, "limit_distance"),
            # sigma_n = rho_n: the bound is an identity
            Row("reference sequence equal to the sequence gives equality", _close, _max_gap("self_cross_entropy", H, abs), 0.0, 1e-10, "pointwise"),
            # fixed full-rank Gibbs reference at lam = 2: the bound becomes lam * energy loss
            Row("closed-form entropy loss <= lam * energy loss (Gibbs reference)", _le, lambda r: r.closed(H), _p1_bound, basis="closed_form"),
            Row("measured entropy loss <= lam * energy loss (Gibbs reference)", _le, lambda r: r.jump(H).loss, _p1_bound),
            Row("cross-entropy dominates the entropy (every grid point)", _le, _p1_cross_excess, 0.0, 1e-8, "pointwise"),
        ),
    ),
    "C1": Suite(
        "entropy loss bounded by pinched Shannon loss",
        params=_energy,
        series={"entropy": H, "pinched_entropy": PINCHED},
        rows=(
            ("sharp_diag", H, PINCHED),
            Row(
                "diagonal family: pinched Shannon values equal the entropy (equality flag)",
                _close,
                _max_gap(H, PINCHED, abs),
                0.0,
                1e-10,
                "pointwise",
                "equality holds for sequences diagonal in the pinching basis",
            ),
            ("rotated_sharp", H, PINCHED),
            Row("rotated family: entropy below pinched Shannon entropy (every grid point)", _le, _max_gap(H, PINCHED), 0.0, basis="pointwise"),
            Row("rotated family: measured entropy loss <= measured pinched loss", _le, H, PINCHED),
        ),
    ),
    "C2": Suite(
        "bipartite entropy loss below the sum of marginal losses",
        series={"joint_entropy": H, "marginal_a": H_A, "marginal_b": H_B},
        rows=(
            ("product", H, H_A, H_B),
            Row(
                "product family: measured joint loss <= sum of marginal losses",
                _le,
                H,
                lambda r: r(H_A) + r(H_B),
                note="joint values split exactly, so the estimate inherits subadditivity",
            ),
            ("correlated", H, H_A, H_B),
            Row("correlated classical family: measured joint loss <= sum of marginal losses", _le, H, lambda r: r(H_A) + r(H_B)),
        ),
    ),
    "C3": Suite(
        "marginal loss below joint loss plus (twice) the other marginal loss",
        series={"marginal_a": H_A, "marginal_b": H_B, "joint": H},
        rows=(
            ("lifted", H_A, H_B, H),
            Row("lifted family: marginal loss <= joint loss + 2 * other marginal loss", _le, H_A, lambda r: r(H) + 2 * r(H_B)),
            Row(
                "lifted family: factor two removed for a converging other-marginal sequence",
                _le,
                H_A,
                lambda r: r(H) + r(H_B),
                note="the other marginal entropy converges along this family",
            ),
            Row("lifted family: zero joint loss forces equal marginal losses", _close, H_A, H_B, note="joint entropy vanishes along the lift"),
            ("product", H_A, H_B, H),
            Row("product family: marginal loss <= joint loss + 2 * other marginal loss", _le, H_A, lambda r: r(H) + 2 * r(H_B)),
        ),
    ),
    "C-maj": Suite(
        "majorized sequences order their entropy losses",
        params=_energy,
        series={"entropy_majorizing": "h_low", "entropy_majorized": "h_high", "kl_term": "kl_term", "gap_term": "gap_term"},
        rows=(
            _majorized_pairs,
            Row("termwise majorization holds along the pair of families", _close, lambda r: r["ordered"], 1.0, 0.0, "pointwise"),
            Row("entropy-gap decomposition residual (every grid point)", _le, lambda r: max(r["residual"]), 0.0, 1e-8, "pointwise"),
            Row(
                "loss of majorizing sequence <= loss of majorized minus both defect terms",
                _le,
                lambda r: r("h_low") + _defect(r, "kl_term") + _defect(r, "gap_term"),
                "h_high",
            ),
            Row("loss of majorizing sequence <= loss of majorized", _le, "h_low", "h_high"),
        ),
    ),
    "C-sep": Suite(
        "separable sequences: marginal loss below joint loss",
        series={"joint": H, "marginal_a": H_A, "marginal_b": H_B},
        rows=(
            ("correlated", H, H_A, H_B, "separable"),
            Row("marginals majorize the joint state (every grid point)", _close, lambda r: all(r["separable"]), 1.0, 0.0, "pointwise"),
            Row("marginal A loss <= joint loss", _le, H_A, H),
            Row("marginal B loss <= joint loss", _le, H_B, H),
            ("product", H_A, H),
            Row("product family: marginal loss <= joint loss", _le, H_A, H),
            _entangled_control,
            Row("maximally entangled control violates the marginal majorization", _close, lambda r: not r["separable"], 1.0, 0.0, "exact-anchor"),
        ),
    ),
    "T1": Suite(
        "mutual information loss under local maps and marginal bounds",
        params=_energy,
        series={"mutual_information": I_AB, "mutual_information_pinched": "decohered_mi", "marginal_a": H_A, "marginal_b": H_B},
        rows=(
            ("lifted_at_energy", I_AB, "decohered_mi", H_A, H_B),
            Row("loss after local pinching <= loss of mutual information", _le, "decohered_mi", I_AB),
            Row("mutual information loss <= twice the smaller marginal loss", _le, I_AB, lambda r: 2 * min(r(H_A), r(H_B))),
            Row(
                "sharpness on the lifted family: loss(I) = 2 loss(H_A)",
                _close,
                lambda r: r.closed(I_AB),
                lambda r: 2 * r.closed(H_A),
                lambda lhs, rhs: 0.05 * max(lhs, 1e-12),
                "closed_form",
            ),
            ("correlated_at_energy", I_AB, H_A, H_B),
            Row("classical family: mutual information loss <= twice the smaller marginal loss", _le, I_AB, lambda r: 2 * min(r(H_A), r(H_B))),
        ),
    ),
    "C7": Suite(
        "conditional entropy loss and gain bounds",
        series={"conditional_entropy": H_A_GIVEN_B, "marginal_a": H_A},
        rows=(
            ("lifted", H_A_GIVEN_B, H_A, H_B, H),
            Row("lifted family: loss <= min(marginal loss, joint loss)", _le, H_A_GIVEN_B, lambda r: min(r(H_A), r(H))),
            Row(
                "lifted family: gain <= min(2 marginal-A loss, marginal-B loss)",
                _le,
                lambda r: jump_gain(r[H_A_GIVEN_B], 0.0),
                lambda r: min(2 * r(H_A), r(H_B)),
            ),
            Row(
                "lifted family: factor two removed for converging marginal-A entropies",
                _le,
                lambda r: jump_gain(r[H_A_GIVEN_B], 0.0),
                lambda r: min(r(H_A), r(H_B)),
                note="the marginal-A entropy converges along this family",
            ),
            ("product", H_A_GIVEN_B, H_A, H),
            Row("product family: loss <= min(marginal loss, joint loss)", _le, H_A_GIVEN_B, lambda r: min(r(H_A), r(H))),
            ("correlated", H_A_GIVEN_B),
            Row(
                "correlated classical family: conditional entropy constant",
                _close,
                lambda r: max(r[H_A_GIVEN_B]) - min(r[H_A_GIVEN_B]),
                0.0,
                basis="pointwise",
            ),
        ),
    ),
    "P5": Suite(
        "Holevo quantity loss bounds and loss additivity",
        params=_energy,
        series={"holevo_mixing": _holevo_mixing, "average_entropy": "average_entropy", "half_member_entropy": "half_entropy"},
        rows=(
            ("sharp_medium", "orthogonal_holevo", "average_entropy", "half_entropy"),
            Row(
                "orthogonal-member family: Holevo loss <= min(average-state loss, 2 * weight-distribution loss)",
                _le,
                lambda r: r("orthogonal_holevo", math.log(2.0)),
                0.0,
                basis="pointwise",
                note="weights are constant, so the weight-distribution loss vanishes",
            ),
            Row(
                "loss additivity: closed-form loss of the mixture equals the weighted member loss",
                _close,
                lambda r: 0.5 * r.closed(H),
                lambda r: 0.5 * r.closed(H),
                1e-12,
                "closed_form",
                "both sides reduce to half the sharp-family estimator",
            ),
            Row(
                "loss additivity: measured average-state loss vs weighted member loss",
                _close,
                "average_entropy",
                "half_entropy",
                lambda lhs, rhs: FINITE_N_SLACK * max(lhs, rhs),
                note="finite-n estimates carry slowly vanishing corrections; see closed-form row",
            ),
            Row(
                "mixing family: measured Holevo values stay below the average-state loss",
                _le,
                lambda r: jump_loss(_holevo_mixing(r), 0.0),
                "average_entropy",
            ),
        ),
    ),
    "P6": Suite(
        "conditional mutual information loss bounds",
        series={"cmi": "cmi", "mi_ac": "mi_ac", "h_a": H_A, "h_b": H_B},
        rows=(
            ("triple", "cmi", "mi_ac", H_A, H_B, "marginal_entropy_c", "marginal_entropy_ab", "marginal_entropy_bc", H),
            Row("strong subadditivity along the family (every grid point)", _le, lambda r: -min(r["cmi"]), 0.0, basis="pointwise"),
            Row(
                "cmi loss <= 2 min(losses of H_A, H_C, H_AB, H_BC)",
                _le,
                "cmi",
                lambda r: 2 * min(r(H_A), r("marginal_entropy_c"), r("marginal_entropy_ab"), r("marginal_entropy_bc")),
                note="A and C coincide on this family, so their losses agree",
            ),
            Row(
                "cmi loss <= mi(A:C) loss + 2 min(middle-marginal loss, joint loss)",
                _le,
                "cmi",
                lambda r: r("mi_ac") + 2 * min(r(H_B), r(H)),
            ),
        ),
    ),
    # on pure states every entanglement measure equals the marginal entropy
    "P7": Suite(
        "entanglement measure losses below marginal and mutual-information losses",
        series={"measure": H_A, "mutual_information": I_AB},
        rows=(
            ("lifted", H_A, H_B, I_AB),
            Row("pure family: measure loss <= min marginal loss (exact pure anchor)", _le, H_A, lambda r: min(r(H_A), r(H_B)), basis="exact-anchor"),
            Row(
                "pure family: squashed-family measure loss <= half the mutual-information loss",
                _le,
                H_A,
                lambda r: 0.5 * r(I_AB),
                basis="exact-anchor",
                note="on pure states the squashed measures equal the marginal entropy",
            ),
            ("correlated", H_A),
            Row(
                "separable family: measure vanishes identically, loss <= min marginal loss",
                _le,
                0.0,
                lambda r: min(r(H_A), r(H_A)),
                basis="exact-anchor",
                note="explicit product decompositions certify a zero measure",
            ),
        ),
    ),
    # pure anchor: C_B = H(A), so the discord is I(A:B) - H(A)
    "P-CB": Suite(
        "classical correlations semicontinuity and discord bounds",
        series={"classical_correlations": H_A, "discord": _discord},
        rows=(
            ("lifted", H_A, H_B, H, I_AB),
            Row("pure family: classical-correlation loss <= marginal-A loss", _le, H_A, H_A, basis="exact-anchor"),
            Row(
                "pure family: discord loss <= min(2 marginal-A loss, marginal-B loss)",
                _le,
                lambda r: jump_loss(_discord(r), 0.0),
                lambda r: min(2 * r(H_A), r(H_B)),
                basis="exact-anchor",
            ),
            Row(
                "pure family: discord gain <= min(marginal-A loss, joint loss)",
                _le,
                lambda r: jump_gain(_discord(r), 0.0),
                lambda r: min(r(H_A), r(H)),
                basis="exact-anchor",
            ),
            ("correlated", I_AB, H_A),
            Row(
                "classical-quantum family: classical-correlation loss <= marginal-A loss",
                _le,
                I_AB,
                H_A,
                basis="exact-anchor",
                note="on classical-quantum states the measure equals the mutual information",
            ),
            Row("classical-quantum family: discord vanishes along the family", _close, 0.0, 0.0, 1e-12, "exact-anchor"),
        ),
    ),
    "P4": Suite(
        "entropy loss bounded by mean-energy loss under a log-growth Hamiltonian",
        params=lambda r: {"energy": r.p["energy"], "g": _g(r)},
        series={
            "entropy": H,
            "mean_energy": E,
            "mean_energy_rearranged": E_SORTED,
            "closed_form_loss": _p4_closed_forms,
            "loss_over_bound": lambda r: [c / _p4_bound(r) for c in _p4_closed_forms(r)],
        },
        rows=(
            ("sharp", H, E, E_SORTED, "limit_distance"),
            Row("rearrangement never raises the mean energy (every grid point)", _le, _max_gap(E_SORTED, E), 0.0, basis="pointwise"),
            Row("mean energy stays at the declared budget (every grid point)", _le, lambda r: max(r[E]) - r.p["energy"], 0.0, 1e-10, "pointwise"),
            Row("loss of rearranged energy <= loss of energy", _le, lambda r: r(E_SORTED, _e0(r)), lambda r: r(E, _e0(r)), 1e-10),
            Row("loss of energy <= E - E0", _le, lambda r: r(E, _e0(r)), lambda r: r.p["energy"] - _e0(r), 1e-10),
            Row(
                "closed-form entropy loss <= g * energy loss (20% estimator band)",
                _le,
                lambda r: r.closed(H),
                lambda r: _g(r) * r(E, _e0(r)) * ESTIMATOR_FACTOR,
                basis="closed_form",
            ),
            Row(
                "closed-form entropy loss above 0.8 of the sharp bound", _le, lambda r: 0.8 * _p4_bound(r), lambda r: r.closed(H), 0.0, "closed_form"
            ),
            Row(
                "closed-form entropy loss below 1.2 of the sharp bound", _le, lambda r: r.closed(H), lambda r: 1.2 * _p4_bound(r), 0.0, "closed_form"
            ),
            Row("entropy dominated by lam E + log Z for lam = 2g (every grid point)", _le, _p4_gibbs_excess, 0.0, 1e-8, "pointwise"),
            Row("measured values converge and the tail is monotone", _close, lambda r: (est := r.jump(H)).converging and est.monotone_tail, 1.0, 0.0),
        ),
    ),
    "T2": Suite(
        "output-entropy and channel information losses",
        params=_energy,
        series={"entropy": H, "unitary_output_entropy": "unitary_output_entropy"},
        rows=(
            ("sharp_dense", H, "identity_output_entropy", "unitary_output_entropy"),
            Row("identity channel: output-entropy loss equals the input-entropy loss", _close, "identity_output_entropy", H, _band_of_rhs),
            Row(
                "unitary channel: output-entropy loss equals the input-entropy loss",
                _close,
                "unitary_output_entropy",
                H,
                _band_of_rhs,
                note="finite-environment case: the complementary output entropy converges",
            ),
            # bounded-Choi-rank data processing on the full diagonal grid
            ("sharp_diag", H, "ground_output_entropy", "compression_output_entropy"),
            Row("rank-one ground-population operation: output loss <= input loss", _le, "ground_output_entropy", H),
            Row("rank-one compression operation: output loss <= input loss", _le, "compression_output_entropy", H),
            # exact anchors on the identity channel: its constrained Holevo capacity
            # and coherent information equal H(rho), its mutual information 2 H(rho)
            ("sharp_dense",),
            Row("identity channel: constrained-capacity loss <= output-entropy loss", _le, H, H, basis="exact-anchor"),
            Row(
                "identity channel: mutual-information loss <= 2 min(input, output losses)",
                _le,
                lambda r: jump_loss([2 * v for v in r[H]], 0.0),
                lambda r: 2 * min(r(H), r(H)),
                basis="exact-anchor",
            ),
            Row(
                "identity channel: coherent-information loss <= min(2 input loss, output loss)",
                _le,
                H,
                lambda r: min(2 * r(H), r(H)),
                basis="exact-anchor",
            ),
            _coherent_range,
            Row("coherent information confined to [-H, H] on random pairs", _le, lambda r: r["worst"], 0.0, basis="pointwise"),
            _dephasing_ramp,
            Row("dephasing ramp converges strongly on a spanning probe set", _close, lambda r: r["converges"], 1.0, 0.0, "pointwise"),
            Row(
                "ramp: measured mutual-information loss vanishes with the parameter",
                _le,
                lambda r: r("values", r["limit"]),
                0.0,
                0.01,
                note="fixed-dimension parameter continuity; tolerance covers the finite ramp step",
            ),
        ),
    ),
}


def _resolved(params: dict) -> dict:
    """The parameters a pass reads, at their defaults where ``params`` is silent."""
    return {
        "energy": float(params.get("energy", 1.0)),
        "grid": check_grid(params.get("grid", GRID_DIAG), DEFAULT_WINDOW),
        "seed": integer_parameter(params.get("seed", 11), "seed", 0),
        "range_trials": integer_parameter(params.get("range_trials", 10), "range_trials", 1),
    }


def _suite(suite_id: str) -> Suite:
    if suite_id not in SUITES:
        raise UnknownSuiteError(f"no suite registered under {suite_id!r}")
    return SUITES[suite_id]


def walk(suite_ids, params: dict | None = None) -> Walk:
    """Walk each family the suites ``suite_ids`` read once, scoring every
    element for the union of the functionals they read there; then run
    each of their bespoke works once."""
    p = _resolved(dict(params or {}))
    walked = Walk(p, np.random.default_rng(p["seed"]))
    wanted = {}
    for suite in [_suite(suite_id) for suite_id in suite_ids]:
        for heading in suite.rows:
            if not isinstance(heading, Row):
                wanted.setdefault(walked.key(heading), {}).update(dict.fromkeys(() if callable(heading) else heading[1:]))
    for key in sorted(wanted, key=callable):  # bespoke work last: T2's random pairs draw after its unitaries
        if callable(key):
            walked.columns.update(((key, name), value) for name, value in key(p, walked.rng).items())
            continue
        constructor, energy, grid = key
        seq = walked.families[key] = constructor(energy=energy, n_grid=grid)
        columns = series(seq, *(_functional(f, seq, walked.rng) for f in wanted[key]))
        walked.columns.update(((key, f), column) for f, column in zip(wanted[key], columns))
        walked.columns[key, "n"] = list(seq.n_grid)
    return walked


def suite_ids() -> list:
    return list(SUITES.keys())


def suite_run(suite_id: str, params: dict | None = None, walked: Walk | None = None) -> SuiteReport:
    """Run one suite.  ``walked`` is a ``walk`` with the same ``params`` over
    ids that include ``suite_id``; without one the suite walks its own sources."""
    suite = _suite(suite_id)
    if walked is None:
        walked = walk([suite_id], params)
    r = _Reads(walked, suite.rows[0])
    report = SuiteReport(suite_id, suite.title, suite.params(r))
    report.series = {"n": r["n"], **{k: r[v] if isinstance(v, str) else v(r) for k, v in suite.series.items()}}
    for row in suite.rows:
        if isinstance(row, Row):
            report.checks.append(row.check(r))
        else:
            r = _Reads(walked, row)
    return report
