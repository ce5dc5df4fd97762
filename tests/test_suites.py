import numpy as np
import pytest

from entroloss import SUITES, QuantumOperation, TraceClassElement, info, operators, output_entropy, sequences, suite_ids, suite_run, suites
from entroloss.errors import UnknownSuiteError
from entroloss.info import conditional_mutual_information, von_neumann_entropy
from entroloss.operators import partial_trace
from entroloss.sequences import GRID_DIAG, GRID_MEDIUM, lift_by_purification, make_classical_triple_sequence, make_sharp_sequence
from entroloss.suites import Row


def test_registry_size():
    assert len(SUITES) >= 14


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuiteError):
        suite_run("definitely-not-a-suite")


@pytest.mark.parametrize("suite_id", suite_ids())
def test_every_suite_passes(suite_id):
    report = suite_run(suite_id)
    failing = [c.claim for c in report.checks if not c.passed]
    assert report.passed, f"{suite_id} failed: {failing}"
    assert report.checks, "every suite must produce at least one check"


def test_p4_series_columns():
    report = suite_run("P4")
    assert {"n", "entropy", "mean_energy", "closed_form_loss", "loss_over_bound"} <= set(report.series)
    n = len(report.series["n"])
    assert all(len(col) == n for col in report.series.values())


@pytest.mark.parametrize("energy", [0.5, 1.2, 2.0])
def test_t2_operation_columns_match_dense_kraus_bit_for_bit(energy):
    seq = make_sharp_sequence(energy=energy)
    for n in [n for n in GRID_DIAG if n <= 2**12]:
        rho = seq.element(n)
        for name, rank in (("ground_output_entropy", 1), ("compression_output_entropy", 8)):
            dense = QuantumOperation([np.eye(rank, rho.dim, dtype=complex)])
            assert suites._FUNCTIONALS[name](rho) == output_entropy(dense, rho)


def test_c1_declares_equality_for_diagonal_families():
    report = suite_run("C1")
    assert any("equality" in c.claim for c in report.checks)


def test_c3_reports_both_triangle_variants():
    report = suite_run("C3")
    claims = " | ".join(c.claim for c in report.checks)
    assert "2 *" in claims and "factor two removed" in claims


def test_c3_has_implication_row():
    report = suite_run("C3")
    assert any("equal marginal losses" in c.claim for c in report.checks)


def test_every_check_records_estimator_basis():
    for suite_id in suite_ids():
        for check in suite_run(suite_id).checks:
            assert check.basis in {"pointwise", "measured", "closed_form", "exact-anchor"}


def test_suite_params_passed_through():
    report = suite_run("P4", {"energy": 0.7})
    assert report.params["energy"] == 0.7
    assert report.passed


def test_p4_loss_approaches_bound_from_above():
    # the finite-n estimator stays above the asymptotic value and decreases
    ratios = suite_run("P4").series["loss_over_bound"]
    assert all(r > 1.0 for r in ratios)
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))


# Rows that compare a value with itself; making each side independent shrinks this list.
SELF_COMPARISONS = {
    ("T1", "sharpness on the lifted family: loss(I) = 2 loss(H_A)"),
    ("P5", "loss additivity: closed-form loss of the mixture equals the weighted member loss"),
    ("P5", "mixing family: measured Holevo values stay below the average-state loss"),
    ("P7", "pure family: measure loss <= min marginal loss (exact pure anchor)"),
    ("P-CB", "pure family: classical-correlation loss <= marginal-A loss"),
    ("P-CB", "pure family: discord loss <= min(2 marginal-A loss, marginal-B loss)"),
    ("P-CB", "pure family: discord gain <= min(marginal-A loss, joint loss)"),
    ("P-CB", "classical-quantum family: discord vanishes along the family"),
    ("T2", "identity channel: constrained-capacity loss <= output-entropy loss"),
    ("T2", "identity channel: mutual-information loss <= 2 min(input, output losses)"),
    ("T2", "identity channel: coherent-information loss <= min(2 input loss, output loss)"),
}


def test_self_comparison_ledger():
    """Every row whose two sides read a common (source, column), or that reads
    no source at all, is listed in SELF_COMPARISONS, and no other row.

    The rule sees only shared sources.  Rows that compare different
    functionals of one stored entropy are invisible to it: on a Schmidt-form
    state H(A), H(B), I(A:B) and H(A|B) all come from one marginal entropy,
    so the C3 and C7 rows on the lifted family pass by construction too."""
    walked = suites.walk(suite_ids())
    found = set()
    for suite_id, suite in SUITES.items():
        for row in suite.rows:
            if not isinstance(row, Row):
                heading = row
                continue
            lhs, rhs = suites._Reads(walked, heading), suites._Reads(walked, heading)
            suites._side(row.lhs, lhs)
            suites._side(row.rhs, rhs)
            if lhs.sources & rhs.sources or not lhs.sources | rhs.sources:
                found.add((suite_id, row.claim))
    assert found == SELF_COMPARISONS


def test_t1_columns_score_a_schmidt_element_once(monkeypatch):
    lifted = lift_by_purification(make_sharp_sequence(energy=1.0, n_grid=GRID_MEDIUM))
    x = lifted.element(64)
    calls = []
    real = info.spectral_entropy

    def counted(eigs):
        calls.append(np.size(eigs))
        return real(eigs)

    monkeypatch.setattr(info, "spectral_entropy", counted)
    values = [suites._functional(name, lifted, None)(x) for name in ("mutual_information", "decohered_mi", "marginal_entropy", "marginal_entropy_b")]
    assert values == [2.0 * values[2], values[2], values[2], values[2]]
    assert calls == [65]


def test_one_suite_walks_only_its_own_families():
    walked = suites.walk(["C2"])
    assert {key[0].__name__ for key in walked.families} == {"_product", "make_classical_correlated_sequence"}
    assert {name for _, name in walked.columns} == {"n", "entropy", "marginal_entropy", "marginal_entropy_b"}


P6_MARGINALS = {
    "marginal_entropy": [0],
    "marginal_entropy_b": [1],
    "marginal_entropy_c": [2],
    "marginal_entropy_ab": [0, 1],
    "marginal_entropy_bc": [1, 2],
}


def test_p6_columns_are_the_library_functionals():
    seq = make_classical_triple_sequence(energy=1.0, n_grid=(64,))
    x = seq.element(64)
    ac = partial_trace(x, [0, 2])
    library = {
        "cmi": conditional_mutual_information(x, check=False),
        "mi_ac": von_neumann_entropy(partial_trace(ac, [0])) + von_neumann_entropy(partial_trace(ac, [1])) - von_neumann_entropy(ac),
        **{name: von_neumann_entropy(partial_trace(x, keep)) for name, keep in P6_MARGINALS.items()},
    }
    assert {name: suites._functional(name, seq, None)(x) for name in library} == library


def test_p6_strong_subadditivity_row_reads_the_library_cmi(monkeypatch):
    claim = "strong subadditivity along the family (every grid point)"
    real = suites.conditional_mutual_information

    def ssa_row():
        return next(c for c in suite_run("P6").checks if c.claim == claim)

    unbiased = ssa_row()
    monkeypatch.setattr(suites, "conditional_mutual_information", lambda x, check=True: real(x, check=check) - 1e-3)
    # the family's CMI stays above 1.3, so a -1e-3 bias moves the row without failing it
    assert ssa_row().lhs == pytest.approx(unbiased.lhs + 1e-3, abs=1e-12)
    monkeypatch.setattr(suites, "conditional_mutual_information", lambda x, check=True: -real(x, check=check))
    assert unbiased.passed and not ssa_row().passed


def test_p6_scores_each_joint_diagonal_once(monkeypatch):
    scored, built = [], []
    real_entropy, real_triple = info.spectral_entropy, sequences._triple

    def counted(eigs):
        scored.append(eigs)
        return real_entropy(eigs)

    def recorded(rho):
        built.append(real_triple(rho))
        return built[-1]

    monkeypatch.setattr(info, "spectral_entropy", counted)
    monkeypatch.setattr(sequences, "_triple", recorded)
    suites.walk(["P6"])
    # the joint at n = 512 is held on its 513 support points; the CMI and the
    # entropy column share its one score, and no call sees its 513 * 2 * 513 entries
    [joint] = [x for x in built if x.dim == 513 * 2 * 513]
    assert joint.held_eigenvalues().size == 513
    assert sum(eigs is joint.held_eigenvalues() for eigs in scored) == 1
    assert 513 * 2 * 513 not in {np.size(eigs) for eigs in scored}


def test_suite_pass_never_densifies_a_support_held_diagonal(monkeypatch):
    full_diagonal = TraceClassElement.diag.fget

    def refuse_support_held(self):
        if self._support is not None:
            raise AssertionError(f"a suite pass densified a support-held diagonal of dim {self.dim}")
        return full_diagonal(self)

    monkeypatch.setattr(TraceClassElement, "diag", property(refuse_support_held))
    walked = suites.walk(suite_ids(), {"energy": 1.2})
    held = [seq for seq in walked.families.values() if getattr(seq.element(16), "_support", None) is not None]
    assert len(held) == 3  # correlated, correlated_at_energy and triple
    assert all(suite_run(suite_id, {"energy": 1.2}, walked).passed for suite_id in suite_ids())


# factor on the values of every support-held marginal -> suites with a failed row;
# C2's correlated row has a factor-two margin (H <= H_A + H_B with H_A = H_B = H),
# and P6's strong subadditivity needs the marginal entropies cut by over a third
MARGINAL_MUTATIONS = {1.01: ("C-sep", "C7", "P-CB"), 0.4: ("C2", "P6")}


@pytest.mark.parametrize("factor", MARGINAL_MUTATIONS)
def test_support_held_marginal_mutation_fails_rows(factor, monkeypatch):
    real = operators._support_regrouped

    def mutated(w, axes, new_dims):
        out = real(w, axes, new_dims)
        return out.scaled(factor) if len(axes) < len(w.factor_dims) else out

    affected = MARGINAL_MUTATIONS[factor]
    assert all(suite_run(suite_id).passed for suite_id in affected)
    monkeypatch.setattr(operators, "_support_regrouped", mutated)
    assert not any(suite_run(suite_id).passed for suite_id in affected)


def _boolean_rows() -> dict:
    """suite id -> claims of its boolean rows, each ``_close`` of a truth value to 1.0 at tolerance 0.0."""
    rows = {}
    for suite_id, suite in SUITES.items():
        for row in suite.rows:
            if isinstance(row, Row) and row.relation is suites._close and (row.rhs, row.tol) == (1.0, 0.0):
                rows.setdefault(suite_id, []).append(row.claim)
    return rows


def test_every_row_is_le_or_close():
    relations = {row.relation for suite in SUITES.values() for row in suite.rows if isinstance(row, Row)}
    assert relations == {suites._le, suites._close}


def test_boolean_rows_record_their_truth_value_against_one():
    rows = _boolean_rows()
    assert sum(map(len, rows.values())) == 5
    for suite_id, claims in rows.items():
        checks = [c for c in suite_run(suite_id).checks if c.claim in claims]
        assert len(checks) == len(claims)
        for c in checks:
            assert (c.lhs in (0.0, 1.0), c.rhs, c.tolerance, c.passed) == (True, 1.0, 0.0, c.lhs == 1.0)
    false = Row("never", suites._close, lambda r: False, 1.0, 0.0).check(None)
    assert false == suites.SuiteCheck("never", 0.0, 1.0, 0.0, False, "measured")
