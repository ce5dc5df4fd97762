import json
import math
import os

import pytest

from entroloss import info, operators, sequences, suites
from entroloss.cli import _jsonable, run
from entroloss.sequences import FUNCTIONALS, builtin_families


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_quantity_entropy(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "command": "quantity",
            "quantity": {"name": "entropy", "state": {"kind": "diag", "values": [0.5, 0.5]}},
            "output": {"dir": str(tmp_path), "format": "both"},
        },
    )
    assert run(["--config", cfg]) == 0
    record = read_json(tmp_path / "quantity.json")
    assert record["value"] == pytest.approx(0.693147, abs=1e-6)
    assert record["provenance"] == "exact"


def test_quantity_entropy_flattens_nested_diag_values(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "quantity",
            "quantity": {"name": "entropy", "state": {"kind": "diag", "values": [[0.5], [0.5]]}},
            "output": {"dir": str(tmp_path), "format": "json"},
        },
    )
    assert run(["--config", cfg]) == 0
    assert read_json(tmp_path / "quantity.json")["value"] == pytest.approx(math.log(2), abs=1e-12)


def test_quantity_mutual_information_bell(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "quantity",
            "quantity": {"name": "mutual_information", "state": {"kind": "bell"}},
            "output": {"dir": str(tmp_path), "format": "json"},
        },
    )
    assert run(["--config", cfg]) == 0
    record = read_json(tmp_path / "quantity.json")
    assert record["value"] == pytest.approx(1.386294, abs=1e-6)


def test_quantity_formation_bell_flags_direction(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "quantity",
            "seed": 2,
            "quantity": {"name": "entanglement_of_formation", "state": {"kind": "bell"}},
            "output": {"dir": str(tmp_path), "format": "both"},
        },
    )
    assert run(["--config", cfg]) == 0
    record = read_json(tmp_path / "quantity.json")
    assert record["value"]["direction"] == "upper_bound"
    assert record["value"]["value"] == pytest.approx(math.log(2.0), abs=1e-6)


def test_sequence_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "sequence",
            "sequence": {
                "family": "sharp",
                "params": {"energy": 1.0},
                "grid": [2**k for k in range(4, 11)],
                "functionals": ["entropy", "pinched_entropy"],
            },
            "output": {"dir": str(tmp_path), "format": "both"},
        },
    )
    assert run(["--config", cfg]) == 0
    data = read_json(tmp_path / "sequence_sharp.json")
    assert "entropy" in data["estimates"]
    assert data["estimates"]["entropy"]["loss_closed_form"] is not None
    assert (tmp_path / "sequence_sharp.csv").exists()


def test_sequence_command_lifted_family(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "sequence",
            "sequence": {
                "family": "sharp_lifted",
                "params": {"energy": 1.0},
                "grid": [2**k for k in range(4, 11)],
                "functionals": ["mutual_information", "marginal_entropy"],
            },
            "output": {"dir": str(tmp_path), "format": "json"},
        },
    )
    assert run(["--config", cfg]) == 0
    data = read_json(tmp_path / "sequence_sharp_lifted.json")
    mi = data["estimates"]["mutual_information"]
    marg = data["estimates"]["marginal_entropy"]
    assert mi["loss_closed_form"] == pytest.approx(2 * marg["loss_closed_form"], abs=1e-10)


def _run_sequence(tmp_path, section):
    cfg = write_config(tmp_path, {"command": "sequence", "sequence": section, "output": {"dir": str(tmp_path), "format": "both"}})
    assert run(["--config", cfg]) == 0
    return read_json(tmp_path / f"sequence_{section['family']}.json")["estimates"]


def test_sequence_default_window_fits_a_short_grid(tmp_path):
    estimates = _run_sequence(tmp_path, {"family": "rotated_sharp", "functionals": ["entropy", "pinched_entropy"]})
    # the 4-point dense grid takes a window of 2 unless one is given
    assert estimates["entropy"]["window"] == 2
    assert estimates["pinched_entropy"]["window"] == 2
    assert estimates["entropy"]["loss"] <= estimates["pinched_entropy"]["loss"] + 1e-9


def test_sequence_mix_to_pure_takes_sigma_as_a_state(tmp_path):
    sigma = {"kind": "diag", "values": [0.5, 0.3, 0.2]}
    estimates = _run_sequence(tmp_path, {"family": "mix_to_pure", "params": {"sigma": sigma}})
    # continuity in fixed dimension: only a finite-n remnant of the loss
    assert estimates["entropy"]["window"] == 3
    assert 0.0 < estimates["entropy"]["loss"] <= 0.1


def test_sequence_pinched_entropy_on_the_lifted_family_default_grid(tmp_path):
    estimates = _run_sequence(tmp_path, {"family": "sharp_lifted", "functionals": ["pinched_entropy", "marginal_entropy"]})
    assert estimates["pinched_entropy"] == {**estimates["marginal_entropy"], "loss_closed_form": None}


def test_suite_command_writes_reports(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "suite",
            "suite": {"ids": ["P4"], "params": {"energy": 1.0}},
            "output": {"dir": str(tmp_path), "format": "both"},
        },
    )
    assert run(["--config", cfg]) == 0
    report = read_json(tmp_path / "P4_report.json")
    assert report["passed"] is True
    assert (tmp_path / "P4_checks.csv").exists()
    assert (tmp_path / "P4_series.csv").exists()


def test_report_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "suite",
            "suite": {"ids": ["P4", "C1"]},
            "output": {"dir": str(tmp_path), "format": "json"},
        },
    )
    assert run(["--config", cfg]) == 0
    rep_cfg = write_config(
        tmp_path,
        {"command": "report", "report": {"dir": str(tmp_path)}, "output": {"dir": str(tmp_path)}},
        name="report.json",
    )
    assert run(["--config", rep_cfg]) == 0
    summary = read_json(tmp_path / "summary.json")
    assert {row["suite_id"] for row in summary["suites"]} == {"P4", "C1"}


def test_report_missing_artifacts(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    cfg = write_config(
        tmp_path,
        {"command": "report", "report": {"dir": str(empty)}, "output": {"dir": str(tmp_path)}},
    )
    assert run(["--config", cfg]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"command": "quantity", "mystery": 1})
    assert run(["--config", cfg]) == 2


def test_bad_command_rejected(tmp_path):
    cfg = write_config(tmp_path, {"command": "dance"})
    assert run(["--config", cfg]) == 2


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"command": "quantity",\n  bad}')
    assert run(["--config", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_unknown_suite_id(tmp_path):
    cfg = write_config(tmp_path, {"command": "suite", "suite": {"ids": ["NOPE"]}})
    assert run(["--config", cfg, "--out", str(tmp_path)]) == 2


def test_reruns_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "suite",
            "seed": 9,
            "suite": {"ids": ["P4", "T1", "C7"]},
            "output": {"format": "both"},
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["--config", cfg, "--out", str(out1)]) == 0
    assert run(["--config", cfg, "--out", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_full_registry_summary_has_fourteen_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        {"command": "suite", "suite": {"ids": "all"}, "output": {"format": "json"}},
    )
    out = tmp_path / "all"
    assert run(["--config", cfg, "--out", str(out)]) == 0
    rep_cfg = write_config(
        tmp_path,
        {"command": "report", "report": {"dir": str(out)}, "output": {"dir": str(out)}},
        name="rollup.json",
    )
    assert run(["--config", rep_cfg]) == 0
    summary = read_json(out / "summary.json")
    assert len(summary["suites"]) >= 14
    assert all(row["status"] == "pass" for row in summary["suites"])


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "quantity",
            "seed": 1,
            "quantity": {
                "name": "entanglement_of_formation",
                "state": {"kind": "bell"},
            },
            "output": {"format": "json"},
        },
    )
    assert run(["--config", cfg, "--out", str(tmp_path), "--seed", "99"]) == 0


PURE = {"kind": "bell"}
MIXED = {"kind": "diag", "values": [0.5, 0.0, 0.0, 0.5], "factor_dims": [2, 2]}


def _quantity(name, **fields):
    return {"command": "quantity", "quantity": {"name": name, **fields}}


def _gibbs(hamiltonian):
    return _quantity("gibbs_threshold", hamiltonian=hamiltonian)


def _budgeted(budget):
    return {**_quantity("entanglement_of_formation", state=MIXED), "budget": budget}


def _output_entropy(channel):
    return _quantity("output_entropy", state={"kind": "max_mixed", "dim": 2}, channel=channel)


def _sequence(params, family="sharp"):
    return {"command": "sequence", "sequence": {"family": family, "params": params}}


def _product_grid(grid, **extra):
    return {"command": "sequence", "sequence": {"family": "product", "grid": grid, **extra}}


MISSING_KEY_CASES = {
    "sigma": (_quantity("relative_entropy", state=MIXED), "quantity.sigma"),
    "channel": (_quantity("output_entropy", state=PURE), "quantity.channel"),
    "hamiltonian": (_quantity("gibbs_threshold"), "quantity.hamiltonian"),
    "weights": (_quantity("holevo", ensemble={"states": [MIXED]}), "quantity.ensemble.weights"),
    "states": (_quantity("holevo", ensemble={"weights": [1.0]}), "quantity.ensemble.states"),
    "entries": (_quantity("entropy", state={"kind": "matrix"}), "quantity.state.entries"),
    "values": (_quantity("entropy", state={"kind": "diag"}), "quantity.state.values"),
    "amplitudes": (_quantity("entropy", state={"kind": "pure"}), "quantity.state.amplitudes"),
    "state-dim": (_quantity("entropy", state={"kind": "max_mixed"}), "quantity.state.dim"),
    "channel-dim": (_output_entropy({"kind": "identity"}), "quantity.channel.dim"),
    "p": (_output_entropy({"kind": "dephasing"}), "quantity.channel.p"),
    "dims": (_output_entropy({"kind": "partial_trace", "keep": 0}), "quantity.channel.dims"),
    "keep": (_output_entropy({"kind": "partial_trace", "dims": [2, 1]}), "quantity.channel.keep"),
    "povm": (_output_entropy({"kind": "measure_prepare", "preps": [PURE]}), "quantity.channel.povm"),
    "preps": (_output_entropy({"kind": "measure_prepare", "povm": []}), "quantity.channel.preps"),
    "operators": (_output_entropy({"kind": "kraus"}), "quantity.channel.operators"),
    "truncation_dim": (_gibbs({"kind": "log"}), "quantity.hamiltonian.truncation_dim"),
    "table-values": (_gibbs({"kind": "table"}), "quantity.hamiltonian.values"),
    "restarts-0": (_budgeted({"restarts": 0}), "budget.restarts"),
    "iterations-neg": (_budgeted({"iterations": -1}), "budget.iterations"),
    "extension_dim-0": (_quantity("squashed_entanglement", state=MIXED, extension_dim=0), "quantity.extension_dim"),
    "c_squashed-members-0": (_quantity("c_squashed_entanglement", state=MIXED, members=0), "quantity.members"),
    "cc-povm_size-small": (_quantity("classical_correlations", state=MIXED, povm_size=1), "quantity.povm_size"),
    "discord-povm_size-small": (_quantity("quantum_discord", state=MIXED, povm_size=1), "quantity.povm_size"),
    "formation-members-below-rank": (_quantity("entanglement_of_formation", state=MIXED, members=1), "quantity.members"),
    "holevo-members-0": (
        _quantity("constrained_holevo", state=PURE, channel={"kind": "identity", "dim": 4}, members=0),
        "quantity.members",
    ),
    "c_squashed-members-str": (_quantity("c_squashed_entanglement", state=MIXED, members="two"), "quantity.members"),
    "povm_size-str": (_quantity("classical_correlations", state=MIXED, povm_size="two"), "quantity.povm_size"),
    "extension_dim-str": (_quantity("squashed_entanglement", state=MIXED, extension_dim="x"), "quantity.extension_dim"),
    "restarts-str": (_budgeted({"restarts": "x"}), "budget.restarts"),
    "seed-str": ({**_quantity("entropy", state=MIXED), "seed": "x"}, "seed"),
    "identity-dim-str": (_output_entropy({"kind": "identity", "dim": "x"}), "quantity.channel.dim"),
    "identity-dim-0": (_output_entropy({"kind": "identity", "dim": 0}), "quantity.channel.dim"),
    "max_mixed-dim-str": (_quantity("entropy", state={"kind": "max_mixed", "dim": "x"}), "quantity.state.dim"),
    "factor_dims-str": (_quantity("entropy", state={**MIXED, "factor_dims": "ab"}), "quantity.state.factor_dims"),
    "diag-values-str": (_quantity("entropy", state={"kind": "diag", "values": ["x"]}), "quantity.state.values"),
    "amplitudes-str": (_quantity("entropy", state={"kind": "pure", "amplitudes": "x"}), "quantity.state.amplitudes"),
    "dephasing-p-str": (_output_entropy({"kind": "dephasing", "p": "x"}), "quantity.channel.p"),
    "dephasing-p-range": (_output_entropy({"kind": "dephasing", "p": 2}), "quantity.channel"),
    "depolarizing-dim-0": (_output_entropy({"kind": "depolarizing", "p": 0.5, "dim": 0}), "quantity.channel"),
    "partial_trace-dims-str": (_output_entropy({"kind": "partial_trace", "dims": "x", "keep": 0}), "quantity.channel.dims"),
    "max_mixed-dim-0": (_quantity("entropy", state={"kind": "max_mixed", "dim": 0}), "quantity.state.dim"),
    "weights-str": (_quantity("holevo", ensemble={"weights": ["x"], "states": [MIXED]}), "quantity.ensemble.weights"),
    "table-values-str": (_gibbs({"kind": "table", "values": ["x"]}), "quantity.hamiltonian.values"),
    "log-truncation-0": (_gibbs({"kind": "log", "truncation_dim": 0}), "quantity.hamiltonian"),
    "window-str": ({"command": "sequence", "sequence": {"family": "sharp", "window": "x"}}, "sequence.window"),
    "window-0": ({"command": "sequence", "sequence": {"family": "sharp", "window": 0}}, "sequence.window"),
    "window-neg": ({"command": "sequence", "sequence": {"family": "sharp", "window": -1}}, "sequence.window"),
    "grid-str": ({"command": "sequence", "sequence": {"family": "sharp", "grid": ["x"]}}, "sequence.grid"),
    "section-not-object": ({"command": "quantity", "quantity": []}, "quantity"),
    "amplitudes-zero": (_quantity("entropy", state={"kind": "pure", "amplitudes": [[0, 0], [0, 0]]}), "quantity.state.amplitudes"),
    "amplitudes-nan": (_quantity("entropy", state={"kind": "pure", "amplitudes": [[math.nan, 0], [1, 0]]}), "quantity.state.amplitudes"),
    "amplitudes-inf": (_quantity("entropy", state={"kind": "pure", "amplitudes": [[math.inf, 0], [1, 0]]}), "quantity.state.amplitudes"),
    **{
        f"suite-{key}-str": ({"command": "suite", "suite": {"ids": ["P4"], "params": {key: value}}}, f"suite.params.{key}")
        for key, value in (("energy", "x"), ("seed", "x"), ("range_trials", "x"), ("grid", ["x"]))
    },
    "suite-params-not-object": ({"command": "suite", "suite": {"ids": ["P4"], "params": [1]}}, "suite.params"),
    **{
        f"sequence-{key}-str": (_sequence({key: value}, family), f"sequence.params.{key}")
        for family, key, value in (("sharp", "energy", "x"), ("product", "energies", ["x", 0.5]), ("rotated_sharp", "seed", "x"))
    },
    "sequence-unknown-param": (_sequence({"energie": 1.0}), "sequence.params"),
    # the product family takes exactly two energies, and every sharp energy exceeds the ground energy 0
    "product-energies-one": (_sequence({"energies": [1.0]}, "product"), "sequence.params.energies"),
    "product-energies-three": (_sequence({"energies": [1.0, 0.5, 0.2]}, "product"), "sequence.params.energies"),
    "product-energy-below-ground": (_sequence({"energies": [1.0, -0.5]}, "product"), "sequence.params.energies"),
    "sharp-energy-below-ground": (_sequence({"energy": -1}), "sequence.params.energy"),
    "sharp-energy-at-ground": (_sequence({"energy": 0}), "sequence.params.energy"),
    "triple-energy-below-ground": (_sequence({"energy": -1}, "classical_triple"), "sequence.params.energy"),
    "suite-energy-below-ground": ({"command": "suite", "suite": {"ids": ["P4"], "params": {"energy": -1}}}, "suite.params.energy"),
    # at n = 16 the default Hamiltonian carries mean energies up to about 2.09
    "sharp-energy-past-smallest-point": (_sequence({"energy": 100}), "sequence.params.energy"),
    "product-energy-past-smallest-point": (_sequence({"energies": [1.0, 100]}, "product"), "sequence.params.energies"),
    "suite-energy-past-smallest-point": ({"command": "suite", "suite": {"ids": ["P4"], "params": {"energy": 100}}}, "suite.params.energy"),
    # an explicit window of 3 needs 6 grid points; a product element at n has dim (n + 1)**2
    "sequence-grid-below-window": (_product_grid([16, 32, 64, 128], window=3), "sequence.grid"),
    "sequence-grid-past-diag-cap": (_product_grid([16, 32, 64, 128, 256, 1024]), "sequence.grid"),
    # GRID_DENSE has 4 points: an explicit window of 3 is still refused
    "rotated_sharp-explicit-window": (
        {"command": "sequence", "sequence": {"family": "rotated_sharp", "window": 3}},
        "sequence.grid",
    ),
    # every grid is nonempty, every n >= 1, and a suite's grid holds two trailing windows
    "sharp-grid-empty": ({"command": "sequence", "sequence": {"family": "sharp", "grid": []}}, "sequence.grid"),
    "product-grid-empty": (_product_grid([]), "sequence.grid"),
    "sharp-grid-zero": ({"command": "sequence", "sequence": {"family": "sharp", "grid": [0, 16, 32, 64]}}, "sequence.grid"),
    "mix_to_pure-grid-zero": (
        {"command": "sequence", "sequence": {"family": "mix_to_pure", "grid": [0, 16, 32, 64], "params": {"sigma": MIXED}}},
        "sequence.grid",
    ),
    "suite-grid-empty": ({"command": "suite", "suite": {"ids": ["P4"], "params": {"grid": []}}}, "suite.params.grid"),
    "suite-grid-below-window": ({"command": "suite", "suite": {"ids": ["C-maj"], "params": {"grid": [16, 32]}}}, "suite.params.grid"),
    "mix_to_pure-sigma-missing": (_sequence({}, "mix_to_pure"), "sequence.params.sigma"),
    "mix_to_pure-sigma-malformed": (_sequence({"sigma": [0.5, 0.5]}, "mix_to_pure"), "sequence.params.sigma"),
    # a config number must be finite
    "diag-values-nan": (_quantity("entropy", state={"kind": "diag", "values": [math.nan, 0.5]}), "quantity.state.values"),
    "matrix-entries-nan": (
        _quantity("entropy", state={"kind": "matrix", "entries": [[[math.nan, 0], [0, 0]], [[0, 0], [0.5, 0]]]}),
        "quantity.state.entries",
    ),
    "kraus-operator-nan": (
        _output_entropy({"kind": "kraus", "operators": [[[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]]}),
        "quantity.channel.operators",
    ),
    "table-level-nan": (
        _quantity("mean_energy", state={"kind": "max_mixed", "dim": 2}, hamiltonian={"kind": "table", "values": [0.0, math.nan]}),
        "quantity.hamiltonian.values",
    ),
    "log-scale-nan": (_gibbs({"kind": "log", "scale": math.nan, "truncation_dim": 4}), "quantity.hamiltonian.scale"),
    "suite-energy-nan": ({"command": "suite", "suite": {"ids": ["P4"], "params": {"energy": math.nan}}}, "suite.params.energy"),
    "suite-seed-inf": ({"command": "suite", "suite": {"ids": ["P4"], "params": {"seed": math.inf}}}, "suite.params.seed"),
    # config shapes and unknown keys
    "suite-ids-int": ({"command": "suite", "suite": {"ids": 5}}, "suite.ids"),
    "suite-ids-nested": ({"command": "suite", "suite": {"ids": [["P4"]]}}, "suite.ids"),
    "suite-unknown-param": ({"command": "suite", "suite": {"ids": ["P4"], "params": {"energie": 1.7}}}, "suite.params"),
    "sequence-hamiltonian-param": (_sequence({"hamiltonian": {"kind": "log", "truncation_dim": 70000}}), "sequence.params"),
    "sequence-n_grid-param": (_sequence({"n_grid": [16, 32, 64, 128, 256, 512]}), "sequence.params"),
    "sequence-functionals-str": ({"command": "sequence", "sequence": {"family": "sharp", "functionals": "entropy"}}, "sequence.functionals"),
    # zero trials would make T2's range row a vacuous max over nothing
    **{
        f"suite-range_trials-{value}": (
            {"command": "suite", "suite": {"ids": ["T2"], "params": {"range_trials": value}}},
            "suite.params.range_trials",
        )
        for value in (0, -3)
    },
}


@pytest.mark.parametrize("payload, path", list(MISSING_KEY_CASES.values()), ids=list(MISSING_KEY_CASES))
def test_missing_or_invalid_key_is_a_config_error(tmp_path, capsys, payload, path):
    cfg = write_config(tmp_path, {**payload, "output": {"dir": str(tmp_path)}})
    assert run(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"'{path}'" in err
    assert "np.float64" not in err  # numbers print as plain floats


def test_dense_cap_exits_before_allocating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(operators, "DENSE_DIM_CAP", 4)
    payload = _quantity("output_entropy", state={"kind": "max_mixed", "dim": 5}, channel={"kind": "identity", "dim": 5})
    cfg = write_config(tmp_path, {**payload, "output": {"dir": str(tmp_path)}})
    assert run(["--config", cfg]) == 2
    assert "exceeds cap 4" in capsys.readouterr().err


def test_a_repeated_run_recomputes_every_entropy(tmp_path, monkeypatch):
    calls = []
    real = info.spectral_entropy

    def counted(eigs):
        calls.append(1)
        return real(eigs)

    monkeypatch.setattr(info, "spectral_entropy", counted)
    cfg = write_config(tmp_path, {"command": "suite", "suite": {"ids": ["P4", "C3"]}, "output": {"dir": str(tmp_path)}})
    counts = []
    for _ in range(2):
        calls.clear()
        assert run(["--config", cfg]) == 0
        counts.append(len(calls))
    # every stored value lives on an object the run built, so nothing carries over
    assert counts[0] == counts[1] > 0


def _family_key(seq):
    tags, h = seq.tags, seq.tags.get("hamiltonian")
    return (tags.get("family"), tags.get("energy"), tags.get("energies"), bool(tags.get("lifted")), seq.n_grid, h and h.truncation_dim)


def test_a_suite_pass_walks_each_family_once(tmp_path, monkeypatch):
    walks = []
    real = sequences.series

    def recorded(seq, *functionals):
        walks.append(_family_key(seq))
        return real(seq, *functionals)

    monkeypatch.setattr(sequences, "series", recorded)
    monkeypatch.setattr(suites, "series", recorded)
    payload = {"command": "suite", "suite": {"ids": "all", "params": {"energy": 1.2}}, "output": {"dir": str(tmp_path), "format": "json"}}
    cfg = write_config(tmp_path, payload)
    counts = []
    for _ in range(2):
        walks.clear()
        assert run(["--config", cfg]) == 0
        assert len(walks) == len(set(walks)) == 10
        counts.append(len(walks))
    # the second run walks every family again: nothing outlives a run
    assert counts[0] == counts[1]


def test_jsonable_keeps_the_sign_of_an_infinity():
    assert _jsonable([math.inf, -math.inf, 1.5]) == ["inf", "-inf", 1.5]


@pytest.mark.parametrize("family", sorted(builtin_families()))
@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
def test_every_family_and_functional_exits_cleanly_at_defaults(tmp_path, family, functional):
    """Each built-in family with each named functional either runs or is a
    config error; none raises out of ``run``."""
    params = {"sigma": {"kind": "diag", "values": [0.5, 0.3, 0.2]}} if family == "mix_to_pure" else {}
    section = {"family": family, "params": params, "functionals": [functional]}
    cfg = write_config(tmp_path, {"command": "sequence", "sequence": section, "output": {"dir": str(tmp_path)}})
    assert run(["--config", cfg]) in (0, 2)
