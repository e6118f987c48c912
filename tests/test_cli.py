"""Command-line behavior: outputs, exit codes, reproducibility."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qroutesim.cli import SCHEMA, _fmt, example_config, main
from qroutesim.noise import NoiseModel, reference_rates

from conftest import per_point_phi_scan, per_point_theta_scan


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_counts_matches_reference_rows(capsys):
    code, out, _ = run(["counts", "--scheme", "tcg-eraser"], capsys)
    assert code == 0 and out.strip() == "6 6 12"
    assert run(["counts", "--scheme", "clifford"], capsys)[1].strip() == "20 16 30"
    assert run(["counts", "--scheme", "tcg-non-eraser"], capsys)[1].strip() == "2 6 8"


def test_layout_exit_codes(tmp_path, capsys):
    code, out, _ = run(["layout", "--grid", "12x6", "--layers", "5",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "layout.json").exists()
    code, _, err = run(["layout", "--grid", "12x6", "--layers", "6",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 3


def test_theta_scan_deterministic_bytes(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run(["theta-scan", "--grid-points", "11", "--out-dir", str(d)], capsys)
        assert code == 0
    assert (d1 / "theta_scan.csv").read_bytes() == (d2 / "theta_scan.csv").read_bytes()
    header = (d1 / "theta_scan.csv").read_text().splitlines()[0]
    assert header == "# qroutesim-schema v1"


def test_json_summary_echoes_config(tmp_path, capsys):
    code, _, _ = run(["noise-curves", "--grid-points", "7", "--out-dir", str(tmp_path),
                      "--seed", "99"], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "noise_curves.json").read_text())
    assert blob["config"]["seed"] == 99
    assert blob["config"]["grid_points"] == 7
    assert "timestamp" in blob["metadata"]
    assert blob["balance_point_us"] == pytest.approx(24.141568686, abs=1e-6)


def test_config_file_round_trip_regenerates_csv(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nseed = 7\n\n[protocol]\ngrid_points = 9\n")
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    run(["phi-scan", "--config", str(cfg), "--out-dir", str(d1)], capsys)
    # regenerate from the echoed config in the summary
    blob = json.loads((d1 / "phi_scan.json").read_text())
    regen = tmp_path / "regen.ini"
    regen.write_text(
        "[run]\nseed = {seed}\nscheme = {scheme}\n\n[protocol]\ngrid_points = {grid_points}\n".format(
            **blob["config"]
        )
    )
    run(["phi-scan", "--config", str(regen), "--out-dir", str(d2)], capsys)
    assert (d1 / "phi_scan.csv").read_bytes() == (d2 / "phi_scan.csv").read_bytes()


def test_malformed_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[protocol]\ntrials = not_a_number\n")
    code, _, err = run(["rat", "--config", str(cfg)], capsys)
    assert code == 2
    assert "trials" in err


def test_unknown_config_field_exit_2(tmp_path, capsys):
    # epsilon and excitation_rate are deleted fields: configs naming them must fail loudly
    for key in ("bananas", "epsilon", "excitation_rate"):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[protocol]\n{key} = 3\n")
        code, _, err = run(["rat", "--config", str(cfg)], capsys)
        assert code == 2
        assert key in err


@pytest.mark.parametrize("argv, ini, word", [
    (["rat", "--noisy", "--delta-theta", "5"], None, "delta_theta"),
    (["noise-curves"], "[noise]\ngamma10 = -1\n", "gamma10"),
    (["theta-scan", "--grid-points", "0"], None, "grid_points"),
    (["floquet"], "[protocol]\nm_repeats = 0\n", "m_repeats"),
    (["rat", "--shots", "-5"], None, "shots"),
], ids=["delta_theta", "gamma10", "grid_points", "m_repeats", "shots"])
def test_bad_config_value_exit_2(argv, ini, word, tmp_path, capsys):
    if ini is not None:
        (tmp_path / "bad.ini").write_text(ini)
        argv = [*argv, "--config", str(tmp_path / "bad.ini")]
    code, _, err = run([*argv, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("config error:") and word in err
    assert not (tmp_path / "out").exists()


def test_nonphysical_rates_config_exit_2(tmp_path, capsys):
    # the rates of DecayRates(1, 0, 0, 0, 0): no Lindblad generator has them
    (tmp_path / "bad.ini").write_text(
        "[noise]\ngamma10 = 1\ngamma21 = 0\ngamma2 = 0\ngamma3 = 0\ngamma4 = 0\n")
    code, _, err = run(["theta-scan", "--noisy", "--config", str(tmp_path / "bad.ini"),
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("config error:") and "not physical" in err
    assert not (tmp_path / "out").exists()


def test_missing_config_exit_2(capsys):
    code, _, err = run(["rat", "--config", "/nonexistent.ini"], capsys)
    assert code == 2


def test_compile_emits_report(tmp_path, capsys):
    code, out, _ = run(["compile", "--layers", "1", "--scheme", "eraser",
                        "--mode", "full", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "compile_report.json").read_text())
    assert report["scheme"] == "tcg-eraser"
    assert set(report) >= {"mode", "scheme", "N1q", "N2q", "depth", "groups"}
    assert (tmp_path / "compiled_circuit.txt").read_text().startswith("# qroutesim-circuit v1")


def test_qst_subcommand(tmp_path, capsys):
    code, _, _ = run(["qst", "--theta", "0.785398", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "qst.json").read_text())
    assert blob["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert blob["mle_iterations"] is None
    code, _, _ = run(["qst", "--theta", "0.785398", "--method", "mle", "--noisy",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads((tmp_path / "qst.json").read_text())["mle_iterations"] > 0


def test_floquet_subcommand(tmp_path, capsys):
    code, _, _ = run(["floquet", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "floquet.json").read_text())
    assert blob["cost"] == pytest.approx(1.0)


def test_rat_subcommand_small(tmp_path, capsys):
    code, _, _ = run(["rat", "--noisy", "--n-max", "3", "--trials", "2",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "rat.json").read_text())
    assert 0.0 <= blob["fit_f_rat"] <= 1.0
    assert isinstance(blob["fit_converged"], bool) and blob["fit_iterations"] > 0
    kept = blob["postselection_kept"]
    assert len(kept) == 4 and 0.0 < kept[-1] < kept[0] < 1.0
    rows = (tmp_path / "rat.csv").read_text().splitlines()
    assert rows[1] == "depth,m_rat" and len(rows) == 6


def test_example_config_parses(tmp_path, capsys):
    cfg = tmp_path / "example.ini"
    cfg.write_text(example_config())
    code, _, _ = run(["counts", "--config", str(cfg), "--scheme", "tcg-eraser"], capsys)
    assert code == 0


def test_rat2_echoes_effective_depth(tmp_path, capsys):
    code, _, _ = run(["rat2", "--n-max", "30", "--trials", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "rat2.json").read_text())
    assert blob["config"]["n_max"] == 6
    assert '"n_max": 6' in (tmp_path / "rat2.json").read_text()
    assert len((tmp_path / "rat2.csv").read_text().splitlines()) == 2 + 7
    assert isinstance(blob["fit_converged"], bool) and blob["fit_iterations"] > 0
    assert blob["postselection_kept"] == pytest.approx([1.0] * 7, abs=1e-12)
    counters = blob["metadata"]["counters"]
    assert set(counters) == {"noisy", "ideal"}
    # the noisy runner looks up three maps per readout and two per paired block
    assert sum(counters["noisy"].values()) == 3 * 7 + 2 * 6
    assert counters["noisy"]["root_maps_built"] >= 1 and counters["ideal"]["leaf_maps_built"] >= 1


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
def test_noisy_scan_csvs_are_the_per_point_loop(scheme, tmp_path, capsys):
    """The 101-point noisy scans write the bytes a router run per point
    writes through the same formatting, and count one router run."""
    noise = NoiseModel(reference_rates())
    thetas = np.linspace(0.0, math.pi / 2, 101)
    phis = np.linspace(0.0, 2 * math.pi, 101)
    p_odd, p_even, per_state, _ = per_point_phi_scan(phis, scheme, noise)
    expected = {
        "theta_scan": (["theta", "p_left", "p_right", "p_input"],
                       [[t, *p] for t, p in zip(thetas, per_point_theta_scan(thetas, scheme, noise))]),
        "phi_scan": (["phi", "p_odd", "p_even"] + [f"p_{k:03b}" for k in range(8)],
                     [[p, po, pe, *pops] for p, po, pe, pops in zip(phis, p_odd, p_even, per_state)]),
    }
    for cmd, (name, (header, rows)) in zip(["theta-scan", "phi-scan"], expected.items()):
        code, _, _ = run([cmd, "--noisy", "--scheme", scheme, "--grid-points", "101",
                          "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = [SCHEMA, ",".join(header)] + [",".join(_fmt(float(v)) for v in row) for row in rows]
        assert (tmp_path / f"{name}.csv").read_text() == "\n".join(lines) + "\n"
        blob = json.loads((tmp_path / f"{name}.json").read_text())
        assert blob["metadata"]["counters"] == {"router_runs": 1, "points": 101}
