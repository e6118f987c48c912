"""Command-line behavior: outputs, exit codes, reproducibility."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qroutesim
from qroutesim.cli import SCHEMA, SUBCOMMANDS, _fmt, build_parser, example_config, main
from qroutesim.noise import LeakageSpec, NoiseModel, reference_rates
from qroutesim.rat import draw_addresses, rat_single

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


def test_layout_summary_echoes_config_and_search(tmp_path, capsys):
    argv = ["layout", "--grid", "12x6", "--layers", "4", "--defects", "0,0;5,3"]
    code, _, _ = run([*argv, "--out-dir", str(tmp_path / "a")], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "a" / "layout_summary.json").read_text())
    assert blob["diagnostics"] == {"seed_center_distance": 6.0}
    assert (blob["config"]["rows"], blob["config"]["cols"]) == (12, 6)
    assert blob["config"]["defects"] == "0,0;5,3" and blob["config"]["layers"] == 4
    assert "timestamp" in blob["metadata"]
    # the twelve anchor-(0,0) seeds touch the defect at (0,0)
    assert blob["metadata"]["counters"] == {"seeds_tried": 13, "nodes_expanded": 1,
                                            "dead_states": 0}
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\n" + "".join(f"{k} = {blob['config'][k]}\n"
                                       for k in ("rows", "cols", "layers", "defects")))
    code, _, _ = run(["layout", "--config", str(ini), "--out-dir", str(tmp_path / "b")], capsys)
    assert code == 0
    for name in ("layout.json", "layout_coords.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_every_subcommand_takes_the_shared_options():
    parser = build_parser()
    assert build_parser() is parser  # built once per process, reused by every main call
    want = {"command": "rat", "config": None, "out_dir": None, "seed": 7, "scheme": None,
            "noisy": True, "trials": 100, "shots": None, "n_max": 30, "grid_points": None,
            "layers": None, "mode": None, "grid": None, "theta": None, "phi": None,
            "method": None, "delta_theta": None, "defects": None}
    args = parser.parse_args(["rat", "--noisy", "--n-max", "30", "--trials", "100", "--seed", "7"])
    assert vars(args) == want
    for name in SUBCOMMANDS:
        args = parser.parse_args([name, "--layers", "4", "--defects", "0,0;5,3", "--phi", "1.5"])
        assert vars(args) == {**want, "command": name, "seed": None, "noisy": None,
                              "trials": None, "n_max": None, "layers": 4,
                              "defects": "0,0;5,3", "phi": 1.5}


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
    assert blob["metadata"]["counters"] == {"points": 7}
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
    (["theta-scan"], "[run]\nscheme = bogus\n", "scheme"),
    (["counts"], "[run]\nscheme = bogus\n", "scheme"),
    (["rat"], "[run]\nscheme = bogus\n", "scheme"),
    (["qst"], "[protocol]\nmethod = bogus\n", "method"),
    (["compile"], "[protocol]\nmode = bogus\n", "mode"),
    (["rat", "--scheme", "clifford"], None, "clifford"),
    (["rat", "--n-max", "1"], None, "n_max"),
    (["rat2"], "[protocol]\nn_max = 1\n", "n_max"),
    (["compile", "--layers", "0"], None, "layers"),
    (["layout", "--layers", "0"], None, "layers"),
    (["layout", "--layers", "-1"], None, "layers"),
    (["layout", "--grid", "0x6", "--layers", "2"], None, "rows"),
    (["layout", "--grid", "12x-1"], None, "cols"),
    (["qst", "--theta", "nan"], None, "theta"),
    (["theta-scan", "--phi", "inf", "--grid-points", "3"], None, "phi"),
    (["rat", "--noisy"], "[noise]\nsqrt_cz_ns = -25\n", "sqrt_cz_ns"),
    (["rat", "--noisy"], "[noise]\nsqrt_cz_ns = 0\n", "sqrt_cz_ns"),
    (["rat", "--noisy"], "[noise]\nsingle_ns = inf\n", "single_ns"),
    (["rat", "--noisy"], "[noise]\nblock_overhead_ns = -1200\n", "block_overhead_ns"),
    (["rat", "--noisy"], "[noise]\nblock_overhead_ns = nan\n", "block_overhead_ns"),
    (["rat", "--seed", "-5"], None, "seed"),
    (["qst", "--method", "linear-inversion", "--shots", "10", "--seed", "-1"], None, "seed"),
    (["rat2", "--seed", "-3"], None, "seed"),
    (["rat", "--n-max", "2", "--trials", "1", "--shots", str(2**63)], None, "shots"),
    (["layout", "--grid", "12by6"], None, "grid"),
    (["layout", "--defects", "0,0;x"], None, "defects"),
    (["layout", "--defects", "99,0"], None, "defect"),
], ids=["delta_theta", "gamma10", "grid_points", "m_repeats", "shots", "scheme-theta-scan",
        "scheme-counts", "scheme-rat", "method", "mode", "rat-clifford", "n_max-rat",
        "n_max-rat2", "layers-compile", "layers-layout-0", "layers-layout-negative",
        "grid-rows-0", "grid-cols-negative",
        "theta-nan", "phi-inf", "sqrt_cz_ns-negative", "sqrt_cz_ns-0", "single_ns-inf",
        "block_overhead_ns-negative", "block_overhead_ns-nan", "seed-rat", "seed-qst",
        "seed-rat2", "shots-2**63", "grid-malformed", "defects-malformed", "defects-off-lattice"])
def test_bad_config_value_exit_2(argv, ini, word, tmp_path, capsys):
    if ini is not None:
        (tmp_path / "bad.ini").write_text(ini)
        argv = [*argv, "--config", str(tmp_path / "bad.ini")]
    code, _, err = run([*argv, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("config error:") and word in err
    assert not (tmp_path / "out").exists()


@settings(max_examples=40)
@given(flag=st.sampled_from(["--theta", "--phi", "--delta-theta"]), value=st.floats(),
       joined=st.booleans(),
       command=st.sampled_from([["qst"], ["theta-scan", "--grid-points", "3"]]))
def test_float_flags_exit_0_or_2_without_traceback(flag, value, joined, command):
    # both "--theta=-1e+16" and "--theta -1e+16" (a bare "-1e+16" looks like an option)
    args = [f"{flag}={value!r}"] if joined else [flag, repr(value)]
    with tempfile.TemporaryDirectory() as out:
        code = main([*command, *args, "--out-dir", out])
        assert code in (0, 2)
        if code == 0:
            csv = next(Path(out).glob("*.csv")).read_text().splitlines()[2:]
            assert np.isfinite([float(v) for line in csv for v in line.split(",")]).all()


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


def test_compile_beyond_the_tree_bound_exits_3(tmp_path, capsys):
    code, _, err = run(["compile", "--layers", "13", "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 3 and err.startswith("capacity: 13 layers")
    assert not (tmp_path / "out").exists()


def test_compile_emits_report(tmp_path, capsys):
    code, out, _ = run(["compile", "--layers", "1", "--scheme", "eraser",
                        "--mode", "full", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "compile_report.json").read_text())
    assert report["scheme"] == "tcg-eraser"
    assert set(report) >= {"mode", "scheme", "N1q", "N2q", "depth", "groups"}
    # one layer: route-down and route-up share the router pass; each transfer group is its own
    assert report["metadata"]["counters"] == {"passes_built": 7, "passes_appended": 8}
    assert set(report["metadata"]) == {"timestamp", "version", "counters"}
    assert report["config"]["experiment"] == "compile" and report["config"]["layers"] == 1
    assert (tmp_path / "compiled_circuit.txt").read_text().startswith("# qroutesim-circuit v1")


def test_qst_subcommand(tmp_path, capsys):
    code, _, _ = run(["qst", "--theta", "0.785398", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "qst.json").read_text())
    assert blob["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert blob["mle_iterations"] is None
    assert blob["metadata"]["counters"] == {"router_runs": 1, "settings": 0}
    code, _, _ = run(["qst", "--theta", "0.785398", "--method", "mle", "--noisy",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "qst.json").read_text())
    assert blob["mle_iterations"] > 0
    assert blob["metadata"]["counters"] == {"router_runs": 2, "settings": 27}


_QST_RUNS = {
    "exact": ["--method", "exact", "--theta", "0.6", "--phi", "1.1"],
    "linear-inversion": ["--method", "linear-inversion", "--shots", "2000", "--seed", "9",
                         "--theta", "0.6", "--phi", "1.1"],
    "mle": ["--method", "mle", "--noisy", "--theta", "0.785398"],
}
_GOLDEN_QST_SHA256 = {
    ("eraser", "exact"): "291a953c4d45cc66cbe195bfe5e08bca39405e07c7d25e0bd8120c5c332481e5",
    ("eraser", "linear-inversion"): "4b182250c7addb54e25cd618d2ad7e10a1dd3759704d2c2f9bb7dc8aec30f30b",
    ("eraser", "mle"): "b5c763a23567cfbc0898da71340fa4dc11a76f6349b4db16520d5d452bd73fcf",
    ("non-eraser", "exact"): "8b898830d6c85df5d231ce268fc00aabf20942d44333a6121dd676eb3a703aaf",
    ("non-eraser", "linear-inversion"): "adaf381f4df86b1bee135e2237b632996d16f6c89a3de1deb508c3ef4b6404e5",
    ("non-eraser", "mle"): "9d5313e7a5d09600b9b6b3c1da4a0cc30b9e20043b9fad4a5e93e791f4474b78",
}


@pytest.mark.parametrize("scheme, method", sorted(_GOLDEN_QST_SHA256))
def test_qst_csv_golden_digest(scheme, method, tmp_path, capsys):
    assert run(["qst", "--scheme", scheme, *_QST_RUNS[method], "--out-dir", str(tmp_path)],
               capsys)[0] == 0
    digest = hashlib.sha256((tmp_path / "qst.csv").read_bytes()).hexdigest()
    assert digest == _GOLDEN_QST_SHA256[scheme, method]


def test_floquet_subcommand(tmp_path, capsys):
    code, _, _ = run(["floquet", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "floquet.json").read_text())
    assert blob["cost"] == pytest.approx(1.0)
    m = blob["config"]["m_repeats"]
    assert blob["metadata"]["counters"] == {"gate_applications": 2 * m,
                                            "closed_form_rows": 2 * m + 1}
    rows = (tmp_path / "floquet.csv").read_text().splitlines()
    assert len(rows) == 2 + 2 * m + 1


def test_rat_subcommand_small(tmp_path, capsys):
    code, _, _ = run(["rat", "--noisy", "--n-max", "3", "--trials", "2",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "rat.json").read_text())
    assert 0.0 <= blob["fit_f_rat"] <= 1.0
    assert isinstance(blob["fit_converged"], bool) and blob["fit_iterations"] > 0
    assert 0.0 <= blob["fit_optimality"] <= 1e-8 and blob["fit_active_bounds"] == []
    kept = blob["postselection_kept"]
    assert len(kept) == 4 and 0.0 < kept[-1] < kept[0] < 1.0
    rows = (tmp_path / "rat.csv").read_text().splitlines()
    assert rows[1] == "depth,m_rat" and len(rows) == 6
    # a one-trial paper-depth curve whose fit ends with l1 on its lower bound,
    # and one whose fit ends inside the box
    for scheme, leak, seed, active in (("non-eraser", 0.403, 1716840369, ("l1",)),
                                       ("eraser", 0.0, 518677876, ())):
        r = rat_single(30, scheme, NoiseModel(reference_rates(), LeakageSpec(leak)),
                       trials=1, seed=seed)
        assert r.fit_active_bounds == active and 0.0 <= r.fit_optimality <= 1e-8


def test_rat_json_counts_router_runs_and_oracle_hits(tmp_path, capsys):
    code, _, _ = run(["rat", "--noisy", "--n-max", "3", "--trials", "2",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    counters = json.loads((tmp_path / "rat.json").read_text())["metadata"]["counters"]
    # the noisy runner runs the router twice per paired block and once per
    # readout; the ideal one once per distinct address, memoised after that,
    # and only through its first pass, so it builds that one ρ program
    distinct = len({name for t in range(2) for name in draw_addresses(2024, t, 4)})
    assert counters == {"noisy": {"router_runs": 2 * (2 * 3 + 1), "programs_built": 2},
                        "ideal": {"router_runs": distinct, "programs_built": 1,
                                  "oracle_hits": 2 * 4 - distinct}}
    r = rat_single(3, "eraser", NoiseModel(reference_rates()), trials=2, seed=2024)
    lines = [SCHEMA, "depth,m_rat"] + [f"{n},{_fmt(float(m))}" for n, m in enumerate(r.m_values)]
    assert (tmp_path / "rat.csv").read_text() == "\n".join(lines) + "\n"


def test_python_m_runs_the_cli(tmp_path):
    src = Path(qroutesim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-m", "qroutesim", "counts", "--scheme", "tcg-eraser"],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0 and out.stdout == "6 6 12\n"


_NO_SCIPY_UNTIL_FIT = """
import sys
import qroutesim, qroutesim.cli as cli
for argv in (["theta-scan", "--grid-points", "5"], ["phi-scan", "--grid-points", "5"],
             ["qst", "--method", "linear-inversion", "--shots", "10"], ["floquet"],
             ["noise-curves", "--grid-points", "5"], ["compile", "--layers", "2"], ["counts"],
             ["layout", "--grid", "6x6", "--layers", "2"]):
    assert cli.main([*argv, "--out-dir", sys.argv[1]]) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]
from qroutesim import rat
rat.fit_rat([0, 1, 2, 3], rat.rat_model([0, 1, 2, 3], 0.1, 0.9, 0.95))
assert "scipy.optimize" in sys.modules
"""


def test_fresh_process_loads_scipy_only_to_fit(tmp_path):
    """Every subcommand but rat/rat2 runs without importing scipy; the
    F_RAT fit imports scipy.optimize when it is first called."""
    src = Path(qroutesim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_UNTIL_FIT, str(tmp_path)],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr


def test_example_config_parses(tmp_path, capsys):
    cfg = tmp_path / "example.ini"
    cfg.write_text(example_config())
    code, _, _ = run(["counts", "--config", str(cfg), "--scheme", "tcg-eraser"], capsys)
    assert code == 0


def test_rat2_echoes_effective_depth(tmp_path, capsys):
    code, _, _ = run(["rat2", "--n-max", "8", "--trials", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "rat2.json").read_text())
    assert blob["config"]["n_max"] == 8
    assert '"n_max": 8' in (tmp_path / "rat2.json").read_text()
    assert len((tmp_path / "rat2.csv").read_text().splitlines()) == 2 + 9
    assert isinstance(blob["fit_converged"], bool) and blob["fit_iterations"] > 0
    assert 0.0 <= blob["fit_optimality"] <= 1e-8
    assert set(blob["fit_active_bounds"]) <= {"l1", "l2", "F"}
    assert blob["postselection_kept"] == pytest.approx([1.0] * 9, abs=1e-12)
    counters = blob["metadata"]["counters"]
    assert set(counters) == {"noisy", "ideal"}
    # the noisy runner looks up three maps per readout and four per paired
    # block (two leaf maps and the two root passes)
    assert sum(counters["noisy"].values()) == 3 * 9 + 4 * 8
    assert counters["noisy"]["root_maps_built"] >= 1 and counters["ideal"]["leaf_maps_built"] >= 1
    assert counters["noisy"]["router_superops_built"] == 2
    assert counters["ideal"]["router_superops_built"] == 0


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


def test_scans_and_qst_run_the_configured_gate_times(tmp_path, capsys):
    """Doubled gate times change the noisy CSVs; the default times, given
    explicitly, and a noiseless run leave them as they are."""
    (tmp_path / "slow.ini").write_text("[noise]\nsqrt_cz_ns = 50\nsingle_ns = 60\n")
    (tmp_path / "same.ini").write_text("[noise]\nsqrt_cz_ns = 25\nsingle_ns = 30\n")
    for argv in (["theta-scan", "--grid-points", "11"], ["phi-scan", "--grid-points", "11"],
                 ["qst", "--theta", "0.7"]):
        for noisy in ([], ["--noisy"]):
            csv = {}
            for ini in ("", "same.ini", "slow.ini"):
                out = tmp_path / f"{argv[0]}{len(noisy)}{ini}"
                extra = ["--config", str(tmp_path / ini)] if ini else []
                assert run([*argv, *noisy, *extra, "--out-dir", str(out)], capsys)[0] == 0
                csv[ini] = next(out.glob("*.csv")).read_bytes()
            assert csv["same.ini"] == csv[""]
            assert (csv["slow.ini"] != csv[""]) == bool(noisy)


def test_negative_float_with_exponent_as_separate_value(tmp_path):
    # argparse alone reads "-1e-3" as an unknown option and exits 2
    for form, argv in (("joined", ["--theta=-1e-3"]), ("split", ["--theta", "-1e-3"])):
        assert main(["qst", *argv, "--phi", "-2E-1", "--out-dir", str(tmp_path / form)]) == 0
    joined, split = (next((tmp_path / form).glob("*.csv")).read_bytes()
                     for form in ("joined", "split"))
    assert joined == split
