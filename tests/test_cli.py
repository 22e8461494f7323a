"""Command-line interface: artifacts, config resolution, exit codes.

Exit code contract: 0 success, 2 configuration errors, 3 I/O errors,
4 event-log parse errors, 5 broken internal checks.  Most tests drive main()
in process; one runs the entry point declared in pyproject.toml as a
subprocess, through the installed console script when this interpreter has
one.  Fresh interpreters also check that plain runs import neither SciPy nor
argparse and that the benchmark's traced mode still finds the names it
wraps.  The plain command-line reader is held to argparse, which reads
every other command line.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swapengine as se
from swapengine import cli
from swapengine import stats as stats_module

GENERIC = "generic:" + ",".join(str(x / 10) for x in range(1, 16))


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which strict JSON lacks."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_analytic_prints_the_closed_form_table(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analytic"]) == 0
    out = capsys.readouterr().out
    assert "HeatEngine" in out
    assert "0.16666666666666663" in out  # eta
    assert "relaxation time" in out


def test_analytic_json_report(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analytic", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regime"] == "HeatEngine"
    assert report["efficiencies"]["eta"] == 0.16666666666666663
    assert report["per_pulse"]["w"] == pytest.approx(-0.0060504858665983525,
                                                     rel=1e-15)
    assert report["post_swap_betas"] == pytest.approx([5.0 / 6.0, 0.8],
                                                      rel=1e-15)
    assert report["max_power"]["omega_ratio"] == pytest.approx(
        0.8307943159126298, abs=1e-6)
    assert report["config"]["gate"] == "swap"


def test_analytic_json_reports_the_low_etaC_series_beside_eta_star(capsys, monkeypatch,
                                                                   tmp_path):
    monkeypatch.chdir(tmp_path)
    for beta1, beta2 in ((2.0 / 3.0, 1.0), (1.98, 2.0)):
        assert cli.main(["analytic", "--beta1", repr(beta1), "--beta2", repr(beta2),
                         "--json"]) == 0
        max_power = _strict_json(capsys.readouterr().out)["max_power"]
        series = max_power["low_etaC_expansion"]
        assert series == se.low_etaC_expansion(beta2)._asdict()
    # at eta_C = 0.01 the two terms give eta* within 0.2*eta_C^3
    eta_c = 1.0 - beta1 / beta2
    assert abs(max_power["eta_star"] - series["linear_coeff"] * eta_c
               - series["quad_coeff"] * eta_c ** 2) <= 0.2 * eta_c ** 3


def test_analytic_max_power_point_is_that_of_the_configured_omega1(capsys, monkeypatch,
                                                                  tmp_path):
    # halving both betas and doubling both spacings keeps every beta*omega
    # product of the working point: the max-power point has its ratio, eta*
    # and low-eta_C series, and twice its work per pulse, in every scan row too
    monkeypatch.chdir(tmp_path)
    doubled = ["--beta1", "0.3333333333333333", "--beta2", "0.5",
               "--omega1", "2", "--omega2", "1.6666666666666667"]
    assert cli.main(["analytic", "--json", *doubled]) == 0
    max_power = _strict_json(capsys.readouterr().out)["max_power"]
    assert (max_power["omega_ratio"], max_power["eta_star"],
            max_power["low_etaC_expansion"]["quad_coeff"]) == \
        (0.8307943159126296, 0.16920568408737036, 0.02888232232875061)
    assert max_power["w_max"] == 2 * 0.006051893201542406
    assert cli.main(["analytic", "--json", *doubled, "--scan-eta-mp", "0.4:1.0:4"]) == 0
    rows = _strict_json(capsys.readouterr().out)["scan"]
    assert cli.main(["analytic", "--json", "--scan-eta-mp", "0.8:2.0:4"]) == 0
    unit_rows = _strict_json(capsys.readouterr().out)["scan"]
    assert rows == [r | {"beta2": r["beta2"] / 2, "w_max": 2 * r["w_max"]} for r in unit_rows]
    # beta2*omega1 = 1e310 overflows, so that engine's max-power point has no float window
    assert cli.main(["analytic", "--json", "--beta1", "1e-300", "--beta2", "1e300",
                     "--omega1", "1e10", "--omega2", "1e-305"]) == 0
    assert _strict_json(capsys.readouterr().out)["max_power"] is None
    assert cli.main(["analytic", "--beta1", "1e-300", "--beta2", "1e300",
                     "--omega1", "1e10", "--omega2", "1e-305"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.endswith("  skipped (needs beta1*omega1 < beta2*omega1 < inf in floats)")


def test_analytic_scan_rows_cover_the_requested_beta2_grid(capsys,
                                                           monkeypatch,
                                                           tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analytic", "--scan-eta-mp", "0.8:2.0:4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["scan"]
    assert [r["beta2"] for r in rows] == pytest.approx([0.8, 1.2, 1.6, 2.0])
    for r in rows:
        assert r["eta_star"] == pytest.approx(1.0 - r["omega_star"], rel=1e-12)
        assert 0.0 < r["eta_star"] < r["eta_carnot"]
        assert r["w_max"] > 0.0


def test_analytic_outside_the_engine_window_reports_no_max_power(capsys,
                                                                 monkeypatch,
                                                                 tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analytic", "--beta1", "1", "--beta2", "1", "--json"]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["max_power"] is None
    assert report["efficiencies"]["cop_carnot"] is None
    assert cli.main(["analytic", "--beta1", "1", "--beta2", "1"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("max power ") and last.endswith("  skipped (needs 0 < beta1 < beta2)")


def test_analytic_scan_without_a_grid_sweeps_19_carnot_efficiencies(capsys, monkeypatch,
                                                                     tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analytic", "--scan-eta-mp", "--json"]) == 0
    rows = _strict_json(capsys.readouterr().out)["scan"]
    assert [r["eta_carnot"] for r in rows] == pytest.approx(np.linspace(0.05, 0.95, 19))
    assert cli.main(["analytic", "--scan-eta-mp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the human form ends in the columns' line and one line per grid point
    columns = lines[-20].split(",")
    assert columns == ["beta2", "eta_carnot", "omega_star", "eta_star", "eta_ca", "w_max"]
    assert [[float(x) for x in line.split(",")] for line in lines[-19:]] == \
        [[r[c] for c in columns] for r in rows]


def test_simulate_writes_summary_and_histograms(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["simulate", "--samples", "400", "--pulses", "10",
                   "--tau2", "0.65", "--seed", "3", "--out-dir", "run"])
    assert rc == 0
    out_dir = tmp_path / "run"
    for name in ("summary.json", "hist_nw.csv", "hist_joint.csv",
                 "hist_eta.csv", "log_ratio.csv"):
        assert (out_dir / name).is_file()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["sample_size"] == 400
    assert summary["engine_lane"] == "bits"
    assert summary["rigidity_violations"] == 0
    assert summary["quantization_violations"] == 0
    assert set(summary["means"]) == {"dE1", "dE2", "q1", "q2", "w"}
    value, std_err = summary["integral_ft"]
    assert abs(value - 1.0) < 5.0 * std_err
    counts = [int(line.split(",")[1])
              for line in (out_dir / "hist_nw.csv").read_text().splitlines()[1:]]
    assert sum(counts) == 400
    # the path is echoed as given on the command line
    assert "run/summary.json" in capsys.readouterr().out


def test_single_sample_outputs_are_strict_json(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--samples", "1", "--pulses", "3",
                     "--tau2", "0.5", "--out-dir", "one"]) == 0
    summary = _strict_json((tmp_path / "one" / "summary.json").read_text())
    assert summary["sample_size"] == 1
    assert all(se_ is None for _, se_ in summary["means"].values())
    assert summary["integral_ft"][1] is None
    capsys.readouterr()
    assert cli.main(["power-scan", "--samples", "1", "--n-list", "1,2",
                     "--json", "--out-dir", "ps"]) == 0
    rows = _strict_json(capsys.readouterr().out)["rows"]
    assert [r["work_se"] for r in rows] == [None, None]
    lines = (tmp_path / "ps" / "power_scan.csv").read_text().splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["", ""]


def test_simulate_json_mode_prints_the_summary(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--samples", "50", "--pulses", "3",
                     "--tau2", "0.5", "--json", "--out-dir", "jr"]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((tmp_path / "jr" / "summary.json").read_text())
    assert printed == on_disk


def test_simulate_warns_when_one_ledger_carries_the_integral_ft_estimate(capsys, monkeypatch,
                                                                       tmp_path):
    # at 10^4 pulses the weight W = exp(-(beta1*omega1 - beta2*omega2)*n_w)
    # has the exact E[W^2] = 6.25e37, so 10^4 trajectories cannot resolve
    # its mean at any seed, and the estimate lies many of its own errors
    # below 1
    monkeypatch.chdir(tmp_path)
    for seed in (0, 1):
        assert cli.main(["simulate", "--pulses", "10000", "--samples", "10000",
                         "--seed", str(seed), "--out-dir", "long"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "E[W^2] = 6.25e+37 on this run" in lines[0]
        assert "the run drew 10000" in lines[0]
        assert "standard error does not bound" in lines[0]
        value, std_err = _strict_json(
            (tmp_path / "long" / "summary.json").read_text())["integral_ft"]
        assert value + 100.0 * std_err < 1.0
    # the benchmark's ensemble run, 10^5 trajectories of 100 pulses at the
    # working point, where E[W^2] = 2.39
    working_point = ["--beta1", repr(2.0 / 3.0), "--beta2", "1.0", "--omega1", "1.0",
                     "--omega2", repr(5.0 / 6.0), "--gamma", "1.0"]
    for seed in (1, 2, 3):
        assert cli.main(["simulate", *working_point, "--pulses", "100", "--tau2", "0.65",
                         "--samples", "100000", "--seed", str(seed), "--out-dir", "sim"]) == 0
        assert capsys.readouterr().err == ""
    # at strong affinity E[W^2] overflows, which warns too
    assert cli.main(["simulate", "--beta1", "0.05", "--beta2", "30", "--omega2", "0.5",
                     "--samples", "1000", "--out-dir", "strong"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "E[W^2] beyond the float range on this run" in lines[0]
    # generic gates have no exact moment yet: one ledger carrying over half
    # the weight sum is flagged, as a single trajectory's always is
    assert cli.main(["simulate", "--gate", GENERIC, "--pulses", "2", "--samples", "1",
                     "--out-dir", "generic"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "rests on one ledger, LedgerKey(" in lines[0]
    assert "standard error does not bound" in lines[0]


@settings(derandomize=True, database=None, deadline=None)
@given(gate=st.sampled_from(("swap", "iswap", GENERIC)), emit_logs=st.booleans(),
       samples=st.integers(1, 20), pulses=st.integers(0, 4),
       seed=st.integers(0, 1000), as_json=st.booleans())
def test_simulate_reruns_are_byte_identical(gate, emit_logs, samples, pulses,
                                            seed, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "rep"
        args = ["simulate", "--gate", gate, "--samples", str(samples),
                "--pulses", str(pulses), "--tau2", "0.5", "--seed", str(seed),
                "--out-dir", str(out_dir)]
        args += ["--emit-logs"] * emit_logs + ["--json"] * as_json
        runs = []
        for _ in range(2):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert cli.main(args) == 0
            runs.append((printed.getvalue(), _snapshot(out_dir)))
        assert runs[1] == runs[0]
        logs = [name for name in runs[0][1] if name.startswith("events/")]
        assert len(logs) == (samples if emit_logs else 0)


# SHA-256 digests of simulate's files, taken when the streams became
# SplitMix64 in counter mode, on x86-64 Linux (another libm may round exp
# and log apart): the benchmark's ensemble command line at three seeds, and
# summary.json of its 500 x 25 --emit-logs run
PINNED_ARTIFACTS = {
    "ensemble-seed1": (["--pulses", "100", "--samples", "100000", "--seed", "1"], {
        "hist_eta.csv": "bf156e0fe25f4ec3ba5032a5a0dbbc7c2c0539e9f8057636febdc2a5dc9fda67",
        "hist_joint.csv": "a91a649f7b2ab10780706ad5e404b11ab3ec665313eec1d7ef8a92cc10933934",
        "hist_nw.csv": "1787d348c422c949dfc10f46003bcf4dff9d154acfa294e20060327ae3253d3f",
        "log_ratio.csv": "be70d461fcc16797d7bd3b4143db9393499d32144098734b099fa8cf64a8ae5c",
        "summary.json": "4e7d6e8bb667ad56b1d4eaa09bf290e27708126cc2aa6841f0ab2a1e573045f4"}),
    "ensemble-seed2": (["--pulses", "100", "--samples", "100000", "--seed", "2"], {
        "hist_eta.csv": "45024a41216ca2e37d69db7ab2322f595062e3564941d0a3c986ebda23123dcc",
        "hist_joint.csv": "c47538f3378fe3955aacd0338edf286dc950dea3be90c22a5770410a306ebcb7",
        "hist_nw.csv": "8e81a2ad7270109015d654b42ce0d927fb51fd9d796da74b206ea60563189755",
        "log_ratio.csv": "23d084b8cea8ad1a2d64b10ac26c74230ed9554385353d948064fd9000d92d61",
        "summary.json": "43ab5d4651b17221324f583d59f40e76e97002bfbf97a84fa085ccc2f2fd020d"}),
    "ensemble-seed3": (["--pulses", "100", "--samples", "100000", "--seed", "3"], {
        "hist_eta.csv": "dae2d48c2ae8d9cbbe689ff0fbd2aa448512d40e54a7901dad84d1c5575a171f",
        "hist_joint.csv": "516b62543a391608c1bfe48b6dce5de06dc08be2e714283ba358b20bed5d801a",
        "hist_nw.csv": "bdeac5315529913f6b8d1ea23be4f7b32802d2dbb6b79d6fcfdeb52748995876",
        "log_ratio.csv": "6a181227c150a97ea7cfb48d1cfb6c9d10ff2b38109a7d8b131b881423bf80d8",
        "summary.json": "319f379dbd36969c261269d8c5aecfec264d19b77d2e589fc32ca3d9ebcb04c3"}),
    "emit-logs": (["--pulses", "25", "--samples", "500", "--seed", "4", "--emit-logs"], {
        "summary.json": "93c394eb45d8d07e0cbff5099fc111027e352bc6509a017db2dd16ef0b394b38"}),
}


@pytest.mark.parametrize("flags,digests", PINNED_ARTIFACTS.values(), ids=PINNED_ARTIFACTS)
def test_simulate_artifacts_match_their_pinned_digests(monkeypatch, tmp_path, flags, digests):
    # a relative --out-dir, since summary.json echoes the output folder
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", *WORKING_POINT, "--tau2", "0.65", *flags,
                         "--out-dir", "sim"]) == 0
    assert {name: hashlib.sha256((tmp_path / "sim" / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_simulate_lane_selection_follows_the_gate(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for gate, lane in (("swap", "bits"), ("iswap", "bits"),
                       (GENERIC, "events")):
        out = f"lane_{lane}_{gate[:4]}"
        assert cli.main(["simulate", "--gate", gate, "--samples", "30",
                         "--pulses", "3", "--tau2", "0.5",
                         "--out-dir", out]) == 0
        summary = json.loads((tmp_path / out / "summary.json").read_text())
        assert summary["engine_lane"] == lane
    # generic gates have no integer work lattice, so no histograms
    gen_dir = tmp_path / f"lane_events_{GENERIC[:4]}"
    assert sorted(p.name for p in gen_dir.iterdir()) == ["summary.json"]
    summary = json.loads((gen_dir / "summary.json").read_text())
    assert summary["log_ratio_slope"] is None
    # nor efficiency tallies: a generic-gate ledger has no n_w to count
    assert summary["eta_infinite"] is None
    assert summary["eta_undefined"] is None


def test_config_file_values_yield_to_explicit_flags(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("# engine settings\nsamples=200\nseed=7\npulses=3\n"
                   "tau2=0.5\n")
    assert cli.main(["simulate", "--config", str(cfg), "--samples", "120",
                     "--out-dir", "prec"]) == 0
    summary = json.loads((tmp_path / "prec" / "summary.json").read_text())
    assert summary["sample_size"] == 120   # flag wins
    assert summary["config"]["seed"] == 7  # file fills the rest
    assert summary["config"]["pulses"] == 3


def test_config_echo_reproduces_the_run(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--samples", "80", "--pulses", "4",
                     "--tau2", "0.7", "--seed", "9", "--beta1", "0.6",
                     "--out-dir", "orig"]) == 0
    summary = json.loads((tmp_path / "orig" / "summary.json").read_text())
    echo = dict(summary["config"])
    echo.pop("out_dir")
    lines = [f"{k}={json.dumps(v) if isinstance(v, bool) else v}"
             for k, v in echo.items()]
    (tmp_path / "echo.cfg").write_text("\n".join(lines) + "\n")
    assert cli.main(["simulate", "--config", str(tmp_path / "echo.cfg"),
                     "--out-dir", "again"]) == 0
    orig = _snapshot(tmp_path / "orig")
    again = _snapshot(tmp_path / "again")
    assert orig.keys() == again.keys()
    for name in orig:
        if name != "summary.json":
            assert again[name] == orig[name], name
    replay = json.loads(again["summary.json"])
    replay["config"].pop("out_dir")
    original = json.loads(orig["summary.json"])
    original["config"].pop("out_dir")
    assert replay == original


def test_tau2_can_be_given_as_a_relaxation_multiple(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--samples", "10", "--pulses", "2",
                     "--tau2-relax-multiple", "2.0", "--out-dir", "m"]) == 0
    summary = json.loads((tmp_path / "m" / "summary.json").read_text())
    cfg = se.EngineConfig(2.0 / 3.0, 1.0, 1.0, 5.0 / 6.0)
    assert summary["config"]["tau2"] == 2.0 * se.relaxation_time(cfg)


def test_emit_logs_then_analyze_recovers_every_trajectory(capsys, monkeypatch,
                                                          tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--samples", "6", "--pulses", "4",
                     "--tau2", "0.5", "--seed", "1", "--emit-logs",
                     "--out-dir", "sim"]) == 0
    logs = sorted(str(p) for p in (tmp_path / "sim" / "events").iterdir())
    assert len(logs) == 6
    capsys.readouterr()
    assert cli.main(["analyze", *logs, "--pulses", "4", "--tau2", "0.5",
                     "--json", "--out-dir", "ana"]) == 0
    rows = json.loads(capsys.readouterr().out)["trajectories"]
    assert len(rows) == 6
    for row in rows:
        assert row["survivors"] >= 1
        assert row["w_refined"] is not None
    csv_lines = (tmp_path / "ana" / "reconstruction.csv").read_text().splitlines()
    assert csv_lines[0] == "file,q1,q2,dE1,dE2,w,n_w,w_refined,survivors"
    assert len(csv_lines) == 7


def test_analyze_naive_mode_skips_the_refinement(capsys, monkeypatch,
                                                 tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--samples", "2", "--pulses", "3",
                     "--tau2", "0.5", "--seed", "4", "--emit-logs",
                     "--out-dir", "sim"]) == 0
    logs = sorted(str(p) for p in (tmp_path / "sim" / "events").iterdir())
    capsys.readouterr()
    assert cli.main(["analyze", *logs, "--naive", "--json",
                     "--out-dir", "nv"]) == 0
    for row in json.loads(capsys.readouterr().out)["trajectories"]:
        assert row["survivors"] == 0
        assert row["w_refined"] is None
        assert row["n_w"] is None


def test_analyze_refines_pulse_free_logs(capsys, monkeypatch, tmp_path):
    # with no pulse no work is done: every log keeps a survivor and refines
    # to w = 0, though the naive w = q1 + q2 need not vanish
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--samples", "20", "--pulses", "0",
                     "--tau2", "0.7", "--seed", "5", "--emit-logs",
                     "--out-dir", "sim"]) == 0
    logs = sorted(str(p) for p in (tmp_path / "sim" / "events").iterdir())
    capsys.readouterr()
    assert cli.main(["analyze", *logs, "--pulses", "0", "--tau2", "0.7",
                     "--json", "--out-dir", "ana"]) == 0
    rows = json.loads(capsys.readouterr().out)["trajectories"]
    assert len(rows) == 20
    for row in rows:
        assert row["survivors"] >= 1
        assert row["w_refined"] == 0
        assert row["n_w"] == 0


def test_power_scan_writes_one_row_per_pulse_count(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["power-scan", "--samples", "200", "--n-list", "1,2,5",
                     "--t-op-multiple", "5", "--seed", "2",
                     "--out-dir", "ps"]) == 0
    lines = (tmp_path / "ps" / "power_scan.csv").read_text().splitlines()
    assert lines[0] == "n_pulses,tau2,work_output,work_se,power,eta"
    assert len(lines) == 4
    etas = {line.split(",")[-1] for line in lines[1:]}
    assert etas == {"0.16666666666666663"}


def test_power_scan_refuses_a_generic_gate_and_runs_the_swap_family(
        capsys, monkeypatch, tmp_path):
    # the scan folds the swap on the bit lane, whose law every swap-family
    # gate shares; a generic gate is refused before out/ is made
    monkeypatch.chdir(tmp_path)
    argv = ["power-scan", "--n-list", "1,2", "--samples", "10", "--json"]
    assert cli.main([*argv, "--gate", "generic:" + ",".join(["1"] * 15)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "swap-family" in err
    assert not (tmp_path / "out").exists()
    rows = []
    for gate in ("swap", "iswap", "swap:0.3,-1.2,2,0.7"):
        assert cli.main([*argv, "--gate", gate]) == 0
        rows.append(json.loads(capsys.readouterr().out)["rows"])
    assert rows[1] == rows[0] and rows[2] == rows[0]


def test_opt_gate_reports_the_swap_value(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["opt-gate", "--restarts", "2", "--seed", "0",
                     "--out-dir", "og"]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((tmp_path / "og" / "opt_gate.json").read_text())
    assert printed == on_disk
    cfg = se.EngineConfig(2.0 / 3.0, 1.0, 1.0, 5.0 / 6.0)
    swap_out = -se.mean_energetics(cfg).w
    assert printed["best_w"] == pytest.approx(swap_out, rel=1e-9)
    assert printed["swap_work_output"] == pytest.approx(swap_out, rel=1e-15)
    assert printed["gap_to_swap"] >= -1e-9
    assert printed["gap_to_swap"] == 0.0
    assert printed["best_w"] == -printed["optimum"]["w"]
    assert printed["optimum"]["eta"] == pytest.approx(1.0 / 6.0, rel=1e-9)
    assert len(printed["best_angles"]) == 15


def test_opt_gate_output_ignores_seed_and_restarts(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    text = []
    for seed, restarts in (("0", "1"), ("5", "9"), ("0", "1")):
        assert cli.main(["opt-gate", "--seed", seed, "--restarts", restarts,
                         "--out-dir", "og"]) == 0
        text.append((tmp_path / "og" / "opt_gate.json").read_bytes())
    assert text[0] == text[2]
    reports = [json.loads(t) for t in text[:2]]
    assert [r.pop("restarts") for r in reports] == [1, 9]
    assert [r["config"].pop("seed") for r in reports] == [0, 5]
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "args,code,fragment",
    [
        (["simulate", "--beta1", "2", "--beta2", "1", "--samples", "5"],
         2, "must not exceed beta2"),
        (["simulate", "--samples", "5", "--tau2", "0.5",
          "--tau2-relax-multiple", "2"], 2, "not both"),
        (["simulate", "--gate", "swap:1,2", "--samples", "5"],
         2, "bad gate angle list"),
        (["simulate", "--gate", "bogus", "--samples", "5"],
         2, "unknown gate 'bogus'"),
        (["simulate", "--samples", "0"], 2, "sample"),
        (["analytic", "--scan-eta-mp", "0.1:0.3:3"],
         2, "beta1 < lo < hi"),
        (["analyze", "no-such-file.log"], 3, "No such file"),
        (["simulate", "--seed", "-1", "--samples", "5"], 2, "seed must be >= 0"),
        (["analytic", "--beta1", "800", "--beta2", "900"], 2, "beta1*omega1"),
        (["analytic", "--json", "--gamma", "1e-320"], 2, "out of the float range"),
        (["opt-gate", "--beta1", "0.5", "--beta2", "1", "--omega1", "1",
          "--omega2", "0.4"], 2, "heat-engine"),
        # the bit lane below is patched to hand back a broken ledger
        (["power-scan", "--samples", "4", "--n-list", "3"],
         5, "internal check failed: ledger broken"),
        (["simulate", "--gate", "swap:nan,0,0,0", "--pulses", "2",
          "--samples", "3", "--emit-logs"], 2, "bad gate angle list"),
        (["simulate", "--gate", "swap:inf,0,0,0", "--pulses", "2",
          "--samples", "3", "--emit-logs"], 2, "bad gate angle list"),
        # gamma*(n1+1) overflows to inf; so does n2 at a subnormal omega2
        (["simulate", "--gamma", "1e308", "--pulses", "2", "--samples", "3",
          "--emit-logs"], 2, "needs finite jump rates"),
        (["simulate", "--omega2", "1e-320", "--pulses", "3", "--samples", "5",
          "--emit-logs"], 2, "needs finite jump rates"),
        # finite rates whose expected jump count per run is beyond the budget
        (["simulate", "--gamma", "1e200", "--pulses", "1", "--samples", "1",
          "--emit-logs"], 2, "jump budget"),
        (["simulate", "--beta1", "1e-200", "--omega1", "1e-200", "--samples", "5"],
         2, "beta1*omega1 must be positive"),
        (["power-scan", "--beta1", "1e-200", "--omega1", "1e-200", "--samples", "5"],
         2, "beta1*omega1 must be positive"),
        # w/q1 is about 1e318, whose 0.01-wide bin index is infinite
        (["simulate", "--omega1", "1e-320", "--omega2", "0.01", "--beta2", "100",
          "--samples", "5"], 2, "no finite 0.01-wide bin"),
        # at n_w = 2 and h1 = 1, |w/q1| = 2*(omega1 - omega2)/omega1 is about
        # 2e307, whose bin index overflows: the run is refused before it
        # writes a log, whichever trajectories the seed draws
        (["simulate", "--emit-logs", "--beta1", "1", "--beta2", "1",
          "--omega1", "1e-307", "--omega2", "1", "--gamma", "1e-307",
          "--samples", "5", "--pulses", "10"], 2, "no finite 0.01-wide bin"),
        # a generic gate has no work lattice for the refinement to fill in;
        # the run is refused before its log is read
        (["analyze", "--gate", "generic:" + ",".join(
            map(str, np.linspace(0.2, 2.0, 15))), "--pulses", "5", "--tau2",
          "0.5", "trajectory_00000.log"], 2, "needs a swap-family gate"),
        # an infinite bound is refused before the grid is built
        (["analytic", "--scan-eta-mp", "0.8:inf:3"], 2, "beta1 < lo < hi"),
        # bad.log below holds a byte that is not UTF-8
        (["analyze", "bad.log", "--naive"], 4, "bad.log:1: invalid UTF-8 byte 0xff"),
        (["simulate", "--config", "bad.log"], 2, "bad.log:1: invalid UTF-8 byte 0xff"),
        # every bin is finite, but w = (omega1 - omega2)*n_w can overflow
        (["simulate", "--beta1", "1e-300", "--omega1", "1e300", "--omega2", "1",
          "--pulses", "1000000000", "--samples", "5"], 2, "is not finite"),
        # a generic gate's work error squares omega1, which overflows
        (["simulate", "--gate", GENERIC, "--omega1", "1e160", "--omega2", "1e159",
          "--beta1", "1e-160", "--beta2", "1e-160", "--samples", "2", "--pulses", "1"],
         2, "out of the float range"),
        # the same refusal comes after the logs are written, and takes them back
        (["simulate", "--gate", GENERIC, "--omega1", "1e160", "--omega2", "1e159",
          "--beta1", "1e-160", "--beta2", "1e-160", "--samples", "2", "--pulses", "1",
          "--emit-logs"], 2, "out of the float range"),
        # every command echoes tau2, so every command refuses a bad one, also
        # those that build no pulse schedule
        (["opt-gate", "--tau2", "-3"], 2, "tau2 must be a finite positive time, got -3.0"),
        (["analytic", "--tau2", "-3", "--json"], 2, "tau2 must be a finite positive time"),
        (["opt-gate", "--tau2", "nan"], 2, "tau2 must be a finite positive time, got nan"),
        (["analytic", "--scan-eta-mp", "1:2:x"], 2, "bad scan grid '1:2:x'"),
        (["power-scan", "--n-list", "1,x"], 2, "bad pulse-count list '1,x'"),
        (["simulate", "--gate", "generic:" + ",".join(["0.1"] * 14)],
         2, "generic gate needs 15 angles, got 14"),
    ],
)
def test_error_exit_codes(capsys, monkeypatch, tmp_path, args, code,
                          fragment):
    monkeypatch.chdir(tmp_path)
    if args[0] == "power-scan":
        monkeypatch.setattr(stats_module, "_bit_lane_ledgers", _broken_chunks)
    (tmp_path / "bad.log").write_bytes(b"\xff\xfe 1 E\n")
    assert cli.main(args) == code
    assert fragment in capsys.readouterr().err
    if args[0] in ("simulate", "analyze") and code == 2:
        assert not (tmp_path / "out").exists()  # rejected before any output
        assert [p.name for p in tmp_path.iterdir()] == ["bad.log"]   # and no staged log


@pytest.mark.parametrize("first,second,gone", [
    # too few trajectories for the log-ratio fit: no log_ratio.csv
    (["--samples", "2000", "--pulses", "20"], ["--samples", "3"], "log_ratio.csv"),
    # a generic gate has no work lattice: no histograms
    (["--samples", "300", "--pulses", "5"],
     ["--gate", GENERIC, "--samples", "30", "--pulses", "3"], "hist_nw.csv"),
    # fewer logs than the run before
    (["--samples", "5", "--pulses", "3", "--emit-logs"],
     ["--samples", "3", "--pulses", "3", "--seed", "7", "--emit-logs"],
     "events/trajectory_00003.log"),
    # a run without logs leaves an earlier run's logs as they are
    (["--samples", "5", "--pulses", "3", "--emit-logs"], ["--samples", "3", "--pulses", "3"],
     None),
])
def test_a_rerun_leaves_what_a_fresh_run_writes(monkeypatch, tmp_path, first, second, gone):
    for folder in ("rerun", "fresh"):
        (tmp_path / folder).mkdir()
    monkeypatch.chdir(tmp_path / "rerun")
    assert cli.main(["simulate", *first, "--tau2", "0.5", "--out-dir", "out"]) == 0
    Path("out/events").mkdir(exist_ok=True)
    Path("out/events/notes.txt").write_text("kept\n")   # no run writes it, so every run keeps it
    earlier = _snapshot(Path("out"))
    assert cli.main(["simulate", *second, "--tau2", "0.5", "--out-dir", "out"]) == 0
    monkeypatch.chdir(tmp_path / "fresh")
    assert cli.main(["simulate", *second, "--tau2", "0.5", "--out-dir", "out"]) == 0
    left = {name: data for name, data in earlier.items() if name.startswith("events/")}
    if "--emit-logs" in second:
        left = {"events/notes.txt": b"kept\n"}
    rerun = _snapshot(tmp_path / "rerun" / "out")
    assert rerun == _snapshot(tmp_path / "fresh" / "out") | left
    assert gone is None or gone in earlier and gone not in rerun
    assert not list(tmp_path.rglob(".swapengine-*"))


@pytest.mark.parametrize("logs", [[], ["--emit-logs"]])
def test_a_refused_rerun_leaves_the_earlier_output_as_it_was(capsys, monkeypatch, tmp_path,
                                                              logs):
    # the generic-gate work error squares omega1 after the fold, past the float range
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--samples", "5", "--pulses", "3", "--emit-logs",
                     "--out-dir", "out"]) == 0
    earlier = _snapshot(tmp_path)
    assert cli.main(["simulate", "--gate", GENERIC, "--omega1", "1e160", "--omega2", "1e159",
                     "--beta1", "1e-160", "--beta2", "1e-160", "--samples", "2",
                     "--pulses", "1", "--out-dir", "out", *logs]) == 2
    assert "out of the float range" in capsys.readouterr().err
    assert _snapshot(tmp_path) == earlier
    assert not list(tmp_path.rglob(".swapengine-*"))


def test_reconstruction_csv_quotes_paths_with_commas_quotes_and_line_breaks(monkeypatch,
                                                                           tmp_path):
    monkeypatch.chdir(tmp_path)
    for folder in ("x,y", 'say "hi"', "two\nlines"):
        assert cli.main(["simulate", "--samples", "2", "--pulses", "3", "--tau2", "0.5",
                         "--emit-logs", "--out-dir", folder]) == 0
    logs = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.glob("*/events/*.log"))
    assert len(logs) == 6
    assert cli.main(["analyze", *logs, "--pulses", "3", "--tau2", "0.5", "--out-dir", "ana"]) == 0
    with open(tmp_path / "ana" / "reconstruction.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == logs
    assert {len(row) for row in rows} == {9}


def test_efficiency_bins_are_refused_only_where_one_overflows(monkeypatch, tmp_path):
    # |n_w/h1| <= 2 on every ledger with h1 != 0, so at omega1 = 1e-305 the
    # largest |eta| is about 2e305 and its bin index about 2e307: finite,
    # though the index at n_w/h1 = 100 would overflow
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--beta1", "1", "--beta2", "1", "--omega1", "1e-305",
                     "--omega2", "1", "--pulses", "100", "--out-dir", "ok"]) == 0
    bins = [float(row.split(",")[0]) for row in
            (tmp_path / "ok" / "hist_eta.csv").read_text().splitlines()[1:]]
    assert -3e305 < min(bins) < -1e305


def _broken_chunks(cfg, protocol, sample_size, seed):
    # index -1 on every row, which decodes to db1 = -2: no run's ledger
    yield np.full(sample_size, -1, dtype=np.int64)


def test_power_scan_passes_where_float_ratios_round_apart(monkeypatch,
                                                           tmp_path):
    # at these frequencies omega2*y and -(omega2/omega1)*(omega1*x) differ
    # by one rounding for many x, from |x| = 5 on, yet every ledger has
    # y = -x
    monkeypatch.chdir(tmp_path)
    assert cli.main(["power-scan", "--beta1", "0.2", "--beta2", "0.3",
                     "--omega1", "2.8510833966980074",
                     "--omega2", "1.0043112108304078",
                     "--samples", "200", "--n-list", "20"]) == 0


def test_out_dir_under_a_file_is_an_io_error(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("")
    assert cli.main(["simulate", "--samples", "5", "--pulses", "2",
                     "--tau2", "0.5", "--out-dir", "blocker/sub"]) == 3
    assert "I/O error" in capsys.readouterr().err


def test_running_out_of_memory_is_one_line_and_exit_3(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)

    def exhausted(*args):
        raise MemoryError("Unable to allocate 1.49 GiB for an array")
    monkeypatch.setattr(cli, "fold_ensemble", exhausted)
    assert cli.main(["simulate", "--samples", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate 1.49 GiB for an array\n"
    assert not (tmp_path / "out").exists()


def test_malformed_event_log_is_a_parse_error(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.log"
    bad.write_text("abc 1 E\n")
    assert cli.main(["analyze", str(bad), "--pulses", "1", "--tau2", "1"]) == 4
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "bad time 'abc'" in err


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("nosuchkey=1\n", "unknown config key 'nosuchkey'"),
        ("beta1=0.5\nbeta1=0.6\n", "duplicate config key 'beta1'"),
        ("samples=abc\n", "bad value 'abc' for key 'samples'"),
        ("beta1\n", "expected 'key = value', got 'beta1'"),
        ("emit_logs = maybe\n", "bad value 'maybe' for key 'emit_logs'"),
    ],
)
def test_config_file_errors_carry_file_and_line(capsys, monkeypatch, tmp_path,
                                                text, fragment):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "bad.cfg:" in err


# a value other than the default for every key of cli.KEYS, as flag text
KEY_VALUES = {
    "beta1": "0.5", "beta2": "1.5", "omega1": "1.25", "omega2": "0.75",
    "gamma": "2.5", "gate": "iswap", "pulses": "7", "tau2": "0.4",
    "tau2_relax_multiple": "2", "samples": "33", "seed": "9",
    "out_dir": "elsewhere", "emit_logs": "true", "json": "true",
}


@pytest.mark.parametrize("key", list(cli.KEYS))
def test_each_key_resolves_alike_from_its_flag_and_a_config_line(key,
                                                                 tmp_path):
    parser = cli._build_parser()
    flag = "--" + key.replace("_", "-")
    by_flag = [flag] if cli.KEYS[key][0] is bool else [flag, KEY_VALUES[key]]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {KEY_VALUES[key]}\n")
    echoes = [cli.resolve_config(parser.parse_args(["simulate", *argv])).echo()
              for argv in (by_flag, ["--config", str(cfg)], [])]
    assert echoes[0] == echoes[1] != echoes[2]


def _argparse_reading(argv):
    """_build_parser().parse_args(argv) as sorted (name, value) pairs, or None
    where argparse exits (its help and error text are swallowed)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return sorted(vars(cli._build_parser().parse_args(argv)).items())
        except SystemExit:
            return None


WORKING_POINT = ["--beta1", repr(2.0 / 3.0), "--beta2", "1.0", "--omega1", "1.0",
                 "--omega2", repr(5.0 / 6.0), "--gamma", "1.0"]
LOGS = [f"sim/events/trajectory_{k:05d}.log" for k in range(3)]

# the benchmark's command lines and the README examples but the one with
# --scan-eta-mp, plus a repeated flag, a config file and a flag before logs
PLAIN_COMMAND_LINES = [
    ["simulate", *WORKING_POINT, "--pulses", "100", "--tau2", "0.65", "--samples", "100000",
     "--seed", "911", "--out-dir", "sim"],
    ["simulate", *WORKING_POINT, "--pulses", "25", "--tau2", "0.65", "--samples", "500",
     "--seed", "931", "--emit-logs", "--out-dir", "sim"],
    ["analyze", *LOGS, *WORKING_POINT, "--pulses", "25", "--tau2", "0.65", "--out-dir", "ana"],
    ["opt-gate", *WORKING_POINT, "--restarts", "6", "--seed", "1001", "--out-dir", "gate0"],
    ["analytic"],
    ["simulate", "--samples", "1000000", "--pulses", "100", "--tau2", "0.65",
     "--seed", "2024", "--out-dir", "study"],
    ["power-scan", "--t-op-multiple", "30", "--n-list", "1,2,5,10,20,50,100,200"],
    ["analyze", *LOGS, "--pulses", "100", "--tau2", "0.65"],
    ["simulate", "--samples", "5", "--json", "--samples", "7", "--json"],
    ["simulate", "--config", "engine.cfg", "--gate", "iswap", "--tau2-relax-multiple", "2"],
    ["analyze", "--naive", *LOGS],
]


def test_plain_reader_reads_the_common_command_lines_as_argparse_does():
    for argv in PLAIN_COMMAND_LINES:
        plain = cli._read_plain(argv)
        assert plain is not None, argv
        assert sorted(vars(plain).items()) == _argparse_reading(argv), argv


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h"], ["simulate", "-h"], ["analyze", "--help", "a.log"],
    ["simulate", "--", "--json"], ["simulate", "--samples=3"], ["analytic", "--jso"],
    ["simulate", "--seed", "-1"], ["simulate", "--samples", "x"], ["simulate", "--samples"],
    ["analytic", "--scan-eta-mp", "0.8:2.0:7"], ["simulate", "--no-such-flag"],
    ["simulate", "a.log"], ["analyze"], ["analyze", "a.log", "--naive", "b.log"],
    ["opt-gate", "--restarts", "1.5"],
])
def test_plain_reader_leaves_help_errors_and_abbreviations_to_argparse(argv):
    assert cli._read_plain(argv) is None


# the flags that take one value, by type, with values each type reads
_KEY_FLAGS = {cli._flag(key): kind for key, (kind, _, _) in cli.KEYS.items() if kind is not bool}
_KEY_FLAGS["--config"] = str
_OWN_FLAGS = {"--t-op-multiple": float, "--n-list": str, "--restarts": int}
_GOOD_VALUES = {int: ["0", "3", "12"], float: ["0.5", "2", "1e-3", "nan"],
                str: ["swap", "1,2", "x.cfg", ""]}
_TOKENS = [*cli.COMMANDS, "bogus", *_KEY_FLAGS, *_OWN_FLAGS, "--json", "--emit-logs",
           "--naive", "--scan-eta-mp", "--sam", "--tau", "--jso", "--emit", "--nai",
           "--samples=3", "--json=1", "--out-dir=o", "-h", "--help", "--", "-1", "-0.5",
           "0.5", "x", "a.log"]


def _flag_values(flags):
    return st.sampled_from(sorted(flags)).flatmap(
        lambda flag: st.sampled_from(_GOOD_VALUES[flags[flag]]).map(lambda value: [flag, value]))


@st.composite
def command_lines(draw):
    """A command (or an unknown one, or -h), then mostly flags with values
    their type reads, store-true flags and runs of logs, and now and then two
    or one of any token: every flag, some abbreviations, --flag=value, -h,
    "--", negative numbers, bad values, log paths."""
    key_pair, own_pair = _flag_values(_KEY_FLAGS), _flag_values(_OWN_FLAGS)
    switch = st.sampled_from(["--json", "--emit-logs", "--naive"]).map(lambda flag: [flag])
    logs = st.lists(st.sampled_from(["a.log", "b.log", "c d.log"]), min_size=1, max_size=3)
    any_pair = st.lists(st.sampled_from(_TOKENS), min_size=2, max_size=2)
    token = st.sampled_from(_TOKENS).map(lambda token: [token])
    # analyze, the one command that takes logs, is drawn three times as often
    argv = [draw(st.sampled_from([*cli.COMMANDS, "analyze", "analyze", "bogus", "-h"]))]
    for _ in range(draw(st.integers(0, 4))):
        argv += draw(st.one_of(key_pair, key_pair, key_pair, key_pair, own_pair, switch, logs,
                               any_pair, token))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(command_lines())
def test_plain_reader_agrees_with_argparse(argv):
    # where the reader reads, its namespace is argparse's (repr tells 3 from
    # 3.0 and matches nan); where argparse exits, the reader declines
    expected = _argparse_reading(argv)
    plain = cli._read_plain(argv)
    if expected is None:
        assert plain is None
    elif plain is not None:
        assert repr(sorted(vars(plain).items())) == repr(expected)


# magnitudes from subnormal to near the float limit
MAGNITUDES = (1e-320, 1e-200, 1e-10, 0.5, 1.0, 100.0, 700.0, 1e300)


@st.composite
def extreme_flags(draw):
    """Parameter flags drawn from MAGNITUDES, with beta1 <= beta2."""
    magnitude = st.sampled_from(MAGNITUDES)
    beta1, beta2 = sorted((draw(magnitude), draw(magnitude)))
    values = {"--beta1": beta1, "--beta2": beta2}
    for name in ("--omega1", "--omega2", "--gamma", "--tau2"):
        values[name] = draw(magnitude)
    return [x for name, v in values.items() for x in (name, repr(v))]


@settings(derandomize=True, database=None, deadline=None)
@given(extreme_flags())
def test_extreme_parameters_run_or_fail_with_one_config_error_line(flags):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "three_jumps.log"
        log.write_text("0.25 1 A\n0.75 2 E\n1.5 1 A\n")
        for command in (["simulate", "--samples", "5", "--pulses", "3"],
                        ["power-scan", "--samples", "5", "--n-list", "1,2"],
                        ["analytic"],
                        ["opt-gate"],
                        ["analyze", str(log), "--pulses", "3"],
                        ["analyze", str(log), "--naive"]):
            _run_or_fail_with_one_config_error_line([*command, *flags, "--json"])


def _run_or_fail_with_one_config_error_line(argv):
    """Run main(argv) with a fresh --out-dir: exit 0 with strict JSON on
    stdout, or exit 2 with one config-error line on stderr and nothing
    left in the output folder's parent."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out-dir", str(out_dir)])
        if code == 0:
            _strict_json(out.getvalue())
        else:
            assert code == 2, err.getvalue()
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: ")
            assert not any(Path(tmp).iterdir())


@st.composite
def extreme_runs(draw):
    """extreme_flags with a drawn gate, swap-family or generic, and with or
    without event logs."""
    flags = draw(extreme_flags())
    flags += ["--gate", draw(st.sampled_from(["swap", "iswap", GENERIC]))]
    return flags + (["--emit-logs"] if draw(st.booleans()) else [])


@settings(derandomize=True, database=None, deadline=None)
@given(extreme_runs())
# generic-gate work errors square omega1; the draws above rarely reach the
# one beta1 (1e-320) that keeps beta1*omega1 finite at omega1 = 1e300
@example(["--beta1", "1e-320", "--beta2", "1e-320", "--omega1", "1e+300",
          "--omega2", "1e+300", "--gamma", "1e-200", "--tau2", "0.5", "--gate", GENERIC])
def test_extreme_parameters_on_any_gate_run_or_fail_with_one_config_error_line(flags):
    _run_or_fail_with_one_config_error_line(
        ["simulate", "--samples", "5", "--pulses", "3", *flags, "--json"])


def _declared_entry_point(name: str) -> str:
    """The ``module:attr`` target of ``name`` in [project.scripts]."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    in_scripts = False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_scripts = line == "[project.scripts]"
        elif in_scripts and "=" in line:
            key, _, value = line.partition("=")
            if key.strip().strip("\"'") == name:
                return value.strip().strip("\"'")
    raise AssertionError(f"pyproject.toml declares no script {name!r}")


def _console_script(name: str) -> tuple[list[str], dict[str, str]]:
    """Command and environment that run the console script ``name``.

    An installed script counts only if it sits in this interpreter's
    scripts directory; one from another environment on PATH would run a
    different copy of the package.  Without one, run the declared target
    the way the generated wrapper does, importing the package from where
    this test process found it.
    """
    env = dict(os.environ)
    exe = shutil.which(name, path=sysconfig.get_path("scripts"))
    if exe is not None:
        return [exe], env
    module, _, attr = _declared_entry_point(name).partition(":")
    code = (f"import sys; sys.argv[0] = {name!r}; "
            f"from {module} import {attr}; sys.exit({attr}())")
    src = str(Path(se.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-c", code], env


@pytest.mark.parametrize("argv", [
    ["analytic", "--json"],
    ["opt-gate", "--restarts", "6", "--seed", "1"],   # the gate-search argv
])
def test_bench_traced_mode_wraps_the_current_names(tmp_path, argv):
    # with TRACE 1 the benchmark's child wraps names that cli and gates look
    # up; a renamed or removed name breaks it here, not only in the benchmark
    assert _traced_child(tmp_path, {}, argv)["rc"] == 0


def test_bench_traced_probes_run_on_emitted_logs(tmp_path):
    # the log-roundtrip workload's probes: the bit-lane sampling rate, and a
    # replay of the first logs on the mcwf lane that must match them
    engine = [2.0 / 3.0, 1.0, 1.0, 5.0 / 6.0, 1.0]   # the CLI defaults
    probes = {"bits": {"engine": engine, "pulses": 3, "tau2": 0.65, "samples": 20, "seed": 1},
              "mcwf": {"engine": engine, "pulses": 3, "tau2": 0.65, "seed": 1, "count": 5,
                       "log_dir": "sim/events"}}
    result = _traced_child(tmp_path, probes, ["simulate", "--samples", "20", "--pulses", "3",
                                              "--emit-logs", "--out-dir", "sim"])
    assert result["rc"] == 0
    assert result["bits_rate"] > 0
    assert result["mcwf_rate"] > 0


def _traced_child(tmp_path, probes, argv):
    """The benchmark child's result for argv run with TRACE 1 and probes."""
    child = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    result = tmp_path / "result.json"
    run = subprocess.run([sys.executable, str(child), str(result), "1", json.dumps(probes),
                          "--", *argv],
                         capture_output=True, text=True, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    return json.loads(result.read_text())


_NO_SCIPY_RUN = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from swapengine.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["analytic", "--json"], ["opt-gate"]):
        codes.append(main(argv))
    for argv in (["simulate", "--samples", "3", "--pulses", "1024", "--out-dir", "bits"],
                 ["simulate", "--samples", "3", "--pulses", "2", "--emit-logs",
                  "--out-dir", "sim"]):
        codes.append(main(argv))
    logs = sorted(os.path.join("sim", "events", f)
                  for f in os.listdir(os.path.join("sim", "events")))
    codes.append(main(["analyze", *logs, "--pulses", "2", "--out-dir", "ana"]))
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy"), "numpy.fft" in sys.modules,
                  [m for m in ("argparse", "locale", "dataclasses") if m in sys.modules]]))
"""


_NO_RANDOM_RUN = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from swapengine.cli import main
runs = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["simulate", "--samples", "3000", "--pulses", "20", "--out-dir", "bits"],
                 ["simulate", "--samples", "3", "--pulses", "2", "--emit-logs",
                  "--out-dir", "sim"],
                 ["power-scan", "--samples", "50", "--n-list", "1,2", "--out-dir", "ps"],
                 ["analytic", "--json"], ["opt-gate"]):
        runs.append([argv[0], main(argv), "numpy.random" in sys.modules])
    logs = sorted(os.path.join("sim", "events", f)
                  for f in os.listdir(os.path.join("sim", "events")))
    argv = ["analyze", *logs, "--pulses", "2", "--out-dir", "ana"]
    runs.append([argv[0], main(argv), "numpy.random" in sys.modules])
print(json.dumps(runs))
"""


def test_commands_that_draw_nothing_never_import_numpy_random(tmp_path):
    # numpy loads numpy.random on first use (about 5 MiB and 7-13 ms); the
    # package draws every stream with numpy's uint64 arithmetic, so no
    # command, the sampling ones included, may load it, on import or run
    src = str(Path(se.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _NO_RANDOM_RUN, src],
                         capture_output=True, text=True, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[command, 0, False] for command in
                                      ("simulate", "simulate", "power-scan", "analytic",
                                       "opt-gate", "analyze")]


def test_cli_runs_import_no_scipy(tmp_path):
    # SciPy serves the tests and the benchmark's traced mode alone; a fresh
    # interpreter that runs every kind of command must never load it
    src = str(Path(se.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, src],
                         capture_output=True, text=True, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    codes, scipy_modules, fft_loaded, parser_modules = json.loads(run.stdout)
    assert codes == [0, 0, 0, 0, 0]
    assert scipy_modules == []
    # numpy loads numpy.fft on first use, and the bit lane uses it only
    # above trajectory._LAW_MAX_PULSES, so no run up to 1024 pulses pays for it
    assert not fft_loaded
    # plain command lines are read without argparse, which would load
    # gettext and, on its first message lookup, locale (about 2 ms); and the
    # record types are NamedTuples, since each @dataclass compiles its
    # methods afresh on every start (about 1 ms a class)
    assert parser_modules == []


def test_console_script_matches_in_process_behavior(tmp_path):
    cmd, env = _console_script("swapengine")
    ok = subprocess.run([*cmd, "analytic", "--json"], capture_output=True,
                        text=True, cwd=tmp_path, env=env)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["regime"] == "HeatEngine"
    bad = subprocess.run([*cmd, "simulate", "--beta1", "2", "--beta2", "1"],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=env)
    assert bad.returncode == 2
    assert "config error" in bad.stderr
    # argv from sys.argv, past the plain reader: argparse's error, and an
    # abbreviation that argparse resolves
    unknown = subprocess.run([*cmd, "simulate", "--no-such-flag"], capture_output=True,
                             text=True, cwd=tmp_path, env=env)
    assert unknown.returncode == 2
    # reported with the command's usage, which lists the flags it takes
    assert unknown.stderr.startswith("usage: swapengine simulate [-h] [--beta1 BETA1]")
    assert unknown.stderr.endswith(
        "swapengine simulate: error: unrecognized arguments: --no-such-flag\n")
    abbreviated = subprocess.run([*cmd, "analytic", "--jso"], capture_output=True,
                                 text=True, cwd=tmp_path, env=env)
    assert abbreviated.returncode == 0
    assert json.loads(abbreviated.stdout)["regime"] == "HeatEngine"
