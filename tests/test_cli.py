"""Command-line interface: artifacts, config resolution, exit codes.

Exit code contract: 0 success, 2 configuration errors, 3 I/O errors,
4 event-log parse errors, 5 broken internal checks.  Most tests drive main()
in process; one runs the entry point declared in pyproject.toml as a
subprocess, through the installed console script when this interpreter has
one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

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


def test_simulate_reruns_are_byte_identical(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--samples", "60", "--pulses", "4", "--tau2", "0.5",
            "--seed", "11", "--emit-logs", "--out-dir", "rep"]
    assert cli.main(args) == 0
    first = _snapshot(tmp_path / "rep")
    assert any(name.startswith("events/") for name in first)
    assert cli.main(args) == 0
    assert _snapshot(tmp_path / "rep") == first


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
    ],
)
def test_error_exit_codes(capsys, monkeypatch, tmp_path, args, code,
                          fragment):
    monkeypatch.chdir(tmp_path)
    if args[0] == "power-scan":
        monkeypatch.setattr(stats_module, "_bit_lane_chunks", _broken_chunks)
    assert cli.main(args) == code
    assert fragment in capsys.readouterr().err
    if "--seed" in args:
        assert not (tmp_path / "out").exists()  # rejected before any output


def _broken_chunks(cfg, protocol, sample_size, seed):
    one = np.ones(sample_size, dtype=np.int64)
    yield {"h1": one, "h2": -one, "b1i": 0 * one, "b1f": 0 * one,
           "b2i": 0 * one, "b2f": 0 * one, "n_w": 0 * one}


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
