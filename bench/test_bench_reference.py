"""Hand-derivable cases for the benchmark's reference computations.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import reference as ref
import run

CONFIGS = [ref.WORKING_POINT, ref.Engine(0.5, 1.5, 1.0, 0.6), ref.Engine(0.9, 1.2, 2.0, 1.7, 0.3)]


def swap_gap(eng: ref.Engine) -> float:
    """f(beta2*omega2) - f(beta1*omega1): the mean transfer of one swap from bi-Gibbs."""
    return ref.excited(eng.beta2, eng.omega2) - ref.excited(eng.beta1, eng.omega1)


@pytest.mark.parametrize("eng", CONFIGS)
def test_one_pulse_from_bi_gibbs_moves_the_population_gap(eng):
    assert ref.mean_work_quanta(eng, 1, 0.65) == pytest.approx(swap_gap(eng), rel=1e-15)
    assert ref.mean_work_quanta(eng, 0, 0.65) == 0.0


@pytest.mark.parametrize("eng", CONFIGS)
def test_full_relaxation_makes_every_pulse_a_fresh_swap(eng):
    assert ref.mean_work_quanta(eng, 7, 1e3) == pytest.approx(7 * swap_gap(eng), rel=1e-12)


@pytest.mark.parametrize("eng", CONFIGS)
def test_no_relaxation_makes_swaps_undo_each_other(eng):
    tiny = 1e-300
    assert ref.mean_work_quanta(eng, 6, tiny) == pytest.approx(0.0, abs=1e-15)
    assert ref.mean_work_quanta(eng, 7, tiny) == pytest.approx(swap_gap(eng), rel=1e-12)


def test_working_point_mean_work_per_run():
    assert ref.mean_work(ref.WORKING_POINT, 100, 0.65) == pytest.approx(-0.43658, abs=5e-6)
    assert ref.log_ratio_slope(ref.WORKING_POINT) == pytest.approx(-1.0 / 6.0, rel=1e-15)
    assert ref.swap_efficiency(ref.WORKING_POINT) == pytest.approx(1.0 / 6.0, rel=1e-15)


@pytest.mark.parametrize("eng", CONFIGS)
def test_permutations_include_identity_and_swap(eng):
    outputs = ref.permutation_work_outputs(eng)
    assert len(outputs) == 24
    assert outputs[(0, 1, 2, 3)] == 0.0
    swap = outputs[(0, 2, 1, 3)]
    assert swap == pytest.approx(-swap_gap(eng) * (eng.omega1 - eng.omega2), rel=1e-12)
    assert ref.permutation_optimum(eng) >= swap


def test_permutation_optimum_is_the_swap_at_the_working_point():
    assert ref.permutation_optimum(ref.WORKING_POINT) == pytest.approx(0.006050485866598,
                                                                       rel=1e-12)


def test_equal_frequencies_leave_no_work_to_extract():
    eng = ref.Engine(0.5, 1.5, 1.0, 1.0)
    assert not ref.is_heat_engine(eng)
    # every permutation that keeps the excitation number extracts nothing
    assert ref.permutation_work_outputs(eng)[(0, 2, 1, 3)] == 0.0


def test_strict_json_rejects_non_finite_numbers(tmp_path):
    good = tmp_path / "good.json"
    good.write_text('{"a": [1.5, -2e-300, null]}')
    assert ref.load_strict_json(good) == {"a": [1.5, -2e-300, None]}
    for constant in ("NaN", "Infinity", "-Infinity"):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"se": [0.1, {constant}]}}')
        with pytest.raises(ValueError, match="strict JSON"):
            ref.load_strict_json(bad)


def write_log(tmp_path: Path, text: str) -> list:
    path = tmp_path / "t.log"
    path.write_text(text)
    return ref.read_log(path)


def test_count_jumps_per_bath(tmp_path):
    items = write_log(tmp_path, "P 0\n0.10833155160611280 2 E\n0.25 1 A\n"
                                "P 1\n0.7 1 E\n0.8 1 E\n0.9 2 A\n")
    assert items[1] == ("E", 2, 0.1083315516061128)
    assert ref.count_jumps(items) == {(1, "E"): 2, (1, "A"): 1, (2, "E"): 1, (2, "A"): 1}


def test_candidates_without_jumps_span_the_unseen_bits(tmp_path):
    # one pulse, no jumps: (b1, b2) in 00, 01, 10, 11 bank b2 - b1
    assert sorted(ref.work_quanta_candidates(write_log(tmp_path, "P 0\n"))) == [-1, 0, 0, 1]
    # two pulses undo each other on every start
    assert ref.work_quanta_candidates(write_log(tmp_path, "P 0\nP 1\n")) == [0, 0, 0, 0]


def test_candidates_keep_only_starts_that_explain_the_jumps(tmp_path):
    # an emission into bath 1 after the swap needs b2 = 1 at the start
    items = write_log(tmp_path, "P 0\n0.3 1 E\n")
    assert sorted(ref.work_quanta_candidates(items)) == [0, 1]
    # a second emission in a row cannot happen without a pulse in between
    items = write_log(tmp_path, "P 0\n0.3 1 E\n0.4 1 E\n")
    assert ref.work_quanta_candidates(items) == []


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_se_check_scales_with_the_reported_error():
    run.within_se("x", [1.0 + 7.9e-3, 1e-3], 1.0)
    for pair in ([1.0 + 8.1e-3, 1e-3], [1.0, 0.0], [math.nan, 1.0]):
        with pytest.raises(run.CheckFailed):
            run.within_se("x", pair, 1.0)
