"""Plain-text jump log format: one event per line, strict parsing.

Jump lines read '<time> <bath> <kind>' with times printed to 17 significant
digits (lossless for doubles); pulse markers read 'P <index>' and carry no
time.  The parser is strict: any malformed line raises ParseError with the
offending file and line number.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import swapengine as se

CFG = se.EngineConfig(beta1=2.0 / 3.0, beta2=1.0, omega1=1.0, omega2=5.0 / 6.0)


def test_format_event_round_trips_seventeen_digit_times():
    ev = se.TrajectoryEvent(time=0.1083315516061128, kind="E", bath=2)
    assert se.format_event(ev) == "0.1083315516061128 2 E"
    assert se.format_event(se.TrajectoryEvent(0.5, "P", 0, 3)) == "P 3"
    rng = np.random.default_rng(61)
    for _ in range(200):
        t = float(rng.uniform(0.0, 100.0))
        line = se.format_event(se.TrajectoryEvent(t, "A", 1))
        assert float(line.split()[0]) == t


def test_write_then_parse_preserves_jump_triples_and_pulse_indices(tmp_path):
    events = [
        se.TrajectoryEvent(0.0, "P", 0, 0),
        se.TrajectoryEvent(0.1083315516061128, "E", 2),
        se.TrajectoryEvent(0.25, "A", 1),
        se.TrajectoryEvent(0.5, "P", 0, 1),
    ]
    path = tmp_path / "t.log"
    se.write_events(path, events)
    raw = path.read_bytes()
    assert raw == b"P 0\n0.1083315516061128 2 E\n0.25 1 A\nP 1\n"
    back = se.parse_events(path)
    assert [(ev.kind, ev.bath, ev.index) for ev in back] == [
        ("P", 0, 0), ("E", 2, -1), ("A", 1, -1), ("P", 0, 1)]
    # parsed pulses carry no time; parsed jumps equal the written ones
    assert math.isnan(back[0].time) and math.isnan(back[3].time)
    assert back[1].time == 0.1083315516061128
    assert back[1:3] == events[1:3]


def test_round_trip_on_simulated_trajectories(tmp_path):
    proto = se.Protocol(n_pulses=10, tau2=0.65)
    recs = se.run_ensemble(CFG, proto, se.SwapFamily(), 20, seed=8,
                           keep_events=True, engine="events")
    for k, rec in enumerate(recs):
        path = tmp_path / f"{k}.log"
        se.write_events(path, rec.events)
        back = se.parse_events(path)
        assert len(back) == len(rec.events)
        for orig, parsed in zip(rec.events, back):
            assert parsed.kind == orig.kind
            assert parsed.bath == orig.bath
            assert parsed.index == orig.index
            if orig.kind != "P":
                assert parsed == orig


def test_empty_log_parses_to_no_events(tmp_path):
    path = tmp_path / "empty.log"
    se.write_events(path, [])
    assert path.read_bytes() == b""
    assert se.parse_events(path) == []


@pytest.mark.parametrize(
    "text,line_no,message",
    [
        ("0.5 1 E", 1, "missing trailing newline"),
        ("0.5 1 E\n\n0.7 2 A\n", 2, "blank line"),
        ("0.5 1\n", 1, "expected '<time> <bath> <kind>'"),
        ("abc 1 E\n", 1, "bad time 'abc'"),
        ("inf 1 E\n", 1, "non-finite time 'inf'"),
        ("nan 1 E\n", 1, "non-finite time 'nan'"),
        ("0.5 3 E\n", 1, "unknown bath label '3'"),
        ("0.5 1 X\n", 1, "unknown jump kind 'X'"),
        ("0.5 1 E\n0.4 2 A\n", 2, "not strictly increasing at 0.4"),
        ("0.5 1 E\n0.5 2 A\n", 2, "not strictly increasing at 0.5"),
        ("P x\n", 1, "bad pulse index 'x'"),
        ("P -1\n", 1, "negative pulse index -1"),
        ("P 1 2\n", 1, "pulse marker needs exactly one index"),
        ("P 0\n1_0 1 E\n", 2, "bad time '1_0'"),
        ("0.\u0665 1 E\n", 1, "bad time '0.\u0665'"),
        ("P 1_0\n", 1, "bad pulse index '1_0'"),
        ("P \u0661\n", 1, "bad pulse index '\u0661'"),
        # only "\n" ends a line, and one ASCII space separates two fields
        ("0.5\xa01 E\n0.7 2 A\n", 1, "expected '<time> <bath> <kind>'"),
        ("0.5 1 E\x0c0.7 2 A\n", 1, "expected '<time> <bath> <kind>'"),
        ("0.5 1 E\n0.7 2 A\r\n", 2, "unknown jump kind 'A\\r'"),
        ("P 0\n0.5\t1 E\n", 2, "expected '<time> <bath> <kind>'"),
        ("0.5 1 E\n0.7  2 A\n", 2, "expected '<time> <bath> <kind>'"),
    ],
)
def test_malformed_lines_raise_parse_errors_with_location(tmp_path, text,
                                                          line_no, message):
    path = tmp_path / "bad.log"
    path.write_bytes(text.encode())
    with pytest.raises(se.ParseError) as excinfo:
        se.parse_events(path)
    err = excinfo.value
    assert err.line_no == line_no
    assert message in err.message
    assert str(err) == f"{path}:{line_no}: {err.message}"


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        se.parse_events(tmp_path / "absent.log")
