"""Event-log interchange format shared by the simulator and the analyzer.

One UTF-8 line per event, each ending in "\n" (the last one too), with
its fields separated by single ASCII spaces:

    <time> <bath> <kind>     a jump: decimal time in seconds, bath 1 or 2,
                             kind E (emission) or A (absorption)
    P <index>                a pulse marker (optional; carries no timestamp,
                             its position in the file places it in time)

Jump times must be strictly increasing through the file.  Times are printed
with 17 significant digits, so float64 values round-trip exactly.  Numerals
are ASCII decimals, as format_event writes them: no underscores, no other
digits, no leading "+".  Only "\n" ends a line ("\r\n" does not), and only
one ASCII space separates two fields: tabs, other whitespace and leading,
trailing or doubled spaces fail the parse.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Iterable

from .trajectory import TrajectoryEvent

# the numerals format_event writes: "%.17g" of a float, str() of an int
_TIME = re.compile(r"-?([0-9]+(\.[0-9]+)?(e[+-][0-9]+)?|inf|nan)", re.ASCII)
_INDEX = re.compile(r"-?[0-9]+", re.ASCII)


class ParseError(Exception):
    """Malformed event log; carries the offending file and line number."""

    def __init__(self, path: str, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no
        self.message = message


def format_event(event: TrajectoryEvent) -> str:
    if event.kind == "P":
        return f"P {event.index}"
    return f"{event.time:.17g} {event.bath} {event.kind}"


def write_events(path: str | Path, events: Iterable[TrajectoryEvent]) -> None:
    """Write one log file; every line, including the last, ends in a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ev in events:
            fh.write(format_event(ev))
            fh.write("\n")


def parse_events(path: str | Path) -> list[TrajectoryEvent]:
    """Parse a log file back into events, validating the format strictly.

    Pulse markers come back with time = nan (the format does not carry one);
    their list position preserves the file order.
    """
    name = str(path)
    events: list[TrajectoryEvent] = []
    last_time = -math.inf
    with open(path, "rb") as fh:   # decoded whole: no newline translation
        data = fh.read()
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(name, data.count(b"\n", 0, exc.start) + 1,
                         f"invalid UTF-8 byte {data[exc.start]:#04x}") from None
    if raw and not raw.endswith("\n"):
        raise ParseError(name, raw.count("\n") + 1, "missing trailing newline")
    for line_no, line in enumerate(raw.split("\n")[:-1], start=1):
        if not line:
            raise ParseError(name, line_no, "blank line")
        fields = line.split(" ")
        if fields[0] == "P":
            if len(fields) != 2:
                raise ParseError(name, line_no, f"pulse marker needs exactly one index, got {line!r}")
            if not _INDEX.fullmatch(fields[1]):
                raise ParseError(name, line_no, f"bad pulse index {fields[1]!r}")
            index = int(fields[1])
            if index < 0:
                raise ParseError(name, line_no, f"negative pulse index {index}")
            events.append(TrajectoryEvent(math.nan, "P", 0, index))
            continue
        if len(fields) != 3:
            raise ParseError(name, line_no, f"expected '<time> <bath> <kind>', got {line!r}")
        if not _TIME.fullmatch(fields[0]):
            raise ParseError(name, line_no, f"bad time {fields[0]!r}")
        time = float(fields[0])
        if not math.isfinite(time):
            raise ParseError(name, line_no, f"non-finite time {fields[0]!r}")
        if fields[1] not in ("1", "2"):
            raise ParseError(name, line_no, f"unknown bath label {fields[1]!r}")
        if fields[2] not in ("E", "A"):
            raise ParseError(name, line_no, f"unknown jump kind {fields[2]!r}")
        if time <= last_time:
            raise ParseError(name, line_no, f"jump times not strictly increasing at {fields[0]}")
        last_time = time
        events.append(TrajectoryEvent(time, fields[2], int(fields[1])))
    return events
