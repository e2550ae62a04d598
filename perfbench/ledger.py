"""Operation accounting shared by the workloads.

Every call into gausdet goes through ``Ledger.op``: it is counted as
attempted, timed on its own (checks and input generation are never inside
the timed interval) and checked.  An operation fails when it raises or when
its check returns a reason.  Operations on the named fault inputs (see
README.md) are counted like any other but their time is never recorded, so
that mending a fault cannot read as a slowdown; any other failure makes the
run incorrect.

The memory probe repeats round 0 in a fresh interpreter (see ``run.py``).
Its operations are made but neither counted nor checked: round 0 made the
same calls and checked them.  Checks reach the ``checks`` module through
``checks()``, which imports it (and scipy.stats with it) on first use: in
each workload's ``prepare_checks``, after set-up and before the measured
rounds.  Set-up time and the memory probe never include it.

Every round makes the same operations in the same order, so the i-th
operation of each round is one *slot*.  A time metric takes each slot's
lower quartile over the run's timed rounds and sums over slots: on a
shared host the same call can run up to twice as slow for seconds at a
time, and the lower quartile keeps those bursts out while still reading a
typical, not a best, time.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

TIMED, TRACED, PROBE = "timed", "traced", "probe"


@dataclass
class OpRecord:
    round: int
    slot: int
    kind: str
    seconds: float
    work: float
    mode: str


@dataclass
class Ledger:
    tracer: Optional[object] = None
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    records: list = field(default_factory=list)
    round: int = 0
    mode: str = TIMED
    _slot: int = 0

    def start_round(self, r: int, mode: str) -> None:
        self.round, self.mode, self._slot = r, mode, 0

    def op(
        self,
        kind: str,
        call: Callable[[], object],
        check: Callable[[object], Optional[str]],
        work: float = 0.0,
        fault: Optional[str] = None,
        **span_attrs,
    ):
        """Attempt one operation; returns its output, or None if it raised."""
        if self.mode == PROBE:
            try:
                return call()
            except Exception:  # round 0 counted and checked this call
                return None
        self.attempted += 1
        slot = self._slot
        self._slot += 1
        span = None
        if self.mode == TRACED:
            if fault is not None:
                span_attrs["fault"] = fault
            span = self.tracer.span(f"bench.{kind}", **span_attrs)
            span.__enter__()
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # the program must not raise: count and go on
            seconds = time.perf_counter() - t0
            out, reason = None, f"raised {exc!r}"
        else:
            seconds = time.perf_counter() - t0
            reason = None
        if span is not None:
            span.__exit__(None, None, None)
        if reason is None:
            reason = check(out)
        if fault is None:
            self.records.append(
                OpRecord(self.round, slot, kind, seconds, work, self.mode))
        if reason is not None:
            self.failed += 1
            if fault is None:
                self.unexpected.append(f"{kind}: {reason}")
                print(f"unexpected failure: {kind}: {reason}", file=sys.stderr)
            elif self.round == 0:
                print(f"known fault ({fault}): {kind}: {reason}", file=sys.stderr)
        return out

    def timed(self, kinds=None, mode: str = TIMED) -> list[OpRecord]:
        return [r for r in self.records
                if r.mode == mode and (kinds is None or r.kind in kinds)]


def lower_quartile(values) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _slots(records: list[OpRecord]) -> dict[int, list[OpRecord]]:
    slots: dict[int, list[OpRecord]] = {}
    for r in records:
        slots.setdefault(r.slot, []).append(r)
    return slots


def typical_seconds(records: list[OpRecord]) -> float:
    """Sum over slots of each slot's lower-quartile time over rounds."""
    return sum(lower_quartile(r.seconds for r in rs)
               for rs in _slots(records).values())


def typical_rate(records: list[OpRecord]) -> float:
    """Work of one round over its typical time."""
    seconds = typical_seconds(records)
    work = sum(rs[0].work for rs in _slots(records).values())
    return work / seconds if seconds > 0 else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def checks():
    """The benchmark's checks module, imported on first use."""
    import checks as module

    return module


def program_modules() -> dict:
    """The gausdet modules a traced round wraps, imported on first use."""
    from gausdet import exponents, model, reduction, simulate, tails

    return {"exponents": exponents, "model": model, "reduction": reduction,
            "simulate": simulate, "tails": tails}
