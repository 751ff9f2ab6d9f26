"""Closed-loop driving, percentiles, /proc accounting and the host probe."""

from __future__ import annotations

import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (linear interpolation between ranks)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclass
class LoopResult:
    """What one closed-loop replay observed."""

    seconds: float = 0.0
    attempted: int = 0
    completed: int = 0  # answered and matching the oracle
    errors: int = 0
    wrong: int = 0
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: (slot, start, end) of every answered op, in perf_counter seconds
    intervals: List[Tuple[str, float, float]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def p(self, slot: str, q: int) -> float:
        """Percentile of one slot's latencies, in milliseconds."""
        return percentile(self.latencies[slot], q) * 1e3


def closed_loop(
    execute: Callable,
    ops: Sequence,
    clients: int,
    check: Callable,
    after_op: Optional[Callable[[int], None]] = None,
) -> LoopResult:
    """Replay ``ops`` with ``clients`` threads, each sending its next op
    only when the previous answer arrived (an analyst waits for results).

    ``check(op, answer)`` tells whether an answer is correct; a client
    checks each answer before its next op, outside the op's timing, so
    no answer outlives its check. Errors and wrong answers count as
    failed and record no latency. ``after_op`` is called with the number
    of ops finished so far.
    """
    result = LoopResult(latencies={op.slot: [] for op in ops})
    lock = threading.Lock()
    cursor = iter(range(len(ops)))

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            op = ops[index]
            start = time.perf_counter()
            try:
                answer = execute(op)
            except Exception:
                end, ok, error = time.perf_counter(), False, True
            else:
                end, error = time.perf_counter(), False
                ok = check(op, answer)
            with lock:
                result.attempted += 1
                if ok:
                    result.completed += 1
                    result.latencies[op.slot].append(end - start)
                    result.intervals.append((op.slot, start, end))
                elif error:
                    result.errors += 1
                else:
                    result.wrong += 1
                done = result.attempted
            if after_op is not None:
                after_op(done)

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.seconds = time.perf_counter() - started
    result.intervals.sort(key=lambda interval: interval[1])
    return result


# -- process accounting from outside, via /proc --------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def pss_mb(pids: Sequence[int]) -> float:
    """Summed proportional set size of ``pids`` (MB); a pid that has
    exited in the meantime contributes nothing."""
    total_kb = 0
    for pid in set(pids):
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_seconds(pid: int, children: bool = False) -> float:
    """utime+stime of ``pid`` (plus its reaped children's with
    ``children``); 0 when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (field 3): utime/stime are fields 14/15,
    # cutime/cstime 16/17
    ticks = int(fields[11]) + int(fields[12])
    if children:
        ticks += int(fields[13]) + int(fields[14])
    return ticks / _TICK


class CpuMeter:
    """CPU time of this process and its workers across one phase.

    Workers alive at the end are read directly; a worker that died
    during the phase was reaped by this process, so its time shows in
    this process's children counters.
    """

    def __init__(self, worker_pids: Callable[[], Sequence[int]]):
        self._worker_pids = worker_pids
        self._start = self._sample()

    def _sample(self) -> Dict[int, float]:
        sample = {pid: cpu_seconds(pid) for pid in self._worker_pids()}
        sample[0] = cpu_seconds(os.getpid(), children=True)
        return sample

    def stop(self) -> float:
        """Seconds of CPU used since construction."""
        end = self._sample()
        return sum(value - self._start.get(pid, 0.0) for pid, value in end.items())


# -- host calibration ----------------------------------------------------------


def _fixed_loop() -> int:
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def calibrate(repeats: int = 5) -> List[float]:
    """Milliseconds of a fixed pure-Python loop, ``repeats`` times.

    Diagnostic only: a run whose probe reads slow fell into one of the
    host's slow bursts, which tells it apart from a regression.
    """
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        _fixed_loop()
        out.append((time.perf_counter() - start) * 1e3)
    return out
