"""The benchmark's clock: it stands still while the process waits in fsync.

How long an ``fsync`` takes is a property of the box and of the minute,
not of the program: on the sandbox this benchmark runs in, the 1 300
fsyncs of one ``serve_mixed`` repetition took between 0.7 and 2.6 s in six
consecutive repetitions while everything else in the same phases took 1.1
to 1.3 s (``baseline/measurements.txt``, section 1), and no processor-side
speedometer can put that right. So a repetition times ``os.fsync`` from
outside and takes that wait off every time it reads. The durable path
still runs and still waits; what the benchmark's times say is what the
program did between the waits. How many fsyncs a repetition made and how
long the disk really took over them are reported beside its times, as
measured.
"""

from __future__ import annotations

import os
import time

__all__ = ["clock", "fsyncs", "install"]

_os_fsync = os.fsync
_count = 0
_waited = 0.0


def _timed_fsync(fd) -> None:
    global _count, _waited
    started = time.perf_counter()
    try:
        _os_fsync(fd)
    finally:
        _waited += time.perf_counter() - started
        _count += 1


def install() -> None:
    """Time every ``os.fsync`` of this process from here on."""
    os.fsync = _timed_fsync


def clock() -> float:
    """Seconds as ``time.perf_counter`` reads them, less the fsync waits."""
    return time.perf_counter() - _waited


def fsyncs() -> tuple[int, float]:
    """How many fsyncs were timed so far and how long they took together."""
    return _count, _waited
