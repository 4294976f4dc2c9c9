"""The ``/proc`` walk the no-orphan assertions share.

A forked worker keeps its parent's command line, so "no process still
runs this driver" is a search for the driver's arguments; "this
process left no child" is a search by parent pid. Zombies do not count:
they hold no resources and whoever adopted them reaps them.
"""

import os
import time

import pytest

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc"
)


def live_processes(cmdline: str | None = None, parent: int | None = None):
    """Pids of live processes whose command line contains ``cmdline``
    and (when given) whose parent is ``parent``; never this process."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline") as handle:
                command = handle.read().replace("\0", " ")
        except OSError:  # exited while we looked
            continue
        if state == "Z" or (parent is not None and int(ppid) != parent):
            continue
        if cmdline is None or cmdline in command:
            found.append(int(entry))
    return found


def assert_gone(within: float, **where) -> None:
    """No process matching ``where`` is alive ``within`` seconds from now."""
    deadline = time.monotonic() + within
    while (left := live_processes(**where)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not left, f"processes {left} outlived their parent ({where})"
