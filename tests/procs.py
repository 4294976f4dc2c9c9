"""Processes for the tests: the one launcher, and the ``/proc`` walk the
no-orphan assertions share.

:func:`run_python` starts every fresh interpreter the suite needs;
:func:`run_driver` runs one scenario of ``tests/kill_driver.py`` on it.

A forked worker keeps its parent's command line, so "no process still
runs this driver" is a search for the driver's arguments; "this
process left no child" is a search by parent pid. Zombies do not count:
they hold no resources and whoever adopted them reaps them.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DRIVER = Path(__file__).with_name("kill_driver.py")

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


def run_python(*argv, env=None, timeout=300):
    """``python *argv`` in a fresh interpreter with ``src`` first on
    ``PYTHONPATH`` and ``env`` over this process's environment.

    Output goes to temporary files, not pipes: a killed driver's workers
    hold its descriptors until they notice it is gone, and a reader
    waiting for pipe EOF would wait for them too.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile(
        "w+"
    ) as err:
        done = subprocess.run(
            [sys.executable, *argv],
            stdout=out,
            stderr=err,
            env=env,
            timeout=timeout,
        )
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(
            argv, done.returncode, out.read(), err.read()
        )


def run_driver(scenario, root, *args, expect=0):
    """Run ``kill_driver.py scenario root *args``, assert it exited
    ``expect``, and return its JSON document (its raw stdout when it was
    expected to die)."""
    done = run_python(str(DRIVER), scenario, str(root), *args)
    assert done.returncode == expect, (
        f"{scenario} {args} exited {done.returncode}, expected {expect}\n"
        f"{done.stderr}"
    )
    return json.loads(done.stdout) if expect == 0 else done.stdout
