"""Regenerate the paper's figures (E1-E19) in EXPERIMENTS.md.

Every ``bench_eXX_*.py`` beside this script that defines ``figure()``
reproduces one canonical result: ``figure()`` computes the rows,
asserts the expected shape and returns the rendered table.
EXPERIMENTS.md holds each table verbatim between
``<!-- figure bench_eXX_name -->`` and ``<!-- /figure -->``; this
script runs the figures and rewrites those blocks, so the document
carries no hand-typed number::

    PYTHONPATH=src python benchmarks/figures.py            # every figure
    PYTHONPATH=src python benchmarks/figures.py e03 e08    # just these

The run fails, naming the figure, when a figure module has no block, a
block names no figure module, or a shape assertion fails. That a change
left every figure alone is ``git diff --exit-code EXPERIMENTS.md``
after a full run.
"""

from __future__ import annotations

import importlib
import re
import sys
import traceback
from collections.abc import Callable
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPERIMENTS = HERE.parent / "EXPERIMENTS.md"
BLOCK = re.compile(
    r"<!-- figure (\w+) -->\n```text\n(.*?)\n```\n<!-- /figure -->", re.S
)


def figures() -> dict[str, Callable[[], str]]:
    """``{module name: figure}`` for every figure module beside this one."""
    found = {}
    for path in sorted(HERE.glob("bench_e*.py")):
        module = importlib.import_module(path.stem)
        if hasattr(module, "figure"):
            found[path.stem] = module.figure
    return found


def blocks(text: str) -> dict[str, str]:
    """``{module name: table}`` for every generated block in ``text``."""
    return dict(BLOCK.findall(text))


def _named(name: str, figure_id: str) -> bool:
    return name == figure_id or name.startswith(f"bench_{figure_id}_")


def main(argv: list[str] | None = None) -> None:
    ids = sys.argv[1:] if argv is None else argv
    text = EXPERIMENTS.read_text(encoding="utf-8")
    known, written = figures(), blocks(text)
    problems = [
        f"{name}: no block in EXPERIMENTS.md"
        for name in known
        if name not in written
    ]
    problems += [
        f"{name}: a block in EXPERIMENTS.md names no figure module"
        for name in written
        if name not in known
    ]
    problems += [
        f"{figure_id}: no such figure"
        for figure_id in ids
        if not any(_named(name, figure_id) for name in known)
    ]
    if problems:
        raise SystemExit("\n".join(problems))

    tables = {}
    for name, figure in known.items():
        if ids and not any(_named(name, figure_id) for figure_id in ids):
            continue
        try:
            tables[name] = figure()
        except AssertionError as error:
            frame = traceback.extract_tb(error.__traceback__)[-1]
            problems.append(
                f"{name}: shape assertion failed at "
                f"{Path(frame.filename).name}:{frame.lineno}: {frame.line}"
                + (f" ({error})" if str(error) else "")
            )
            continue
        print(f"{name}: regenerated")

    EXPERIMENTS.write_text(
        BLOCK.sub(
            lambda match: (
                f"<!-- figure {match[1]} -->\n```text\n"
                f"{tables.get(match[1], match[2])}\n```\n<!-- /figure -->"
            ),
            text,
        ),
        encoding="utf-8",
    )
    if problems:
        raise SystemExit("\n".join(problems))


if __name__ == "__main__":
    main()
