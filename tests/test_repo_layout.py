"""Structure pin: what the docs and CI name exists, and nothing under
``benchmarks/`` leans on a file or a name that is gone.

Most of ``benchmarks/`` is run by hand or by one CI step, so a script
deleted or renamed under a doc, a workflow step or another script's
import would otherwise be found by whoever runs it next.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
CI = ROOT / ".github" / "workflows" / "ci.yml"
DOCS = [
    CI,
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
SCRIPT_PATH = re.compile(
    r"\b(?:benchmarks|examples)/[\w/]+\.py\b|\btests/\w+_driver\.py\b"
)
#: The scripts outside the ledger (which has its own tests and rules).
SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_every_script_a_doc_names_exists(doc):
    named = set(SCRIPT_PATH.findall(doc.read_text(encoding="utf-8")))
    assert named, f"{doc.name} names no script: the pattern went stale"
    missing = sorted(path for path in named if not (ROOT / path).is_file())
    assert not missing, f"{doc.name} names scripts that do not exist"


def test_ci_runs_every_gate():
    workflow = CI.read_text(encoding="utf-8")
    gates = sorted(path.name for path in BENCHMARKS.glob("check_*.py"))
    assert gates
    unrun = [gate for gate in gates if f"benchmarks/{gate}" not in workflow]
    assert not unrun, "gates no CI step runs"


def test_the_ledger_is_the_only_recorded_performance():
    """One legacy result file is left, for the faults no ledger
    workload injects; every other number is a ledger metric."""
    recorded = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
    assert recorded == ["BENCH_supervision.json"]


def test_the_anytime_algorithm_stays_in_fusion():
    """The live layers hold every claim they fuse, so none of them
    names the probe-and-stop algorithm; and the vote model both it and
    the live vote use is still defined in one place."""
    source = ROOT / "src" / "repro"
    live = [
        path
        for layer in ("linkage", "serve", "streaming")
        for path in sorted((source / layer).rglob("*.py"))
    ]
    assert live
    assert [
        str(path.relative_to(source))
        for path in live
        if "OnlineFusion" in path.read_text(encoding="utf-8")
    ] == []
    for name in ("vote_count", "claim_posterior"):
        assert [
            str(path.relative_to(source))
            for path in sorted(source.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and node.name == name
        ] == ["fusion/online.py"]


def _defined_names(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
            )
    return names


def _unresolved_imports(script: Path) -> list[str]:
    """Imports of ``script`` that name a missing module, or a name its
    module does not define (sibling scripts and ``repro`` only)."""
    broken = []
    for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [(node.module, [alias.name for alias in node.names])]
        else:
            continue
        for module, names in modules:
            sibling = BENCHMARKS / f"{module}.py"
            if sibling.is_file():
                missing = set(names) - _defined_names(sibling)
            elif module.split(".")[0] == "repro":
                try:
                    loaded = importlib.import_module(module)
                except ImportError:
                    missing = {"<module>"}
                else:
                    missing = {n for n in names if not hasattr(loaded, n)}
            elif importlib.util.find_spec(module.split(".")[0]) is None:
                missing = {"<module>"}
            else:
                continue
            broken.extend(f"{module}.{name}" for name in sorted(missing))
    return broken


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_benchmark_scripts_import_only_what_is_there(script):
    assert _unresolved_imports(script) == []


def test_one_module_creates_processes():
    """Launch, liveness, kill and parent death are answered once: no
    second pool, no raw process, no reach into an executor's private
    worker table anywhere else under ``src/repro``."""
    source = ROOT / "src" / "repro"
    launch = re.compile(r"ProcessPoolExecutor\(|\.Process\(|os\.fork\(")
    texts = {
        str(path.relative_to(source)): path.read_text(encoding="utf-8")
        for path in sorted(source.rglob("*.py"))
    }
    assert [name for name, text in texts.items() if launch.search(text)] == [
        "resilience/workers.py"
    ]
    assert [name for name, text in texts.items() if "_processes" in text] == []
