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
SKILL = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
DOCS = [
    CI,
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    SKILL,
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


def test_benchmarks_have_no_second_harness():
    """A figure is a function that returns its table and performance is
    the ledger: no script takes a timing fixture or captured output,
    edits ``sys.path`` (a script's own directory is already on it), or
    is documented as run through a timing plugin."""
    fixtures = [
        f"{script.name}:{node.name}({arg.arg})"
        for script in SCRIPTS
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        for arg in node.args.args
        if arg.arg in ("benchmark", "capsys")
    ]
    assert fixtures == []
    assert [
        script.name
        for script in SCRIPTS
        if "sys.path.insert" in script.read_text(encoding="utf-8")
    ] == []
    plugin = re.compile(r"pytest-benchmark|--benchmark-")
    documents = [ROOT / "pyproject.toml", CI, ROOT / "README.md", SKILL]
    assert [
        path.name
        for path in documents
        if plugin.search(path.read_text(encoding="utf-8"))
    ] == []


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


def test_one_way_to_kill_a_run_from_a_test():
    """Every interpreter a test starts comes from one launcher
    (``tests/procs.py``), and every run a test kills is a scenario of one
    driver (``tests/kill_driver.py``): no second driver script, no
    second ``subprocess`` caller, no second place a process dies."""
    tests = sorted((ROOT / "tests").glob("*.py"))
    texts = {path.name: path.read_text(encoding="utf-8") for path in tests}
    assert [name for name in texts if name.endswith("_driver.py")] == [
        "kill_driver.py"
    ]

    def imports_subprocess(text):
        return any(
            isinstance(node, ast.Import)
            and any(alias.name == "subprocess" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "subprocess"
            for node in ast.walk(ast.parse(text))
        )

    assert [
        name for name, text in texts.items() if imports_subprocess(text)
    ] == ["procs.py"]
    death = re.compile(r"os\._exit\(")
    assert [name for name, text in texts.items() if death.search(text)] == [
        "kill_driver.py"
    ]


def test_one_module_decides_staleness():
    """Whether a saved artifact belongs to the run now resuming is
    decided under ``repro.recovery`` alone: nothing else raises the
    mismatch, keys a payload by a signature or a fingerprint to compare
    it, or rebuilds a store from another store's private parts."""
    source = ROOT / "src" / "repro"
    texts = {
        str(path.relative_to(source)): path.read_text(encoding="utf-8")
        for path in sorted(source.rglob("*.py"))
    }
    assert [
        name for name, text in texts.items() if "CheckpointMismatchError(" in text
    ] == ["recovery/store.py"]
    payload_key = re.compile(r"""["'](signature|fingerprint)["']""")
    assert [
        name
        for name, text in texts.items()
        if not name.startswith("recovery/") and payload_key.search(text)
    ] == []
    private = re.compile(r"""getattr\([^)]*["']_(store|prefix|durable)["']""")
    assert [name for name, text in texts.items() if private.search(text)] == []


#: The builtin ``sum`` calls ``repro.fusion`` keeps, by module and
#: enclosing function: each adds integers, where every order is exact.
INTEGER_SUMS = {
    ("base.py", "ClaimIndex.__init__"): 1,  # n_claims
    ("base.py", "FusionResult.accuracy_against"): 1,  # the correct count
    ("copydetect.py", "CopyDetector._dependence"): 1,  # sum(counts)
    ("copydetect.py", "CopyDetector.direction"): 1,  # sum(counts)
    ("voting.py", "VotingFuser.fuse"): 1,  # the count total
}


def _builtin_sums(path: Path) -> dict[tuple[str, str], int]:
    """``{(module file, enclosing function): calls of builtin sum}``."""
    calls: dict[tuple[str, str], int] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "sum"
            ):
                key = (path.name, scope)
                calls[key] = calls.get(key, 0) + 1
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return calls


def test_fusion_sums_are_exact():
    """Every float sum in fusion is ``math.fsum``, whose result does not
    depend on the order of its terms or on the Python version (builtin
    ``sum`` compensates since 3.12, and adds in whatever order it is
    handed). No fixed addition order may come back: no ``ordered_sum``
    and no ``functools.reduce`` under ``repro.fusion`` or
    ``repro.outofcore``, and builtin ``sum`` only on the integer sums
    named in :data:`INTEGER_SUMS`."""
    source = ROOT / "src" / "repro"
    ordered = {"ordered_sum", "reduce"}
    for package in ("fusion", "outofcore"):
        for path in sorted((source / package).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            named = {
                getattr(node, field)
                for node in ast.walk(tree)
                for field in ("id", "attr", "name")
                if isinstance(getattr(node, field, None), str)
            }
            assert not named & ordered, path.relative_to(source)
    sums: dict[tuple[str, str], int] = {}
    for path in sorted((source / "fusion").glob("*.py")):
        sums.update(_builtin_sums(path))
    assert sums == INTEGER_SUMS
