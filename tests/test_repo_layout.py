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


#: The builtin ``sum`` calls ``repro.fusion``, ``repro.schema`` and
#: ``repro.text`` keep, by module and enclosing function: each adds
#: integers, where every order is exact.
INTEGER_SUMS = {
    ("fusion/base.py", "ClaimIndex.__init__"): 1,  # n_claims
    ("fusion/base.py", "FusionResult.accuracy_against"): 1,  # correct count
    ("fusion/copydetect.py", "CopyDetector._dependence"): 1,  # sum(counts)
    ("fusion/copydetect.py", "CopyDetector.direction"): 1,  # sum(counts)
    ("fusion/voting.py", "VotingFuser.fuse"): 1,  # the count total
    ("linkage/metablocking.py", "meta_block"): 1,  # total_memberships
    ("schema/correspondence.py", "score_all_pairs"): 1,  # math.comb pairs
    ("text/similarity.py", "cosine_similarity"): 3,  # token count products
    ("text/similarity.py", "model_number_factor.partnered"): 1,  # a count
}


def _builtin_sums(path: Path) -> dict[tuple[str, str], int]:
    """``{(package/module file, enclosing function): calls of builtin
    sum}``."""
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
                key = (f"{path.parent.name}/{path.name}", scope)
                calls[key] = calls.get(key, 0) + 1
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return calls


def test_fusion_sums_are_exact():
    """Every float sum in fusion, schema alignment, the text
    similarities and meta-blocking is ``math.fsum``, whose result does
    not depend on the order of its terms or on the Python version
    (builtin ``sum`` compensates since 3.12, and adds in whatever order
    it is handed). No fixed addition order may come back: no
    ``ordered_sum`` and no ``functools.reduce`` under ``repro.fusion``
    or ``repro.outofcore``, and builtin ``sum`` under ``repro.fusion``,
    ``repro.schema``, ``repro.text`` and ``repro.linkage.metablocking``
    only on the integer sums named in :data:`INTEGER_SUMS`."""
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
    for package in ("fusion", "schema", "text"):
        for path in sorted((source / package).glob("*.py")):
            sums.update(_builtin_sums(path))
    sums.update(_builtin_sums(source / "linkage" / "metablocking.py"))
    assert sums == INTEGER_SUMS


def test_every_run_option_is_a_lattice_dimension():
    """However ``resolve`` or the pipeline can be run, the lattice
    (``tests/test_lattice.py``) runs it that way: every keyword of
    ``resolve`` and ``BDIPipeline.run`` and every ``PipelineConfig``
    field is drawn by a cell field, or is exempt with its reason. A
    keyword added without a dimension fails here."""
    import inspect

    from repro.core.pipeline import BDIPipeline, PipelineConfig
    from repro.linkage import resolve
    from tests import test_lattice as lattice

    keywords = {
        "resolve": set(inspect.signature(resolve).parameters),
        "PipelineConfig": set(PipelineConfig.__dataclass_fields__),
        "run": set(inspect.signature(BDIPipeline.run).parameters) - {"self"},
    }
    drawn = {
        "resolve": lattice.RESOLVE_DIMENSIONS,
        "PipelineConfig": lattice.PIPELINE_DIMENSIONS,
        "run": lattice.RUN_DIMENSIONS,
    }
    fields = set(lattice.Cell.__dataclass_fields__)
    for surface, names in keywords.items():
        exempt = lattice.EXEMPT[surface]
        assert names == set(drawn[surface]) | set(exempt), surface
        assert not set(drawn[surface]) & set(exempt) and all(exempt.values())
        assert set(drawn[surface].values()) <= fields



def test_memos_belong_to_what_uses_them():
    """A comparator builds its own similarity memos: under ``src/repro``
    no ``lru_cache`` or ``functools.cache`` is applied at module or
    class level but the two string memos, and the old process-wide
    registry is named nowhere."""

    def memoized(body):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from memoized(node.body)
            elif {"lru_cache", "cache"} & {
                getattr(child, "id", getattr(child, "attr", None))
                for part in getattr(node, "decorator_list", [node])
                for child in ast.walk(part)
            }:
                yield getattr(node, "name", ast.unparse(node))

    source = sorted((ROOT / "src" / "repro").rglob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in source]
    found = {name for tree in trees for name in memoized(tree.body)}
    assert found == {"normalize_value", "word_token_tuple"}
    gone = re.compile(r"\bMEMO_CACHES\b|\bclear_memo_caches\b")
    assert [
        path
        for root in (ROOT / "src", ROOT / "tests", BENCHMARKS, SKILL.parent)
        for path in sorted(root.rglob("*.[mp][dy]"))
        if gone.search(path.read_text(encoding="utf-8"))
    ] == []


#: Exported names nothing outside ``tests/`` reaches, each with the
#: reason it stays.
ALLOWLIST = {
    "estimation_rmse": "the metric the streaming drift tests score with",
    "load_dataset": "reads what save_dataset writes; validates outside input",
    "task_pairs": "the tests' reference for what a MatchTask compares",
}


def _exported_names() -> dict[str, str]:
    """Every name in a package's lazy table or a module's ``__all__``
    under ``src/repro``, with the file that exports it."""
    source = ROOT / "src" / "repro"
    exported: dict[str, str] = {}
    for path in sorted(source.rglob("*.py")):
        where = str(path.relative_to(source))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "export"
            ):
                table = ast.literal_eval(node.args[1])
                for names in table.values():
                    exported.update(dict.fromkeys(names.split(), where))
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                names = ast.literal_eval(node.value)
                exported.update(dict.fromkeys(names, where))
    return exported


def _references(tree: ast.AST) -> set[str]:
    """The identifiers ``tree`` reads: names, attributes, import aliases
    and the names inside string annotations. Definitions, ``__all__``
    and lazy-table strings and docstrings are not references."""
    found: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(
            node.ctx, ast.Store
        ):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found |= _references(ast.parse(node.value, mode="eval"))
    return found


def test_every_public_name_has_a_caller():
    """Code only its own tests call reproduces nothing and is carried by
    every later change: every exported name under ``src/repro`` is read
    somewhere in ``src/``, ``benchmarks/`` or ``examples/`` (its own
    module counts), or is in :data:`ALLOWLIST` with its reason. An
    allowlisted name that gains a caller leaves the list."""
    reached: set[str] = set()
    for root in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / root).rglob("*.py")):
            reached |= _references(ast.parse(path.read_text(encoding="utf-8")))
    exported = _exported_names()
    unreached = {
        name: where for name, where in exported.items() if name not in reached
    }
    assert sorted(unreached) == sorted(ALLOWLIST), unreached
    assert len(ALLOWLIST) <= 4 and all(ALLOWLIST.values())


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reached from
    the longest module prefix of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(value, part):
                return False
            value = getattr(value, part)
        return True
    return False


def test_the_readme_names_only_what_exists():
    """Every ``repro.…`` dotted name in the README, and every name its
    Python examples import from ``repro``, resolves."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\brepro(?:\.\w+)+", text))
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith(
                "repro"
            ):
                named.update(
                    f"{node.module}.{alias.name}" for alias in node.names
                )
    assert len(named) > 20, "the patterns went stale"
    assert sorted(name for name in named if not _resolves(name)) == []
