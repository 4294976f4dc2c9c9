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
import textwrap
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


#: The builtin ``sum`` calls ``repro.fusion``, ``repro.schema``,
#: ``repro.text``, meta-blocking and the Fellegi-Sunter EM keep, by
#: module and enclosing function: each adds integers, where every order
#: is exact.
INTEGER_SUMS = {
    ("fusion/base.py", "ClaimIndex.__init__"): 1,  # n_claims
    ("fusion/base.py", "FusionResult.accuracy_against"): 1,  # correct count
    ("fusion/copydetect.py", "CopyDetector._dependence"): 1,  # sum(counts)
    ("fusion/copydetect.py", "CopyDetector.direction"): 1,  # sum(counts)
    ("fusion/voting.py", "VotingFuser.fuse"): 1,  # the count total
    ("classify/fellegi_sunter.py", "fit_fellegi_sunter"): 1,  # total_pairs
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
    similarities, meta-blocking and the Fellegi-Sunter EM is
    ``math.fsum``, whose result does
    not depend on the order of its terms or on the Python version
    (builtin ``sum`` compensates since 3.12, and adds in whatever order
    it is handed). No fixed addition order may come back: no
    ``ordered_sum`` and no ``functools.reduce`` under ``repro.fusion``
    or ``repro.outofcore``, and builtin ``sum`` under ``repro.fusion``,
    ``repro.schema``, ``repro.text``, ``repro.linkage.metablocking``
    and ``repro.linkage.classify.fellegi_sunter`` only on the integer
    sums named in :data:`INTEGER_SUMS`."""
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
    sums.update(
        _builtin_sums(source / "linkage" / "classify" / "fellegi_sunter.py")
    )
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


#: Parameters that are seams, not options: a test hands in a fake
#: tracer, clock or sleeper, and a deployment says where its state
#: lives.
SEAMS = {
    "checkpoint",
    "checkpoint_store",
    "clock",
    "dead_letter_path",
    "heartbeat_dir",
    "path",
    "root",
    "sleeper",
    "spill_dir",
    "store",
    "tracer",
}

#: Types whose fields are what a call returns, not what it is told.
RESULT_TYPES = {"AttributeProfile", "ResilientOutcome", "TrafficResult"}

#: The type a seam holds where its code does not annotate it: a call
#: on ``tracer`` or ``self._tracer`` is a call on a :class:`Tracer`.
SEAM_TYPES = {"tracer": "Tracer", "checkpoint": "RunStore"}

#: Classes that answer for another by duck typing — a null object, an
#: out-of-core twin — and take what it takes: a call that may reach one
#: may reach the other.
STAND_INS = {"NullTracer": "Tracer", "SpillableClaimGroups": "ClaimSet"}

#: The surfaces the ledger calls, which become one configuration value
#: in a ledger PR (ROADMAP item 2).
LEDGER_BOUND = {"resolve", "PipelineConfig", "BDIPipeline.run"}

#: Options that nothing outside ``tests/`` sets, each with the reason it
#: stays an option.
OPTION_ALLOWLIST = {
    "AccuCopy.detector": (
        "the copy tests hand in a detector of another rate or overlap"
    ),
    "AccuCopy.outer_iterations": (
        "max_iterations=0 is the refusal each solver is tested for"
    ),
    "AccuVote.max_iterations": (
        "max_iterations=0 is the refusal each solver is tested for"
    ),
    "CRHNumericFuser.loss": (
        "CRH's squared loss, its second published rule, is tested"
    ),
    "CRHNumericFuser.max_iterations": (
        "max_iterations=0 is the refusal each solver is tested for"
    ),
    "CanopyBlocker.text_function": (
        "the streaming-refusal tests key canopies on one attribute"
    ),
    "ClaimWorldConfig.copier_chains": (
        "the generator test plants copier chains"
    ),
    "CopyDetector.min_overlap": "the detector tests sweep the overlap floor",
    "CopyDetector.prior": (
        "AccuCopy's fingerprint renders its detector field by field"
    ),
    "CorpusConfig.source_size_zipf": (
        "batch_link passes it through a dict the pin does not read"
    ),
    "DriftStreamConfig.accuracy_high": (
        "the streaming tests plant flips, copiers and truth churn"
    ),
    "DriftStreamConfig.accuracy_low": (
        "the streaming tests plant flips, copiers and truth churn"
    ),
    "DriftStreamConfig.copier_accuracy": (
        "the streaming tests plant flips, copiers and truth churn"
    ),
    "DriftStreamConfig.copier_at": (
        "the streaming tests plant flips, copiers and truth churn"
    ),
    "DriftStreamConfig.copier_parent": (
        "the streaming tests plant flips, copiers and truth churn"
    ),
    "DriftStreamConfig.copy_rate": (
        "the streaming tests plant flips, copiers and truth churn"
    ),
    "DriftStreamConfig.coverage": (
        "the streaming tests plant flips, copiers and truth churn"
    ),
    "DriftStreamConfig.missing_rate": (
        "hashed by the ledger's input digest of the stream workload"
    ),
    "DriftStreamConfig.n_false_values": (
        "hashed by the ledger's input digest of the stream workload"
    ),
    "DriftStreamConfig.truth_change_rate": (
        "the streaming tests plant flips, copiers and truth churn"
    ),
    "EvolvingWorldConfig.replace": (
        "a test lets entities die without replacement"
    ),
    "FaultInjector.fired.kind": (
        "the fault toolkit's audit filter, read by its tests"
    ),
    "FaultSpec.delay": "a fault-toolkit rule the resilience tests drive",
    "FaultSpec.payload": "a fault-toolkit rule the resilience tests drive",
    "FieldComparator.normalize": (
        "the engine oracles compare raw and normalized fields"
    ),
    "GreedySourceSelector.max_sources": (
        "the less-is-more tests cap the selection; E11 ranks all"
    ),
    "GreedySourceSelector.stop_when_unprofitable": (
        "the less-is-more stop is tested; E11 ranks all"
    ),
    "HybridMatcher.name_weight": (
        "the matcher oracle sweeps the weight across its branch point"
    ),
    "ManualClock.start": "a fake clock's start, set by the tests that use it",
    "NumericClaimWorldConfig.coverage": (
        "the numeric fusion tests vary the planted world"
    ),
    "NumericClaimWorldConfig.noise_range": (
        "the numeric fusion tests vary the planted world"
    ),
    "NumericClaimWorldConfig.value_range": (
        "the numeric fusion tests vary the planted world"
    ),
    "OverloadPolicy.admission_retry_after": (
        "overload tests pin the hint a refused ingest returns"
    ),
    "Record.get.default": "Record.get answers as Mapping.get does",
    "RecordComparator.missing_penalty": (
        "the engine oracles draw it; fingerprints render it"
    ),
    "RecordComparator.score_bounded.exact_scores": (
        "the engine oracle checks exact and decision-only scoring"
    ),
    "ResilienceConfig.dead_letter_max_entries": (
        "a serve test bounds the log under a fault storm"
    ),
    "ResilienceConfig.timeout": (
        "the hang scenario and the timeout tests bound an attempt"
    ),
    "ResolutionService.ingest.deadline": "overload tests bound one ingest",
    "ResolutionService.refresh.deadline": (
        "an overload test bounds one refresh"
    ),
    "RetryPolicy.jitter": "the backoff tests pin jittered schedules",
    "SnapshotConfig.replace_sources": (
        "a test retires sources without replacement"
    ),
    "StreamingResolver.run.max_windows": (
        "the resume tests stop the stream after a few windows"
    ),
    "SupervisionPolicy.stale_polls": "the heartbeat tests tune staleness",
    "ThresholdClassifier.review_threshold": (
        "the three-way review band; fingerprints render it"
    ),
    "TokenBlocker.min_token_length": (
        "the blocking tests and the lattice key on short tokens"
    ),
    "TrafficConfig.get_fraction": (
        "serve_mixed passes it through a dict the pin does not read"
    ),
    "TrafficConfig.ingest_fraction": (
        "serve_mixed passes it through a dict the pin does not read"
    ),
    "TruthFinder.implication_weight": (
        "value implication, held by golden digests"
    ),
    "TruthFinder.max_iterations": (
        "max_iterations=0 is the refusal each solver is tested for"
    ),
    "TruthFinder.similarity": "value implication, held by golden digests",
    "TruthFinder.tolerance": "the resume tests tighten it to run many rounds",
    "WindowConfig.lag": "the late-record tests lag the watermark",
    "WindowConfig.late": "the late-record tests choose the late policy",
    "baseline_order.reference_truth": (
        "the selection tests order by planted truth"
    ),
    "crash.max_fires": "a fault-toolkit rule the resilience tests drive",
    "crash.shard": "a fault-toolkit rule the resilience tests drive",
    "default_product_comparator.translate": (
        "how a comparator reads a mediated schema (item 24)"
    ),
    "detect_identifier_attributes.min_score": "the detector tests sweep it",
    "detect_identifier_attributes.per_source": "the detector tests sweep it",
    "fit_fellegi_sunter.max_iterations": (
        "max_iterations=0 is the refusal each solver is tested for"
    ),
    "fuse_entity.pick": (
        "the live vote's claim rule; the differential tests call each"
    ),
    "jaro_winkler_similarity.prefix_weight": (
        "Winkler's p; the similarity tests check its bound"
    ),
    "meta_block.node_degree": "a CNP test keeps one edge per node",
    "profile_attributes.sources": "a test profiles one source",
    "qgrams.pad": "the unpadded q-gram set, pinned by its tests",
    "score_all_pairs.cross_source_only": (
        "the matcher oracle sweeps within-source pairs too"
    ),
    "sharded_resolve.chunk_size": "the kill and resume tests cut small chunks",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """A dataclass's own ``__init__`` fields, each with whether it has
    a default."""
    fields = []
    for statement in node.body:
        if not (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and "ClassVar" not in ast.unparse(statement.annotation)
        ):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and any(
            keyword.arg == "init"
            and getattr(keyword.value, "value", None) is False
            for keyword in value.keywords
        ):
            continue
        fields.append((statement.target.id, value is not None))
    return fields


def _parameters(function: ast.FunctionDef, method: bool):
    """``(name, position or None, has a default)`` per parameter, the
    bound ``self``/``cls`` left out."""
    args = function.args
    positional = args.posonlyargs + args.args
    decorators = map(ast.unparse, function.decorator_list)
    if method and "staticmethod" not in decorators:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        yield arg.arg, index, index >= first_default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        yield arg.arg, None, default is not None


def _parse(*roots) -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for root in roots
        for path in sorted((ROOT / root).rglob("*.py"))
    ]


class _Classes:
    """The public classes of a set of modules: their bases, the methods
    each defines, and what each method and function is annotated to
    return."""

    def __init__(self, modules) -> None:
        self.nodes: dict[str, ast.ClassDef] = {}
        self.returns: dict[str, list] = {}
        self.defined_by: dict[str, set[str]] = {}
        for module in modules:
            for node in module.body:
                if isinstance(node, ast.FunctionDef):
                    self.returns.setdefault(node.name, []).append(
                        node.returns
                    )
                if not isinstance(node, ast.ClassDef):
                    continue
                if not node.name.startswith("_"):
                    self.nodes[node.name] = node
                for statement in node.body:
                    if isinstance(statement, ast.FunctionDef):
                        self.defined_by.setdefault(
                            statement.name, set()
                        ).add(node.name)
                        self.returns.setdefault(statement.name, []).append(
                            statement.returns
                        )

    def bases(self, name: str) -> list[str]:
        node = self.nodes.get(name)
        if node is None:
            return []
        return [ast.unparse(b).split(".")[-1] for b in node.bases]

    def ancestry(self, name: str) -> set[str]:
        seen, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current not in seen:
                seen.add(current)
                todo.extend(self.bases(current))
        return seen

    def related(self, a: str, b: str) -> bool:
        """Whether a call on an ``a`` may run ``b``'s method: one is
        the other, derives from it or stands in for it."""
        a, b = STAND_INS.get(a, a), STAND_INS.get(b, b)
        return a in self.ancestry(b) or b in self.ancestry(a)

    def ambiguous(self, method: str) -> bool:
        """Whether a call of ``method`` on a receiver of unknown type
        may be some other method: two classes define the name, or a
        builtin type has it."""
        return len(self.defined_by.get(method, ())) > 1 or any(
            hasattr(builtin, method)
            for builtin in (dict, list, set, str, bytes, tuple, int, float)
        )

    def constructor(self, name: str) -> str | None:
        """The class whose ``__init__`` (or fields) ``name()`` calls."""
        node = self.nodes[name]
        if _is_dataclass(node) or any(
            getattr(s, "name", None) == "__init__" for s in node.body
        ):
            return name
        return next(
            (
                self.constructor(b)
                for b in self.bases(name)
                if b in self.nodes
            ),
            None,
        )

    def fields(self, name: str):
        inherited = [
            field
            for base in self.bases(name)
            if base in self.nodes and _is_dataclass(self.nodes[base])
            for field in self.fields(base)
        ]
        own = _fields(self.nodes[name])
        names = {field for field, __ in own}
        return [f for f in inherited if f[0] not in names] + own


def _options(modules, classes: _Classes) -> dict:
    """Every defaulted parameter of a public function, method or
    constructor in ``modules``, and every defaulted field of a public
    dataclass: ``{"Owner.name": (callee names, name, position,
    method owner)}``. A constructor's callees are its class and the
    subclasses that inherit it; a dataclass field is also set by
    ``replace``. A method's option names the class that owns it, which
    a call's receiver must be related to."""
    options = {}
    for module in modules:
        for node in module.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith(
                "_"
            ):
                for name, index, default in _parameters(node, method=False):
                    if default:
                        options[f"{node.name}.{name}"] = (
                            {node.name}, name, index, None
                        )
    for owner, node in classes.nodes.items():
        if owner in RESULT_TYPES:
            continue
        built_by = {
            c for c in classes.nodes if classes.constructor(c) == owner
        }
        methods = {
            s.name: s for s in node.body if isinstance(s, ast.FunctionDef)
        }
        if _is_dataclass(node) and "__init__" not in methods:
            own = {field for field, __ in _fields(node)}
            for index, (name, default) in enumerate(classes.fields(owner)):
                if default and name in own:
                    options[f"{owner}.{name}"] = (
                        built_by | {"replace"}, name, index, None
                    )
        for method, function in methods.items():
            if method.startswith("_") and method != "__init__":
                continue
            if method == "__init__":
                callees, qualified, receiver = built_by, owner, None
            else:
                callees, qualified, receiver = (
                    {method}, f"{owner}.{method}", owner
                )
            for name, index, default in _parameters(function, method=True):
                if default:
                    options[f"{qualified}.{name}"] = (
                        callees, name, index, receiver
                    )
    return options


def _mentions(annotation) -> set[str]:
    """The names an annotation mentions (a quoted one is parsed)."""
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        annotation = ast.parse(annotation.value, mode="eval")
    return {
        getattr(n, "id", getattr(n, "attr", None))
        for n in ast.walk(annotation)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _made(nodes, classes: _Classes, key) -> dict[str, set[str]]:
    """``{key(target): {class}}`` over the assignments in ``nodes`` of
    a call of a known class."""
    types: dict[str, set[str]] = {}
    for node in nodes:
        for child in ast.walk(node):
            if isinstance(child, ast.Assign) and isinstance(
                child.value, ast.Call
            ):
                made = getattr(child.value.func, "id", None)
                for target in child.targets:
                    name = key(target)
                    if name is not None and made in classes.nodes:
                        types.setdefault(name, set()).add(made)
    return types


def _calls(modules, classes: _Classes) -> dict[str, list]:
    """``{callee name: [(positional arguments, keywords, receiver
    types)]}`` over every call in ``modules``: ``cls(...)`` is the
    enclosing class, ``super().__init__`` its base, ``partial(f, ...)``
    a call of ``f``, and ``replace(obj, ...)`` sets its keywords only.
    A ``*`` or ``**`` argument sets nothing by name. An attribute
    call's receiver types come from ``self``, a class, a constructor
    call, a parameter's annotation, an assignment of a constructor call
    to the name or ``self`` attribute, :data:`SEAM_TYPES`, or the
    annotated returns of the method that made it; ``None`` when none of
    these says."""
    found: dict[str, list] = {}

    def own(target):
        return getattr(target, "id", None)

    def attribute(target):
        if (
            isinstance(target, ast.Attribute)
            and getattr(target.value, "id", None) == "self"
        ):
            return target.attr
        return None

    def returned(method):
        annotations = classes.returns.get(method, [None])
        if None in annotations:
            return None
        return set().union(*map(_mentions, annotations))

    def seam(name):
        return {SEAM_TYPES[name]} if name in SEAM_TYPES else None

    def receiver(node, owner, local, members):
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and owner:
                return {owner}
            if node.id in classes.nodes:
                return {node.id}
            return local.get(node.id, seam(node.id))
        if attribute(node) is not None:
            name = attribute(node)
            return members.get(name, seam(name.lstrip("_")))
        if isinstance(node, ast.Call):
            made = getattr(node.func, "id", None)
            if made in classes.nodes:
                return {made}
            if isinstance(node.func, ast.Attribute):
                return returned(node.func.attr)
        return None

    def visit(node, owner, base, local, members):
        def called(function):
            name = getattr(function, "id", getattr(function, "attr", None))
            if isinstance(function, ast.Attribute):
                return name, receiver(function.value, owner, local, members)
            return name, None

        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases = [ast.unparse(b).split(".")[-1] for b in child.bases]
                visit(
                    child,
                    child.name,
                    bases[0] if bases else None,
                    {},
                    _made(child.body, classes, attribute),
                )
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = child.args
                annotated = {
                    arg.arg: _mentions(arg.annotation)
                    for arg in arguments.posonlyargs
                    + arguments.args
                    + arguments.kwonlyargs
                    if arg.annotation is not None
                }
                inner = {
                    **local, **annotated, **_made(child.body, classes, own)
                }
                visit(child, owner, base, inner, members)
                continue
            if isinstance(child, ast.Call):
                args = list(child.args)
                name, receivers = called(child.func)
                if name == "cls":
                    name = owner
                if name == "__init__" and "super" in ast.unparse(child.func):
                    name = base
                if name == "partial" and args:
                    name, receivers = called(args.pop(0))
                if name == "replace":
                    args = []
                positional = sum(not isinstance(a, ast.Starred) for a in args)
                keywords = {k.arg for k in child.keywords if k.arg}
                found.setdefault(name, []).append(
                    (positional, keywords, receivers)
                )
            visit(child, owner, base, local, members)

    for module in modules:
        visit(module, None, None, {}, {})
    return found


def _unset_options(callers, package=None) -> set[str]:
    """The options in ``package`` (default: ``src/repro``) that no
    call in ``callers`` sets. A method's option is set only by a call
    on a receiver related to its class, or, when the receiver's type
    is not known, by a call of a method name nothing else defines."""
    package = _parse("src/repro") if package is None else package
    classes = _Classes(package)
    calls = _calls(callers, classes)

    def sets(receivers, owner, callee):
        if owner is None:
            return True
        if receivers is None:
            return not classes.ambiguous(callee)
        return any(classes.related(r, owner) for r in receivers)

    return {
        option
        for option, (callees, name, index, owner) in _options(
            package, classes
        ).items()
        if not any(
            (name in keywords or (index is not None and positional > index))
            and sets(receivers, owner, callee)
            for callee in callees
            for positional, keywords, receivers in calls.get(callee, [])
        )
    }


def test_every_option_has_a_caller():
    """An option no program sets is a constant with a branch nobody
    runs: every defaulted parameter of a public function, method or
    constructor under ``src/repro`` and every defaulted field of a
    public dataclass is passed, by name or by position, by some call in
    ``src/``, ``benchmarks/`` or ``examples/``. Seams (:data:`SEAMS`),
    result types (:data:`RESULT_TYPES`) and the ledger-bound surfaces
    (:data:`LEDGER_BOUND`) are exempt; :data:`OPTION_ALLOWLIST` holds
    the rest, each with its reason, and an entry that gains a caller
    leaves the list."""
    unset = {
        option
        for option in _unset_options(_parse("src", "benchmarks", "examples"))
        if option.rsplit(".", 1)[1] not in SEAMS
        and option.rsplit(".", 1)[0] not in LEDGER_BOUND
    }
    assert sorted(unset) == sorted(OPTION_ALLOWLIST), sorted(
        unset ^ set(OPTION_ALLOWLIST)
    )
    assert all(OPTION_ALLOWLIST.values())


def test_a_same_named_method_is_not_a_caller():
    """A call sets a method's option only on a receiver that may be of
    the method's class: a method of the same name on another class, or
    on a builtin, does not set it, nor does a call on a receiver of
    unknown type when more than one class defines the name."""
    package = [
        ast.parse(
            textwrap.dedent(
                """
                class Fuser:
                    def fuse(self, claims, rounds=1): ...
                class Other:
                    def fuse(self, claims, rounds=1): ...
                class Row:
                    def get(self, key, default=None): ...
                    def render(self, width=80): ...
                """
            )
        )
    ]

    def unset(caller):
        return _unset_options([ast.parse(caller)], package)

    every = {
        "Fuser.fuse.rounds",
        "Other.fuse.rounds",
        "Row.get.default",
        "Row.render.width",
    }
    assert unset("Other().fuse(c, rounds=2)") == every - {"Other.fuse.rounds"}
    assert unset("def f(fuser):\n    fuser.fuse(c, rounds=2)") == every
    assert unset("def f(fuser: Fuser):\n    fuser.fuse(c, 2)") == every - {
        "Fuser.fuse.rounds"
    }
    assert unset("{}.get('key', 0)") == every
    assert unset("row.render(width=40)") == every - {"Row.render.width"}
