"""The import contract: a package loads only what is read from it, and
no call on the default path imports anything.

Every ``repro`` package ``__init__`` is one submodule → names table,
resolved on first use by :func:`repro._lazy.export`. Three things pin
it:

* what each entry point loads, each in a fresh interpreter (the test
  process has long since imported everything);
* that the calls the benchmark times — a default pipeline run, every
  fuser, a streaming window, the service's operations — leave
  ``sys.modules`` as they found it, so none pays a first import;
* that each package's ``__all__``, ``dir()``, attribute access and
  star import agree with its table.
"""

import importlib
import json
import pkgutil

import pytest

import repro
from tests.procs import run_python


def _run(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter on ``src``; its stdout."""
    finished = run_python("-c", script, *args)
    assert finished.returncode == 0, finished.stderr[-2000:]
    return finished.stdout


# --- what each entry point loads --------------------------------------

#: Statement → the ``repro`` subpackages it loads (besides ``repro``
#: and its table helper). Importing a package loads its table only;
#: reading a name loads the submodule that defines it and its imports.
LOADS = {
    "import repro": set(),
    "import repro.core.record": {"core"},
    "import repro.text": {"text"},
    "import repro.fusion": {"fusion"},
    "import repro.streaming": {"streaming"},
    "import repro.serve": {"serve"},
    "import repro.core.pipeline": {
        "core", "fusion", "linkage", "obs", "outofcore", "quality",
        "recovery", "resilience", "schema", "text",
    },
    "from repro.fusion import ClaimSet": {"core", "fusion"},
    "from repro.fusion import AccuCopy": {
        "core", "fusion", "obs", "recovery",
    },
    "from repro.streaming import StreamingResolver": {
        "core", "fusion", "linkage", "obs", "outofcore", "recovery",
        "resilience", "streaming", "text",
    },
    "from repro.serve import ResolutionService": {
        "core", "fusion", "io", "linkage", "obs", "outofcore", "recovery",
        "resilience", "serve", "supervision", "text",
    },
}

LOADED_SCRIPT = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(name for name in sys.modules
                        if name == "numpy" or name.startswith("repro"))))
"""


@pytest.mark.parametrize("statement", sorted(LOADS))
def test_entry_point_loads_only_its_subpackages(statement):
    loaded = json.loads(_run(LOADED_SCRIPT, statement))
    assert "numpy" not in loaded
    assert {
        name.split(".")[1] for name in loaded if name.count(".")
    } - {"_lazy"} == LOADS[statement]


ADDED_SCRIPT = """
import importlib, json, sys
repro = lambda: {m for m in sys.modules if m.split(".")[0] == "repro"}
for name in json.loads(sys.argv[1]):
    before = repro()
    importlib.import_module(name)
    print(name, *sorted(repro() - before))
"""


def test_import_of_any_package_loads_its_table_only():
    """``import repro.<pkg>``, after its parent's, adds that package
    alone; ``import repro`` adds ``repro`` and ``repro._lazy``."""
    added = _run(ADDED_SCRIPT, json.dumps(PACKAGES)).splitlines()
    assert added == ["repro repro repro._lazy"] + [
        f"{name} {name}" for name in PACKAGES[1:]
    ]


# --- no timed call imports anything -----------------------------------

RUN_PATH_SCRIPT = r"""
import sys, tempfile

def loads(call):
    before = set(sys.modules)
    call()
    print(" ".join(sorted(set(sys.modules) - before)))

scenario = sys.argv[1]
if scenario == "pipeline":
    from repro.core.pipeline import BDIPipeline
    from repro.synth import FourVKnobs, build_corpus

    knobs = FourVKnobs(volume=0.05, variety=0.5, veracity=0.3)
    dataset = build_corpus(knobs).dataset
    pipeline = BDIPipeline()
    loads(lambda: pipeline.run(dataset))
elif scenario in {"VotingFuser", "AccuVote", "TruthFinder", "AccuCopy",
                  "CRHNumericFuser"}:
    import repro.fusion
    from repro.fusion import Claim, ClaimSet

    claims = ClaimSet()
    for source in range(5):
        for item in range(6):
            value = f"{10 + (item + source) % 3} kg"
            claims.add(Claim(f"s{source}", f"i{item}", value))
    fuser = getattr(repro.fusion, scenario)()
    loads(lambda: fuser.fuse(claims))
elif scenario == "streaming":
    from repro.linkage import ThresholdClassifier, default_product_comparator
    from repro.linkage.blocking import first_token_key
    from repro.streaming import (
        DriftStreamConfig, DriftWorld, StreamingResolver, WindowConfig,
    )

    world = DriftWorld(DriftStreamConfig(n_entities=6, n_sources=3, seed=7))
    resolver = StreamingResolver(
        key_functions=[first_token_key("name")],
        comparator=default_product_comparator(),
        classifier=ThresholdClassifier(0.72),
        source_accuracies=world.accuracies_at(0.0),
        window=WindowConfig(size=1.0),
    )
    windows = resolver.process(world.stream())
    loads(lambda: next(windows))
elif scenario == "serve":
    from repro.core import Record
    from repro.linkage import (
        StandardBlocker, ThresholdClassifier, default_product_comparator,
    )
    from repro.linkage.blocking import first_token_key
    from repro.serve import ResolutionService

    root = tempfile.mkdtemp()

    def service():
        return ResolutionService(
            root,
            key_functions=[first_token_key("name")],
            comparator=default_product_comparator(),
            classifier=ThresholdClassifier(0.72),
            refresh_blocker=StandardBlocker(first_token_key("name")),
        )

    live = service()
    records = [
        Record(f"r{i}", f"s{i % 3}", {"name": f"canon eos {i // 3}"})
        for i in range(12)
    ]

    def operations():
        for record in records[:-1]:
            result = live.ingest(record)
        live.match(records[-1])
        live.get(result.entity_id)
        live.refresh()
        live.checkpoint()
        service().snapshot()

    loads(operations)
"""

SCENARIOS = [
    "pipeline",
    "VotingFuser",
    "AccuVote",
    "TruthFinder",
    "AccuCopy",
    "CRHNumericFuser",
    "streaming",
    "serve",
]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_timed_call_imports_nothing(scenario):
    assert _run(RUN_PATH_SCRIPT, scenario).split() == []


# --- every package's names agree with its table -----------------------

PACKAGES = sorted(
    [repro.__name__]
    + [
        module.name
        for module in pkgutil.walk_packages(repro.__path__, "repro.")
        if module.ispkg
    ]
)


def test_every_package_is_covered():
    assert len(PACKAGES) == 22  # repro, its 19 subpackages, 2 nested


@pytest.mark.parametrize("name", PACKAGES)
def test_all_matches_dir_getattr_and_star_import(name):
    package = importlib.import_module(name)
    assert package.__all__
    assert set(package.__all__) <= set(dir(package))
    for exported in package.__all__:
        assert getattr(package, exported) is not None
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(package.__all__)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_module(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no"):
        package.no_such_name
    with pytest.raises(AttributeError, match=f"module '{name}' has no"):
        package.__no_such_dunder__


@pytest.mark.parametrize("name", PACKAGES)
def test_submodules_are_attributes(name):
    package = importlib.import_module(name)
    for child in pkgutil.iter_modules(package.__path__):
        assert getattr(package, child.name) is importlib.import_module(
            f"{name}.{child.name}"
        )


def test_subpackage_attribute_access_in_a_fresh_interpreter():
    script = """
import repro, repro.linkage
assert repro.synth.build_corpus is repro.build_corpus
assert repro.linkage.blocking.TokenBlocker is repro.linkage.TokenBlocker
assert "synth" in dir(repro) and "TokenBlocker" in dir(repro.linkage)
print("ok")
"""
    assert _run(script).strip() == "ok"
