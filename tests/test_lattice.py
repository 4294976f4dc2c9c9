"""One lattice, one oracle: every way to run ``resolve`` and the
pipeline is checked against one reference.

A :class:`Cell` is one way to run the work. Its result must equal
:func:`tests.oracle.reference_resolve` (a ``resolve`` cell) or the
plain serial run of its semantic fields (a pipeline cell) byte for
byte, or raise the :data:`REFUSALS` rule that refuses it. A new way to
run the work is a new dimension here, not a new harness:
``tests/test_repo_layout.py`` fails on a keyword of ``resolve``,
``PipelineConfig`` or ``BDIPipeline.run`` that no ``*_DIMENSIONS``
table draws and :data:`EXEMPT` does not name. Cells that start worker
processes are the ``slow`` tests'. The draws are derandomized, so a
failure reproduces from its test id. No poison pair is aborted and
resumed: fault injectors are not in a checkpoint's fingerprint, so a
resume replays chunks saved before the poison existed.
"""

import dataclasses
import functools
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import linkage
from repro.core import ConfigurationError, Record
from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.fusion.accucopy import SPILLED_CLAIMS_REFUSED
from repro.linkage import ThresholdClassifier, resolve
from repro.linkage.blocking import NAME_ALIASES, first_token_key
from repro.obs import Tracer
from repro.outofcore import MemoryBudget, pair_nbytes
from repro.recovery import RunStore
from repro.resilience import ChunkExecutionError, ResilienceConfig, RetryPolicy
from repro.resilience.testing import FaultInjector, crash
from repro.supervision import SupervisionPolicy, Supervisor
from repro.synth import CorpusConfig, WorldConfig, generate_dataset
from repro.synth import generate_world
from tests.oracle import reference_resolve

COMPARATOR = linkage.default_product_comparator()
BUDGETS = {"tight": 4_000, "roomy": 50_000_000}
# (seed, entities, sources): small camera worlds, and one wide enough
# that a streamed run cuts two 2,048-pair chunks.
WORLDS = {f"world-{seed}": (seed, 6, 4) for seed in (3, 5, 7)}
DRAWN_WORLDS = tuple(WORLDS)
WORLDS["wide-world"] = (3, 20, 6)

short_word = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
)


@st.composite
def random_rows(draw):
    """2–30 ``(id, source, name)`` rows of one to four short words."""
    n = draw(st.integers(min_value=2, max_value=30))
    return tuple(
        (f"r{index:03d}", f"s{index % 3}", " ".join(words))
        for index, words in enumerate(
            draw(st.lists(short_word, min_size=1, max_size=4))
            for __ in range(n)
        )
    )


def random_records():
    return random_rows().map(corpus_records)


@functools.cache
def world(name):
    seed, entities, sources = WORLDS[name]
    config = WorldConfig(("camera",), entities_per_category=entities,
                         seed=seed)
    return generate_dataset(
        generate_world(config), CorpusConfig(n_sources=sources, seed=seed)
    )


def corpus_records(corpus):
    """A named world's records, or drawn ``(id, source, name)`` rows."""
    if isinstance(corpus, str):
        return list(world(corpus).records())
    return [Record(id_, src, {"name": name}) for id_, src, name in corpus]


def _first_value(record):
    # Synthetic sources rename attributes per dialect, so key on the
    # lexicographically smallest value: deterministic for any record.
    return min(map(str, record.attributes.values()), default="")


BLOCKERS = {
    "standard": lambda: linkage.StandardBlocker(
        first_token_key("name", aliases=NAME_ALIASES)
    ),
    "token": lambda: linkage.TokenBlocker(40, min_token_length=1),
    "qgram": lambda: linkage.QGramBlocker(_first_value, max_block_size=12),
    "suffix": lambda: linkage.SuffixArrayBlocker(_first_value, 3, 4),
    "minhash": lambda: linkage.MinHashBlocker(n_hashes=16, bands=8),
    "sorted-neighbourhood": lambda: linkage.SortedNeighborhoodBlocker(
        _first_value, window=4
    ),
    "canopy": lambda: linkage.CanopyBlocker(),
    "composite": lambda: linkage.CompositeBlocker(
        [BLOCKERS["standard"](), BLOCKERS["token"]()]
    ),
}


class NearMatchesOnly(ThresholdClassifier):
    """A threshold subclass with its own decision: no path may answer
    for it with ``score >= match_threshold``."""

    def is_match(self, vector):
        return super().is_match(vector) and vector.score < 0.9


class ScoreBand:
    """Not a threshold at all: the engine must hand it full vectors."""

    def is_match(self, vector):
        return 0.6 <= vector.score < 0.95


CLASSIFIERS = {
    "threshold": ThresholdClassifier(0.72),
    "subclass": NearMatchesOnly(0.72),
    "band": ScoreBand(),
}


@dataclasses.dataclass(frozen=True)
class Cell:
    """One way to run the work: with a ``fusion`` the pipeline, without
    one ``resolve``."""

    corpus: object = "world-3"  # a WORLDS name, or drawn rows
    blocker: str = "token"
    candidate_pairs: bool = False  # the blocker's pairs, passed in
    fusion: str | None = None
    use_identifier_linkage: bool = True
    numeric_fusion: bool = False
    classifier: str = "threshold"
    clustering: str = "components"
    execution: str = "serial"
    n_workers: int | None = None
    n_shards: int | None = None
    shard_backend: str = "inline"
    supervisor: bool = False
    representation: str = "dict"
    memory_budget: str | None = None  # a BUDGETS name
    spill_dir: bool = False  # one directory for all of a cell's runs
    checkpoint: str | None = None  # "reuse" or "abort"
    fault: str | None = None  # "transient" or "poison"
    tracer: bool = False

    @property
    def sharded(self):
        return self.execution == "sharded"


def _same(names):
    return {name: name for name in names.split()}


#: The keywords of ``resolve``, ``PipelineConfig`` and ``BDIPipeline.run``,
#: each with the :class:`Cell` field that draws it.
RESOLVE_DIMENSIONS = {"records": "corpus", "resilience": "fault"} | _same(
    "blocker classifier clustering candidate_pairs execution n_workers "
    "tracer checkpoint memory_budget spill_dir representation n_shards "
    "shard_backend supervisor"
)
PIPELINE_DIMENSIONS = {"resilience": "fault", "supervision": "supervisor"}
PIPELINE_DIMENSIONS |= _same(
    "clustering classifier fusion use_identifier_linkage numeric_fusion "
    "execution n_workers representation n_shards shard_backend"
)
RUN_DIMENSIONS = {"dataset": "corpus"} | _same(
    "tracer checkpoint memory_budget spill_dir"
)
#: What no cell draws, and why: each changes the answer by design, so
#: the lattice holds it fixed and compares like with like.
EXEMPT = {
    "resolve": {"comparator": "the similarity rules are the answer"},
    "PipelineConfig": {
        "schema_threshold": "decides which attributes align",
        "match_threshold": "decides which pairs match",
        "max_block_size": "decides which pairs are compared",
        "n_false_values": "a parameter of the fusion model",
    },
    "run": {},
}
SEMANTIC = ("fusion", "classifier", "clustering", "use_identifier_linkage",
            "numeric_fusion")

#: What the library refuses, first rule first: (the field a rule refuses,
#: when, what ``resolve`` raises, what the pipeline raises; ``None``
#: where a rule does not apply). A draw that is not to be refused resets
#: that field to its plain-run value instead.
REFUSALS = (
    ("classifier", lambda c: c.sharded and c.classifier != "threshold",
     None, "execution='sharded' requires the threshold classifier"),
    ("supervisor", lambda c: c.supervisor and not c.sharded,
     "supervisor requires execution='sharded'",
     "supervision requires execution='sharded'"),
    ("memory_budget", lambda c: c.memory_budget and c.sharded,
     "execution='sharded' does not compose with memory_budget",
     "memory_budget does not compose with execution='sharded'"),
    # A canopy's seed pool needs every record's token set at once, and
    # nothing composes blockers under a budget: neither streams.
    ("memory_budget", lambda c: c.memory_budget and not c.candidate_pairs
     and c.blocker in ("canopy", "composite"), "has no streaming path", None),
    ("classifier", lambda c: c.memory_budget and c.classifier != "threshold",
     None, "memory_budget requires the threshold classifier"),
    ("memory_budget", lambda c: c.memory_budget and c.fusion == "accucopy",
     None, SPILLED_CLAIMS_REFUSED),
)


def refusal(cell):
    """The first rule that refuses ``cell`` as ``(field, message)``."""
    for field, applies, *messages in REFUSALS:
        message = messages[cell.fusion is not None]
        if message and applies(cell):
            return field, message
    return None


def cells(pipeline=False, process=False):
    """``resolve`` cells, or pipeline ones; ``process`` draws those that
    start worker processes. One draw in four may be refused."""
    values = dict(
        execution=("process" if process else "serial", "sharded"),
        shard_backend=("process" if process else "inline",),
        n_workers=(None, 2),
        n_shards=(None, 1, 2, 3),
        supervisor=(False, True),
        representation=("dict", "columnar"),
        memory_budget=(None, "tight", "roomy"),
        spill_dir=(False, True),
        checkpoint=(None, "reuse", "abort"),
        fault=(None, "transient", "poison")[: 2 if pipeline else 3],
        clustering=("components", "center", "merge-center"),
        tracer=(False, True),
        refused=(False, False, False, True),
    )
    if pipeline:
        values |= dict(
            corpus=DRAWN_WORLDS,
            fusion=("vote", "accuvote", "truthfinder", "accucopy"),
            classifier=("threshold", "fellegi-sunter"),
            use_identifier_linkage=(True, False),
            numeric_fusion=(False, True),
        )
    else:
        values |= dict(
            blocker=tuple(BLOCKERS),
            candidate_pairs=(False, True),
            classifier=tuple(CLASSIFIERS),
        )
    drawn = {name: st.sampled_from(v) for name, v in values.items()}
    if not pipeline:
        drawn["corpus"] = st.sampled_from(DRAWN_WORLDS) | random_rows()
    return st.fixed_dictionaries(drawn).map(_consistent)


def _consistent(fields):
    """Shard options only when sharded, two workers for a process pool,
    no other fault beside an abort, and no refusal unless drawn."""
    if fields["execution"] != "sharded":
        fields["n_shards"] = None
    if fields["execution"] != "serial":
        fields["n_workers"] = 2 if fields["execution"] == "process" else None
    if fields["checkpoint"] == "abort":
        fields["fault"] = None
    refused = fields.pop("refused")
    cell = Cell(**fields)
    while not refused and (rule := refusal(cell)):
        cell = dataclasses.replace(cell, **{rule[0]: getattr(Cell, rule[0])})
    return cell


# --- references --------------------------------------------------------------


def answer(result):
    """What a run answers, where equal means byte-identical: order,
    float bits and types included."""
    linked = getattr(result, "linkage", result)
    answered = {
        "clusters": repr(linked.clusters),
        "scored_edges": repr(linked.scored_edges),
        "match_pairs": sorted(map(sorted, linked.match_pairs)),
        "n_candidates": linked.n_candidates,
        "quarantined_pairs": linked.quarantined_pairs,
    }
    if linked is result:
        return answered
    claims, fused = result.claims, ("chosen", "confidence", "iterations",
                                    "source_accuracy", "copy_probability")
    return answered | {
        "final_clusters": repr(result.clusters),
        "entity_table": repr(result.entity_table),
        "n_items": getattr(claims, "n_items", None) or len(claims.items()),
    } | {name: repr(getattr(result.fusion, name)) for name in fused}


@functools.cache
def oracle(corpus, blocker, candidate_pairs, classifier, clustering, poisoned):
    """The oracle's answer, and under a poison the pair it quarantines:
    the first match, so losing it shows."""
    records, block = corpus_records(corpus), BLOCKERS[blocker]()
    pairs = block.block(records).candidate_pairs() if candidate_pairs else None
    options = (block, COMPARATOR, CLASSIFIERS[classifier], clustering, pairs)
    clean = reference_resolve(records, *options)
    if not (poisoned and clean.scored_edges):
        return answer(clean), None
    poison = clean.scored_edges[0][:2]
    result = reference_resolve(records, *options, excluded={poison})
    return answer(result) | {"quarantined_pairs": (poison,)}, poison


@functools.cache
def plain_pipeline(corpus, *semantic):
    config = PipelineConfig(**dict(zip(SEMANTIC, semantic)))
    return answer(BDIPipeline(config).run(world(corpus)))


def metrics(tracer):
    """A tracer's report, its counters, and what its blocking said."""
    report = tracer.report()
    counters = report.metrics.get("counters", {})
    blocking = (
        {k: v for k, v in counters.items() if k.startswith("blocking.")},
        report.metrics.get("histograms", {}).get("blocking.block_size"),
    )
    return report, counters, blocking


@functools.cache
def serial_blocking(corpus, blocker, candidate_pairs):
    """What the plain traced run's blocking reports."""
    records, block = corpus_records(corpus), BLOCKERS[blocker]()
    tracer = Tracer()
    pairs = block.block(records).candidate_pairs() if candidate_pairs else None
    resolve(records, block, COMPARATOR, CLASSIFIERS["threshold"],
            candidate_pairs=pairs, tracer=tracer)
    return metrics(tracer)[2]


# --- running a cell ----------------------------------------------------------


def fault_config(fault, poison=None):
    """A crash on every chunk's first attempt under ``retry``, a poison
    pair under ``skip``, an abort on chunk 1 under ``fail``, or its
    resume: the abort's resilience less its injector."""
    spec, failure = {
        "transient": (crash(attempts=1), "retry"),
        "poison": (crash(item=poison), "skip"),
        "abort": (crash(chunk=1), "fail"),
        "resume": (None, "fail"),
    }[fault]
    retry = RetryPolicy(max_attempts=2, base_delay=0.0)
    injector = spec and FaultInjector(spec)
    return ResilienceConfig(retry, failure, fault_injector=injector)


class Run:
    """A cell's reference, and its options rebuilt for every run."""

    def __init__(self, cell, root):
        self.cell, self.pipeline = cell, cell.fusion is not None
        self.records = corpus_records(cell.corpus)
        self.poison = None
        if self.pipeline:
            semantic = (getattr(cell, name) for name in SEMANTIC)
            self.expected = plain_pipeline(cell.corpus, *semantic)
        else:
            self.expected, self.poison = oracle(
                cell.corpus, cell.blocker, cell.candidate_pairs,
                cell.classifier, cell.clustering, cell.fault == "poison",
            )
        self.store = RunStore(root / "store", durable=False)
        self.spill_dir = root / "spill" if cell.spill_dir else None

    def __call__(self, fault=None, traced=False):
        """Run the cell; ``fault`` (``"abort"`` or ``"resume"``)
        replaces its own."""
        cell, pipeline = self.cell, self.pipeline
        self.tracer = Tracer() if cell.tracer or traced else None
        limit = BUDGETS.get(cell.memory_budget)
        self.budget = None  # the pipeline builds its own from the limit
        if limit and not pipeline:
            self.budget = MemoryBudget(limit, tracer=self.tracer)
        fault = fault or cell.fault
        self.resilience = None
        if fault and (fault != "poison" or self.poison):
            self.resilience = fault_config(fault, self.poison)
        supervisor = None
        if cell.supervisor:
            policy = SupervisionPolicy(max_restarts=1)
            supervisor = policy if pipeline else Supervisor(policy)
        blocker, pairs = BLOCKERS[cell.blocker](), None
        if cell.candidate_pairs:
            pairs = blocker.block(self.records).candidate_pairs()
        drawn = dataclasses.asdict(cell) | {
            "corpus": world(cell.corpus) if pipeline else self.records,
            "blocker": blocker,
            "candidate_pairs": pairs,
            "tracer": self.tracer,
            "fault": self.resilience,
            "checkpoint": self.store if cell.checkpoint else None,
            "memory_budget": limit if pipeline else self.budget,
            "spill_dir": self.spill_dir,
            "supervisor": supervisor,
        }
        if pipeline:
            config = {k: drawn[v] for k, v in PIPELINE_DIMENSIONS.items()}
            options = {k: drawn[v] for k, v in RUN_DIMENSIONS.items()}
            return BDIPipeline(PipelineConfig(**config)).run(**options)
        drawn["classifier"] = CLASSIFIERS[cell.classifier]
        options = {k: drawn[v] for k, v in RESOLVE_DIMENSIONS.items()}
        return resolve(comparator=COMPARATOR, **options)

    def check(self, result, rerun=False):
        """``result`` is the reference's, and the run says so in its
        metrics; a ``rerun`` over a reused store computes nothing."""
        cell = self.cell
        assert answer(result) == self.expected
        if cell.fault == "transient":
            # A shard worker process fires its own copy of the injector.
            seen = not cell.sharded or cell.shard_backend == "inline"
            if seen and self.expected["n_candidates"] and not rerun:
                assert self.resilience.fault_injector.fired()
            assert result.dead_letters is not None and not result.dead_letters
        if self.poison is not None:
            assert len(result.dead_letters) == 1
        spent = self.budget and (self.budget.peak, self.budget.spill_count)
        if self.pipeline and cell.memory_budget and self.tracer:
            run = metrics(self.tracer)[0].find_span("pipeline.run").attributes
            spent = run["peak_tracked_bytes"], run["spill_count"]
        if spent:
            # One pair may land past a limit its neighbours already fill;
            # a columnar chunk's block is split until it fits a world's.
            world_cell = isinstance(cell.corpus, str)
            longest = max((r.record_id for r in self.records), key=len)
            slack = pair_nbytes(longest, longest)
            if world_cell and cell.representation == "columnar":
                slack = 0
            assert spent[0] <= BUDGETS[cell.memory_budget] + slack
            # A world's blocks outgrow a tight budget wherever they stream.
            if cell.memory_budget == "tight" and world_cell:
                assert spent[1] > 0 or cell.candidate_pairs
        if self.pipeline or self.tracer is None:
            return
        report, counters, blocking = metrics(self.tracer)
        assert blocking == serial_blocking(
            cell.corpus, cell.blocker, cell.candidate_pairs
        )
        if "engine.pairs_total" in counters:  # some chunk was scored
            columnar = "columnar.pairs_vectorized" in counters
            assert columnar == (cell.representation == "columnar")
        replayed = counters.get("recovery.chunks_replayed", 0)
        if cell.sharded:
            n_shards = report.find_span("dist.sharded").attributes["n_shards"]
            assert n_shards == (cell.n_shards or n_shards) >= 1
            if rerun:  # every shard's result is reused whole
                assert counters["dist.shard.resumed"] == n_shards
                assert replayed == 0
        elif rerun and self.expected["n_candidates"]:
            assert replayed == counters["engine.chunks"] > 0


def run_cell(cell, must_abort=False):
    with tempfile.TemporaryDirectory() as root:
        run = Run(cell, Path(root))
        rule = refusal(cell)
        if rule is not None:
            with pytest.raises(ConfigurationError, match=re.escape(rule[1])):
                run()
        elif cell.checkpoint != "abort":
            run.check(run())
            if cell.checkpoint == "reuse":
                run.check(run(), rerun=True)
        else:
            try:
                run.check(run("abort"))
                aborted = False
            except ChunkExecutionError:
                aborted = True
            assert aborted or not must_abort
            # The resume is always traced: its replay count is the check.
            run.check(run("resume", traced=True))
            if aborted:
                assert metrics(run.tracer)[1]["recovery.chunks_replayed"] >= 1


#: Cells that must abort after a completed chunk: in memory, cut for two
#: workers; and streamed under a tight budget from a kept spill
#: directory, over a world wide enough for two stream chunks.
MUST_ABORT = (
    Cell(checkpoint="abort", n_workers=2, representation="columnar"),
    Cell("wide-world", memory_budget="tight", spill_dir=True,
         checkpoint="abort"),
    Cell(fusion="accuvote", classifier="fellegi-sunter", n_workers=2,
         checkpoint="abort"),
)
#: A pipeline spilled under a tight budget whose numeric fusion changes
#: items AccuVote alone chooses (:class:`TestLattice` checks it does).
NUMERIC_SPILLED = Cell(fusion="accuvote", numeric_fusion=True,
                       memory_budget="tight", tracer=True)
#: The cells that always run: the aborts, a columnar chunk's block split
#: by a tight budget, a poison pair over three shards, spilled and
#: sharded pipelines, and every refusal.
EXAMPLES = (
    *MUST_ABORT,
    Cell(representation="columnar", memory_budget="tight", tracer=True),
    Cell(execution="sharded", n_shards=3, fault="poison", tracer=True),
    Cell(fusion="truthfinder", memory_budget="tight", tracer=True),
    Cell(fusion="vote", execution="sharded", n_shards=2),
    Cell(execution="sharded", memory_budget="roomy"),
    Cell(blocker="canopy", memory_budget="roomy"),
    Cell(blocker="composite", memory_budget="tight"),
    Cell(supervisor=True),
    Cell(fusion="vote", execution="sharded", classifier="fellegi-sunter"),
    Cell(fusion="vote", supervisor=True),
    Cell(fusion="vote", execution="sharded", memory_budget="roomy"),
    Cell(fusion="vote", classifier="fellegi-sunter", memory_budget="roomy"),
    Cell(fusion="accucopy", memory_budget="roomy"),
    Cell(fusion="vote", numeric_fusion=True, memory_budget="roomy"),
    NUMERIC_SPILLED,
)


def with_examples(pipeline):
    chosen = [c for c in EXAMPLES if (c.fusion is not None) == pipeline]
    return lambda test: functools.reduce(
        lambda test, cell: example(cell)(test), chosen, test
    )


LATTICE = settings(derandomize=True, deadline=None, database=None)


class TestLattice:
    @settings(LATTICE, max_examples=60)
    @with_examples(pipeline=False)
    @given(cells())
    def test_resolve_equals_the_oracle(self, cell):
        run_cell(cell, must_abort=cell in MUST_ABORT)

    @settings(LATTICE, max_examples=24)
    @with_examples(pipeline=True)
    @given(cells(pipeline=True))
    def test_pipeline_equals_the_plain_run(self, cell):
        run_cell(cell, must_abort=cell in MUST_ABORT)

    def test_numeric_example_changes_an_item(self):
        cell = NUMERIC_SPILLED
        semantic = [getattr(cell, name) for name in SEMANTIC]
        numeric = plain_pipeline(cell.corpus, *semantic)["chosen"]
        semantic[SEMANTIC.index("numeric_fusion")] = False
        assert numeric != plain_pipeline(cell.corpus, *semantic)["chosen"]

    @pytest.mark.slow
    @settings(LATTICE, max_examples=12)
    @given(cells(process=True))
    def test_resolve_in_worker_processes_equals_the_oracle(self, cell):
        run_cell(cell)

    @pytest.mark.slow
    @settings(LATTICE, max_examples=6)
    @given(cells(pipeline=True, process=True))
    def test_pipeline_in_worker_processes_equals_the_plain_run(self, cell):
        run_cell(cell)
