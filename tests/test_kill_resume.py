"""Real process death: a killed run resumes to exactly what an unkilled
one produces.

Every run here is a scenario of ``tests/kill_driver.py`` in a fresh
interpreter (``tests/procs.py::run_driver``), murdered by ``os._exit``
at a deterministic point: no unwinding, the way ``kill -9`` ends a
process. All of it is ``slow`` but the last test, which runs in-process.
"""

import json
import tempfile
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.recovery import RunStore
from repro.resilience.testing import KILL_EXIT_CODE
from repro.resilience.workers import PARENT_POLL
from tests.kill_driver import (
    build_resolver,
    choose_kill,
    make_corpus,
    run_serial,
)
from tests.procs import assert_gone, needs_proc, run_driver


def _left_chunks(root):
    assert any("chunk" in key for key in RunStore(root).keys())


def _left_a_partial_ledger(root):
    store = RunStore(root)
    assert "schema" in store.completed_stages()
    assert not store.completed


def _replayed_two_chunks(root, counters):
    assert counters["recovery.chunks_replayed"] == 2


def _skipped_stages(root, counters):
    assert counters["recovery.stages_skipped"] >= 1
    assert counters["recovery.chunks_replayed"] == 2
    assert RunStore(root).completed


def _skipped_iterations(root, counters):
    assert counters["recovery.iterations_skipped"] == 5


def _nothing(*args):
    pass


#: ``scenario, options, kills, check after the kills, check after the
#: resume`` (the last given the store and the resumed run's counters).
RESUMES = {
    "engine-serial": (
        "engine",
        ["--execution", "serial"],
        ["2"],
        _left_chunks,
        _replayed_two_chunks,
    ),
    "engine-process": (
        "engine",
        ["--execution", "process"],
        ["2"],
        _left_chunks,
        _replayed_two_chunks,
    ),
    "pipeline": (
        "pipeline", [], ["2"], _left_a_partial_ledger, _skipped_stages
    ),
    "solver": ("solver", [], ["5"], _nothing, _skipped_iterations),
    "streaming": (
        "streaming", ["--windows", "10"], ["250"], _nothing, _nothing
    ),
    "streaming-twice": (
        "streaming", ["--windows", "8"], ["120", "260"], _nothing, _nothing
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("case", RESUMES)
def test_killed_run_resumes_to_the_unkilled_one(case, tmp_path):
    scenario, options, kills, after_kills, after_resume = RESUMES[case]
    baseline = run_driver(scenario, tmp_path / "base", *options)
    root = tmp_path / "killed"
    for kill in kills:
        died = run_driver(
            scenario, root, *options, "--kill", kill, expect=KILL_EXIT_CODE
        )
        assert died == ""
        # The murdered run took its workers with it: they carry its
        # command line.
        assert_gone(PARENT_POLL + 2, cmdline=str(root))
    after_kills(root)
    resumed = run_driver(scenario, root, *options)
    counters = resumed.pop("counters", None)
    baseline.pop("counters", None)
    # Compared as printed, not with ``==``: that would let 1 pass for
    # 1.0, True for 1 and -0.0 for 0.0. A streaming document carries no
    # counters, so for it this is the clean run's stdout byte for byte.
    assert json.dumps(resumed, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    after_resume(root, counters)


@pytest.mark.slow
@pytest.mark.parametrize(
    "n, refresh_at, kill",
    [(24, 12, 18), (10, None, 6)],
    ids=["after-a-generation", "before-any-generation"],
)
def test_restarted_service_serves_what_it_acknowledged(
    n, refresh_at, kill, tmp_path
):
    """Killed at log position ``kill``, after the durable append and
    before linking, the restarted service serves what a deployment that
    ingested exactly the acknowledged records serves."""
    refresh = [] if refresh_at is None else ["--refresh-at", str(refresh_at)]
    killed = tmp_path / "killed"
    run_driver(
        "serve", killed, "--n", str(n), *refresh, "--kill", str(kill),
        expect=KILL_EXIT_CODE,
    )
    reference = run_driver(
        "serve", tmp_path / "reference", "--n", str(kill + 1), *refresh
    )
    restarted = run_driver("serve", killed, "--n", "0")
    assert restarted["log_length"] == kill + 1
    assert restarted["generation"] == (0 if refresh_at is None else 1)
    assert restarted["snapshot"] == reference["snapshot"]
    # Completed generations are byte-identical across deployments.
    assert restarted["generation_sha"] == reference["generation_sha"]
    assert (restarted["generation_sha"] is None) == (refresh_at is None)


@pytest.mark.slow
@given(
    n_entities=st.integers(min_value=16, max_value=28),
    seed=st.integers(min_value=0, max_value=40),
    n_shards=st.integers(min_value=2, max_value=4),
    chunk_size=st.sampled_from([32, 64]),
)
@settings(max_examples=3, deadline=None)
def test_kill_one_shard_resume_only_that_shard(
    n_entities, seed, n_shards, chunk_size
):
    """For any corpus, shard count and chunk size: kill one shard
    mid-matching, resume against the same store, and the merged output
    equals a serial run that never died, with exactly the killed shard
    replaying chunks and exactly the shards that finished before it
    reused from their result artifacts."""
    records, blocker, __, __ = make_corpus(n_entities, seed)
    kill = choose_kill(records, blocker, n_shards, chunk_size)
    assume(kill is not None)
    kill_shard, kill_chunk, n_chunks = kill
    serial = run_serial(entities=n_entities, seed=seed)
    with tempfile.TemporaryDirectory() as root:
        options = [
            "--entities", str(n_entities),
            "--seed", str(seed),
            "--shards", str(n_shards),
            "--chunk-size", str(chunk_size),
        ]
        run_driver(
            "sharded", root, *options, "--kill", f"{kill_shard}:{kill_chunk}",
            expect=KILL_EXIT_CODE,
        )
        document = run_driver("sharded", root, *options)
    shards = document.pop("shards")
    counters = document.pop("counters")
    assert document == serial
    by_shard = {entry["shard"]: entry for entry in shards}
    assert set(by_shard) == set(range(n_shards))
    for shard, entry in by_shard.items():
        assert entry["completed_chunks"] == entry["n_chunks"]
        if shard == kill_shard:
            # The killed shard alone replays its checkpointed
            # chunks — at least the ones completed before death.
            assert not entry["resumed"]
            assert entry["replayed_chunks"] >= kill_chunk > 0
            assert entry["replayed_chunks"] < entry["n_chunks"]
        elif shard < kill_shard:
            # Inline backend runs shards in order: earlier shards
            # finished and persisted, so resume reuses them whole.
            assert entry["resumed"]
            assert entry["replayed_chunks"] == 0
        else:
            # Later shards never started before the kill.
            assert not entry["resumed"]
            assert entry["replayed_chunks"] == 0
    assert counters.get("dist.shard.resumed", 0) == kill_shard
    assert counters.get("dist.shard.replayed_chunks", 0) == by_shard[
        kill_shard
    ]["replayed_chunks"]


@pytest.mark.slow
@needs_proc
def test_a_killed_coordinator_takes_its_shard_workers_with_it(tmp_path):
    root = tmp_path / "coordinator"
    out = run_driver("coordinator", root, expect=KILL_EXIT_CODE)
    assert "both shards busy" in out
    assert "survived" not in out
    assert_gone(PARENT_POLL + 2, cmdline=str(root))


@pytest.mark.slow
@needs_proc
def test_timed_out_worker_is_killed_not_leaked(tmp_path):
    """A worker hung inside a chunk must not outlive the recycled pool:
    the interpreter used to exit only when the hang did (never, for a
    real one)."""
    done = run_driver("hang", tmp_path)
    exited = time.time()
    assert [pair for pair in done["quarantined"] if "p0" in pair] == [
        ["p0", "p1"], ["p0", "p2"]
    ]
    assert done["children"] == []
    assert exited - done["returned"] < 10.0


def test_the_streaming_scenario_binds_the_fingerprint_it_always_bound(
    tmp_path,
):
    """A streaming checkpoint written by an earlier version resumes:
    the default accuracy keeps its place in the configuration the store
    is bound to, though the resolver no longer takes it as an option."""
    build_resolver(tmp_path)
    assert RunStore(tmp_path).fingerprint == (
        "15ca1bb5d8c3d559ca56770859ccee1830cfa66e197cb69e79d0dc0a652c24dc"
    )
