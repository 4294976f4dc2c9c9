"""The paper figures and EXPERIMENTS.md agree.

``benchmarks/figures.py`` regenerates every figure block and CI diffs
the document; here the figures that run in well under a second are
regenerated and compared with their blocks, so a change that moves one
fails tier-1 too. The other eight take seconds each and are left to the
CI step.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHEAP = [
    "bench_e01_pmediated",
    "bench_e02_matchers",
    "bench_e05_parallel",
    "bench_e08_fusion",
    "bench_e09_copydetect",
    "bench_e10_redundancy",
    "bench_e11_selection",
    "bench_e12_online",
    "bench_e14_velocity",
    "bench_e16_numeric_fusion",
    "bench_e19_attribute_tail",
]


@pytest.fixture(scope="module")
def runner():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "benchmarks"))
        import figures

        yield figures


@pytest.fixture(scope="module")
def written(runner):
    return runner.blocks(runner.EXPERIMENTS.read_text(encoding="utf-8"))


def test_every_figure_has_one_block(runner, written):
    assert sorted(runner.figures()) == sorted(written)
    assert len(written) == 19


@pytest.mark.parametrize("name", CHEAP)
def test_cheap_figure_equals_its_block(runner, written, name):
    assert runner.figures()[name]() == written[name]
