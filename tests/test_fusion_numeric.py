"""Tests for CRH numeric truth discovery."""

import statistics
import textwrap

import pytest

from repro.core import ConfigurationError, EmptyInputError
from repro.fusion import Claim, ClaimSet, CRHNumericFuser
from repro.synth import NumericClaimWorldConfig, generate_numeric_claims
from tests.procs import run_python


def mae(estimates, truth):
    return sum(abs(estimates[i] - truth[i]) for i in truth) / len(truth)


@pytest.fixture(scope="module")
def outlier_world():
    return generate_numeric_claims(
        NumericClaimWorldConfig(
            n_items=100,
            n_sources=12,
            outlier_sources=4,
            outlier_rate=0.4,
            seed=2,
        )
    )


def fused(*claims):
    """What ``CRHNumericFuser().fuse`` chooses over ``(source, value)``
    claims on one item ``"i"``."""
    result = CRHNumericFuser().fuse(
        ClaimSet(Claim(source, "i", value) for source, value in claims)
    )
    return dict(result.chosen)


class TestParseNumericClaims:
    """How ``fuse`` reads a claimed value: a number with an optional
    unit, in its dimension's base unit, decimal commas accepted."""

    def test_plain_floats(self):
        # A bare number is read in the item's unit: the weighted median
        # of 10, 12.5 and 30 g.
        assert fused(("s1", "10 g"), ("s2", "30 g"), ("s3", "12.5")) == {
            "i": "12.5 g"
        }

    def test_measurements_convert_units(self):
        assert fused(("s1", "2 in"), ("s2", "5.08 cm")) == {"i": "5.08 cm"}

    def test_decimal_comma(self):
        assert fused(("s", "2,5 g")) == {"i": "2.5 g"}

    def test_unparseable_skipped(self):
        assert fused(("s", "black")) == {}
        claims = [(f"s{k}", "5 g") for k in range(3)] + [("s3", "black")]
        assert fused(*claims) == {"i": "5 g"}
        # Fewer than 2/3 of the claims carry a unit: not a numeric item.
        assert fused(("s1", "5 g"), ("s2", "black")) == {}


class TestCRH:
    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            CRHNumericFuser(loss="huber")
        with pytest.raises(ConfigurationError):
            CRHNumericFuser(max_iterations=0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            CRHNumericFuser().fuse_values({})
        with pytest.raises(EmptyInputError):
            CRHNumericFuser().fuse(ClaimSet())

    def test_unanimous_claims_recovered_exactly(self):
        claims = {(f"s{k}", "i"): 7.0 for k in range(5)}
        truths, weights, __ = CRHNumericFuser().fuse_values(claims)
        assert truths["i"] == 7.0
        assert all(w == pytest.approx(1.0) for w in weights.values())

    def test_beats_mean_under_outliers(self, outlier_world):
        truths, __, __ = CRHNumericFuser().fuse_values(outlier_world.claims)
        by_item = {}
        for (__, item), value in outlier_world.claims.items():
            by_item.setdefault(item, []).append(value)
        mean_est = {i: sum(v) / len(v) for i, v in by_item.items()}
        assert mae(truths, outlier_world.truth) < 0.5 * mae(
            mean_est, outlier_world.truth
        )

    def test_beats_or_matches_median_under_outliers(self, outlier_world):
        truths, __, __ = CRHNumericFuser().fuse_values(outlier_world.claims)
        by_item = {}
        for (__, item), value in outlier_world.claims.items():
            by_item.setdefault(item, []).append(value)
        median_est = {
            i: statistics.median(v) for i, v in by_item.items()
        }
        assert mae(truths, outlier_world.truth) <= 1.05 * mae(
            median_est, outlier_world.truth
        )

    def test_outlier_sources_downweighted(self, outlier_world):
        __, weights, __ = CRHNumericFuser().fuse_values(outlier_world.claims)
        outlier_mean = sum(
            weights[s] for s in outlier_world.outlier_sources
        ) / len(outlier_world.outlier_sources)
        honest = [
            s for s in weights if s not in outlier_world.outlier_sources
        ]
        honest_mean = sum(weights[s] for s in honest) / len(honest)
        assert honest_mean > outlier_mean

    def test_squared_loss_runs(self, outlier_world):
        truths, __, __ = CRHNumericFuser(loss="squared").fuse_values(
            outlier_world.claims
        )
        assert len(truths) == 100

    def test_claimset_adapter(self):
        claims = ClaimSet(
            [
                Claim("s1", "i", "10.0 g"),
                Claim("s2", "i", "0.0102 kg"),
                Claim("s3", "i", "400 g"),
                Claim("s1", "j", "black"),
            ]
        )
        result = CRHNumericFuser().fuse(claims)
        value, unit = result.chosen["i"].split()
        assert float(value) == pytest.approx(10.1, abs=0.2) and unit == "g"
        assert list(result.chosen) == ["i"]
        assert list(result.source_accuracy) == ["s1", "s2", "s3"]
        assert all(0 < a < 1 for a in result.source_accuracy.values())

    def test_deterministic(self, outlier_world):
        a = CRHNumericFuser().fuse_values(outlier_world.claims)
        b = CRHNumericFuser().fuse_values(outlier_world.claims)
        assert a == b

    def test_independent_of_the_hash_seed(self):
        """Sources are taken in claim order, not a set's hash order, and
        every sum is exact: two processes with different string hashing
        return the same truths, weights and dict order, to the bit."""
        script = textwrap.dedent(
            """
            from repro.fusion import CRHNumericFuser
            from repro.synth import (
                NumericClaimWorldConfig, generate_numeric_claims
            )
            world = generate_numeric_claims(NumericClaimWorldConfig(
                n_items=100, n_sources=12, outlier_sources=4,
                outlier_rate=0.4, seed=2,
            ))
            for loss in ("absolute", "squared"):
                fuser = CRHNumericFuser(loss=loss)
                print(repr(fuser.fuse_values(world.claims)))
            """
        )
        outputs = []
        for seed in ("1", "2"):
            finished = run_python("-c", script, env={"PYTHONHASHSEED": seed})
            assert finished.returncode == 0, finished.stderr
            outputs.append(finished.stdout)
        assert outputs[0] == outputs[1]


class TestNumericGenerator:
    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            NumericClaimWorldConfig(value_range=(5, 5))
        with pytest.raises(ConfigurationError):
            NumericClaimWorldConfig(noise_range=(0.0, 0.1))
        with pytest.raises(ConfigurationError):
            NumericClaimWorldConfig(outlier_sources=99)

    def test_noise_within_planted_band(self):
        planted = generate_numeric_claims(
            NumericClaimWorldConfig(
                n_items=400, n_sources=4, noise_range=(0.01, 0.02), seed=5
            )
        )
        for source, sigma in planted.noise_levels.items():
            deviations = [
                value - planted.truth[item]
                for (s, item), value in planted.claims.items()
                if s == source
            ]
            observed = (
                sum(d * d for d in deviations) / len(deviations)
            ) ** 0.5
            assert observed == pytest.approx(sigma, rel=0.25)

    def test_coverage(self):
        planted = generate_numeric_claims(
            NumericClaimWorldConfig(
                n_items=200, n_sources=5, coverage=0.5, seed=3
            )
        )
        assert 300 < len(planted.claims) < 700
