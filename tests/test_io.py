"""Tests for the dataset persistence round-trip."""

import json

import pytest

from repro.core import DataModelError, Dataset, GroundTruth, Record, Source
from repro.io import load_dataset, save_dataset
from repro.synth import FourVKnobs, build_corpus


@pytest.fixture
def dataset():
    source = Source(
        "shop.example",
        [
            Record("shop.example/0", "shop.example",
                   {"name": "canon x", "prix": "12,50 €"}, timestamp=2.0),
            Record("shop.example/1", "shop.example", {"name": "nikon y"}),
        ],
        cost=1.5,
        metadata={"category": "camera"},
    )
    truth = GroundTruth(
        {"shop.example/0": "e0", "shop.example/1": "e1"},
        true_values={("e0", "name"): "canon x"},
        attribute_to_mediated={("shop.example", "prix"): "price"},
    )
    return Dataset([source], truth, name="round-trip")


class TestDatasetRoundTrip:
    def test_exact_round_trip(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "corpus")
        loaded = load_dataset(tmp_path / "corpus")
        assert loaded.name == dataset.name
        assert loaded.source_ids == dataset.source_ids
        assert loaded.source("shop.example").cost == 1.5
        assert loaded.source("shop.example").metadata == {
            "category": "camera"
        }
        for record in dataset.records():
            restored = loaded.record(record.record_id)
            assert restored == record

    def test_ground_truth_round_trip(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "corpus")
        loaded = load_dataset(tmp_path / "corpus")
        truth = loaded.ground_truth
        assert truth.entity_of("shop.example/0") == "e0"
        assert truth.true_value("e0", "name") == "canon x"
        assert truth.mediated_attribute("shop.example", "prix") == "price"

    def test_unicode_survives(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "corpus")
        loaded = load_dataset(tmp_path / "corpus")
        assert loaded.record("shop.example/0")["prix"] == "12,50 €"

    def test_dataset_without_truth(self, tmp_path):
        bare = Dataset(
            [Source("s", [Record("s/0", "s", {"a": "1"})])], name="bare"
        )
        save_dataset(bare, tmp_path / "bare")
        loaded = load_dataset(tmp_path / "bare")
        assert loaded.ground_truth is None
        assert loaded.n_records == 1

    def test_missing_files(self, tmp_path):
        with pytest.raises(DataModelError):
            load_dataset(tmp_path / "ghost")

    def test_bad_version_rejected(self, dataset, tmp_path):
        __, meta_path = save_dataset(dataset, tmp_path / "corpus")
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DataModelError):
            load_dataset(tmp_path / "corpus")

    def test_corrupt_jsonl_reported_with_line(self, dataset, tmp_path):
        records_path, __ = save_dataset(dataset, tmp_path / "corpus")
        records_path.write_text(
            records_path.read_text() + "{not json\n"
        )
        with pytest.raises(DataModelError, match=":3"):
            load_dataset(tmp_path / "corpus")

    def test_synthetic_corpus_round_trip(self, tmp_path):
        corpus = build_corpus(FourVKnobs(volume=0.02, seed=9))
        save_dataset(corpus.dataset, tmp_path / "synth")
        loaded = load_dataset(tmp_path / "synth")
        assert loaded.n_records == corpus.dataset.n_records
        assert (
            loaded.ground_truth.record_to_entity
            == corpus.dataset.ground_truth.record_to_entity
        )
