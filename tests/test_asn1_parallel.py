"""Tests for the parallel ASN.1 encoding ablation (the paper's negative result)."""

import pytest

from repro.asn1 import (
    Component,
    IA5String,
    Integer,
    ParallelEncodingModel,
    Sequence,
    SequentialBatchCodec,
    ThreadedBatchCodec,
    model_parallel_encoding_time,
)

SCHEMA = Sequence(
    "Record",
    [Component("id", Integer()), Component("name", IA5String())],
)


def sample_values(count):
    return [{"id": index, "name": f"movie-{index}"} for index in range(count)]


class TestBatchCodecs:
    def test_sequential_roundtrip(self):
        codec = SequentialBatchCodec()
        values = sample_values(20)
        blobs = codec.encode_batch(SCHEMA, values)
        assert codec.decode_batch(SCHEMA, blobs) == values

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_threaded_roundtrip_matches_sequential(self, workers):
        values = sample_values(33)
        sequential = SequentialBatchCodec().encode_batch(SCHEMA, values)
        threaded = ThreadedBatchCodec(workers=workers).encode_batch(SCHEMA, values)
        assert threaded == sequential
        assert ThreadedBatchCodec(workers=workers).decode_batch(SCHEMA, threaded) == values

    def test_empty_batch(self):
        codec = ThreadedBatchCodec(workers=3)
        assert codec.encode_batch(SCHEMA, []) == []
        assert codec.decode_batch(SCHEMA, []) == []

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadedBatchCodec(workers=0)

    def test_codec_names(self):
        assert SequentialBatchCodec().name == "sequential"
        assert ThreadedBatchCodec(workers=4).name == "threaded-4"


class TestCostModel:
    def test_single_worker_equals_sequential(self):
        model = ParallelEncodingModel()
        assert model.parallel_time(100, 1) == model.sequential_time(100)

    def test_no_speedup_with_default_overheads(self):
        """The paper's finding: parallel encoding does not improve performance."""
        model = ParallelEncodingModel()
        for workers in (2, 4, 8, 16):
            assert model.speedup(200, workers) <= 1.05

    def test_speedup_possible_only_when_dispatch_is_free(self):
        cheap_dispatch = ParallelEncodingModel(dispatch_cost=0.0, chunk_setup_cost=0.0)
        assert cheap_dispatch.speedup(200, 4) > 2.0

    def test_model_helper(self):
        sequential, parallel, speedup = model_parallel_encoding_time(100, 4)
        assert sequential == pytest.approx(100.0)
        assert parallel >= sequential * 0.9
        assert speedup == pytest.approx(sequential / parallel)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelEncodingModel().parallel_time(10, 0)

    def test_zero_items(self):
        model = ParallelEncodingModel()
        assert model.parallel_time(0, 4) == 0.0
