"""Tests for chunked series storage."""

import numpy as np
import pytest

from repro.stats import ChunkedSeries


class TestChunkedSeries:
    def test_append_and_read_back_across_chunks(self):
        series = ChunkedSeries(chunk_size=16)
        data = [float(i) * 0.5 for i in range(100)]
        for x in data:
            series.append(x)
        assert len(series) == 100
        assert list(series) == data
        assert series == data
        assert series[0] == 0.0
        assert series[-1] == data[-1]
        assert series[17] == data[17]

    def test_extend_numpy_and_to_numpy_roundtrip(self):
        series = ChunkedSeries(chunk_size=8)
        series.append(1.0)
        series.extend_numpy(np.arange(20.0))
        series.append(2.0)
        expected = np.concatenate([[1.0], np.arange(20.0), [2.0]])
        np.testing.assert_array_equal(series.to_numpy(), expected)
        assert len(series) == 22

    def test_slice_returns_numpy(self):
        series = ChunkedSeries(chunk_size=4)
        for i in range(10):
            series.append(float(i))
        np.testing.assert_array_equal(series[2:5], [2.0, 3.0, 4.0])

    def test_equality_against_sequences(self):
        series = ChunkedSeries()
        assert series == []
        series.append(1.0)
        series.append(2.0)
        assert series == [1.0, 2.0]
        assert series == (1.0, 2.0)
        assert not (series == [1.0])
        assert series != [1.0, 99.0]

    def test_index_errors(self):
        series = ChunkedSeries()
        series.append(1.0)
        with pytest.raises(IndexError):
            series[1]
        with pytest.raises(IndexError):
            series[-2]

    def test_empty_to_numpy(self):
        assert ChunkedSeries().to_numpy().size == 0

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            ChunkedSeries(chunk_size=0)
