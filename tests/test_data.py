import math

import numpy as np
import pytest

from profforce.data import (
    SequenceDataset,
    chunk_sequences,
    load_corpus,
    synth_copy_task,
    synth_raster_task,
)

from extra_ops import make_batches


@pytest.fixture
def tiny_corpus(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("abab" * 250 + "cd" * 50)
    return p


class TestLoadCorpus:
    def test_vocab_sorted_and_ids_dense(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("bca" * 100)
        corpus = load_corpus(p)
        assert corpus.vocab == ["a", "b", "c"]
        all_ids = np.concatenate([corpus.train_ids, corpus.valid_ids])
        assert set(all_ids.tolist()) <= {0, 1, 2}
        assert corpus.vocab_size == 3

    def test_split_fractions(self, tiny_corpus):
        corpus = load_corpus(tiny_corpus)
        n = 1100
        assert len(corpus.train_ids) == int(n * 0.9)
        assert len(corpus.valid_ids) == int(n * 0.05)

    def test_splits_contiguous_in_file_order(self, tmp_path):
        p = tmp_path / "o.txt"
        p.write_text("a" * 90 + "b" * 5 + "c" * 5)
        corpus = load_corpus(p)
        assert corpus.vocab == ["a", "b", "c"]
        np.testing.assert_array_equal(corpus.train_ids, [0] * 90)
        np.testing.assert_array_equal(corpus.valid_ids, [1] * 5)
        # the last 5% is held out: its symbol is in the vocabulary, in no span
        assert 2 not in np.concatenate([corpus.train_ids, corpus.valid_ids])

    def test_decode_inverts_encode(self, tmp_path):
        text = "hello world, hello tests. " * 10
        p = tmp_path / "r.txt"
        p.write_text(text)
        corpus = load_corpus(p)
        ids = np.concatenate([corpus.train_ids, corpus.valid_ids])
        assert "".join(corpus.vocab[i] for i in ids) == text[:len(ids)]

    def test_non_utf8_falls_back(self, tmp_path):
        p = tmp_path / "l1.txt"
        p.write_bytes(b"caf\xe9" * 30)
        corpus = load_corpus(p)
        assert "\xe9" in corpus.vocab


class TestChunking:
    def test_exact_counts_and_remainder_drop(self):
        ds = chunk_sequences(np.arange(1250), length=500)
        assert ds.sequences.shape == (2, 500)
        np.testing.assert_array_equal(ds.sequences[0], np.arange(500))
        np.testing.assert_array_equal(ds.sequences[1], np.arange(500, 1000))

    def test_stream_shorter_than_chunk(self):
        ds = chunk_sequences(np.arange(10), length=50)
        assert len(ds) == 0


class TestBatches:
    def _ds(self, n=10, l=4):
        return SequenceDataset(np.arange(n * l).reshape(n, l) % 7)

    def test_sizes_with_short_tail(self):
        batches = list(make_batches(self._ds(10), 4, np.random.default_rng(0)))
        assert [b.shape[0] for b in batches] == [4, 4, 2]
        assert all(b.shape[1] == 4 for b in batches)

    def test_epoch_covers_every_row_once(self):
        ds = self._ds(10)
        batches = list(make_batches(ds, 3, np.random.default_rng(1)))
        stacked = np.concatenate(batches, axis=0)
        assert stacked.shape == ds.sequences.shape
        got = {tuple(r) for r in stacked}
        want = {tuple(r) for r in ds.sequences}
        assert got == want

    def test_same_seed_same_order(self):
        ds = self._ds(12)
        a = list(make_batches(ds, 5, np.random.default_rng(42)))
        b = list(make_batches(ds, 5, np.random.default_rng(42)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_different_seed_shuffles(self):
        ds = self._ds(32)
        a = np.concatenate(list(make_batches(ds, 8, np.random.default_rng(1))))
        b = np.concatenate(list(make_batches(ds, 8, np.random.default_rng(2))))
        assert not np.array_equal(a, b)


class TestCopyTask:
    def test_rows_are_tiled_patterns(self):
        ds = synth_copy_task(vocab_size=8, pattern_len=2, seq_len=7, count=20,
                             rng=np.random.default_rng(5))
        assert ds.sequences.shape == (20, 7)
        for row in ds.sequences:
            pattern = row[:2]
            np.testing.assert_array_equal(row, np.tile(pattern, 4)[:7])

    def test_specific_tiling(self):
        ds = synth_copy_task(8, 2, 7, 200, np.random.default_rng(6))
        row = next(r for r in ds.sequences if r[0] == 2 and r[1] == 7)
        np.testing.assert_array_equal(row, [2, 7, 2, 7, 2, 7, 2])

    def test_symbol_marginal_is_roughly_uniform(self):
        v, n = 8, 400
        ds = synth_copy_task(v, 5, 5, n, np.random.default_rng(7))
        counts = np.bincount(ds.sequences.reshape(-1), minlength=v)
        total = n * 5
        p = 1 / v
        sd = math.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) < 4 * sd)


class TestRasterTask:
    def test_blank_family_all_zero(self):
        ds = synth_raster_task(10, 10, "blank", 5, np.random.default_rng(9))
        assert ds.sequences.shape == (5, 100)
        assert not ds.sequences.any()

    def test_rect_family_is_solid_rectangle(self):
        ds = synth_raster_task(8, 6, "rect", 30, np.random.default_rng(10))
        for bits in ds.sequences:
            grid = bits.reshape(6, 8)
            ys, xs = np.nonzero(grid)
            assert len(ys) > 0
            h = ys.max() - ys.min() + 1
            w = xs.max() - xs.min() + 1
            assert len(ys) == h * w

    def test_cross_family_row_and_column(self):
        ds = synth_raster_task(7, 5, "cross", 30, np.random.default_rng(11))
        for bits in ds.sequences:
            grid = bits.reshape(5, 7)
            full_rows = np.where(grid.all(axis=1))[0]
            full_cols = np.where(grid.all(axis=0))[0]
            assert len(full_rows) >= 1 and len(full_cols) >= 1
            expect = np.zeros((5, 7), dtype=np.int64)
            expect[full_rows[0]] = 1
            expect[:, full_cols[0]] = 1
            np.testing.assert_array_equal(grid, expect)

    def test_dataset_stacking(self):
        ds = synth_raster_task(5, 4, "rect", 6, np.random.default_rng(14))
        assert ds.sequences.shape == (6, 20)

    @pytest.mark.parametrize("family", ["rect", "cross", "blank"])
    def test_bits_are_binary(self, family):
        ds = synth_raster_task(6, 5, family, 20, np.random.default_rng(15))
        assert ds.sequences.dtype == np.int64
        assert np.isin(ds.sequences, (0, 1)).all()
