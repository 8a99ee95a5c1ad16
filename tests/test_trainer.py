import ctypes
import logging
import math
import tracemalloc

import numpy as np
import pytest

from profforce.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from profforce import engine
from profforce import trainer as trainer_module
from profforce.config import ConfigError, TrainConfig, build_config
from profforce.trainer import (
    CURVE_COLUMNS,
    VAL_COLUMNS,
    Trainer,
    TrainingDiverged,
    build_datasets,
    build_models,
    format_curve_row,
    generator_from_checkpoint,
)


def tiny_cfg(**kw):
    base = dict(task="copy", vocab_size=4, seq_len=8, copy_pattern_len=2,
                copy_count=8, val_count=4, gen_hidden=6, gen_embed=4,
                gen_layers=1, disc_hidden=6, batch_n=4, max_steps=6,
                seed=5, lr=1e-3, val_every=3, mode="professor_forcing")
    base.update(kw)
    return TrainConfig(**base)


def strip_wallclock(rows):
    return [{k: v for k, v in r.items() if k != "wallclock_ms"} for r in rows]


def without_wallclock(path):
    """The lines of the CSV at ``path``, each less its last (wallclock) column."""
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def assert_rows_equal(a, b):
    """Bit-exact row comparison, except nan fields match each other."""
    a, b = strip_wallclock(a), strip_wallclock(b)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.keys() == rb.keys()
        for k in ra:
            va, vb = ra[k], rb[k]
            if isinstance(va, float) and math.isnan(va):
                assert isinstance(vb, float) and math.isnan(vb), k
            else:
                assert va == vb, k


class TestCsvRows:
    def _row(self, step):
        return {"step": step, "nll_per_step": 1.25, "bpc": 1.25 / math.log(2),
                "c_d": 2 * math.log(2), "c_f": math.log(2), "c_t": float("nan"),
                "disc_acc": 0.5, "gate_gen": False, "gate_disc": True,
                "wallclock_ms": 12.5}

    def test_header_is_pinned(self):
        assert CURVE_COLUMNS == ("step", "nll_per_step", "bpc", "c_d", "c_f",
                                 "c_t", "disc_acc", "gate_gen", "gate_disc",
                                 "wallclock_ms")
        assert VAL_COLUMNS == ("step", "val_nll_per_step", "val_bpc")

    def test_round_trip_precision(self):
        fields = format_curve_row(self._row(0), CURVE_COLUMNS).split(",")
        assert len(fields) == len(CURVE_COLUMNS)
        assert fields[0] == "0"
        assert float(fields[1]) == 1.25
        assert float(fields[3]) == 2 * math.log(2)  # repr round-trips exactly
        assert fields[5] == "nan"
        assert fields[7] == "0" and fields[8] == "1"

    def test_gate_values_are_integers(self):
        row = format_curve_row(self._row(3), CURVE_COLUMNS)
        parts = row.split(",")
        assert parts[7] in ("0", "1") and parts[8] in ("0", "1")

    def test_val_rows_keep_the_text_of_repr(self):
        # val.csv rows were once ``f"{step},{nll!r},{bpc!r}"`` of Python floats;
        # the shared formatter must write the same bytes, numpy scalars included
        for nll in (1.25, math.log(2) / 3, 1e-17, 123456.789, float("nan"), float("inf"),
                    np.float64(0.1)):
            bpc = nll / math.log(2.0)
            row = {"step": 6, "val_nll_per_step": nll, "val_bpc": bpc}
            assert format_curve_row(row, VAL_COLUMNS) == f"6,{float(nll)!r},{float(bpc)!r}"

    def test_run_writes_val_rows_at_full_precision(self, tmp_path):
        t = Trainer(tiny_cfg(), tmp_path / "run")
        t.run()
        lines = (tmp_path / "run" / "val.csv").read_text().splitlines()
        assert lines[0] == ",".join(VAL_COLUMNS)
        rows = [dict(zip(VAL_COLUMNS, line.split(","))) for line in lines[1:]]
        assert rows and all(len(line.split(",")) == len(VAL_COLUMNS) for line in lines[1:])
        for row in rows:
            nll = float(row["val_nll_per_step"])
            assert int(row["step"]) > 0 and float(row["val_bpc"]) == nll / math.log(2.0)
        # the last row is the final generator's validation, bit for bit
        assert float(rows[-1]["val_nll_per_step"]) == t.validate()[0]


class TestAdversaryOnlyInProfessorForcing:
    @pytest.mark.parametrize("mode", ["teacher_forcing", "scheduled_sampling"])
    def test_other_modes_ignore_the_adversarial_keys(self, tmp_path, mode):
        cfg = tiny_cfg(mode=mode, adversarial_weight=0.7, use_ct=True)
        rows = Trainer(cfg, tmp_path).run()
        assert all(math.isnan(r["c_d"]) and r["gate_gen"] is False for r in rows)


class TestBuildDatasets:
    def test_copy_counts(self):
        train, val = build_datasets(tiny_cfg())
        assert train.sequences.shape == (8, 8)
        assert val.sequences.shape == (4, 8)

    def test_raster_fills_in_derived_fields(self):
        cfg = tiny_cfg(task="raster", raster_width=5, raster_height=4,
                       raster_count=6, val_count=2)
        train, val = build_datasets(cfg)
        assert cfg.vocab_size == 2 and cfg.seq_len == 20
        assert train.sequences.shape == (6, 20) and val.sequences.shape == (2, 20)

    def test_corpus_vocabulary_derived(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("ab" * 400)
        cfg = tiny_cfg(task="corpus", corpus_path=str(f), seq_len=10)
        train, val = build_datasets(cfg)
        assert cfg.vocab_size == 2
        assert cfg.vocab_symbols == f"{ord('a')},{ord('b')}"
        assert train.sequences.shape == (72, 10)  # 720 train ids in 10-chunks
        assert val.sequences.shape == (4, 10)

    @pytest.mark.parametrize("text, msg", [
        ("ab", "corpus too small for one sequence of seq_len 10"),
        ("a" * 400, "holds 1 distinct symbols; a corpus task needs at least two"),
        ("", "holds 0 distinct symbols; a corpus task needs at least two"),
    ], ids=["too_short", "one_symbol", "empty"])
    def test_corpus_that_cannot_train_is_a_config_error(self, tmp_path, text, msg):
        # one symbol used to fail in GeneratorParams.create, naming neither
        f = tmp_path / "c.txt"
        f.write_text(text)
        cfg = tiny_cfg(task="corpus", corpus_path=str(f), seq_len=10)
        with pytest.raises(ConfigError, match=msg):
            Trainer(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_deterministic_given_seed(self):
        a, _ = build_datasets(tiny_cfg())
        b, _ = build_datasets(tiny_cfg())
        np.testing.assert_array_equal(a.sequences, b.sequences)


class TestBatchOrder:
    def test_stateless_in_step(self, tmp_path):
        t1 = Trainer(tiny_cfg(), tmp_path / "a")
        t2 = Trainer(tiny_cfg(), tmp_path / "b")
        for step in (0, 1, 5, 17):
            np.testing.assert_array_equal(t1._batch_for_step(step),
                                          t2._batch_for_step(step))

    def test_epoch_covers_all_rows(self, tmp_path):
        t = Trainer(tiny_cfg(), tmp_path / "a")
        n, b = 8, 4
        rows = np.concatenate([t._batch_for_step(s) for s in range(n // b)])
        got = sorted(map(tuple, rows))
        want = sorted(map(tuple, t.train_set.sequences))
        assert got == want

    def test_epochs_reshuffle(self, tmp_path):
        t = Trainer(tiny_cfg(copy_count=32, batch_n=4), tmp_path / "a")
        epoch0 = np.concatenate([t._batch_for_step(s) for s in range(8)])
        epoch1 = np.concatenate([t._batch_for_step(s) for s in range(8, 16)])
        assert not np.array_equal(epoch0, epoch1)
        assert sorted(map(tuple, epoch0)) == sorted(map(tuple, epoch1))

    def test_one_permutation_per_epoch_and_the_formula_s_batches(self, tmp_path, monkeypatch):
        # 8 rows in batches of 3: three batches an epoch, the last one short.
        # Steps 3 and 6 start epochs; the resumed run starts mid-epoch, at step 4.
        seen, step_once = [], trainer_module.train_step

        def recording(g, d, batch, *rest):
            seen.append(batch.copy())
            return step_once(g, d, batch, *rest)

        monkeypatch.setattr(trainer_module, "train_step", recording)
        cfg = tiny_cfg(batch_n=3, max_steps=8, val_every=0)
        straight = Trainer(cfg, tmp_path / "a")
        straight.run()
        Trainer(tiny_cfg(batch_n=3, max_steps=4, val_every=0), tmp_path / "b").run()
        Trainer.resume(tmp_path / "b" / "final.ckpt", tmp_path / "b", max_steps=8).run()

        def formula(step):
            epoch, k = divmod(step, 3)
            order = np.random.default_rng([cfg.seed, 31, epoch]).permutation(8)
            return straight.train_set.sequences[order[k * 3:(k + 1) * 3]]

        steps = [*range(8), *range(4), *range(4, 8)]
        assert len(seen) == len(steps)
        for got, step in zip(seen, steps):
            np.testing.assert_array_equal(got, formula(step))
        seeds, real = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or real(seed))
        fresh = Trainer(cfg, tmp_path / "c")
        seeds.clear()
        for step in range(8):
            fresh._batch_for_step(step)
        assert seeds == [[cfg.seed, 31, epoch] for epoch in range(3)]


class TestSampleRamp:
    def test_linear_ramp_endpoints_and_midpoint(self, tmp_path):
        cfg = tiny_cfg(mode="scheduled_sampling", ss_start=0.1, ss_end=0.5,
                       max_steps=5)
        t = Trainer(cfg, tmp_path / "a")
        assert t._p_sample(0) == pytest.approx(0.1)
        assert t._p_sample(2) == pytest.approx(0.3)
        assert t._p_sample(4) == pytest.approx(0.5)
        assert t._p_sample(9) == pytest.approx(0.5)  # clamped past the end

    def test_other_modes_never_sample(self, tmp_path):
        t = Trainer(tiny_cfg(mode="professor_forcing"), tmp_path / "a")
        assert t._p_sample(3) == 0.0


class TestRun:
    def test_smoke_outputs(self, tmp_path):
        out = tmp_path / "run"
        rows = Trainer(tiny_cfg(), out).run()
        assert len(rows) == 6
        assert [r["step"] for r in rows] == list(range(6))
        curves = (out / "curves.csv").read_text().strip().splitlines()
        assert len(curves) == 7
        assert curves[0].startswith("step,nll_per_step,bpc,")
        val_lines = (out / "val.csv").read_text().strip().splitlines()
        assert val_lines[0] == "step,val_nll_per_step,val_bpc"
        assert [l.split(",")[0] for l in val_lines[1:]] == ["3", "6"]
        assert (out / "final.ckpt").exists()
        assert (out / "best.ckpt").exists()

    def test_metric_rows_deterministic(self, tmp_path):
        r1 = Trainer(tiny_cfg(), tmp_path / "a").run()
        r2 = Trainer(tiny_cfg(), tmp_path / "b").run()
        assert_rows_equal(r1, r2)
        a = load_checkpoint(tmp_path / "a" / "final.ckpt")
        b = load_checkpoint(tmp_path / "b" / "final.ckpt")
        assert a.state == b.state
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_teacher_forcing_equals_degenerate_professor_forcing(self, tmp_path):
        tf_rows = Trainer(tiny_cfg(mode="teacher_forcing"), tmp_path / "tf").run()
        pf_rows = Trainer(tiny_cfg(mode="professor_forcing", adversarial_weight=0.0,
                                   freeze_discriminator=True), tmp_path / "pf").run()
        assert_rows_equal(tf_rows, pf_rows)
        a = load_checkpoint(tmp_path / "tf" / "final.ckpt")
        b = load_checkpoint(tmp_path / "pf" / "final.ckpt")
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_scheduled_sampling_at_zero_equals_teacher_forcing(self, tmp_path):
        ss_rows = Trainer(tiny_cfg(mode="scheduled_sampling", ss_start=0.0,
                                   ss_end=0.0), tmp_path / "ss").run()
        tf_rows = Trainer(tiny_cfg(mode="teacher_forcing"), tmp_path / "tf").run()
        assert_rows_equal(ss_rows, tf_rows)

    def test_adversarial_metrics_present_in_pf_mode(self, tmp_path):
        rows = Trainer(tiny_cfg(), tmp_path / "a").run()
        assert all(math.isfinite(r["c_d"]) for r in rows)
        assert all(math.isfinite(r["disc_acc"]) for r in rows)

    def test_skip_modes_report_nan_metrics(self, tmp_path):
        rows = Trainer(tiny_cfg(mode="teacher_forcing"), tmp_path / "a").run()
        assert all(math.isnan(r["c_d"]) for r in rows)
        assert all(r["gate_gen"] is False and r["gate_disc"] is False for r in rows)


class TestDiscriminatorOnlyInProfessorForcing:
    """Teacher forcing and scheduled sampling never run the discriminator,
    so they build none, carry no Adam state for it and checkpoint the
    generator alone."""

    @pytest.mark.parametrize("mode", ["teacher_forcing", "scheduled_sampling",
                                      "professor_forcing"])
    def test_only_professor_forcing_builds_a_discriminator(self, tmp_path, mode):
        t = Trainer(tiny_cfg(mode=mode), tmp_path)
        built = [x is not None for x in (t.d, t.d_adam, build_models(t.cfg)[1])]
        assert built == [mode == "professor_forcing"] * 3

    @staticmethod
    def _desk_final(tmp_path, mode):
        cfg = build_config(None, "desk-copy", ["val_every=0"],
                           {"seed": 1, "max_steps": 1, "mode": mode})
        Trainer(cfg, tmp_path / mode).run()
        return tmp_path / mode / "final.ckpt"

    @pytest.mark.parametrize("mode", ["teacher_forcing", "scheduled_sampling"])
    def test_desk_checkpoint_holds_the_generator_alone(self, tmp_path, mode):
        ckpt = load_checkpoint(self._desk_final(tmp_path, mode))
        names = sorted(ckpt.tensors)
        assert len(names) == 18
        assert all(n.startswith(("g.", "adam_g.")) for n in names), names
        assert sum(n.startswith("g.") for n in names) == 6
        assert "adam_d_t" not in ckpt.state and ckpt.state["adam_g_t"] == "1"

    G_NAMES = [
        "g.embedding", "adam_g.embedding.m", "adam_g.embedding.v",
        "g.cells.0.W", "adam_g.cells.0.W.m", "adam_g.cells.0.W.v",
        "g.cells.0.U", "adam_g.cells.0.U.m", "adam_g.cells.0.U.v",
        "g.cells.0.b", "adam_g.cells.0.b.m", "adam_g.cells.0.b.v",
        "g.head.W_o", "adam_g.head.W_o.m", "adam_g.head.W_o.v",
        "g.head.b_o", "adam_g.head.b_o.m", "adam_g.head.b_o.v",
    ]
    D_NAMES = [
        "d.encoder.fwd.W", "adam_d.encoder.fwd.W.m", "adam_d.encoder.fwd.W.v",
        "d.encoder.fwd.U", "adam_d.encoder.fwd.U.m", "adam_d.encoder.fwd.U.v",
        "d.encoder.fwd.b", "adam_d.encoder.fwd.b.m", "adam_d.encoder.fwd.b.v",
        "d.encoder.bwd.W", "adam_d.encoder.bwd.W.m", "adam_d.encoder.bwd.W.v",
        "d.encoder.bwd.U", "adam_d.encoder.bwd.U.m", "adam_d.encoder.bwd.U.v",
        "d.encoder.bwd.b", "adam_d.encoder.bwd.b.m", "adam_d.encoder.bwd.b.v",
        "d.classifier.0.W", "adam_d.classifier.0.W.m", "adam_d.classifier.0.W.v",
        "d.classifier.0.b", "adam_d.classifier.0.b.m", "adam_d.classifier.0.b.v",
        "d.classifier.1.W", "adam_d.classifier.1.W.m", "adam_d.classifier.1.W.v",
        "d.classifier.1.b", "adam_d.classifier.1.b.m", "adam_d.classifier.1.b.v",
        "d.classifier.2.W", "adam_d.classifier.2.W.m", "adam_d.classifier.2.W.v",
        "d.classifier.2.b", "adam_d.classifier.2.b.m", "adam_d.classifier.2.b.v",
        "d.classifier.3.W", "adam_d.classifier.3.W.m", "adam_d.classifier.3.W.v",
        "d.classifier.3.b", "adam_d.classifier.3.b.m", "adam_d.classifier.3.b.v",
    ]

    @pytest.mark.parametrize("mode", ["teacher_forcing", "professor_forcing"])
    def test_desk_checkpoint_tensor_names_are_pinned(self, tmp_path, mode):
        # The names, and the order the players list them in, are the
        # PFCK0004 format: a checkpoint of either kind must load as written.
        cfg = build_config(None, "desk-copy", [], {"seed": 1, "mode": mode})
        names = list(Trainer(cfg, tmp_path).checkpoint().tensors)
        want = self.G_NAMES + (self.D_NAMES if mode == "professor_forcing" else [])
        assert len(want) == (60 if mode == "professor_forcing" else 18)
        assert names == want

    @pytest.mark.parametrize("mode", ["teacher_forcing", "professor_forcing"])
    def test_desk_checkpoint_state_keys_are_pinned(self, tmp_path, mode):
        # counters and the environment, in the file's order: no sampler state,
        # since every draw is a function of (seed, step)
        keys = list(load_checkpoint(self._desk_final(tmp_path, mode)).state)
        want = (["adam_d_t"] if mode == "professor_forcing" else []) + [
            "adam_g_t", "best_val", "blas", "blas_threads", "numpy", "python", "step"]
        assert keys == want

    def test_desk_tf_checkpoint_is_at_most_a_quarter_of_a_pf_one(self, tmp_path):
        tf_bytes, pf_bytes = (self._desk_final(tmp_path, mode).stat().st_size
                              for mode in ("teacher_forcing", "professor_forcing"))
        assert tf_bytes <= 0.25 * pf_bytes, (tf_bytes, pf_bytes)


class TestAllocatorSetting:
    """``Trainer`` asks glibc to keep freed memory for reuse; a process
    without ``mallopt`` trains all the same."""

    def test_sets_both_thresholds(self, monkeypatch, tmp_path):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        Trainer(tiny_cfg(), tmp_path)
        assert calls == [(-1, 1 << 30), (-3, 32 << 20)]

    @pytest.mark.parametrize("error", [OSError, TypeError, AttributeError])
    def test_trains_without_mallopt(self, monkeypatch, tmp_path, error):
        def cdll(name):
            if error is AttributeError:
                return object()   # a C library without mallopt
            raise error("no C library")

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        rows = Trainer(tiny_cfg(max_steps=2), tmp_path).run()
        assert [r["step"] for r in rows] == [0, 1]
        assert all(math.isfinite(r["c_d"]) for r in rows)
        assert (tmp_path / "final.ckpt").exists()


class TestResume:
    @pytest.mark.parametrize("mode", ["teacher_forcing", "scheduled_sampling",
                                      "professor_forcing"])
    def test_split_run_matches_straight_run(self, tmp_path, mode):
        # ss ramps over the 10 steps of both runs; the other modes ignore the key
        kw = dict(mode=mode, val_every=0, ss_start=0.1, ss_end=0.6, ss_ramp_steps=10)
        straight = Trainer(tiny_cfg(max_steps=10, **kw), tmp_path / "full").run()

        Trainer(tiny_cfg(max_steps=5, **kw), tmp_path / "half").run()
        resumed_trainer = Trainer.resume(tmp_path / "half" / "final.ckpt",
                                         tmp_path / "resumed", max_steps=10)
        resumed = resumed_trainer.run()

        assert_rows_equal(resumed, straight[5:])
        full, split = (load_checkpoint(tmp_path / run / "final.ckpt")
                       for run in ("full", "resumed"))
        assert full.tensors.keys() == split.tensors.keys()
        for name in full.tensors:
            np.testing.assert_array_equal(full.tensors[name], split.tensors[name])
        full_blob = (tmp_path / "full" / "final.ckpt").read_bytes()
        resumed_blob = (tmp_path / "resumed" / "final.ckpt").read_bytes()
        assert full_blob == resumed_blob

    def test_ss_ramp_spans_the_steps_the_run_started_with(self, tmp_path):
        cfg = tiny_cfg(mode="scheduled_sampling", max_steps=5, val_every=0, ss_end=0.5)
        Trainer(cfg, tmp_path / "a").run()
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        assert "ss_ramp_steps=5" in ckpt.config_text.splitlines()
        resumed = Trainer.resume(tmp_path / "a" / "final.ckpt", tmp_path / "b", max_steps=9)
        assert resumed.cfg.ss_ramp_steps == 5
        assert [resumed._p_sample(s) for s in (0, 4, 8)] == [0.0, 0.5, 0.5]
        # every ss run writes the key, so a checkpoint without it is refused
        ckpt.config_text = ckpt.config_text.replace("ss_ramp_steps=5\n", "")
        save_checkpoint(ckpt, tmp_path / "old.ckpt")
        with pytest.raises(CheckpointError, match="no ss_ramp_steps"):
            Trainer.resume(tmp_path / "old.ckpt", tmp_path / "c", max_steps=9)
        assert not (tmp_path / "c").exists()

    def test_resume_into_own_directory_keeps_earlier_rows(self, tmp_path):
        Trainer(tiny_cfg(max_steps=15, val_every=5), tmp_path / "full").run()
        Trainer(tiny_cfg(max_steps=10, val_every=5), tmp_path / "run").run()
        Trainer.resume(tmp_path / "run" / "final.ckpt", tmp_path / "run",
                       max_steps=15).run()

        full, run = tmp_path / "full", tmp_path / "run"
        curves = without_wallclock(run / "curves.csv")
        assert len(curves) == 1 + 15
        assert curves == without_wallclock(full / "curves.csv")
        assert (run / "val.csv").read_text() == (full / "val.csv").read_text()
        assert (run / "final.ckpt").read_bytes() == (full / "final.ckpt").read_bytes()

    def test_frozen_discriminator_desk_run_resumes_bit_for_bit(self, tmp_path):
        # such a run's checkpoints hold adam_d_t=0, which a resume must take as written
        def cfg(steps):
            return build_config(None, "desk-copy", ["freeze_discriminator=true", "val_every=10"],
                                {"seed": 1, "max_steps": steps})

        full, run = tmp_path / "full", tmp_path / "run"
        Trainer(cfg(40), full).run()
        Trainer(cfg(20), run).run()
        assert load_checkpoint(run / "final.ckpt").state["adam_d_t"] == "0"
        Trainer.resume(run / "final.ckpt", run, max_steps=40).run()
        assert without_wallclock(run / "curves.csv") == without_wallclock(full / "curves.csv")
        assert (run / "val.csv").read_text() == (full / "val.csv").read_text()
        assert (run / "final.ckpt").read_bytes() == (full / "final.ckpt").read_bytes()

    @pytest.mark.parametrize("mode", ["teacher_forcing", "scheduled_sampling"])
    @pytest.mark.parametrize("section", ["d.encoder.fwd.W", "adam_d.classifier.0.b.m"])
    def test_discriminator_section_in_a_tf_or_ss_checkpoint_is_refused(self, tmp_path, mode,
                                                                       section):
        # no tf/ss run has written one since before format PFCK0004
        Trainer(tiny_cfg(max_steps=2, val_every=0, mode=mode), tmp_path / "a").run()
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        ckpt.tensors[section] = np.zeros(3)
        save_checkpoint(ckpt, tmp_path / "d.ckpt")
        with pytest.raises(CheckpointError, match=f"{section!r} has no destination"):
            Trainer.resume(tmp_path / "d.ckpt", tmp_path / "b", max_steps=4)
        assert not (tmp_path / "b").exists()

    def test_max_steps_below_the_step_is_the_callers_error_or_the_files(self, tmp_path):
        # a caller's max_steps is a config error; a file whose step passes its own
        # config's max_steps is corrupt
        Trainer(tiny_cfg(max_steps=2, val_every=0), tmp_path / "a").run()
        with pytest.raises(ConfigError, match="max_steps 1 is below the checkpoint's step 2"):
            Trainer.resume(tmp_path / "a" / "final.ckpt", tmp_path / "b", max_steps=1)
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        ckpt.state["step"] = "3"
        save_checkpoint(ckpt, tmp_path / "c.ckpt")
        with pytest.raises(CheckpointError, match="max_steps 2 is below the checkpoint's step 3"):
            Trainer.resume(tmp_path / "c.ckpt", tmp_path / "b", max_steps=5)
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("drop", ["d.", "adam_d.", "adam_d_t"])
    def test_pf_restore_still_requires_the_discriminator(self, tmp_path, drop):
        Trainer(tiny_cfg(max_steps=2, val_every=0), tmp_path / "a").run()
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        if drop == "adam_d_t":
            del ckpt.state[drop]
        else:
            ckpt.tensors = {k: v for k, v in ckpt.tensors.items() if not k.startswith(drop)}
        from profforce.config import config_from_text
        cfg = config_from_text(ckpt.config_text)
        with pytest.raises(CheckpointError, match="missing"):
            Trainer(cfg, tmp_path / "b", resume=ckpt)

    def test_restore_rejects_missing_tensor(self, tmp_path):
        Trainer(tiny_cfg(max_steps=2, val_every=0), tmp_path / "a").run()
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        del ckpt.tensors["g.embedding"]
        from profforce.config import config_from_text
        cfg = config_from_text(ckpt.config_text)
        with pytest.raises(CheckpointError, match="missing"):
            Trainer(cfg, tmp_path / "b", resume=ckpt)

    def test_restore_rejects_shape_mismatch(self, tmp_path):
        Trainer(tiny_cfg(max_steps=2, val_every=0), tmp_path / "a").run()
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        ckpt.tensors["g.embedding"] = np.zeros((2, 2))
        from profforce.config import config_from_text
        cfg = config_from_text(ckpt.config_text)
        with pytest.raises(CheckpointError, match="shape"):
            Trainer(cfg, tmp_path / "b", resume=ckpt)


class TestParametersArePlainArrays:
    """Every parameter is one plain array: the object Adam updates in place
    and ``checkpoint()`` stores under its name.  A parameter rebound to a
    new array would split the two without an error."""

    @staticmethod
    def _step(monkeypatch, tr):
        """Run ``tr`` with both players' gates open; returns the parameter
        lists each ``adam_step`` call was handed, by the id of its state."""
        updated, adam_step = {}, engine.adam_step

        def spying(state, params, grads):
            updated[id(state)] = list(params)
            return adam_step(state, params, grads)

        monkeypatch.setattr(engine, "ADVERSARIAL_GATE", -1.0)
        monkeypatch.setattr(engine, "adam_step", spying)
        row = tr.run()[-1]
        assert row["gate_gen"] and row["gate_disc"]
        return updated

    @staticmethod
    def _check(tr, updated):
        tensors = tr.checkpoint().tensors
        for key, net, adam in (("g", tr.g, tr.g_adam), ("d", tr.d, tr.d_adam)):
            named = net.named_params()
            assert len(updated[id(adam)]) == len(named)
            for (name, a), stepped in zip(named, updated[id(adam)]):
                assert type(a) is np.ndarray and a.dtype == np.float64, name
                assert a.flags.c_contiguous and a.base is None, name   # no view
                assert stepped is a and tensors[f"{key}.{name}"] is a, name

    def test_after_a_gate_open_step(self, monkeypatch, tmp_path):
        tr = Trainer(tiny_cfg(max_steps=1), tmp_path)
        self._check(tr, self._step(monkeypatch, tr))

    def test_after_a_resume_loads_the_tensors(self, monkeypatch, tmp_path):
        Trainer(tiny_cfg(max_steps=1), tmp_path / "a").run()
        # as ``train --resume`` builds it: the checkpoint's arrays copied into the players'
        resumed = Trainer.resume(tmp_path / "a" / "final.ckpt", tmp_path / "b", max_steps=2)
        self._check(resumed, self._step(monkeypatch, resumed))


class TestResumeEnvironment:
    """Checkpoints record the BLAS library, its thread setting, numpy and
    Python; a resume in another environment says so."""

    KEYS = ("blas", "blas_threads", "numpy", "python")

    def test_checkpoint_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        state = Trainer(tiny_cfg(), tmp_path).checkpoint().state
        assert state["blas_threads"] == "3"
        assert state["numpy"] == np.__version__
        assert all(state[k] for k in self.KEYS)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.setenv("OMP_NUM_THREADS", "5")
        assert Trainer(tiny_cfg(), tmp_path).checkpoint().state["blas_threads"] == "5"

    def test_same_environment_resumes_quietly(self, tmp_path, caplog):
        Trainer(tiny_cfg(max_steps=2, val_every=0), tmp_path / "a").run()
        with caplog.at_level(logging.WARNING, logger="profforce"):
            Trainer.resume(tmp_path / "a" / "final.ckpt", tmp_path / "b", max_steps=3)
        assert caplog.records == []

    def test_checkpoint_without_environment_loads_and_warns(self, tmp_path, caplog):
        Trainer(tiny_cfg(max_steps=2, val_every=0), tmp_path / "a").run()
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        for key in self.KEYS:
            del ckpt.state[key]
        from profforce.config import config_from_text
        with caplog.at_level(logging.WARNING, logger="profforce"):
            trainer = Trainer(config_from_text(ckpt.config_text), tmp_path / "b", resume=ckpt)
        assert trainer.step == 2
        [record] = caplog.records
        assert f"numpy unknown -> {np.__version__}" in record.getMessage()
        assert "blas_threads unknown -> " in record.getMessage()

    @pytest.mark.parametrize("mode, key", [("professor_forcing", "rng_state"),
                                           ("teacher_forcing", "adam_d_t")])
    def test_checkpoint_with_a_stray_state_key_loads_and_warns(self, tmp_path, caplog, mode,
                                                                key):
        # checkpoints written before the draws were a function of (seed, step)
        # hold rng_* keys, which a resume ignores; so it says
        Trainer(tiny_cfg(max_steps=2, val_every=0, mode=mode), tmp_path / "a").run()
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        ckpt.state[key] = "7"
        from profforce.config import config_from_text
        with caplog.at_level(logging.WARNING, logger="profforce"):
            trainer = Trainer(config_from_text(ckpt.config_text), tmp_path / "b", resume=ckpt)
        assert trainer.step == 2
        [record] = caplog.records
        assert record.getMessage() == (
            "resuming where the checkpoint's environment or state keys differ "
            f"({key} ignored); the run may not continue bit for bit")


class TestCheckpointPeakMemory:
    """Loading a desk-copy pf checkpoint holds about two copies of it at
    once, and saving one holds no copy: its sections are written as they
    are packed (traced by tracemalloc, which numpy reports to)."""

    LIMIT = 2.5         # peak traced bytes over the file size, loading
    SAVE_LIMIT = 0.05   # saving: about 0.008 measured, 2.16 when packed whole first

    @pytest.fixture
    def desk(self, tmp_path):
        trainer = Trainer(build_config(None, "desk-copy", [], {"seed": 1}), tmp_path)
        return trainer, tmp_path / "m.ckpt"

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_checkpoint_and_save(self, desk):
        trainer, path = desk
        peak = self._peak(lambda: save_checkpoint(trainer.checkpoint(), path))
        assert peak < self.SAVE_LIMIT * path.stat().st_size

    def test_load(self, desk):
        trainer, path = desk
        save_checkpoint(trainer.checkpoint(), path)
        peak = self._peak(lambda: load_checkpoint(path))
        assert peak < self.LIMIT * path.stat().st_size


class TestGeneratorFromCheckpoint:
    def test_weights_restored(self, tmp_path):
        t = Trainer(tiny_cfg(max_steps=2, val_every=0), tmp_path / "a")
        t.run()
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        g, cfg = generator_from_checkpoint(ckpt)
        assert cfg.seed == 5
        for name, tensor in g.named_params():
            np.testing.assert_array_equal(tensor, ckpt.tensors["g." + name])

    def test_shape_mismatch_rejected(self, tmp_path):
        Trainer(tiny_cfg(max_steps=1, val_every=0), tmp_path / "a").run()
        ckpt = load_checkpoint(tmp_path / "a" / "final.ckpt")
        ckpt.tensors["g.embedding"] = np.zeros((3, 3))
        with pytest.raises(CheckpointError, match="shape"):
            generator_from_checkpoint(ckpt)


class TestValidation:
    def test_validate_value_is_plain_nll(self, tmp_path):
        from extra_ops import loss_nll, teacher_forced_node
        t = Trainer(tiny_cfg(), tmp_path / "a")
        nll, bpc = t.validate()
        seqs = t.val_set.sequences
        res = teacher_forced_node(t.g, seqs)
        want = loss_nll(res.logits, seqs) / seqs.shape[1]
        assert nll == pytest.approx(want, abs=1e-12)
        assert bpc == pytest.approx(nll / math.log(2), abs=1e-12)

    def test_finite_check_raises_on_bad_nll(self, tmp_path):
        t = Trainer(tiny_cfg(), tmp_path / "a")
        row = {"step": 3, "nll_per_step": float("nan"), "bpc": 1.0,
               "c_d": float("nan"), "c_f": float("nan"), "c_t": float("nan"),
               "disc_acc": float("nan")}
        with pytest.raises(TrainingDiverged, match="step 3"):
            t._check_finite(row)

    def test_diverging_pf_run_raises_training_diverged(self, tmp_path):
        # at step 1 the behavior is nan while nll is still finite: the
        # discriminator ran (disc_acc is a number), so its nan losses count
        cfg = tiny_cfg(seq_len=10, gen_hidden=8, disc_hidden=8, val_count=0, seed=3,
                       lr=1e300, val_every=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match=r"\['c_d', 'c_f', 'c_t'\] at step 1;"):
                Trainer(cfg, tmp_path / "a").run()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("column", ["c_d", "c_f", "c_t"])
    def test_finite_check_reads_adversarial_metrics_once_the_discriminator_ran(
            self, tmp_path, column, bad):
        # disc_acc is a number exactly when the discriminator ran; a nan c_d
        # is then a divergence, not a skipped discriminator
        t = Trainer(tiny_cfg(), tmp_path / "a")
        row = {"step": 5, "nll_per_step": 1.0, "bpc": 1.4,
               "c_d": 1.3, "c_f": 0.7, "c_t": 0.6, "disc_acc": 0.5}
        row[column] = bad
        with pytest.raises(TrainingDiverged, match=rf"\['{column}'\] at step 5;"):
            t._check_finite(row)

    def test_finite_check_tolerates_nan_adversarial_metrics(self, tmp_path):
        t = Trainer(tiny_cfg(), tmp_path / "a")
        row = {"step": 0, "nll_per_step": 1.0, "bpc": 1.4,
               "c_d": float("nan"), "c_f": float("nan"), "c_t": float("nan"),
               "disc_acc": float("nan")}
        t._check_finite(row)  # must not raise
