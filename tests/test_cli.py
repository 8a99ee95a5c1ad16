import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import profforce
from profforce import cli
from profforce.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from profforce.cli import main


TINY_SETS = [
    "task=copy", "vocab_size=4", "seq_len=8", "copy_pattern_len=2",
    "copy_count=8", "val_count=4", "gen_hidden=6", "gen_embed=4",
    "disc_hidden=6", "batch_n=4", "val_every=3", "lr=0.001",
]


def train_args(out, extra=(), steps="4", seed="5"):
    args = ["train", "--out", str(out), "--seed", seed, "--steps", steps]
    for pair in TINY_SETS:
        args += ["--set", pair]
    return args + list(extra)


@pytest.fixture
def trained(tmp_path):
    out = tmp_path / "run"
    assert main(train_args(out)) == 0
    return out


CORPUS = "abcd" * 100   # 4 symbols: vocab_symbols=97,98,99,100


@pytest.fixture
def corpus_trained(tmp_path):
    """A run directory of a 2-step tiny corpus run on ``CORPUS``, and its file."""
    corpus, out = tmp_path / "corpus.txt", tmp_path / "corpus-run"
    corpus.write_text(CORPUS)
    extra = ["--set", "task=corpus", "--set", f"corpus_path={corpus}"]
    assert main(train_args(out, extra=extra, steps="2")) == 0
    return out, corpus


class TestTrainCommand:
    def test_writes_outputs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(out)) == 0
        stdout = capsys.readouterr().out
        assert "trained 4 steps" in stdout
        assert (out / "curves.csv").exists()
        assert (out / "val.csv").exists()
        assert (out / "final.ckpt").exists()
        curves = (out / "curves.csv").read_text().strip().splitlines()
        assert len(curves) == 5

    def test_mode_alias_flag(self, tmp_path):
        out = tmp_path / "run"
        assert main(train_args(out, extra=["--mode", "tf"])) == 0
        from profforce.checkpoint import load_checkpoint
        ckpt = load_checkpoint(out / "final.ckpt")
        assert "mode=teacher_forcing" in ckpt.config_text

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("\n".join(TINY_SETS) + "\nseed=5\nmax_steps=2\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "final.ckpt").exists()

    def test_resume_flag(self, tmp_path, trained):
        out2 = tmp_path / "resumed"
        code = main(["train", "--resume", str(trained / "final.ckpt"),
                     "--out", str(out2), "--steps", "6"])
        assert code == 0
        curves = (out2 / "curves.csv").read_text().strip().splitlines()
        assert [l.split(",")[0] for l in curves[1:]] == ["4", "5"]

    @pytest.mark.parametrize("flag", [["--config", "c.cfg"], ["--preset", "desk-copy"],
                                      ["--set", "lr=5"], ["--mode", "tf"], ["--seed", "0"]],
                             ids=lambda f: f[0])
    def test_resume_refuses_the_flags_it_would_ignore(self, tmp_path, trained, capsys, flag):
        (tmp_path / "c.cfg").write_text("lr=5\n")
        out2 = tmp_path / "resumed"
        value = str(tmp_path / flag[1]) if flag[0] == "--config" else flag[1]
        code = main(["train", "--resume", str(trained / "final.ckpt"), "--out", str(out2),
                     "--steps", "6", flag[0], value])
        assert code == 2
        assert flag[0] in capsys.readouterr().err
        assert not out2.exists()

    @pytest.mark.parametrize("field, value", [
        ("adam_g_t", None), ("step", "x7"),
        # text int() and float() accept but the writer never prints: these resumed
        # at steps 20, 2, 3, 2 and 2, and at a best_val of inf
        ("step", "2_0"), ("step", " 2"), ("step", "\u0663"), ("step", "+2"), ("step", "02"),
        ("best_val", "Infinity")])
    def test_resume_with_malformed_state_field_exits_2(self, tmp_path, trained, capsys,
                                                       field, value):
        # a CRC-valid checkpoint whose state section lacks a field or garbles one
        ckpt = load_checkpoint(trained / "final.ckpt")
        if value is None:
            del ckpt.state[field]
        else:
            ckpt.state[field] = value
        save_checkpoint(ckpt, tmp_path / "bad.ckpt")
        code = main(["train", "--resume", str(tmp_path / "bad.ckpt"),
                     "--out", str(tmp_path / "resumed"), "--steps", "6"])
        assert code == 2
        assert f"checkpoint state field {field!r}" in capsys.readouterr().err

    def test_resume_of_pf_checkpoint_without_discriminator_exits_2(self, tmp_path, trained,
                                                                   capsys):
        ckpt = load_checkpoint(trained / "final.ckpt")
        ckpt.tensors = {k: v for k, v in ckpt.tensors.items() if not k.startswith("d.")}
        save_checkpoint(ckpt, tmp_path / "bad.ckpt")
        code = main(["train", "--resume", str(tmp_path / "bad.ckpt"),
                     "--out", str(tmp_path / "resumed"), "--steps", "6"])
        assert code == 2
        assert "checkpoint missing tensors: ['d." in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "diagnose"])
    def test_stray_generator_section_exits_2_as_on_resume(self, tmp_path, trained, capsys,
                                                          command):
        # sample and diagnose used to read the g.* tensors they knew and ignore the rest
        ckpt = load_checkpoint(trained / "final.ckpt")
        ckpt.tensors["g.extra"] = np.zeros(3)
        save_checkpoint(ckpt, tmp_path / "bad.ckpt")
        capsys.readouterr()
        assert main([command, str(tmp_path / "bad.ckpt")]) == 2
        out, err = capsys.readouterr()
        assert "checkpoint tensor 'g.extra' has no destination" in err and out == ""

    @pytest.mark.parametrize("folder", ["we#ird", "we\nird"])
    def test_value_config_text_cannot_hold_exits_2_before_writing(self, tmp_path, capsys,
                                                                  folder):
        # it used to train, and the resume cut the stored path at '#' or the line break
        corpus = tmp_path / folder / "c.txt"
        corpus.parent.mkdir()
        corpus.write_text("ab" * 400)
        out = tmp_path / "run"
        extra = ["--set", "task=corpus", "--set", f"corpus_path={corpus}", "--set", "seq_len=8"]
        assert main(train_args(out, extra=extra)) == 2
        assert "config key 'corpus_path'" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_with_malformed_state_line_exits_2(self, tmp_path, trained, capsys):
        # a CRC-valid checkpoint whose state section holds a line without "="
        ckpt = load_checkpoint(trained / "final.ckpt")
        ckpt.state["step"] += "\ngarbage-line"
        line = sorted(ckpt.state).index("step") + 2
        save_checkpoint(ckpt, tmp_path / "bad.ckpt")
        code = main(["train", "--resume", str(tmp_path / "bad.ckpt"),
                     "--out", str(tmp_path / "resumed"), "--steps", "6"])
        assert code == 2
        assert (f"section 'state', line {line}: expected key=value, got 'garbage-line'"
                in capsys.readouterr().err)

    def test_diverging_pf_run_exits_3(self, tmp_path, capsys):
        # the discriminator's probabilities are nan at step 1, nll still finite
        sets = ["mode=professor_forcing", "seq_len=10", "gen_hidden=8", "disc_hidden=8",
                "val_count=0", "val_every=0", "lr=1e300"]
        code = main(train_args(tmp_path / "x", [a for p in sets for a in ("--set", p)],
                               steps="6", seed="3"))
        assert code == 3
        assert "non-finite metrics ['c_d', 'c_f', 'c_t'] at step 1;" in capsys.readouterr().err

    def test_diverging_desk_run_reports_only_its_error_in_dev_mode(self, tmp_path):
        # at desk size numpy warns of overflow, which -W error would raise
        # first: the run's own finiteness check must report the divergence
        env = dict(os.environ, PYTHONPATH=str(Path(profforce.__file__).parents[1]))
        code = "import sys; from profforce.cli import main; sys.exit(main())"
        args = ["train", "--preset", "desk-copy", "--seed", "1", "--steps", "6", "--mode", "pf",
                "--set", "lr=1e300", "--set", "val_every=0", "--out", str(tmp_path / "x")]
        out = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, *args],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 3, out.stderr
        assert out.stderr.splitlines() == [
            "error: non-finite metrics ['c_d', 'c_f', 'c_t'] at step 1; "
            "inspect the learning rate or the adversarial weight"]

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        assert main(["train", "--preset", "galaxy", "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_set_key_exits_2(self, tmp_path, capsys):
        assert main(train_args(tmp_path / "x", extra=["--set", "warp_drive=1"])) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lr", "temperature", "bias", "adversarial_weight"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_exits_2(self, tmp_path, capsys, key, value):
        out = tmp_path / "x"
        assert main(train_args(out, extra=["--set", f"{key}={value}"])) == 2
        assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize("bias", ["-1", "-2"])
    def test_bias_at_or_below_minus_one_exits_2_before_writing(self, tmp_path, capsys, bias):
        # sample refuses such a bias, so training with it would leave an
        # unsampleable checkpoint
        out = tmp_path / "x"
        assert main(train_args(out, extra=["--set", f"bias={bias}"])) == 2
        assert (f"bias must be a finite number greater than -1, got {float(bias)}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("symbols", ["65", "65,66,67,68,69", "65,66,67,x", "65,66,,68",
                                         "65,66,67,99999999999", "65,66,67,1114112",
                                         "65,66,67,+68", "65,66,67,\u0663"])
    def test_vocab_symbols_that_cannot_decode_exits_2_before_writing(self, tmp_path, capsys,
                                                                     symbols):
        # it used to train, leaving a checkpoint that sample could not decode
        out = tmp_path / "x"
        assert main(train_args(out, extra=["--set", f"vocab_symbols={symbols}"])) == 2
        assert (f"vocab_symbols must be 4 comma-separated code points (ASCII decimals up to "
                f"1114111), got {symbols!r}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pairs, msg", [
        (["copy_count=0"], "copy_count must be positive"),
        (["copy_count=-2"], "copy_count must be positive"),
        (["task=raster", "raster_count=0"], "raster_count must be positive"),
        (["val_count=-2"], "val_count must be nonnegative"),
    ])
    def test_bad_sequence_count_exits_2_before_writing(self, tmp_path, capsys, pairs, msg):
        # copy_count=0 used to die dividing by zero after writing the CSV headers
        out = tmp_path / "x"
        extra = [arg for pair in pairs for arg in ("--set", pair)]
        assert main(train_args(out, extra=extra)) == 2
        assert msg in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pairs, msg", [
        (["task=raster", "raster_family=blob"], "unknown raster_family 'blob'"),
        (["task=raster", "raster_width=3"], "raster_width must be at least 4"),
        (["task=raster", "raster_height=2"], "raster_height must be at least 4"),
        (["vocab_size=1"], "copy task needs at least two symbols"),
        (["task=corpus", "corpus_path={tmp}/missing.txt"], "missing.txt"),
        (["task=corpus", "corpus_path={tmp}/corpus.txt", "vocab_symbols=65,66"],
         "vocab_symbols 65,66 are not the symbols of corpus_path {tmp}/corpus.txt"),
        # 10**13 rows ask for hundreds of TiB at once, past any address space
        (["val_count=10000000000000"], "Unable to allocate"),
    ])
    def test_failed_set_up_exits_2_without_a_run_directory(self, tmp_path, capsys, pairs,
                                                           msg):
        # the run directory used to be made before the data and models were built
        (tmp_path / "corpus.txt").write_text(CORPUS)
        out = tmp_path / "x"
        extra = [arg for pair in pairs for arg in ("--set", pair.format(tmp=tmp_path))]
        assert main(train_args(out, extra=extra)) == 2
        assert msg.format(tmp=tmp_path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, derived", [
        (["--preset", "desk-raster", "--set", "vocab_size=1"], {"vocab_size=2"}),
        # a corpus run takes both keys from its file; each of these used to exit 2
        (["--set", "task=corpus", "--set", "vocab_size=1"],
         {"vocab_size=4", "vocab_symbols=97,98,99,100"}),
        (["--set", "task=corpus", "--set", "vocab_symbols=97,98,99,100"],
         {"vocab_size=4", "vocab_symbols=97,98,99,100"}),
    ], ids=["raster", "corpus_vocab_size", "corpus_own_vocab_symbols"])
    def test_raster_run_does_not_judge_the_vocab_size_it_ignores(self, tmp_path, capsys,
                                                                 extra, derived):
        # a raster run's vocabulary is the two pixel values; vocab_size=1 used to exit 2
        (tmp_path / "corpus.txt").write_text(CORPUS)
        out = tmp_path / "x"
        assert main(["train", "--seed", "1", "--steps", "1", "--out", str(out),
                     "--set", f"corpus_path={tmp_path / 'corpus.txt'}", "--set", "val_every=0",
                     *extra]) == 0
        assert derived <= set(load_checkpoint(out / "final.ckpt").config_text.splitlines())

    def test_resume_to_fewer_steps_exits_2_and_writes_nothing(self, trained, capsys):
        # it used to train nothing and rewrite final.ckpt with step 4 but max_steps 3
        before = {p.name: p.read_bytes() for p in trained.iterdir()}
        assert main(["train", "--resume", str(trained / "final.ckpt"),
                     "--out", str(trained), "--steps", "3"]) == 2
        assert "max_steps 3 is below the checkpoint's step 4" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in trained.iterdir()} == before

    def test_bias_above_minus_one_trains_and_samples(self, tmp_path):
        out = tmp_path / "x"
        assert main(train_args(out, extra=["--set", "bias=-0.5"])) == 0
        assert main(["sample", str(out / "final.ckpt"), "--out", str(tmp_path / "s.txt")]) == 0

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        args = ["train", "--out", str(tmp_path / "x"), "--steps", "1"]
        for pair in TINY_SETS:
            args += ["--set", pair]
        assert main(args) == 2
        assert "seed" in capsys.readouterr().err


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["train", "sample", "diagnose"])
    def test_exits_2_naming_the_seed(self, trained, tmp_path, capsys, command):
        ckpt = str(trained / "final.ckpt")
        args = {"train": train_args(tmp_path / "x", seed="-1"),
                "sample": ["sample", ckpt, "--seed", "-1"],
                "diagnose": ["diagnose", ckpt, "--seed", "-1"]}[command]
        assert main(args) == 2
        flag = "seed" if command == "train" else "--seed"
        assert f"error: {flag} must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestSeedZero:
    @pytest.mark.parametrize("command", ["train", "sample", "diagnose"])
    def test_is_accepted(self, trained, tmp_path, command):
        # 0 is the lowest seed each command takes
        ckpt = str(trained / "final.ckpt")
        args = {"train": train_args(tmp_path / "x", steps="1", seed="0"),
                "sample": ["sample", ckpt, "--seed", "0"],
                "diagnose": ["diagnose", ckpt, "--count", "4", "--seed", "0"]}[command]
        assert main(args) == 0


class TestPathErrors:
    """A directory where a file is wanted, or an existing file where a
    directory is wanted, exits 2 with an error naming the path."""

    @pytest.mark.parametrize("case", ["sample", "sample_out", "inspect", "resume", "config",
                                      "corpus_path", "train_out", "diagnose_out"])
    def test_exits_2_naming_the_path(self, trained, tmp_path, capsys, case):
        ckpt, run = str(trained / "final.ckpt"), tmp_path / "new"
        folder, afile = tmp_path / "folder", tmp_path / "file.txt"
        folder.mkdir()
        afile.write_text("kept\n")
        args, named = {   # case: (arguments, the path the error names)
            "sample": (["sample", str(folder)], folder),
            "sample_out": (["sample", ckpt, "--out", str(folder)], folder),
            "inspect": (["inspect-checkpoint", str(folder)], folder),
            "resume": (["train", "--resume", str(folder), "--out", str(run)], folder),
            "config": (train_args(run, extra=["--config", str(folder)]), folder),
            "corpus_path": (train_args(run, extra=["--set", "task=corpus",
                                                   "--set", f"corpus_path={folder}"]), folder),
            "train_out": (train_args(afile), afile),
            "diagnose_out": (["diagnose", ckpt, "--out", str(afile)], afile),
        }[case]
        capsys.readouterr()
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and str(named) in err
        assert out == ""   # diagnose used to print its whole report first
        assert afile.read_text() == "kept\n" and not run.exists()


class TestParser:
    def test_built_once_and_each_call_sees_only_its_own_sets(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_train", lambda args: seen.append(args.set) or 0)
        assert main(["train", "--set", "a=1", "--set", "b=2"]) == 0
        assert main(["train", "--set", "c=3"]) == 0
        assert main(["train"]) == 0
        assert seen == [["a=1", "b=2"], ["c=3"], []]
        assert cli._parser() is cli._parser()


class TestSampleCommand:
    def test_stdout_shape_and_determinism(self, trained, capsys):
        assert main(["sample", str(trained / "final.ckpt"),
                     "--count", "3", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        lines = first.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            ids = line.split()
            assert len(ids) == 8  # training seq_len
            assert all(0 <= int(i) < 4 for i in ids)
        assert main(["sample", str(trained / "final.ckpt"),
                     "--count", "3", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_sets_the_allocator_policy(self, trained, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
        assert main(["sample", str(trained / "final.ckpt"), "--count", "2"]) == 0
        assert calls == [1]

    def test_length_override_and_out_file(self, trained, tmp_path):
        dest = tmp_path / "samples.txt"
        assert main(["sample", str(trained / "final.ckpt"), "--length", "13",
                     "--count", "2", "--out", str(dest)]) == 0
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(len(l.split()) == 13 for l in lines)

    def test_bias_validation(self, trained, capsys):
        assert main(["sample", str(trained / "final.ckpt"), "--bias", "-1.5"]) == 2
        assert "bias" in capsys.readouterr().err

    @pytest.mark.parametrize("bias", ["nan", "inf", "-inf"])
    def test_non_finite_bias_exits_2(self, trained, tmp_path, capsys, bias):
        dest = tmp_path / "samples.txt"
        assert main(["sample", str(trained / "final.ckpt"), f"--bias={bias}",
                     "--out", str(dest)]) == 2
        assert "bias must be a finite number" in capsys.readouterr().err
        assert not dest.exists()

    def test_bias_changes_distribution(self, trained, capsys):
        assert main(["sample", str(trained / "final.ckpt"), "--count", "40",
                     "--seed", "3", "--bias", "0"]) == 0
        neutral = capsys.readouterr().out
        assert main(["sample", str(trained / "final.ckpt"), "--count", "40",
                     "--seed", "3", "--bias", "50"]) == 0
        greedy = capsys.readouterr().out
        assert neutral != greedy

    def test_corpus_checkpoint_decodes_characters(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ab" * 400)
        out = tmp_path / "run"
        args = ["train", "--out", str(out), "--seed", "5", "--steps", "2",
                "--set", "task=corpus", "--set", f"corpus_path={corpus}",
                "--set", "seq_len=10", "--set", "gen_hidden=6",
                "--set", "gen_embed=4", "--set", "disc_hidden=6",
                "--set", "batch_n=4", "--set", "val_every=0"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["sample", str(out / "final.ckpt"), "--count", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(set(l) <= {"a", "b"} and len(l) == 10 for l in lines)

    @pytest.mark.parametrize("run", ["trained", "corpus_trained"])
    @pytest.mark.parametrize("symbols", ["65", "65,66,67,99999999999", "65,66,67,x"])
    def test_vocab_symbols_that_cannot_decode_exits_2(self, request, tmp_path, capsys, symbols,
                                                      run):
        # no train writes such a checkpoint now; sample died of an IndexError or an
        # OverflowError on them, or reported int()'s complaint without naming the key.
        # sample reads no corpus file, so a corpus run's symbols are judged as a copy run's
        trained = request.getfixturevalue(run)
        trained = trained[0] if run == "corpus_trained" else trained
        ckpt = load_checkpoint(trained / "final.ckpt")
        ckpt.config_text += f"vocab_symbols={symbols}\n"
        save_checkpoint(ckpt, tmp_path / "bad.ckpt")
        capsys.readouterr()
        assert main(["sample", str(tmp_path / "bad.ckpt")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: vocab_symbols must be 4 comma-separated code points (ASCII decimals up to "
            f"1114111), got {symbols!r}"]

    @pytest.mark.parametrize("pairs, alphabet", [
        (["vocab_symbols=65,66,67,1114111"], "ABC\U0010ffff"),
        # a raster run's vocabulary is its two pixel values, whatever vocab_size says
        (["task=raster", "raster_width=4", "raster_height=4", "vocab_symbols=46,35"], ".#")])
    def test_vocab_symbols_decode_the_checkpoint(self, tmp_path, capsys, pairs, alphabet):
        out = tmp_path / "x"
        assert main(train_args(out, extra=[a for p in pairs for a in ("--set", p)])) == 0
        capsys.readouterr()
        assert main(["sample", str(out / "final.ckpt"), "--count", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all(set(l) <= set(alphabet) for l in lines)

    @pytest.mark.parametrize("vocab_symbols", [None, "97,98,10,233,32,48,9731,44,57,1000"])
    def test_decode_rows_matches_per_symbol_decoding(self, vocab_symbols):
        from profforce.cli import _decode_rows
        rows = np.random.default_rng(11).integers(0, 10, (5, 37))
        if vocab_symbols:
            alphabet = [chr(int(c)) for c in vocab_symbols.split(",")]
            expected = ["".join(alphabet[i] for i in row) for row in rows]
        else:
            expected = [" ".join(str(int(i)) for i in row) for row in rows]
        got = _decode_rows(rows, vocab_symbols)
        assert "\n".join(got).encode("utf-8") == "\n".join(expected).encode("utf-8")
        assert _decode_rows(rows[:, :0], vocab_symbols) == [""] * 5

    @pytest.mark.parametrize("flag", ["--count", "--length"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_nonpositive_count_exits_2(self, trained, capsys, count, flag):
        assert main(["sample", str(trained / "final.ckpt"), flag, count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {flag} must be at least 1, got {count}"]

    def test_length_too_large_to_allocate_exits_2(self, trained, capsys):
        # 10**13 steps of 8 rows ask for hundreds of TiB at once, past any
        # address space, so the unroll fails before its first step
        assert main(["sample", str(trained / "final.ckpt"), "--length", str(10**13),
                     "--count", "8"]) == 2
        assert "error: Unable to allocate" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        assert main(["sample", str(tmp_path / "nope.ckpt")]) == 2
        assert "error:" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_report_fields(self, trained, capsys):
        assert main(["diagnose", str(trained / "final.ckpt"), "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "timestep=8" in out
        assert "centroid_distance=" in out
        assert "mean_cross_distance=" in out
        assert "n_tf=4" in out and "n_fr=4" in out
        centroid = float(next(l for l in out.splitlines()
                              if l.startswith("centroid_distance=")).split("=")[1])
        mean_cross = float(next(l for l in out.splitlines()
                                if l.startswith("mean_cross_distance=")).split("=")[1])
        assert mean_cross >= centroid >= 0.0

    def test_timestep_flag(self, trained, capsys):
        assert main(["diagnose", str(trained / "final.ckpt"), "--count", "4",
                     "--timestep", "2"]) == 0
        assert "timestep=2" in capsys.readouterr().out

    def test_out_directory_csvs(self, trained, tmp_path, capsys):
        dest = tmp_path / "diag"
        assert main(["diagnose", str(trained / "final.ckpt"), "--count", "4",
                     "--out", str(dest)]) == 0
        clouds = (dest / "clouds.csv").read_text().strip().splitlines()
        assert clouds[0] == "mode,t,index," + ",".join(f"h{i}" for i in range(6))
        assert len(clouds) == 1 + 8  # 4 points per regime
        proj = (dest / "projection.csv").read_text().strip().splitlines()
        assert proj[0] == "mode,x,y"
        assert len(proj) == 9

    @pytest.mark.parametrize("count", ["0", "-3", "1"])
    def test_count_must_be_at_least_one(self, trained, tmp_path, capsys, count):
        # --count -3 used to diagnose all but the last three sequences
        dest = tmp_path / "diag"
        code = main(["diagnose", str(trained / "final.ckpt"), "--count", count,
                     "--out", str(dest)])
        captured = capsys.readouterr()
        if count == "1":   # the lowest count it takes
            assert code == 0 and "n_tf=1" in captured.out and dest.is_dir()
            return
        assert code == 2
        assert captured.out == ""
        assert f"--count must be at least 1, got {count}" in captured.err
        assert not dest.exists()

    @pytest.mark.parametrize("timestep", ["0", "9"])   # the sequences have 8 steps
    def test_bad_timestep_exits_2(self, trained, capsys, timestep):
        capsys.readouterr()
        assert main(["diagnose", str(trained / "final.ckpt"), "--count", "4",
                     "--timestep", timestep]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: --timestep must lie in 1..8, got {timestep}"]

    def test_out_of_hidden_size_1_exits_2_before_reporting(self, tmp_path, capsys):
        # it used to print its report and write clouds.csv, then fail in project_2d
        run, dest = tmp_path / "run", tmp_path / "diag"
        assert main(train_args(run, extra=["--set", "gen_hidden=1"], steps="2")) == 0
        capsys.readouterr()
        assert main(["diagnose", str(run / "final.ckpt"), "--count", "4",
                     "--out", str(dest)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            "error: --out needs a generator of hidden size at least 2, got 1"]
        assert not dest.exists()


class TestCorpusEditedAfterTraining:
    """diagnose and a resume read the corpus file again: its symbols must
    still be the checkpoint's ``vocab_symbols``, or the ids mean other symbols."""

    @pytest.mark.parametrize("edited", [CORPUS.replace("d", "e"), CORPUS + "e"],
                             ids=["same_count", "grown"])
    @pytest.mark.parametrize("command", [["diagnose", "--count", "4"],
                                         ["train", "--steps", "4", "--out", "{run}", "--resume"]],
                             ids=["diagnose", "resume"])
    def test_exits_2_naming_vocab_symbols(self, corpus_trained, capsys, edited, command):
        # a same-count edit used to diagnose and resume on another id mapping, and
        # a grown file to fail a resume on adam_g.embedding.m's shape
        run, corpus = corpus_trained
        corpus.write_text(edited)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        args = [a.format(run=run) for a in command]
        assert main(args + [str(run / "final.ckpt")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            f"error: vocab_symbols 97,98,99,100 are not the symbols of corpus_path {corpus}")
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("command", [["sample"], ["diagnose", "--count", "4"],
                                         ["train", "--out", "{tmp}/resumed", "--resume"]])
    def test_checkpoint_without_vocab_symbols_exits_2(self, corpus_trained, tmp_path, capsys,
                                                      command):
        # diagnose and a resume would take the symbols of whatever the file now holds
        ckpt = load_checkpoint(corpus_trained[0] / "final.ckpt")
        ckpt.config_text = "".join(line for line in ckpt.config_text.splitlines(True)
                                   if not line.startswith("vocab_symbols="))
        save_checkpoint(ckpt, tmp_path / "bad.ckpt")
        capsys.readouterr()
        assert main([a.format(tmp=tmp_path) for a in command] + [str(tmp_path / "bad.ckpt")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: corpus checkpoint has no vocab_symbols"]
        assert not (tmp_path / "resumed").exists()


class TestCheckpointConfigGate:
    @pytest.mark.parametrize("command", [
        ["sample"], ["diagnose", "--count", "4"], ["train", "--out", "{tmp}/resumed", "--resume"]])
    def test_config_train_refuses_exits_2_naming_the_key(self, trained, tmp_path, capsys,
                                                           command):
        # sample, diagnose and a resume apply train's checks to the checkpoint's config:
        # sample drew from this one, and diagnose died in the copy task's own check
        ckpt = load_checkpoint(trained / "final.ckpt")
        ckpt.config_text += "copy_pattern_len=0\n"
        save_checkpoint(ckpt, tmp_path / "bad.ckpt")
        capsys.readouterr()
        args = [a.format(tmp=tmp_path) for a in command]
        assert main(args + [str(tmp_path / "bad.ckpt")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: need 1 <= copy_pattern_len <= seq_len"]
        assert not (tmp_path / "resumed").exists()


class TestInspectCommand:
    def test_lists_format_config_tensors(self, trained, capsys):
        assert main(["inspect-checkpoint", str(trained / "final.ckpt")]) == 0
        out = capsys.readouterr().out
        assert f"format: {MAGIC.decode('ascii')}" in out
        assert "step: 4" in out
        assert "seed=5" in out
        assert "g.embedding  shape=(5, 4)" in out
        assert "adam_g.embedding.m  shape=(5, 4)" in out

    def test_corrupt_file_exits_2(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        blob = bytearray((trained / "final.ckpt").read_bytes())
        blob[20] ^= 0xFF
        bad.write_bytes(bytes(blob))
        assert main(["inspect-checkpoint", str(bad)]) == 2
        assert "checksum" in capsys.readouterr().err

    def test_config_text_not_utf8_exits_2(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        blob = bytearray((trained / "final.ckpt").read_bytes())
        blob[blob.index(b"seed=5")] = 0xFF
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[8:-4]))   # a valid CRC over the bad byte
        bad.write_bytes(bytes(blob))
        assert main(["inspect-checkpoint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "section 'config' is not utf-8 text" in err


def cli_in_subprocess(args, **env_vars) -> str:
    """stderr of ``profforce <args>`` run in a fresh process, so that its
    logging is set up from ``env_vars`` (once per process) and not by
    whatever ran before; PF_LOG_LEVEL is unset unless given."""
    env = {k: v for k, v in os.environ.items() if k != "PF_LOG_LEVEL"}
    env.update(env_vars, PYTHONPATH=str(Path(profforce.__file__).parents[1]))
    code = "import sys; from profforce.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stderr


class TestResumeUnderAnotherThreadCount:
    """A run's bits depend on the BLAS thread count, so a resume under
    another one is loud (README, Determinism)."""

    @staticmethod
    def _train(threads, *args):
        return cli_in_subprocess(["train", *args], OPENBLAS_NUM_THREADS=threads)

    def test_desk_run_resumed_at_two_threads_warns(self, tmp_path):
        first = self._train("1", "--preset", "desk-copy", "--seed", "4", "--steps", "3",
                            "--set", "val_every=0", "--out", str(tmp_path / "a"))
        assert "WARNING" not in first
        ckpt = str(tmp_path / "a" / "final.ckpt")
        resumed = self._train("2", "--resume", ckpt, "--steps", "4", "--out", str(tmp_path / "b"))
        [warning] = [line for line in resumed.splitlines() if line.startswith("WARNING")]
        assert "blas_threads 1 -> 2" in warning and "bit for bit" in warning
        same = self._train("1", "--resume", ckpt, "--steps", "4", "--out", str(tmp_path / "c"))
        assert "WARNING" not in same


class TestLogging:
    @pytest.mark.parametrize("level, validation, per_step", [
        (None, True, False), ("warning", False, False), ("debug", True, True)])
    def test_level_decides_which_lines_a_run_logs(self, tmp_path, level, validation,
                                                  per_step):
        # info, the default, logs each validation; debug adds each step
        args = train_args(tmp_path / "run", steps="2") + ["--set", "val_every=1"]
        err = cli_in_subprocess(args, **({"PF_LOG_LEVEL": level} if level else {}))
        assert ("validation nll/step" in err) == validation, err
        assert ("step 0 nll/step" in err) == per_step, err

    def test_invalid_level_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("PF_LOG_LEVEL", "chatty")
        with pytest.raises(SystemExit) as exc:
            main(["inspect-checkpoint", "whatever"])
        assert exc.value.code == 2
        assert "PF_LOG_LEVEL" in capsys.readouterr().err

    def test_valid_levels_accepted(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("PF_LOG_LEVEL", "error")
        assert main(["sample", str(tmp_path / "no.ckpt")]) == 2  # reaches the handler

    def test_warning_accepted(self, monkeypatch, tmp_path, capsys):
        for name in ("warning", "WARNING"):
            monkeypatch.setenv("PF_LOG_LEVEL", name)
            assert main(["sample", str(tmp_path / "no.ckpt")]) == 2  # reaches the handler
