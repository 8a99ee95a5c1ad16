import os
import stat

import numpy as np
import pytest

from profforce.checkpoint import (
    MAGIC,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def sample():
    rng = np.random.default_rng(110)
    return Checkpoint(
        config_text="seed=1\ntask=copy\n",
        state={"step": "42", "best_val": "1.25", "rng_state": "123456789"},
        tensors={
            "g.embedding": rng.normal(0, 1, (5, 3)),
            "g.head.b_o": rng.normal(0, 1, 4),
            "adam_g.0.m": np.zeros((2, 2)),
            "scalarish": rng.normal(0, 1, (1,)),
        },
    )


class TestRoundTrip:
    def test_bit_exact(self, sample, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(sample, path)
        loaded = load_checkpoint(path)
        assert loaded.config_text == sample.config_text
        assert loaded.state == sample.state
        assert set(loaded.tensors) == set(sample.tensors)
        for name, arr in sample.tensors.items():
            got = loaded.tensors[name]
            assert got.shape == arr.shape
            assert np.array_equal(got, arr)
            assert got.dtype == np.float64
            assert got.flags.writeable and got.flags.owndata

    def test_rank_zero_tensor_keeps_its_shape(self, sample, tmp_path):
        sample.tensors["scalar"] = np.array(2.5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(sample, path)
        got = load_checkpoint(path).tensors["scalar"]
        assert got.shape == () and got == 2.5

    def test_file_starts_with_magic(self, sample, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(sample, path)
        assert path.read_bytes()[:8] == MAGIC == b"PFCK0004"

    def test_no_temp_file_left_behind(self, sample, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(sample, path)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_save_is_deterministic(self, sample, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(sample, p1)
        save_checkpoint(sample, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_overwrite_existing(self, sample, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(sample, path)
        sample.state["step"] = "43"
        save_checkpoint(sample, path)
        assert load_checkpoint(path).state["step"] == "43"

    def test_fsyncs_file_before_rename_and_directory_after(self, sample, tmp_path,
                                                            monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode) else st.st_size))
            fsync(fd)

        def spy_replace(src, dst):
            calls.append(("replace", os.path.basename(src), os.path.basename(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        path = tmp_path / "m.ckpt"
        save_checkpoint(sample, path)
        # the file is synced whole, then renamed, then the rename is synced
        assert calls == [("fsync", path.stat().st_size), ("replace", "m.ckpt.tmp", "m.ckpt"),
                         ("fsync", "dir")]

    def test_empty_tensor_dict(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(config_text="seed=1\n", state={"step": "0"}), path)
        loaded = load_checkpoint(path)
        assert loaded.tensors == {}
        assert loaded.state == {"step": "0"}


class TestCorruption:
    def _saved(self, sample, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(sample, path)
        return path

    def test_flipped_payload_byte_fails_checksum(self, sample, tmp_path):
        path = self._saved(sample, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file(self, sample, tmp_path):
        path = self._saved(sample, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a checkpoint, far too long to be empty")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"PF")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_future_version_named_in_error(self, sample, tmp_path):
        path = self._saved(sample, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"PFCK0005"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert "0005" in str(exc.value) and "0004" in str(exc.value)

    # PFCK0001 stored per-gate GRU matrices, whose tensor names are gone.
    # PFCK0002 stored MLP weights [out, in] and W_o [V, H]; its square
    # classifier weights would pass every shape check and load transposed.
    # PFCK0003 stored GRU weights gate-stacked: W [I, 3H], U [H, 3H], b [3H].
    @pytest.mark.parametrize("old", [b"PFCK0001", b"PFCK0002", b"PFCK0003"])
    def test_previous_version_rejected(self, sample, tmp_path, old):
        path = self._saved(sample, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:8] = old
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert old[4:].decode() in str(exc.value) and "0004" in str(exc.value)

    def test_missing_state_section(self, tmp_path):
        import struct
        import zlib
        body = b"seed=1\n"
        section = struct.pack("<I", 6) + b"config" + struct.pack("<Q", len(body)) + body
        payload = struct.pack("<I", 1) + section
        blob = MAGIC + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path = tmp_path / "m.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def test_malformed_state_line_names_section_and_line(self, tmp_path):
        import struct
        import zlib
        payload = struct.pack("<I", 2)
        for name, body in ((b"config", b"seed=1\n"), (b"state", b"step=1\ngarbage-line\n")):
            payload += struct.pack("<I", len(name)) + name + struct.pack("<Q", len(body)) + body
        blob = MAGIC + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path = tmp_path / "m.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="section 'state', line 2: .*'garbage-line'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spot", ["name", "config", "state"])
    def test_text_that_is_not_utf8_names_its_section(self, tmp_path, spot):
        # The CRC is sealed over the bad byte, so only the decoding can object.
        import struct
        import zlib
        sections = [(b"config", b"seed=1\n"), (b"state", b"step=1\n"),
                    (b"g.b", struct.pack("<2I", 1, 1) + struct.pack("<d", 0.5))]
        bad = {"name": 2, "config": 0, "state": 1}[spot]
        name, body = sections[bad]
        sections[bad] = (name + b"\xff", body) if spot == "name" else (name, body + b"\xff")
        payload = struct.pack("<I", len(sections))
        for name, body in sections:
            payload += struct.pack("<I", len(name)) + name + struct.pack("<Q", len(body)) + body
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
        where = {"name": "the name of section 2", "config": "section 'config'",
                 "state": "section 'state'"}[spot]
        with pytest.raises(CheckpointError, match=f"{where} is not utf-8 text"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.ckpt")
