import logging
import os
import stat
import struct
import zlib

import numpy as np
import pytest

from profforce.checkpoint import (
    MAGIC,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from profforce.cli import main as cli_main
from profforce.config import TrainConfig
from profforce.trainer import Trainer, generator_from_checkpoint

from test_acceptance import TINY_PF


def sealed(payload: bytes) -> bytes:
    """A checkpoint blob around ``payload``, under a valid CRC."""
    return MAGIC + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def packed(sections, count=None) -> bytes:
    """The payload of ``(name, body)`` byte pairs, declaring ``count`` sections."""
    payload = struct.pack("<I", len(sections) if count is None else count)
    for name, body in sections:
        payload += struct.pack("<I", len(name)) + name + struct.pack("<Q", len(body)) + body
    return payload


def sections_of(blob: bytes) -> list[tuple[bytes, bytes]]:
    """The ``(name, body)`` byte pairs of a well-formed checkpoint blob."""
    payload, out = blob[len(MAGIC):-4], []
    (count,), offset = struct.unpack_from("<I", payload), 4
    for _ in range(count):
        (n,) = struct.unpack_from("<I", payload, offset)
        name = payload[offset + 4:offset + 4 + n]
        (m,) = struct.unpack_from("<Q", payload, offset + 4 + n)
        offset += 12 + n
        out.append((name, payload[offset:offset + m]))
        offset += m
    return out


@pytest.fixture
def sample():
    rng = np.random.default_rng(110)
    return Checkpoint(
        config_text="seed=1\ntask=copy\n",
        state={"step": "42", "best_val": "1.25", "adam_g_t": "123456789"},
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
        path = tmp_path / "m.ckpt"
        path.write_bytes(sealed(packed([(b"config", b"seed=1\n")])))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def test_malformed_state_line_names_section_and_line(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(sealed(packed([(b"config", b"seed=1\n"),
                                        (b"state", b"step=1\ngarbage-line\n")])))
        with pytest.raises(CheckpointError, match="section 'state', line 2: .*'garbage-line'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spot", ["name", "config", "state"])
    def test_text_that_is_not_utf8_names_its_section(self, tmp_path, spot):
        # The CRC is sealed over the bad byte, so only the decoding can object.
        sections = [(b"config", b"seed=1\n"), (b"state", b"step=1\n"),
                    (b"g.b", struct.pack("<2I", 1, 1) + struct.pack("<d", 0.5))]
        bad = {"name": 2, "config": 0, "state": 1}[spot]
        name, body = sections[bad]
        sections[bad] = (name + b"\xff", body) if spot == "name" else (name, body + b"\xff")
        path = tmp_path / "m.ckpt"
        path.write_bytes(sealed(packed(sections)))
        where = {"name": "the name of section 2", "config": "section 'config'",
                 "state": "section 'state'"}[spot]
        with pytest.raises(CheckpointError, match=f"{where} is not utf-8 text"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bytes_after_the_last_section(self, sample, tmp_path):
        # resealed, so the CRC holds over the stray bytes
        path = self._saved(sample, tmp_path)
        path.write_bytes(sealed(path.read_bytes()[len(MAGIC):-4] + bytes(8)))
        with pytest.raises(CheckpointError, match="8 bytes after the last section"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", [b"config", b"state", b"g.embedding"])
    def test_repeated_section(self, sample, tmp_path, name):
        # the second copy differs: it used to win silently
        path = self._saved(sample, tmp_path)
        sections = sections_of(path.read_bytes())
        body = dict(sections)[name]
        sections.append((name, body[:-1] + bytes([body[-1] ^ 1])))
        path.write_bytes(sealed(packed(sections)))
        with pytest.raises(CheckpointError, match=f"section {name.decode()!r} appears twice"):
            load_checkpoint(path)

    def test_tensor_of_too_many_dimensions(self, sample, tmp_path):
        sample.tensors = {}
        path = self._saved(sample, tmp_path)
        rank = 70   # beyond numpy's limit; its one value keeps the body consistent
        body = struct.pack(f"<{rank + 1}I", rank, *[1] * rank) + struct.pack("<d", 0.5)
        path.write_bytes(sealed(packed(sections_of(path.read_bytes()) + [(b"g.x", body)])))
        with pytest.raises(CheckpointError, match="'g.x'.*70 dimensions"):
            load_checkpoint(path)


class TestFuzz:
    """Seeded mutations of a small professor-forcing checkpoint.

    Byte flips and truncations, and mutations resealed under a valid CRC
    so that they reach the parser: of the section count, a name or body
    length, a tensor's rank or dims (header alone, or with a consistent
    body), a section name and the state values, and a stray ``rng_state``
    line in the state, as a checkpoint written before per-step draws holds.
    The config text is left alone: its sizes could ask for large
    allocations.  Whatever ``load_checkpoint``, ``Trainer.resume`` and
    ``generator_from_checkpoint`` refuse, they refuse with
    ``CheckpointError``; ``sample`` and ``inspect-checkpoint`` exit 2 on a
    file that does not load.  A stray key alone refuses nothing: such a
    checkpoint loads, resumes with a warning naming the key and samples.
    """

    CASES = 360
    KINDS = ("flip", "truncate", "count", "name_len", "body_len", "rank", "dims",
             "name", "state", "stray")

    @staticmethod
    def _mutant(kind, blob, rng):
        def pick(options):
            return options[int(rng.integers(len(options)))]

        u32 = int(rng.integers(2**32))   # one arbitrary u32 per case
        if kind == "flip":
            out = bytearray(blob)
            out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
            return bytes(out)
        if kind == "truncate":
            return blob[:int(rng.integers(len(blob)))]
        sections = sections_of(blob)
        fields = [[struct.pack("<I", len(n)), n, struct.pack("<Q", len(b)), b]
                  for n, b in sections]
        count = len(sections)
        tensors = [f for f in fields if f[1] not in (b"config", b"state")]
        if kind == "count":
            count = pick([0, 1, count - 1, count + 1, 2**32 - 1, u32])
        elif kind == "name_len":
            f = pick(fields)
            f[0] = struct.pack("<I", pick([0, len(f[1]) - 1, len(f[1]) + 1, 2**32 - 1, u32]))
        elif kind == "body_len":
            f = pick(fields)
            f[2] = struct.pack("<Q", pick([0, len(f[3]) - 1, len(f[3]) + 1, 2**64 - 1, u32]))
        elif kind in ("rank", "dims"):
            f = pick(tensors)
            (rank,) = struct.unpack_from("<I", f[3])
            dims = struct.unpack_from(f"<{rank}I", f[3], 4)
            values = f[3][4 + 4 * rank:]
            if rng.random() < 0.5:   # one header field alone: the body no longer matches
                at = int(rng.integers(1, rank + 1)) if kind == "dims" else 0
                old = (rank, *dims)[at]
                new = pick([0, 1, old - 1, old + 1, 65, 2**32 - 1, u32])
                f[3] = f[3][:4 * at] + struct.pack("<I", new) + f[3][4 * at + 4:]
            else:   # a consistent body: the same values in another shape
                size = len(values) // 8
                shape = ([size] + [1] * pick([0, 2, 32, 63, 64, 79]) if kind == "rank"
                         else [dims[-1], size // dims[-1]])
                f[3] = struct.pack(f"<{len(shape) + 1}I", len(shape), *shape) + values
                f[2] = struct.pack("<Q", len(f[3]))
        elif kind == "name":
            f = pick(fields)
            f[1] = pick([pick(fields)[1], b"", b"\xff", f[1] + b"x", b"g.stray",
                         bytes(rng.integers(0, 256, int(rng.integers(1, 9)), dtype=np.uint8))])
            f[0] = struct.pack("<I", len(f[1]))
        else:   # state values: one line's value replaced, a line dropped or garbled
            f = next(f for f in fields if f[1] == b"state")
            lines = f[3].decode().splitlines()
            i = int(rng.integers(len(lines)))
            key = lines[i].partition("=")[0]
            digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(1, 45)))))
            if kind == "stray":   # or a line of a key no reader knows put before it
                lines.insert(i, f"rng_state={digits}")
            else:
                lines[i] = pick([f"{key}={v}" for v in (digits, "-" + digits, "", "nan", "inf",
                                                        "-inf", "1e309", "0x10", "1.5",
                                                        "\u0663", " 7", "2" * 40)]
                                + ["", "no-equals-sign", f"{key}", f"={digits}"])
            f[3] = "\n".join(lines).encode() + b"\n"
            f[2] = struct.pack("<Q", len(f[3]))
        return sealed(struct.pack("<I", count) + b"".join(b"".join(f) for f in fields))

    def test_only_checkpoint_errors_escape(self, tmp_path, capsys, caplog):
        base = tmp_path / "base"
        Trainer(TrainConfig(**dict(TINY_PF, max_steps=2)), base).run()
        blob = (base / "final.ckpt").read_bytes()
        rng = np.random.default_rng(2024)
        path, escapes, refused = tmp_path / "m.ckpt", [], 0
        caplog.set_level(logging.WARNING, logger="profforce")
        for case in range(self.CASES):
            kind = self.KINDS[case % len(self.KINDS)]
            path.write_bytes(self._mutant(kind, blob, rng))
            results = []
            for call in (lambda: load_checkpoint(path),
                         lambda: generator_from_checkpoint(load_checkpoint(path)),
                         lambda: Trainer.resume(path, tmp_path / "resumed")):
                try:
                    call()
                    results.append(True)
                except CheckpointError:
                    results.append(False)
                except Exception as e:   # noqa: BLE001 - what the test looks for
                    escapes.append((case, kind, f"{type(e).__name__}: {e}"[:120]))
                    results.append(None)
            loads, rebuilds = results[:2]
            codes = (cli_main(["inspect-checkpoint", str(path)]),
                     cli_main(["sample", str(path), "--length", "2"]))
            assert codes == (0 if loads else 2, 0 if rebuilds else 2), (case, kind)
            refused += not loads
            if kind == "stray":
                assert results == [True] * 3 and codes == (0, 0), case
                assert "rng_state ignored" in caplog.text, case
            capsys.readouterr()
            caplog.clear()
        assert escapes == []
        assert refused > self.CASES // 2   # most mutations must reach a refusal
