"""Binary checkpoints.

Layout::

    8 bytes   magic, "PFCK" + 4-digit format version ("PFCK0004")
    4 bytes   section count, little-endian u32
    sections  u32 name length, name (utf-8),
              u64 body length, body
    4 bytes   CRC32 (little-endian u32) of everything between the magic
              and the checksum itself

Two section body encodings are used: utf-8 key=value text (the config
snapshot and the scalar training state) and tensors (u32 rank, u32 dims,
then raw little-endian float64 values in row-major order).

Writes go through a temp file, fsynced, an atomic rename and an fsync of
the directory, so a crash leaves the old file or the new one, whole.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Checkpoint", "CheckpointError", "MAGIC", "save_checkpoint", "load_checkpoint"]

MAGIC = b"PFCK0004"
_MAGIC_PREFIX = b"PFCK"
_TEXT_SECTIONS = ("config", "state")


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    config_text: str
    state: dict[str, str] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def _unpack_tensor(name: str, body: memoryview) -> np.ndarray:
    if len(body) < 4:
        raise CheckpointError(f"section {name!r}: truncated tensor header")
    (ndim,) = struct.unpack_from("<I", body, 0)
    need = 4 + 4 * ndim
    if len(body) < need:
        raise CheckpointError(f"section {name!r}: truncated tensor dims")
    dims = struct.unpack_from(f"<{ndim}I", body, 4)
    count = math.prod(dims)
    if len(body) != need + 8 * count:
        raise CheckpointError(f"section {name!r}: tensor payload size mismatch")
    flat = np.frombuffer(body, dtype="<f8", count=count, offset=need)
    try:
        return flat.reshape(dims).astype(np.float64)   # the one copy: writeable, owns its data
    except ValueError as e:   # more dimensions than numpy allows
        raise CheckpointError(f"section {name!r}: {ndim} dimensions: {e}") from e


def _encode_state(state: dict[str, str]) -> bytes:
    return "".join(f"{k}={v}\n" for k, v in sorted(state.items())).encode("utf-8")


def _utf8(body: memoryview, where: str) -> str:
    try:
        return str(body, "utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"{where} is not utf-8 text") from e


def _decode_state(text: str) -> dict[str, str]:
    out = {}
    for n, line in enumerate(text.splitlines(), 1):
        if line:
            key, eq, value = line.partition("=")
            if not eq:
                raise CheckpointError(f"section 'state', line {n}: expected key=value, "
                                      f"got {line!r}")
            out[key] = value
    return out


def _payload(ckpt: Checkpoint):
    """What lies between the magic and the CRC, piece by piece as each
    section is packed; a tensor body is its array's own bytes."""
    sections = [("config", ckpt.config_text.encode("utf-8")),
                ("state", _encode_state(ckpt.state)), *sorted(ckpt.tensors.items())]
    yield struct.pack("<I", len(sections))
    for name, body in sections:
        if isinstance(body, np.ndarray):   # u32 rank, u32 dims, then <f8 values
            arr = np.require(body, "<f8", "C")   # keeps rank 0
            body = (struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape),
                    arr.reshape(-1).view(np.uint8))
        else:
            body = (body,)
        raw = name.encode("utf-8")
        yield from (struct.pack("<I", len(raw)), raw, struct.pack("<Q", sum(map(len, body))),
                    *body)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    crc = 0
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        for piece in _payload(ckpt):   # written as packed, under a running CRC
            f.write(piece)
            crc = zlib.crc32(piece, crc)
        f.write(struct.pack("<I", crc))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)   # the rename is durable once its directory is
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 8 or not blob.startswith(_MAGIC_PREFIX):
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = blob[len(_MAGIC_PREFIX):len(MAGIC)]
    if version != MAGIC[len(_MAGIC_PREFIX):]:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format version "
            f"{version.decode('ascii', 'replace')!r}; this build reads "
            f"{MAGIC[len(_MAGIC_PREFIX):].decode('ascii')!r}")
    payload = memoryview(blob)[len(MAGIC):-4]   # slices below copy nothing
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")

    try:
        offset = 0
        (n_sections,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        sections: dict[str, memoryview] = {}
        for _ in range(n_sections):
            (name_len,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            name = _utf8(payload[offset:offset + name_len],
                         f"{path}: the name of section {len(sections)}")
            offset += name_len
            (body_len,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            body = payload[offset:offset + body_len]
            if len(body) != body_len:
                raise CheckpointError(f"{path}: truncated section {name!r}")
            offset += body_len
            if name in sections:
                raise CheckpointError(f"{path}: section {name!r} appears twice")
            sections[name] = body
    except struct.error as e:
        raise CheckpointError(f"{path}: truncated checkpoint") from e
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} bytes after the last section")

    if "config" not in sections or "state" not in sections:
        raise CheckpointError(f"{path}: missing config or state section")
    tensors = {name: _unpack_tensor(name, body) for name, body in sections.items()
               if name not in _TEXT_SECTIONS}
    return Checkpoint(config_text=_utf8(sections["config"], f"{path}: section 'config'"),
                      state=_decode_state(_utf8(sections["state"], f"{path}: section 'state'")),
                      tensors=tensors)
