"""Raw tensor container and model checkpoints.

Tensor file ("AXT1"): magic, uint32 rank, rank x uint32 dims, then the
float32 body in row-major order, all little-endian.

A checkpoint is a directory holding one AXT1 file per parameter tensor plus
manifest.json naming each tensor, its file, and whether it is frozen for
training. The manifest also carries whatever metadata the caller passes
(architecture name, variant, seed) so a model can be rebuilt around the
weights.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

TENSOR_MAGIC = b"AXT1"
MAX_RANK = 8

MANIFEST_NAME = "manifest.json"
CHECKPOINT_FORMAT = "axmoe-checkpoint-v1"


def save_tensor(arr: np.ndarray, path) -> None:
    arr = np.asarray(arr)
    if arr.ndim == 0 or arr.ndim > MAX_RANK:
        raise FormatError(f"tensor rank {arr.ndim} outside [1, {MAX_RANK}]")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {TENSOR_MAGIC!r}")
    (rank,) = struct.unpack("<I", blob[4:8])
    if not 1 <= rank <= MAX_RANK:
        raise FormatError(f"{path}: rank {rank} outside [1, {MAX_RANK}]")
    header_end = 8 + 4 * rank
    if len(blob) < header_end:
        raise FormatError(f"{path}: truncated dim header")
    dims = struct.unpack(f"<{rank}I", blob[8:header_end])
    expected = int(np.prod(dims)) * 4
    body = blob[header_end:]
    if len(body) != expected:
        raise FormatError(f"{path}: body is {len(body)} bytes, dims imply {expected}")
    return np.frombuffer(body, dtype="<f4").reshape(dims).astype(np.float32)


def save_checkpoint(directory, params: dict[str, np.ndarray], frozen: set[str], meta: dict) -> None:
    """Write every parameter tensor plus a manifest into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, (name, arr) in enumerate(sorted(params.items())):
        fname = f"{idx:04d}.axt"
        save_tensor(arr, directory / fname)
        entries.append({"name": name, "file": fname, "frozen": name in frozen})
    manifest = {"format": CHECKPOINT_FORMAT, "meta": dict(meta), "tensors": entries}
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(directory) -> tuple[dict[str, np.ndarray], set[str], dict]:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FormatError(f"{directory}: no {MANIFEST_NAME}")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: expected a JSON object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"{directory}: unknown checkpoint format {manifest.get('format')!r}")
    meta, entries = manifest.get("meta"), manifest.get("tensors")
    if not isinstance(meta, dict):
        raise FormatError(f"{manifest_path}: meta must be an object")
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("file"), str) for e in entries):
        raise FormatError(f"{manifest_path}: tensors must be a list of objects "
                          "with a name and a file")
    params, frozen = {}, set()
    for entry in entries:
        params[entry["name"]] = load_tensor(directory / entry["file"])
        if entry.get("frozen"):
            frozen.add(entry["name"])
    return params, frozen, meta
