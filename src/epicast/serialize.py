"""Flat binary tensor store: little-endian float64 blob + JSON sidecar.

The sidecar lists tensor names, shapes, and byte offsets into the blob, plus
an optional free-form ``meta`` dict.  Both model checkpoints and externally
exported backbone weights use this layout, and both are loaded into built
parameters by ``assign_tensors``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import read_file
from .tensor import Parameter


class CheckpointError(RuntimeError):
    """Missing, truncated, inconsistent or non-finite weight files."""


def sidecar_path(bin_path) -> Path:
    p = Path(bin_path)
    return p.with_suffix(p.suffix + ".json")


def save_tensors(named: dict[str, np.ndarray], bin_path, meta: dict | None = None) -> Path:
    """Write tensors to `bin_path` and an index to `bin_path + '.json'`, with
    numpy scalars in `meta` stored as the Python values they hold.  Raises
    CheckpointError, naming the path, when either file cannot be written, and
    before any file is opened when a tensor or the index cannot be encoded."""
    bin_path = Path(bin_path)
    arrays, index, offset = [], [], 0
    try:  # a tensor that is not numeric, or a meta value JSON cannot hold
        for name, arr in named.items():
            shape = list(np.shape(arr))  # before ascontiguousarray, which promotes 0-d to 1-d
            arrays.append(np.ascontiguousarray(arr, dtype="<f8"))
            index.append({"name": name, "shape": shape, "offset": offset})
            offset += arrays[-1].nbytes
        doc = {"format": "flat-f8-le", "total_bytes": offset, "tensors": index, "meta": meta or {}}
        text = json.dumps(doc, indent=1, sort_keys=True, default=np.generic.item)  # a TypeError for a non-numpy value
    except (RecursionError, TypeError, ValueError) as exc:
        raise CheckpointError(f"cannot write weight file {bin_path}: {exc}") from exc
    try:  # a parent that is a file, no permission, or a NUL byte in the path
        bin_path.parent.mkdir(parents=True, exist_ok=True)
        with open(bin_path, "wb") as fh:
            for arr in arrays:
                fh.write(arr.tobytes())
        with open(sidecar_path(bin_path), "w") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot write weight file {bin_path}: {exc}") from exc
    return bin_path


def load_tensors(bin_path) -> tuple[dict[str, np.ndarray], dict]:
    """Read tensors and sidecar meta back; raises CheckpointError on an
    unreadable file, a mismatch or a tensor holding NaN or inf, naming the file
    and the tensor."""
    blob = read_file(bin_path, CheckpointError, "weight file", binary=True)
    side = sidecar_path(bin_path)
    try:  # bad or too deeply nested JSON, a non-object document, a missing key, or a bad shape or offset
        doc = json.loads("".join(read_file(side, CheckpointError, "sidecar")))
        if doc.get("format") != "flat-f8-le":
            raise CheckpointError(f"{side}: unsupported weight format {doc.get('format')!r}")
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise CheckpointError(f"{side}: meta is {type(meta).__name__}, not an object")
        if len(blob) != doc["total_bytes"]:
            raise CheckpointError(
                f"weight file is {len(blob)} bytes, sidecar expects {doc['total_bytes']}"
            )
        out: dict[str, np.ndarray] = {}
        for entry in doc["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=entry["offset"])
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{bin_path}: tensor {entry['name']!r} holds non-finite values")
            out[entry["name"]] = arr.reshape(shape).astype(np.float64)  # a fresh, writable copy
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{side}: broken sidecar: {exc!r}") from exc
    return out, meta


def assign_tensors(params: list[Parameter], tensors: dict[str, np.ndarray], what: str, error: type[Exception]) -> None:
    """Replace each parameter's data with the tensor of its name in `tensors`;
    raises `error`, naming `what` and the tensor, when one is missing or has
    another shape."""
    for p in params:
        if p.name not in tensors:
            raise error(f"{what} missing tensor {p.name!r}")
        arr = tensors[p.name]
        if arr.shape != p.data.shape:
            raise error(f"{what} tensor {p.name!r} has shape {arr.shape}, expected {p.data.shape}")
        p.data = arr
