"""Single-file parameter checkpoints.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header
describing every layer's parameters (names, shapes, dtype) plus optional
caller metadata, then the raw little-endian float64 blobs concatenated in
declaration order.  The reader checks the header length, format, version,
dtypes and the exact blob length before it trusts a file, and the loader
refuses a NaN or infinite parameter value.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

MAGIC_DTYPE = "<f8"
FORMAT = "aggnet-checkpoint"
VERSION = 1
MAX_HEADER_BYTES = 1 << 24


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Write a temporary file beside ``path`` and ``os.replace`` it into
    place; on an error it is deleted and ``path`` keeps its old bytes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_checkpoint(model, path, extra: dict | None = None):
    """Write all model parameters to ``path``, replacing it atomically."""
    layers_meta = [
        {"index": li, "type": type(layer).__name__, "params": [
            {"name": p.name, "shape": list(p.data.shape), "dtype": MAGIC_DTYPE}
            for p in layer.params()
        ]}
        for li, layer in enumerate(model.layers)
    ]
    header = {"format": FORMAT, "version": VERSION, "layers": layers_meta}
    if extra:
        header["extra"] = extra
    raw = json.dumps(header).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(struct.pack("<Q", len(raw)))
        f.write(raw)
        for p in model.parameters():
            f.write(np.ascontiguousarray(p.data, dtype=MAGIC_DTYPE))


def _rejected(path, reason) -> ValueError:
    return ValueError(f"checkpoint {path}: {reason}")


def _read_header(f, path):
    """Parse and check the header of the open checkpoint ``f`` and the
    blob length against the file size, leaving ``f`` at the first blob;
    returns (header, blob byte count)."""
    head = f.read(8)
    if len(head) < 8:
        raise _rejected(path, "truncated before the header length")
    (hlen,) = struct.unpack("<Q", head)
    if hlen > MAX_HEADER_BYTES:
        raise _rejected(path, f"header length {hlen} exceeds {MAX_HEADER_BYTES}")
    try:
        header = json.loads(f.read(hlen).decode("utf-8"))
        if header.get("format") != FORMAT or header.get("version") != VERSION:
            raise _rejected(path, f"format {header.get('format')!r} version "
                                  f"{header.get('version')!r}, not {FORMAT!r} {VERSION}")
        if not isinstance(header.get("extra", {}), dict):
            raise TypeError("extra must be an object")
        params = [pm for layer in header["layers"] for pm in layer["params"]]
        if any(type(d) is not int or d < 0 for pm in params for d in pm["shape"]):
            raise TypeError("shapes must hold non-negative integers")
        dtypes = {pm["dtype"] for pm in params}
    except (AttributeError, KeyError, TypeError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise _rejected(path, f"malformed header ({exc!r})") from None
    if dtypes - {MAGIC_DTYPE}:
        raise _rejected(path, f"dtypes {sorted(dtypes)}, only {MAGIC_DTYPE!r} is read")
    size = 8 * sum(math.prod(pm["shape"]) for pm in params)
    present = os.fstat(f.fileno()).st_size - f.tell()
    if present < size:
        raise _rejected(path, f"truncated: {present} of {size} blob bytes")
    if present > size:
        raise _rejected(path, "trailing data after the blobs")
    return header, size


def read_header(path) -> dict:
    """Return the JSON header of a checked checkpoint file; the blobs are
    measured, not read."""
    with open(path, "rb") as f:
        return _read_header(f, path)[0]


def load_checkpoint(model, path):
    """Load parameters from ``path`` into an already-built model.

    Layer structure, parameter names and shapes must match exactly and
    every value must be finite; otherwise nothing is loaded.  Returns the
    header.
    """
    with open(path, "rb") as f:
        header, size = _read_header(f, path)
        blob = f.read(size)
    names = [[pm.get("name") for pm in meta["params"]] for meta in header["layers"]]
    expected = [[p.name for p in layer.params()] for layer in model.layers]
    if names != expected:
        raise _rejected(path, f"parameters per layer {names}, model has {expected}")
    state, offset = [], 0
    for li, (layer, meta) in enumerate(zip(model.layers, header["layers"])):
        for pm in meta["params"]:
            count = math.prod(pm["shape"])
            arr = np.frombuffer(blob, MAGIC_DTYPE, count, offset).reshape(pm["shape"])
            if not np.all(np.isfinite(arr)):
                raise _rejected(path, f"non-finite value in layer {li} "
                                      f"({type(layer).__name__}) parameter {pm['name']}")
            state.append(arr)
            offset += 8 * count
    try:
        model.load_state(state)
    except ValueError as exc:
        raise _rejected(path, exc) from None
    return header
