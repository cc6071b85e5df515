"""Bit-stable output formats: time-series CSV, binary snapshots, JSON summary.

CSV floats use Python's shortest round-trip representation, so identical runs
produce byte-identical files on any platform. The snapshot layout is

    magic "NSAC1" (5 bytes)
    uint32 dim                     (little-endian)
    uint32 n per axis (dim values)
    float64 box length per axis
    float64 time
    fields sigma, u_1..u_dim, phi  (row-major float64, little-endian)
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import State
from .spectral import Grid

SNAPSHOT_MAGIC = b"NSAC1"


def format_float(x: float) -> str:
    return repr(float(x))


def csv_row(values) -> str:
    return ",".join(format_float(v) for v in values)


class CsvWriter:
    """Streaming writer of a time series: a header naming ``columns``, then one row per `write`."""

    def __init__(self, path: str, columns):
        self.path = path
        self.columns = tuple(columns)
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(self.columns) + "\n")

    def write(self, values) -> None:
        values = list(values)
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} columns, got {len(values)}")
        self._fh.write(csv_row(values) + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_csv(path: str, numeric=()) -> dict[str, np.ndarray]:
    """Load a CSV as column arrays keyed by header name.

    A column whose cells are all numbers is a float array; any other column
    is kept as an array of its text. A row whose cell count differs from the
    header's, or a cell that is not a number in a column named in
    ``numeric``, raises ``ValueError`` naming the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        rows, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            cells = text.split(",")
            if len(cells) != len(names):
                raise ValueError(f"{path} line {lineno}: expected {len(names)} cells, got {len(cells)}")
            rows.append(cells)
            linenos.append(lineno)
    data = {}
    for i, name in enumerate(names):
        cells = [row[i] for row in rows]
        values = []
        for cell in cells:
            try:
                values.append(float(cell))
            except ValueError:
                break
        if len(values) == len(cells):
            data[name] = np.array(values)
        elif name in numeric:
            bad = len(values)
            raise ValueError(f"{path} line {linenos[bad]}: column {name!r} holds {cells[bad]!r}, not a number")
        else:
            data[name] = np.array(cells)
    return data


def write_snapshot(path: str, state: State) -> None:
    grid = state.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *([grid.n] * grid.dim)))
        fh.write(struct.pack(f"<{grid.dim}d", *([grid.length] * grid.dim)))
        fh.write(struct.pack("<d", state.t))
        fields = [state.sigma()] + [state.u()[i] for i in range(grid.dim)] + [state.phi()]
        for arr in fields:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_snapshot(path: str) -> State:
    """Load a snapshot; a file whose size does not match its header is rejected."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != SNAPSHOT_MAGIC:
        raise ValueError(f"not a snapshot file (magic {raw[:5]!r})")
    size = len(raw)
    dim = struct.unpack_from("<I", raw, 5)[0] if size >= 9 else 1
    header = 17 + 12 * dim
    if size < header:
        raise ValueError(f"snapshot {path}: header cut short, expected at least {header} bytes, got {size}")
    ns = struct.unpack_from(f"<{dim}I", raw, 9)
    lengths = struct.unpack_from(f"<{dim}d", raw, 9 + 4 * dim)
    (t,) = struct.unpack_from("<d", raw, 9 + 12 * dim)
    if len(set(ns)) != 1 or len(set(lengths)) != 1:
        raise ValueError("snapshot grid must be cubic")
    expected = header + 8 * (dim + 2) * ns[0] ** dim
    if size != expected:
        raise ValueError(
            f"snapshot {path}: expected {expected} bytes for dim {dim}, n {ns[0]}, got {size}"
        )
    grid = Grid(dim=dim, n=ns[0], length=lengths[0])
    fields = np.frombuffer(raw, dtype="<f8", offset=header).reshape((dim + 2,) + grid.shape)
    return State.from_physical(grid, t, fields[0], fields[1:-1], fields[-1])


def write_summary(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
