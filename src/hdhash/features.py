"""Feature dataset loading and normalization.

load_features reads two on-disk formats and tells them apart by the file's
first bytes:

* Packed binary: magic b"HDH1", u32-LE row count, u32-LE dim, u8 has_labels,
  then rows*dim little-endian float32 values row-major, then (if has_labels)
  rows little-endian int32 labels.
* CSV (any file that does not start with the magic): UTF-8 text, one
  sample per line (\n, \r\n or \r ends a line), cells separated by commas.
  A cell is an ASCII decimal float as float() reads it, without underscores:
  "-2.5e-3", "1e400" (inf), "inf", "nan"; non-finite values are then
  refused. With label_col="last" the final cell is an integer label that
  fits int64 ("+3" reads as 3, "3.0" is refused). Whitespace around a cell
  is allowed and blank or whitespace-only lines are skipped. There are no
  quotes and no "#" comments.

A valid CSV file is parsed in one streamed np.loadtxt pass. Where loadtxt
refuses a file, the line parser reads it again, cell by cell, to name the
row and column of the error; the two accept the same files.

All values are converted to float64 in memory. Normalization maps every
dimension into [-1, 1] (the encoder stack reconstructs through tanh, so
inputs outside that range can never be reconstructed) and records the
per-dimension shift/scale so queries are transformed identically.
"""
from __future__ import annotations

import io
import itertools
import os
import secrets
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, ParseError, ShapeError

PACKED_MAGIC = b"HDH1"


@dataclass(frozen=True)
class NormStats:
    """Per-dimension affine transform: normalized = (raw - shift) * scale.

    Constant dimensions get scale 0 and therefore map to 0.
    """

    mode: str
    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.mode not in ("minmax_symmetric", "identity"):
            raise ConfigError(f"unknown normalization mode {self.mode!r}")
        for name in ("shift", "scale"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.shift.shape != self.scale.shape or self.shift.ndim != 1:
            raise ShapeError("shift and scale must be 1-D vectors of equal length")

    def apply(self, raw: np.ndarray) -> np.ndarray:
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape[-1] != self.shift.shape[0]:
            raise ShapeError(f"feature dimension mismatch: expected {self.shift.shape[0]} "
                             f"features per row, got {raw.shape[-1]}")
        return (raw - self.shift) * self.scale

    @classmethod
    def identity(cls, dim: int) -> "NormStats":
        return cls("identity", np.zeros(dim), np.ones(dim))


@dataclass(frozen=True)
class FeatureMatrix:
    """An immutable N x d matrix of finite feature values.

    labels, when present, is an int array of length N. norm_stats records
    the transform already applied to values (None for raw data).
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    norm_stats: NormStats | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ShapeError(f"feature matrix must be 2-D and non-empty, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise FormatError("feature matrix contains non-finite values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.labels is not None:
            labs = np.asarray(self.labels, dtype=np.int64)
            if labs.shape != (vals.shape[0],):
                raise ShapeError(
                    f"labels must have length {vals.shape[0]}, got {labs.shape}"
                )
            labs.flags.writeable = False
            object.__setattr__(self, "labels", labs)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def load_features(path, label_col: str | None = None) -> FeatureMatrix:
    """Load a feature file: packed binary if it starts with PACKED_MAGIC,
    CSV otherwise.

    label_col="last" treats the final CSV column as an integer class label;
    the packed format carries its own has_labels flag.
    """
    if label_col not in (None, "last"):
        raise ConfigError(f"label_col must be None or 'last', got {label_col!r}")
    with open(path, "rb") as fh:
        packed = fh.read(len(PACKED_MAGIC)) == PACKED_MAGIC
        fh.seek(0)
        if packed:
            return _load_packed(fh.read(), path)
        with io.TextIOWrapper(fh, encoding="utf-8") as text:
            return _load_csv(text, path, label_col)


def ascii_float(text: str) -> float:
    """float(text) for an ASCII numeral.

    float() and int() also read underscores (1_000) and non-ASCII digits
    (Arabic-Indic, fullwidth); the CSV, config and flag grammars do not, so
    ascii_float and ascii_int raise ValueError for them. Whitespace around
    the numeral is allowed.
    """
    return float(_ascii_numeral(text))


def ascii_int(text: str) -> int:
    """int(text) for an ASCII numeral; see ascii_float."""
    return int(_ascii_numeral(text))


def check_count(name: str, value):
    """value if it is a non-bool int or numpy integer, else a ConfigError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name}: {value!r} is not an integer")
    return value


def _ascii_numeral(text: str) -> str:
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"not an ASCII numeral: {text!r}")
    return text


def _load_csv(fh, path, label_col):
    try:
        loaded = _read_csv_fast(fh, label_col)
    except ValueError:  # UnicodeDecodeError included
        loaded = None
    if loaded is None:
        fh.seek(0)
        loaded = _parse_csv_lines(fh, path, label_col)
    return FeatureMatrix(*loaded)


def _read_csv_fast(fh, label_col):
    """(values, labels) of a CSV file in one streamed np.loadtxt pass.

    Returns None when the file has no data line or its first is too narrow
    for a label column, and raises ValueError on anything else loadtxt
    refuses; the line parser then says what and where.
    """
    # loadtxt refuses a whitespace-only line, which the grammar skips.
    lines = (line for line in fh if not line.isspace())
    first = next(lines, "")
    width = first.count(",") + 1
    if not first or (label_col == "last" and width < 2):
        return None
    # An iterator, not the path: numpy opens a path through its DataSource,
    # which decompresses .gz/.bz2/.xz files and fetches URLs.
    rows = itertools.chain([first], lines)
    read = dict(delimiter=",", comments=None, encoding="utf-8")
    if label_col is None:
        return np.loadtxt(rows, ndmin=2, **read), None
    rec = np.loadtxt(rows, dtype=[("v", np.float64, (width - 1,)), ("l", np.int64)],
                     ndmin=1, **read)
    return np.ascontiguousarray(rec["v"]), rec["l"].copy()


def _utf8_lines(fh, path):
    try:
        yield from fh
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None


def _parse_csv_lines(fh, path, label_col):
    """(values, labels) of a CSV file, read line by line and cell by cell,
    so that every error names its row and column."""
    rows = []
    labels = [] if label_col == "last" else None
    width = None
    for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if label_col == "last" and width < 2:
                raise FormatError(
                    f"{path}: need at least 2 columns with a label column"
                )
        elif len(cells) != width:
            raise FormatError(
                f"{path}: row {lineno} has {len(cells)} columns, expected {width}"
            )
        if labels is not None:
            feat_cells, label_cell = cells[:-1], cells[-1]
        else:
            feat_cells, label_cell = cells, None
        row = []
        for colno, cell in enumerate(feat_cells, start=1):
            try:
                row.append(ascii_float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: cannot parse {cell.strip()!r} at row {lineno}, "
                    f"column {colno}",
                    row=lineno,
                    col=colno,
                ) from None
        if label_cell is not None:
            try:
                labels.append(np.int64(ascii_int(label_cell)))
            except (ValueError, OverflowError):
                raise ParseError(
                    f"{path}: cannot parse label {label_cell.strip()!r} at row "
                    f"{lineno}, column {width}",
                    row=lineno,
                    col=width,
                ) from None
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    values = np.array(rows, dtype=np.float64)
    labs = np.array(labels, dtype=np.int64) if labels is not None else None
    return values, labs


def _load_packed(blob, path):
    if len(blob) < 13:
        raise FormatError(f"{path}: too short for a packed feature file")
    n, d = struct.unpack_from("<II", blob, 4)
    has_labels = blob[12]
    if has_labels not in (0, 1):
        raise FormatError(f"{path}: has_labels byte must be 0 or 1, got {has_labels}")
    if n < 1 or d < 1:
        raise FormatError(f"{path}: empty matrix ({n} x {d})")
    need = 13 + 4 * n * d + (4 * n if has_labels else 0)
    if len(blob) != need:
        raise FormatError(f"{path}: expected {need} bytes, got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", count=n * d, offset=13)
    values = values.reshape(n, d).astype(np.float64)
    labels = None
    if has_labels:
        labels = np.frombuffer(blob, dtype="<i4", count=n, offset=13 + 4 * n * d)
        labels = labels.astype(np.int64)
    return FeatureMatrix(values, labels)


def atomic_write(path, data: bytes) -> None:
    """Replace path's content with data in one step.

    The bytes go to a fresh file in path's directory, which then replaces
    path through os.replace, so a reader sees the old file or the new one,
    never a partial write. On any error the temporary file is removed and
    path is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    # os.open with mode 0o666 honours the umask, as open(path, "wb") does.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_packed(m: FeatureMatrix, path) -> None:
    """Write the packed-binary representation of a FeatureMatrix."""
    parts = [PACKED_MAGIC,
             struct.pack("<IIB", m.rows, m.dim, 1 if m.labels is not None else 0),
             m.values.astype("<f4").tobytes()]
    if m.labels is not None:
        parts.append(m.labels.astype("<i4").tobytes())
    atomic_write(path, b"".join(parts))


def normalize(m: FeatureMatrix) -> FeatureMatrix:
    """Map every dimension into [-1, 1] and record the transform.

    Already-normalized matrices (norm_stats set) are returned unchanged,
    which makes normalization idempotent.
    """
    if m.norm_stats is not None:
        return m
    vals = m.values
    lo = vals.min(axis=0)
    hi = vals.max(axis=0)
    # Halving first keeps both finite for any finite lo and hi.
    shift = lo / 2.0 + hi / 2.0
    half = hi / 2.0 - lo / 2.0
    with np.errstate(over="ignore"):
        scale = np.where(half > 0, 1.0 / np.where(half > 0, half, 1.0), 0.0)
    narrow = np.flatnonzero(np.isinf(scale))
    if narrow.size:
        raise DataError(f"feature column {narrow[0] + 1} spans a range too "
                        f"narrow to scale to [-1, 1] (half-range {half[narrow[0]]:.3g})")
    stats = NormStats("minmax_symmetric", shift, scale)
    # (raw - shift) * scale can round a column's extreme a few ulp past 1,
    # and train accepts only values in [-1, 1].
    return FeatureMatrix(np.clip(stats.apply(vals), -1.0, 1.0), m.labels, stats)
