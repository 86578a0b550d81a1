import errno
import gzip
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hdhash.errors import DataError, FormatError, HdhError, ParseError, ShapeError
from hdhash.features import (
    FeatureMatrix,
    NormStats,
    _parse_csv_lines,
    _read_csv_fast,
    atomic_write,
    load_features,
    normalize,
    save_packed,
)
from hdhash.pipeline import TrainingConfig, init_model, save_model
from hdhash.rbm import Rbm
from hdhash.sae import SaeLayer
from hdhash.search import HammingIndex, PrPoint, write_codes_file, write_pr_csv


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "f.csv", "1,2,3,4\n5,6,7,8\n-1,0.5,2e-1,4\n")
        m = load_features(p)
        assert m.rows == 3 and m.dim == 4
        assert m.labels is None
        np.testing.assert_allclose(m.values[2], [-1, 0.5, 0.2, 4])

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "f.csv", "")
        with pytest.raises(FormatError):
            load_features(p)

    def test_parse_error_position(self, tmp_path):
        p = write(tmp_path / "f.csv", "1,2,3\n4,abc,6\n")
        with pytest.raises(ParseError) as err:
            load_features(p)
        assert err.value.row == 2
        assert err.value.col == 2
        assert "abc" in str(err.value)

    def test_ragged_rows(self, tmp_path):
        p = write(tmp_path / "f.csv", "1,2,3\n4,5\n")
        with pytest.raises(FormatError):
            load_features(p)

    def test_label_column(self, tmp_path):
        p = write(tmp_path / "f.csv", "1,2,0\n3,4,1\n")
        m = load_features(p, label_col="last")
        assert m.dim == 2
        assert np.array_equal(m.labels, [0, 1])

    def test_bad_label(self, tmp_path):
        p = write(tmp_path / "f.csv", "1,2,zero\n")
        with pytest.raises(ParseError) as err:
            load_features(p, label_col="last")
        assert err.value.col == 3

    def test_label_beyond_int64(self, tmp_path):
        p = write(tmp_path / "f.csv", "1,2,9223372036854775807\n3,4,99999999999999999999\n")
        with pytest.raises(ParseError) as err:
            load_features(p, label_col="last")
        assert (err.value.row, err.value.col) == (2, 3)
        p = write(tmp_path / "g.csv", "1,2,9223372036854775807\n")
        assert load_features(p, label_col="last").labels[0] == 2**63 - 1

    def test_non_finite_rejected(self, tmp_path):
        p = write(tmp_path / "f.csv", "1,nan\n")
        with pytest.raises(FormatError):
            load_features(p)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "\uff13", " 1_0 "])
    def test_non_ascii_numeral_rejected(self, tmp_path, cell):
        # float() reads each of these; the grammar does not.
        p = write(tmp_path / "f.csv", f"1,2,0\n3,{cell},1\n")
        with pytest.raises(ParseError) as err:
            load_features(p, label_col="last")
        assert (err.value.row, err.value.col) == (2, 2)

    @pytest.mark.parametrize("label", ["3_0", "\u0663", "\uff13"])
    def test_non_ascii_label_rejected(self, tmp_path, label):
        p = write(tmp_path / "f.csv", f"1,2,0\n3,4,{label}\n")
        with pytest.raises(ParseError) as err:
            load_features(p, label_col="last")
        assert (err.value.row, err.value.col) == (2, 3)

    def test_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path / "f.csv", "\n \t\n1,2,0\n \n3,4,1\n\n")
        m = load_features(p, label_col="last")
        np.testing.assert_array_equal(m.values, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(m.labels, [0, 1])

    def test_compressed_file_not_decompressed(self, tmp_path):
        # np.loadtxt on a path would gunzip a .gz file; the reader reads
        # the file's own bytes, which are not UTF-8 text.
        p = tmp_path / "f.csv.gz"
        p.write_bytes(gzip.compress(b"1,2\n3,4\n"))
        with pytest.raises(FormatError, match="UTF-8"):
            load_features(p)


def _outcome(read):
    """read()'s result, or the type of the HdhError it raised."""
    try:
        return read()
    except HdhError as exc:
        return type(exc)


def _long_mantissa(sign, digits, point, exponent):
    return f"{sign}{digits[:point]}.{digits[point:]}{exponent}"


FINITE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(_long_mantissa, st.sampled_from(["", "-", "+"]),
              st.text("0123456789", min_size=17, max_size=25), st.integers(0, 25),
              st.sampled_from(["", "e0", "e-5", "E+300", "e-320"])),
    st.sampled_from(["1e-400", "-1e-400", "0", "-0", ".5", "5.", "1E5"]),
)
NON_FINITE_CELLS = st.sampled_from(["1e400", "-1e400", "inf", "-Infinity", "infinity",
                                    "INF", "nan", "-NaN"])
BAD_CELLS = st.sampled_from(["1_000", "1_0.5", "\u0661", "\uff13", "#", "1#",
                             "#1", "", "abc", "0x1", ".", "1e", "--1", "1 2",
                             "1\x00"])
VALID_LABELS = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(str),
    st.sampled_from([str(2**63 - 1), str(-2**63), "+3", "-0", "003"]),
)
BAD_LABELS = st.sampled_from([str(2**63), str(-2**63 - 1), "3.0", "3e0", "3_0",
                              "\u0663", "#3", "3#", "", "+", "0x3", "3\x00"])
SPACES = st.sampled_from(["", "", " ", "\t", " \t", "\xa0", "\u3000", "\x0c"])
BLANK_LINES = st.sampled_from(["", "", "", " ", "\t\x0c", "\u3000"])
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """CSV text, valid or nearly so, and its label_col."""
    labelled = draw(st.booleans())
    kind = draw(st.sampled_from(["finite", "non-finite", "bad"]))
    valid = kind != "bad"
    cells = {"finite": FINITE_CELLS,
             "non-finite": st.one_of(FINITE_CELLS, NON_FINITE_CELLS),
             "bad": st.one_of(FINITE_CELLS, NON_FINITE_CELLS, BAD_CELLS)}[kind]
    labels = VALID_LABELS if valid else st.one_of(VALID_LABELS, BAD_LABELS)
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        row = [draw(cells) for _ in range(width - labelled)]
        if labelled:
            row.append(draw(labels))
        if not valid and draw(st.integers(0, 5)) == 0:
            row.append(draw(cells))  # a ragged row
        lines.append(",".join(draw(SPACES) + c + draw(SPACES) for c in row))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANK_LINES))
    ends = [draw(NEWLINES) for _ in lines]
    ends[-1] = draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    return "".join(a + b for a, b in zip(lines, ends)), "last" if labelled else None


class TestCsvFastPath:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_texts())
    def test_fast_path_equals_line_parser(self, tmp_path, case):
        text, label_col = case
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = _outcome(lambda: load_features(path, label_col))
            with open(path, encoding="utf-8") as fh:
                by_lines = _outcome(
                    lambda: FeatureMatrix(*_parse_csv_lines(fh, path, label_col)))
            with open(path, encoding="utf-8") as fh:
                try:
                    fast_refused = _read_csv_fast(fh, label_col) is None
                except ValueError:
                    fast_refused = True
        if isinstance(by_lines, type):
            assert loaded is by_lines
            return
        assert not fast_refused  # the line parser only locates errors
        assert isinstance(loaded, FeatureMatrix)
        assert loaded.values.flags.c_contiguous
        assert loaded.values.shape == by_lines.values.shape
        assert loaded.values.tobytes() == by_lines.values.tobytes()
        if label_col is None:
            assert loaded.labels is None and by_lines.labels is None
        else:
            np.testing.assert_array_equal(loaded.labels, by_lines.labels)


class TestPackedBinary:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = FeatureMatrix(rng.normal(size=(6, 3)).astype(np.float32).astype(np.float64),
                          np.array([0, 1, 0, 1, 2, 2]))
        p = tmp_path / "f.bin"
        save_packed(m, p)
        loaded = load_features(str(p))
        np.testing.assert_array_equal(loaded.values, m.values)
        assert np.array_equal(loaded.labels, m.labels)

    def test_bad_magic(self, tmp_path):
        # Without the magic the file is read as CSV, and fails as one.
        p = tmp_path / "f.bin"
        p.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(DataError):
            load_features(str(p))

    @pytest.mark.parametrize("labels", [None, np.array([3, 1, 4, 1, 5])])
    def test_packed_and_csv_load_equal(self, tmp_path, labels):
        values = np.random.default_rng(5).normal(size=(5, 3)).astype(np.float32)
        values = values.astype(np.float64)
        save_packed(FeatureMatrix(values, labels), tmp_path / "f.bin")
        cells = np.char.mod("%.17g", values)
        if labels is not None:
            cells = np.column_stack([cells, labels.astype(str)])
        (tmp_path / "f.csv").write_text("".join(",".join(row) + "\n" for row in cells))
        label_col = None if labels is None else "last"
        packed = load_features(tmp_path / "f.bin")
        csv = load_features(tmp_path / "f.csv", label_col)
        np.testing.assert_array_equal(packed.values, csv.values)
        np.testing.assert_array_equal(packed.labels, csv.labels)

    def test_truncated(self, tmp_path):
        m = FeatureMatrix(np.ones((4, 3)))
        p = tmp_path / "f.bin"
        save_packed(m, p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_features(str(p))

    def test_trailing_bytes_rejected(self, tmp_path):
        m = FeatureMatrix(np.ones((4, 3)), np.arange(4))
        p = tmp_path / "f.bin"
        save_packed(m, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_features(str(p))

    def test_signalling_nan_refused(self, tmp_path):
        # Its float32 -> float64 cast raises the invalid flag.
        p = tmp_path / "f.bin"
        save_packed(FeatureMatrix(np.ones((2, 2))), p)
        p.write_bytes(p.read_bytes()[:13] + np.uint32(0x7F800001).tobytes()
                      + p.read_bytes()[17:])
        with pytest.raises(FormatError, match="non-finite"):
            load_features(str(p))


def _failing_replace(src, dst):
    raise OSError(errno.EXDEV, "simulated failure at the final rename")


WRITERS = {
    "save_packed": lambda p: save_packed(FeatureMatrix(np.ones((2, 3)), [0, 1]), p),
    "save_model": lambda p: save_model(init_model(TrainingConfig(
        layer_dims=(4, 3), code_bits=2, epochs=1, batch_size=1)), p),
    "write_codes_file": lambda p: write_codes_file(p, np.ones((2, 1), np.uint64), 8),
    "write_pr_csv": lambda p: write_pr_csv(p, [PrPoint(0, 0.5, 1.0, 1.0)]),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        path.write_bytes(b"old content")
        monkeypatch.setattr(os, "replace", _failing_replace)
        with pytest.raises(OSError):
            WRITERS[writer](path)
        assert path.read_bytes() == b"old content"
        assert os.listdir(tmp_path) == ["out"]
        monkeypatch.undo()
        WRITERS[writer](path)
        assert path.read_bytes() != b"old content"
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_data_write_keeps_old_file(self, tmp_path, monkeypatch):
        real_fdopen = os.fdopen

        class DiskFull:
            """A file that takes two bytes, then runs out of space."""

            def __init__(self, fd, mode):
                self.fh = real_fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        path = tmp_path / "out"
        path.write_bytes(b"old content")
        monkeypatch.setattr(os, "fdopen", DiskFull)
        with pytest.raises(OSError):
            atomic_write(path, b"new content")
        assert path.read_bytes() == b"old content"
        assert os.listdir(tmp_path) == ["out"]


class TestNormalize:
    def test_minmax_symmetric_endpoints(self):
        m = FeatureMatrix(np.array([[-2.0], [0.0], [2.0]]))
        out = normalize(m)
        np.testing.assert_allclose(out.values[:, 0], [-1, 0, 1])

    def test_two_point_column(self):
        m = FeatureMatrix(np.array([[1.0], [3.0]]))
        out = normalize(m)
        np.testing.assert_allclose(out.values[:, 0], [-1, 1])

    def test_constant_column_maps_to_zero(self):
        m = FeatureMatrix(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        out = normalize(m)
        np.testing.assert_allclose(out.values[:, 0], 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        m = FeatureMatrix(rng.normal(size=(20, 3)))
        once = normalize(m)
        twice = normalize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_query_round_trip(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(30, 5))
        m = FeatureMatrix(raw)
        out = normalize(m)
        # applying the recorded stats to the raw rows reproduces training rows
        np.testing.assert_array_equal(out.norm_stats.apply(raw), out.values)

    def test_range_invariant(self):
        rng = np.random.default_rng(3)
        m = FeatureMatrix(rng.uniform(-100, 7, size=(40, 6)))
        out = normalize(m)
        assert np.all(out.values >= -1.0) and np.all(out.values <= 1.0)

    def test_rounding_overshoot_clamped(self):
        # (raw - shift) * scale rounds 646 of these cells past -1 or 1, up
        # to 1.0000000000001343; train would then refuse the normalized data.
        gen = np.random.default_rng(1)
        lo = gen.normal(0, 5, 2000)
        hi = lo + np.abs(gen.normal(0, 5, 2000))
        raw = np.stack([lo, hi])
        out = normalize(FeatureMatrix(raw))
        assert np.all(out.values >= -1.0) and np.all(out.values <= 1.0)
        assert np.any(out.norm_stats.apply(raw) > 1.0)

    def test_extreme_columns(self):
        # hi - lo overflows in the first column and lo + hi in the second.
        raw = np.array([[-2.0**1023, 1e308], [0.0, 1e308], [2.0**1023, 1e308]])
        out = normalize(FeatureMatrix(raw))
        np.testing.assert_array_equal(out.values, [[-1, 0], [0, 0], [1, 0]])


# Each entry gives a caller's array of the stored dtype and a function that
# builds an object from it and returns the object's array.
SHARED_ARRAYS = {
    "FeatureMatrix.values": lambda: (np.zeros((3, 2)), lambda a: FeatureMatrix(a).values),
    "FeatureMatrix.labels": lambda: (
        np.zeros(3, np.int64), lambda a: FeatureMatrix(np.zeros((3, 2)), a).labels),
    "NormStats": lambda: (np.zeros(2), lambda a: NormStats("identity", a, np.ones(2)).shift),
    "SaeLayer": lambda: (np.zeros((3, 2)), lambda a: SaeLayer(
        a, np.zeros(3), np.zeros((2, 3)), np.zeros(2)).enc_w),
    "Rbm": lambda: (np.zeros((3, 2)), lambda a: Rbm(a, np.zeros(2), np.zeros(3)).w),
    "HammingIndex.words": lambda: (
        np.zeros((3, 1), np.uint64), lambda a: HammingIndex(a, 64, np.arange(3)).words),
    "HammingIndex.ids": lambda: (np.arange(3, dtype=np.int64), lambda a: HammingIndex(
        np.zeros((3, 1), np.uint64), 64, a).ids),
}


class TestFeatureMatrixInvariants:
    def test_label_length(self):
        with pytest.raises(ShapeError):
            FeatureMatrix(np.ones((3, 2)), np.array([1, 2]))

    def test_empty(self):
        with pytest.raises(ShapeError):
            FeatureMatrix(np.ones((0, 2)))

    def test_immutable(self):
        m = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    @pytest.mark.parametrize("name", sorted(SHARED_ARRAYS))
    def test_caller_array_shared_and_left_writable(self, name):
        caller, stored_of = SHARED_ARRAYS[name]()
        stored = stored_of(caller)
        assert np.shares_memory(stored, caller)  # no copy
        assert not stored.flags.writeable
        caller[0] = caller[0] + 1  # the caller's array stays writable


class TestNormStats:
    def test_identity(self):
        stats = NormStats.identity(3)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(stats.apply(x), x)

    def test_dimension_check(self):
        stats = NormStats.identity(3)
        with pytest.raises(ShapeError):
            stats.apply(np.ones(4))
