import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import hdhash
from hdhash import pipeline
from hdhash.cli import (
    cmd_encode,
    cmd_eval_pr,
    cmd_query,
    cmd_train,
    main,
)
from hdhash.codes import HashCode, pack_bits
from hdhash.errors import FormatError
from hdhash.features import FeatureMatrix, save_packed
from hdhash.pipeline import TrainingConfig, config_lines, load_model
from hdhash.search import read_codes_file, write_codes_file

from conftest import NOT_HEX, write_raw_codes


def write_config(path, **overrides):
    base = dict(layer_dims=(4, 3), code_bits=4, epochs=2, batch_size=5, seed=1,
                outer_iters=2, init_mode="symmetric")
    base.update(overrides)
    config = TrainingConfig(**base)
    path.write_text("\n".join(config_lines(config, prefix="")) + "\n")
    return config


def write_features_csv(path, rows=10, dim=4, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1, 1, size=(rows, dim))
    lines = []
    for i, row in enumerate(values):
        cells = [f"{x:.9g}" for x in row]
        if labels is not None:
            cells.append(str(labels[i]))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return values


def run_cli_warnings_as_errors(*args):
    """Run `python -W error -m hdhash.cli args` on the tested package."""
    path = [str(Path(hdhash.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "hdhash.cli"] + [str(a) for a in args],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})


@pytest.fixture
def trained(tmp_path):
    config_path = tmp_path / "train.cfg"
    features_path = tmp_path / "train.csv"
    model_path = tmp_path / "model.hdhm"
    write_config(config_path)
    write_features_csv(features_path)
    outcome = cmd_train(str(config_path), str(features_path), str(model_path))
    assert outcome.exit_code == 0
    return config_path, features_path, model_path


class TestTrainCommand:
    def test_success_and_history_lines(self, trained, tmp_path):
        config_path, features_path, model_path = trained
        assert model_path.exists()
        outcome = cmd_train(str(config_path), str(features_path),
                            str(tmp_path / "again.hdhm"))
        iter_lines = [l for l in outcome.lines if l.startswith("iter=")]
        assert len(iter_lines) == 2  # outer_iters
        assert all("R=" in l and "J=" in l for l in iter_lines)
        assert outcome.summary.startswith("status=ok")

    def test_missing_config_key_names_it(self, tmp_path):
        config_path = tmp_path / "bad.cfg"
        write_config(config_path)
        lines = [l for l in config_path.read_text().splitlines()
                 if not l.startswith("alpha=")]
        config_path.write_text("\n".join(lines))
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path)
        outcome = cmd_train(str(config_path), str(features_path),
                            str(tmp_path / "m.hdhm"))
        assert outcome.exit_code == 1
        assert "alpha" in outcome.message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path):
        config_path = tmp_path / "diverge.cfg"
        write_config(config_path, alpha=1e308)
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path)
        outcome = cmd_train(str(config_path), str(features_path),
                            str(tmp_path / "m.hdhm"))
        assert outcome.exit_code == 3
        assert "sae" in outcome.message or "rbm" in outcome.message

    @pytest.mark.parametrize("key, value", [
        ("lambda", "nan"), ("mu", "inf"), ("beta", "inf"), ("alpha", "nan"),
        ("alpha", "inf"), ("eps_sae", "nan"), ("eps_rbm", "nan"),
    ])
    def test_non_finite_value_exits_1(self, tmp_path, key, value):
        config_path = tmp_path / "t.cfg"
        write_config(config_path)
        config_path.write_text("".join(
            f"{key}={value}\n" if line.startswith(key + "=") else line + "\n"
            for line in config_path.read_text().splitlines()))
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path)
        outcome = cmd_train(str(config_path), str(features_path),
                            str(tmp_path / "m.hdhm"))
        assert outcome.exit_code == 1
        assert not (tmp_path / "m.hdhm").exists()

    @pytest.mark.parametrize("key, value", [
        ("code_bits", "0_2"), ("layer_dims", "4,,3"), ("layer_dims", "4,3,"),
    ])
    def test_non_ascii_numeral_exits_1(self, tmp_path, key, value):
        config_path = tmp_path / "t.cfg"
        write_config(config_path)
        config_path.write_text("".join(
            f"{key}={value}\n" if line.startswith(key + "=") else line + "\n"
            for line in config_path.read_text().splitlines()))
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path)
        outcome = cmd_train(str(config_path), str(features_path),
                            str(tmp_path / "m.hdhm"))
        assert outcome.exit_code == 1
        assert key in outcome.message

    @pytest.mark.parametrize("cells", [(0.0, 1e-308), (0.0, 5e-309, 1e-308)],
                             ids=["endpoints", "midpoint"])
    def test_too_narrow_column_exits_2(self, tmp_path, cells):
        # A column's half-range below 1/finfo.max has no finite scale. Run
        # under -W error, so a numpy warning fails the command too.
        values = np.random.default_rng(27).uniform(-1, 1, (40, 4))
        values[:, 2] = np.resize(cells, 40)
        features_path = tmp_path / "f.csv"
        np.savetxt(features_path, values, delimiter=",", fmt="%.17g")
        write_config(tmp_path / "t.cfg")
        model_path = tmp_path / "m.hdhm"
        result = run_cli_warnings_as_errors(
            "train", "--config", tmp_path / "t.cfg", "--features", features_path,
            "--out", model_path)
        assert result.returncode == 2, result.stderr
        assert result.stdout.splitlines()[-1] == "status=error exit=2"
        assert result.stderr.startswith("hdhash: feature column 3 ")
        assert "Warning" not in result.stderr
        assert not model_path.exists()

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def too_big(config, data):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(pipeline, "train", too_big)
        write_config(tmp_path / "t.cfg")
        write_features_csv(tmp_path / "f.csv")
        assert main(["train", "--config", str(tmp_path / "t.cfg"), "--features",
                     str(tmp_path / "f.csv"), "--out", str(tmp_path / "m.hdhm")]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "status=error exit=2"
        assert captured.err == ("hdhash: not enough memory: Unable to allocate "
                                "29.1 TiB for an array\n")
        assert not (tmp_path / "m.hdhm").exists()

    def test_missing_config_file(self, tmp_path):
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path)
        outcome = cmd_train(str(tmp_path / "nope.cfg"), str(features_path),
                            str(tmp_path / "m.hdhm"))
        assert outcome.exit_code == 1


class TestEncodeCommand:
    def test_count_matches_rows(self, trained, tmp_path):
        _, features_path, model_path = trained
        codes_path = tmp_path / "c.hdhc"
        outcome = cmd_encode(str(model_path), str(features_path), str(codes_path))
        assert outcome.exit_code == 0
        words, n_bits = read_codes_file(codes_path)
        assert words.shape[0] == 10
        assert n_bits == 4

    def test_dimension_mismatch_exits_2(self, trained, tmp_path):
        _, _, model_path = trained
        wrong = tmp_path / "wrong.csv"
        write_features_csv(wrong, dim=7)
        outcome = cmd_encode(str(model_path), str(wrong), str(tmp_path / "c.hdhc"))
        assert outcome.exit_code == 2
        assert "4" in outcome.message and "7" in outcome.message

    def test_dimension_mismatch_through_main_names_both_widths(self, trained, tmp_path,
                                                               capsys):
        _, _, model_path = trained
        wrong = tmp_path / "wrong.csv"
        write_features_csv(wrong, dim=7)
        code = main(["encode", "--model", str(model_path), "--features", str(wrong),
                     "--out", str(tmp_path / "c.hdhc")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "status=error exit=2\n"
        assert captured.err.startswith("hdhash: feature dimension mismatch: ")
        assert re.search(r"\b4\b", captured.err) and re.search(r"\b7\b", captured.err)

    def test_rerun_byte_identical(self, trained, tmp_path):
        _, features_path, model_path = trained
        p1, p2 = tmp_path / "c1.hdhc", tmp_path / "c2.hdhc"
        cmd_encode(str(model_path), str(features_path), str(p1))
        cmd_encode(str(model_path), str(features_path), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("cell", ["abc", "1_0", "\u0661"])
    def test_malformed_cell_exits_2_at_its_position(self, trained, tmp_path, cell):
        _, features_path, model_path = trained
        lines = features_path.read_text().splitlines()
        cells = lines[7].split(",")
        cells[2] = cell
        lines[7] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        outcome = cmd_encode(str(model_path), str(bad), str(tmp_path / "c.hdhc"))
        assert outcome.exit_code == 2
        assert "at row 8, column 3" in outcome.message

    def test_row_far_outside_training_range_exits_2_naming_it(self, tmp_path):
        # A constant column at -1e308 scales by 0; 1e308 there overflows
        # (x - shift) to inf, and inf * 0 is NaN. Run under -W error, so a
        # numpy warning fails the command too.
        values = np.random.default_rng(31).uniform(-1, 1, (10, 4))
        values[:, 0] = -1e308
        np.savetxt(tmp_path / "train.csv", values, delimiter=",", fmt="%.17g")
        write_config(tmp_path / "t.cfg")
        model_path = tmp_path / "m.hdhm"
        assert cmd_train(str(tmp_path / "t.cfg"), str(tmp_path / "train.csv"),
                         str(model_path)).exit_code == 0
        values[1, 0] = 1e308
        np.savetxt(tmp_path / "db.csv", values, delimiter=",", fmt="%.17g")
        codes_path = tmp_path / "c.hdhc"
        result = run_cli_warnings_as_errors(
            "encode", "--model", model_path, "--features", tmp_path / "db.csv",
            "--out", codes_path)
        assert result.returncode == 2, result.stderr
        assert result.stdout.splitlines()[-1] == "status=error exit=2"
        assert result.stderr == ("hdhash: row 2 is too far outside the training "
                                 "range to encode\n")
        assert not codes_path.exists()

    def test_packed_binary_features(self, trained, tmp_path):
        _, features_path, model_path = trained
        rng = np.random.default_rng(4)
        m = FeatureMatrix(rng.uniform(-1, 1, size=(6, 4)))
        packed = tmp_path / "f.bin"
        save_packed(m, packed)
        outcome = cmd_encode(str(model_path), str(packed), str(tmp_path / "c.hdhc"))
        assert outcome.exit_code == 0


def rewrite_payload(path, old, new):
    """Replace bytes in a model file's payload and store the matching CRC."""
    blob = path.read_bytes()
    payload = blob[12:]
    assert old in payload
    payload = payload.replace(old, new)
    path.write_bytes(blob[:8] + struct.pack("<I", zlib.crc32(payload)) + payload)


class TestMalformedModel:
    """Model files with a valid checksum but a bad payload exit 2."""

    @pytest.mark.parametrize("old, new", [
        (b"rbm.v_dim=3", b"rbm.v_dim=x3"),                  # not a number
        (b"norm.mode=", b"norm.m\xffde="),                  # not UTF-8
        (b"config.seed=1", b"config.seed=x"),               # bad config echo
        (b"config.layer_dims=4,3", b"config.layer_dims=4,5"),  # dims disagree
        (b"norm.mode=minmax_symmetric", b"norm.mode=zscore_clamped"),  # no such mode
        (b"rbm.beta=10\n", b"rbm.beta=11\n"),          # beta disagrees with the echo
        (b"rbm.cd_steps=1\n", b"rbm.cd_steps=2\n"),    # cd_steps disagrees
    ], ids=["bad-number", "not-utf8", "bad-config-echo", "dims-disagree",
            "unknown-norm-mode", "beta-disagrees", "cd-steps-disagree"])
    def test_encode_exits_2(self, trained, tmp_path, old, new):
        _, features_path, model_path = trained
        rewrite_payload(model_path, old, new)
        outcome = cmd_encode(str(model_path), str(features_path),
                             str(tmp_path / "c.hdhc"))
        assert outcome.exit_code == 2
        assert outcome.summary == "status=error exit=2"
        assert not (tmp_path / "c.hdhc").exists()

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff13"],
                             ids=["underscore", "arabic-indic", "fullwidth"])
    def test_payload_number_not_ascii_exits_2(self, trained, tmp_path, value):
        # float() reads all three (as 10, 1 and 3); the payload grammar does not.
        _, features_path, model_path = trained
        payload = model_path.read_bytes()[12:]
        start = payload.index(b"norm.shift=") + len(b"norm.shift=")
        first = payload[start:payload.index(b" ", start)]
        rewrite_payload(model_path, b"norm.shift=" + first,
                        b"norm.shift=" + value.encode("utf-8"))
        with pytest.raises(FormatError, match="norm.shift"):
            load_model(model_path)
        outcome = cmd_encode(str(model_path), str(features_path),
                             str(tmp_path / "c.hdhc"))
        assert outcome.exit_code == 2
        assert "ASCII numeral" in outcome.message


    @pytest.mark.parametrize("extra", [b"junk=1", b"garbage line without equals",
                                       b"sae.1.enc_w=1 2 3"],
                             ids=["unknown-key", "no-equals", "layer-past-the-stack"])
    def test_unread_payload_line_exits_2(self, trained, tmp_path, extra):
        # The model has one layer, so no field names sae.1.
        _, features_path, model_path = trained
        payload = model_path.read_bytes()[12:]
        rewrite_payload(model_path, payload, payload + extra + b"\n")
        lineno = payload.count(b"\n") + 1
        with pytest.raises(FormatError, match=rf"payload line {lineno}\b"):
            load_model(model_path)
        outcome = cmd_encode(str(model_path), str(features_path),
                             str(tmp_path / "c.hdhc"))
        assert outcome.exit_code == 2
        assert not (tmp_path / "c.hdhc").exists()


class TestNotUtf8:
    def test_features_csv_exits_2(self, trained, tmp_path):
        config_path, features_path, _ = trained
        bad = tmp_path / "bad.csv"
        bad.write_bytes(features_path.read_bytes().replace(b"\n", b"\xff\n", 1))
        outcome = cmd_train(str(config_path), str(bad), str(tmp_path / "m2.hdhm"))
        assert outcome.exit_code == 2
        assert "UTF-8" in outcome.message

    def test_config_exits_1(self, trained, tmp_path):
        config_path, features_path, _ = trained
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(config_path.read_bytes() + b"# \xe9t\xe9\n")
        outcome = cmd_train(str(bad), str(features_path), str(tmp_path / "m2.hdhm"))
        assert outcome.exit_code == 1
        assert "UTF-8" in outcome.message


class TestUnreadableInput:
    """A missing input file exits 2, naming that file."""

    @pytest.mark.parametrize("command, missing", [
        ("train", "--features"), ("encode", "--model"), ("encode", "--features"),
        ("query", "--codes"), ("eval-pr", "--codes"), ("eval-pr", "--features"),
    ])
    def test_exits_2(self, trained, tmp_path, capsys, command, missing):
        config_path, features_path, model_path = trained
        codes_path = tmp_path / "c.hdhc"
        assert cmd_encode(str(model_path), str(features_path),
                          str(codes_path)).exit_code == 0
        argv = {
            "train": ["--config", config_path, "--features", features_path,
                      "--out", tmp_path / "m2.hdhm"],
            "encode": ["--model", model_path, "--features", features_path,
                       "--out", tmp_path / "c2.hdhc"],
            "query": ["--codes", codes_path, "--q", "0" * 16, "--k", "1"],
            "eval-pr": ["--codes", codes_path, "--features", features_path,
                        "--mode", "euclidean", "--gt-n", "2", "--out", tmp_path / "pr"],
        }[command]
        gone = tmp_path / "gone"
        argv[argv.index(missing) + 1] = gone
        assert main([command] + [str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "status=error exit=2"
        assert str(gone) in captured.err


class TestUnwritableOutput:
    """An --out path in a missing directory exits 2, naming that path."""

    @pytest.mark.parametrize("command", ["train", "encode", "eval-pr"])
    def test_exits_2(self, trained, tmp_path, capsys, command):
        config_path, features_path, model_path = trained
        codes_path = tmp_path / "c.hdhc"
        assert cmd_encode(str(model_path), str(features_path),
                          str(codes_path)).exit_code == 0
        argv = {
            "train": ["train", "--config", config_path, "--features", features_path],
            "encode": ["encode", "--model", model_path, "--features", features_path],
            "eval-pr": ["eval-pr", "--codes", codes_path, "--features",
                        features_path, "--mode", "euclidean", "--gt-n", "2"],
        }[command]
        out = tmp_path / "missing" / "out"
        assert main([str(a) for a in argv] + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "status=error exit=2"
        assert str(out) in captured.err
        assert not list(tmp_path.rglob("*.tmp"))


class TestQueryCommand:
    def make_codes(self, tmp_path, n=8, k=16, seed=0):
        gen = np.random.default_rng(seed)
        bits = (gen.random((n, k)) < 0.5).astype(np.uint8)
        path = tmp_path / "c.hdhc"
        write_codes_file(path, pack_bits(bits), k)
        return path, bits

    def test_indexed_code_found_at_distance_zero(self, tmp_path):
        path, bits = self.make_codes(tmp_path)
        query = HashCode.from_bits(bits[3])
        outcome = cmd_query(str(path), query.to_hex(), 3)
        assert outcome.exit_code == 0
        first = outcome.lines[0]
        assert first.endswith("distance=0")

    def test_malformed_hex_exits_1(self, tmp_path):
        path, _ = self.make_codes(tmp_path)
        outcome = cmd_query(str(path), "nothex!", 3)
        assert outcome.exit_code == 1

    @pytest.mark.parametrize("text", NOT_HEX)
    def test_non_hex_digits_exit_1(self, tmp_path, text):
        path, _ = self.make_codes(tmp_path)
        outcome = cmd_query(str(path), text, 3)
        assert outcome.exit_code == 1
        assert not any(line.startswith("id=") for line in outcome.lines)

    @pytest.mark.parametrize("k", ["1_0", "\uff11\uff10", "\u0663"])
    def test_k_not_ascii_digits_exits_1(self, tmp_path, capsys, k):
        # argparse's type=int read each of these.
        path, _ = self.make_codes(tmp_path)
        assert main(["query", "--codes", str(path), "--q", "0" * 16, "--k", k]) == 1
        assert "id=" not in capsys.readouterr().out

    def test_k_zero_exits_1(self, tmp_path):
        path, bits = self.make_codes(tmp_path)
        query = HashCode.from_bits(bits[0])
        outcome = cmd_query(str(path), query.to_hex(), 0)
        assert outcome.exit_code == 1

    def test_missing_codes_file_exits_2(self, tmp_path):
        outcome = cmd_query(str(tmp_path / "nope.hdhc"), "00" * 8, 1)
        assert outcome.exit_code == 2

    def test_set_pad_bits_exit_2(self, tmp_path):
        path = tmp_path / "c.hdhc"
        write_raw_codes(path, np.array([[0], [0b100000]], dtype=np.uint64), 5)
        outcome = cmd_query(str(path), "00" * 8, 2)
        assert outcome.exit_code == 2
        assert not any(line.startswith("id=") for line in outcome.lines)


class TestEvalPrCommand:
    def test_perfect_codes_auc_one(self, tmp_path):
        # two labeled clusters; identical codes inside, complementary across
        n_per, k = 10, 16
        bits = np.vstack([np.zeros((n_per, k), dtype=np.uint8),
                          np.ones((n_per, k), dtype=np.uint8)])
        labels = [0] * n_per + [1] * n_per
        codes_path = tmp_path / "c.hdhc"
        write_codes_file(codes_path, pack_bits(bits), k)
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path, rows=2 * n_per, dim=3, labels=labels)
        out_csv = tmp_path / "pr.csv"
        outcome = cmd_eval_pr(str(codes_path), str(features_path), "label", 0,
                              str(out_csv), label_col="last")
        assert outcome.exit_code == 0
        auc_field = [f for f in outcome.summary.split() if f.startswith("auc=")][0]
        assert abs(float(auc_field.split("=")[1]) - 1.0) <= 1e-9
        header = out_csv.read_text().splitlines()[0]
        assert header == "radius,recall,precision,mean_retrieved"
        assert len(out_csv.read_text().splitlines()) == k + 2

    def test_random_codes_precision_near_class_prior(self, tmp_path):
        gen = np.random.default_rng(20)
        n, k = 1000, 16
        bits = (gen.random((n, k)) < 0.5).astype(np.uint8)
        labels = ([0] * (n // 2)) + ([1] * (n // 2))
        codes_path = tmp_path / "c.hdhc"
        write_codes_file(codes_path, pack_bits(bits), k)
        features_path = tmp_path / "f.bin"
        values = gen.normal(size=(n, 2))
        save_packed(FeatureMatrix(values, np.array(labels)), features_path)
        out_csv = tmp_path / "pr.csv"
        outcome = cmd_eval_pr(str(codes_path), str(features_path), "label", 0,
                              str(out_csv))
        assert outcome.exit_code == 0
        rows = out_csv.read_text().strip().splitlines()[1:]
        last = rows[-1].split(",")
        assert int(last[0]) == k
        assert float(last[1]) == pytest.approx(1.0)      # full recall at radius k
        assert abs(float(last[2]) - 0.5) <= 0.05         # precision ~ class prior

    def test_label_mode_without_labels_exits_2(self, tmp_path):
        gen = np.random.default_rng(21)
        bits = (gen.random((6, 8)) < 0.5).astype(np.uint8)
        codes_path = tmp_path / "c.hdhc"
        write_codes_file(codes_path, pack_bits(bits), 8)
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path, rows=6, dim=3)
        outcome = cmd_eval_pr(str(codes_path), str(features_path), "label", 0,
                              str(tmp_path / "pr.csv"))
        assert outcome.exit_code == 2

    def test_label_held_by_one_row_exits_2_naming_it(self, tmp_path):
        gen = np.random.default_rng(24)
        codes_path = tmp_path / "c.hdhc"
        write_codes_file(codes_path, pack_bits((gen.random((30, 8)) < 0.5)
                                               .astype(np.uint8)), 8)
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path, rows=30, dim=3, labels=[0] * 29 + [1])
        outcome = cmd_eval_pr(str(codes_path), str(features_path), "label", 0,
                              str(tmp_path / "pr.csv"), label_col="last")
        assert outcome.exit_code == 2
        assert "label 1 occurs only at row 30" in outcome.message
        assert not (tmp_path / "pr.csv").exists()

    def test_euclidean_single_row_exits_2_naming_it(self, tmp_path):
        codes_path = tmp_path / "c.hdhc"
        write_codes_file(codes_path, pack_bits(np.ones((1, 8), dtype=np.uint8)), 8)
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path, rows=1, dim=3)
        outcome = cmd_eval_pr(str(codes_path), str(features_path), "euclidean", 3,
                              str(tmp_path / "pr.csv"))
        assert outcome.exit_code == 2
        assert "row 1" in outcome.message
        assert not (tmp_path / "pr.csv").exists()

    def test_euclidean_mode(self, tmp_path):
        gen = np.random.default_rng(22)
        bits = (gen.random((12, 8)) < 0.5).astype(np.uint8)
        codes_path = tmp_path / "c.hdhc"
        write_codes_file(codes_path, pack_bits(bits), 8)
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path, rows=12, dim=3)
        outcome = cmd_eval_pr(str(codes_path), str(features_path), "euclidean", 3,
                              str(tmp_path / "pr.csv"))
        assert outcome.exit_code == 0

    def test_euclidean_overflowing_features_warn_nothing(self, tmp_path):
        # Squared norms of 1e160-scaled rows overflow, so inf distances are
        # expected inside ground truth; numpy must not report them.
        gen = np.random.default_rng(26)
        codes_path = tmp_path / "c.hdhc"
        write_codes_file(codes_path, pack_bits((gen.random((30, 8)) < 0.5)
                                               .astype(np.uint8)), 8)
        features_path = tmp_path / "f.csv"
        np.savetxt(features_path, 1e160 * gen.normal(size=(30, 3)), delimiter=",")
        result = run_cli_warnings_as_errors(
            "eval-pr", "--codes", codes_path, "--features", features_path,
            "--mode", "euclidean", "--gt-n", "5", "--out", tmp_path / "pr.csv")
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

    @pytest.mark.parametrize("gt_n", ["1_0", "\uff11\uff10"])
    def test_gt_n_not_ascii_digits_exits_1(self, tmp_path, gt_n):
        gen = np.random.default_rng(22)
        codes_path = tmp_path / "c.hdhc"
        write_codes_file(codes_path, pack_bits((gen.random((12, 8)) < 0.5)
                                               .astype(np.uint8)), 8)
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path, rows=12, dim=3)
        assert main(["eval-pr", "--codes", str(codes_path), "--features",
                     str(features_path), "--mode", "euclidean", "--gt-n", gt_n,
                     "--out", str(tmp_path / "pr.csv")]) == 1
        assert not (tmp_path / "pr.csv").exists()

    def test_count_mismatch_exits_2(self, tmp_path):
        gen = np.random.default_rng(23)
        bits = (gen.random((5, 8)) < 0.5).astype(np.uint8)
        codes_path = tmp_path / "c.hdhc"
        write_codes_file(codes_path, pack_bits(bits), 8)
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path, rows=7, dim=3)
        outcome = cmd_eval_pr(str(codes_path), str(features_path), "euclidean", 2,
                              str(tmp_path / "pr.csv"))
        assert outcome.exit_code == 2


class TestMainEntry:
    def test_usage_error_exit_code(self, capsys):
        assert main(["query", "--codes", "x"]) == 1  # missing required flags

    def test_full_flow_through_main(self, tmp_path, capsys):
        config_path = tmp_path / "t.cfg"
        write_config(config_path)
        features_path = tmp_path / "f.csv"
        write_features_csv(features_path)
        model_path = tmp_path / "m.hdhm"
        codes_path = tmp_path / "c.hdhc"

        assert main(["train", "--config", str(config_path), "--features",
                     str(features_path), "--out", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("iter=") == 2
        assert "status=ok" in out

        assert main(["encode", "--model", str(model_path), "--features",
                     str(features_path), "--out", str(codes_path)]) == 0
        words, n_bits = read_codes_file(codes_path)
        query = HashCode(n_bits, words[0])
        assert main(["query", "--codes", str(codes_path), "--q", query.to_hex(),
                     "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "distance=0" in out.splitlines()[-2] or "distance=0" in out

    def test_console_script_runs(self, tmp_path):
        # The child process imports the same hdhash package as the tests.
        path = [str(Path(hdhash.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, "-m", "hdhash.cli", "query", "--codes",
             str(tmp_path / "missing.hdhc"), "--q", "0000000000000000", "--k", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
        assert result.returncode == 2
