"""Command-line entry points: train, encode, query, eval-pr.

Every command prints machine-parseable key=value lines on stdout and maps
errors onto fixed exit codes: 0 success, 1 usage/config, 2 data, 3 numeric
divergence. The commands map errors and do not check input again: the
library refuses it where it enters (readers, constructors, TrainingConfig),
and eval-pr adds only the checks that tie its codes, features and mode
together. All randomness comes from the config's seed; re-running a
command with identical inputs produces byte-identical outputs.
"""
from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import pipeline, search
from .codes import HashCode
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    DomainError,
    HdhError,
)
from .features import ascii_int, load_features, normalize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    message: str
    summary: str
    lines: tuple[str, ...] = ()


def _ok(summary: str, lines=()) -> CommandOutcome:
    return CommandOutcome(EXIT_OK, "ok", summary, tuple(lines) + (summary,))


def _fail(exit_code: int, message: str) -> CommandOutcome:
    return CommandOutcome(exit_code, message, f"status=error exit={exit_code}")


def _exit_codes(cmd):
    """Decorate a cmd_* function: each error it raises becomes a failed
    CommandOutcome with that error's exit code."""
    @functools.wraps(cmd)
    def guarded(*args, **kwargs) -> CommandOutcome:
        try:
            return cmd(*args, **kwargs)
        except ConfigError as exc:
            return _fail(EXIT_USAGE, str(exc))
        except DivergenceError as exc:
            return _fail(EXIT_DIVERGED, str(exc))
        except HdhError as exc:
            return _fail(EXIT_DATA, str(exc))
        except OSError as exc:
            # Writes report through _writing, so this is an unreadable input.
            return _fail(EXIT_DATA, f"cannot read input file: {exc}")
        except MemoryError as exc:
            return _fail(EXIT_DATA, f"not enough memory: {str(exc) or 'allocation failed'}")
    return guarded


@contextmanager
def _writing(path):
    """Report a failed write of the output file path as a DataError naming
    path (the writer's own error names its temporary file)."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write output file {path}: "
                        f"{exc.strerror or exc}") from None


@_exit_codes
def cmd_train(config_path, features_path, model_out, label_col=None) -> CommandOutcome:
    try:
        config = pipeline.parse_config_file(config_path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    data = normalize(load_features(features_path, label_col))
    model, history = pipeline.train(config, data)
    with _writing(model_out):
        pipeline.save_model(model, model_out)
    lines = [
        f"iter={rec.iteration} R={rec.sae_objective:.17g} "
        f"J={rec.rbm_objective:.17g} sae_repeats={rec.sae_repeats} "
        f"rbm_repeats={rec.rbm_repeats}"
        for rec in history
    ]
    summary = (f"status=ok model={model_out} iterations={len(history)} "
               f"code_bits={model.code_bits}")
    return _ok(summary, lines)


@_exit_codes
def cmd_encode(model_path, features_path, codes_out, label_col=None) -> CommandOutcome:
    model = pipeline.load_model(model_path)
    data = load_features(features_path, label_col)
    words = pipeline.encode_matrix(model, data.values)
    with _writing(codes_out):
        search.write_codes_file(codes_out, words, model.code_bits)
    return _ok(f"status=ok codes={codes_out} count={data.rows} "
               f"bits={model.code_bits}")


@_exit_codes
def cmd_query(codes_path, query_hex, k_results) -> CommandOutcome:
    words, n_bits = search.read_codes_file(codes_path)
    try:
        query = HashCode.from_hex(query_hex, n_bits)
    except DomainError as exc:
        # A bad query string on the command line is a usage error.
        raise ConfigError(str(exc)) from None
    index = search.HammingIndex(words, n_bits, np.arange(words.shape[0]))
    hits = search.topk(index, query, k_results)
    lines = [f"id={i} distance={d}" for i, d in hits]
    return _ok(f"status=ok results={len(hits)} bits={n_bits}", lines)


@_exit_codes
def cmd_eval_pr(codes_path, features_path, mode, gt_n, out_csv,
                label_col=None) -> CommandOutcome:
    words, n_bits = search.read_codes_file(codes_path)
    data = load_features(features_path, label_col)
    if words.shape[0] != data.rows:
        raise DataError(
            f"codes/features mismatch: {words.shape[0]} codes for "
            f"{data.rows} rows"
        )
    if mode == "label" and data.labels is None:
        raise DataError("label ground truth requires labeled features "
                        "(declare --label-col last or use a labeled file)")
    if mode == "label":
        _, first, count = np.unique(data.labels, return_index=True, return_counts=True)
        if (count == 1).any():
            row = first[count == 1].min()
            raise DataError(f"label {data.labels[row]} occurs only at row {row + 1}, "
                            "so that query has no relevant row")
    elif data.rows == 1:
        raise DataError("euclidean ground truth needs a second row for the query at row 1")
    rows = np.arange(data.rows)
    relevant = search.ground_truth(data, rows, mode, gt_n)
    index = search.HammingIndex(words, n_bits, rows)
    table = search.pr_table(index, words, relevant, exclude=rows)
    with _writing(out_csv):
        search.write_pr_csv(out_csv, table)
    area = search.auc(table)
    return _ok(f"status=ok pr_csv={out_csv} auc={area:.17g} mode={mode} "
               f"queries={data.rows}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdhash",
        description="Train deep hash models, emit binary codes, and evaluate "
                    "Hamming-space retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config and features")
    p.add_argument("--config", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label-col", choices=["last"], default=None)

    p = sub.add_parser("encode", help="hash feature rows with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label-col", choices=["last"], default=None)

    p = sub.add_parser("query", help="rank indexed codes against a hex query")
    p.add_argument("--codes", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--k", type=ascii_int, required=True)

    p = sub.add_parser("eval-pr", help="precision-recall over a radius sweep")
    p.add_argument("--codes", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=search.GROUND_TRUTH_MODES, required=True)
    p.add_argument("--gt-n", type=ascii_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--label-col", choices=["last"], default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage problems; our contract is 1.
        return EXIT_OK if not exc.code else EXIT_USAGE

    if args.command == "train":
        outcome = cmd_train(args.config, args.features, args.out, args.label_col)
    elif args.command == "encode":
        outcome = cmd_encode(args.model, args.features, args.out, args.label_col)
    elif args.command == "query":
        outcome = cmd_query(args.codes, args.q, args.k)
    else:
        outcome = cmd_eval_pr(args.codes, args.features, args.mode, args.gt_n,
                              args.out, args.label_col)

    for line in outcome.lines:
        print(line)
    if outcome.exit_code != EXIT_OK:
        print(f"hdhash: {outcome.message}", file=sys.stderr)
        print(outcome.summary)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
