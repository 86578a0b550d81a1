"""End-to-end benchmark of hdhash.

    python3 perfbench/run.py --workload train-cd1 --seed 1 --seconds 35 --trace 0

Run from the repository root. One run generates the workload's inputs from
the seed, then repeats whole rounds of the user's path until --seconds is
spent: `hdhash train`, `encode`, `query` and `eval-pr` (label and
Euclidean) through hdhash.cli.main in this process, plus search.topk and
search.radius_search over a fixed query set on a prebuilt index. After the
timed rounds every output is checked against perfbench/checks.py. The last
stdout line is a JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics of the traced rounds (--trace 1). See README.md.
"""
import os

# Pinned before numpy loads: one BLAS thread keeps timings steady on a
# small host (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import TOPK_K, WORKLOADS, make_inputs, make_queries, to_hex  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_REPEATS = 3
MIN_ROUNDS = 3


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    """One run of one workload: rounds of operations, then the checks."""

    def __init__(self, w, seed, directory, hd):
        self.w, self.seed, self.hd = w, seed, hd
        self.out = directory / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.attempts = []            # (op, ok) per operation attempted
        self.reference = {}           # op -> (stdout, file bytes) of round 1
        self.digests = {}             # op -> sha256 of round 1's output
        self.times = defaultdict(list)
        self.sweeps = defaultdict(list)  # kind -> per-sweep latencies, ms
        self.hits = {}                # (kind, query) -> round 1 result

    # ------------------------------------------------------------ operations

    def cli(self, op, argv, output=None):
        buf = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.hd["cli"].main([str(a) for a in argv])
        elapsed = time.perf_counter() - start
        blob = output.read_bytes() if output is not None and code == 0 else b""
        stdout = buf.getvalue()
        digest = _sha(stdout.encode() + blob)
        if op not in self.reference:
            self.reference[op] = (stdout, blob)
            self.digests[op] = digest
        ok = code == 0 and digest == self.digests[op]
        self.attempts.append((op, ok))
        self.times[op].append(elapsed)
        if not ok:
            print(f"{op}: exit {code}, output digest {digest[:12]}", file=sys.stderr)

    def sweep(self, kind):
        """One pass of the library call over the whole query set."""
        name, arg = self.search_calls[kind]
        fn = getattr(self.hd["search"], name)
        latencies = []
        for qi, query in enumerate(self.queries):
            start = time.perf_counter()
            result = fn(self.index, query, arg)
            latencies.append((time.perf_counter() - start) * 1e3)
            key = (kind, qi)
            self.hits.setdefault(key, result)
            self.attempts.append((f"{kind}:{qi}", result == self.hits[key]))
        self.sweeps[kind].append(latencies)

    def build_index(self, synthetic, n_bits):
        """The prebuilt index and the query set, made once, untimed."""
        search, codes = self.hd["search"], self.hd["codes"]
        rng = np.random.default_rng([self.seed, 0x5152])
        self.index_words = synthetic.words
        self.index = search.HammingIndex(self.index_words, n_bits,
                                         np.arange(self.index_words.shape[0]))
        self.query_words = make_queries(rng, synthetic, n_bits)
        self.queries = [codes.HashCode(n_bits, q) for q in self.query_words]
        # The CLI query: a code two bits from a cluster centre.
        self.cli_query = self.query_words[22]
        # Looked up at each sweep, so a traced round calls the wrappers.
        self.search_calls = {"topk": ("topk", TOPK_K),
                             "radius": ("radius_search", self.w.radius)}

    def round(self, inp):
        """The round's commands, with the library sweeps spread evenly
        between them, so that a slow stretch of the host meets few sweeps."""
        commands = self.commands(inp)
        after = defaultdict(list)  # command position -> sweeps that follow it
        for kind, count in (("topk", self.w.topk_sweeps), ("radius", self.w.radius_sweeps)):
            for j in range(count):
                after[(2 * j + 1) * len(commands) // (2 * count)].append(kind)
        for position, command in enumerate(commands):
            command()
            for kind in after[position]:
                self.sweep(kind)

    def commands(self, inp):
        """The hdhash commands of one round, in order, as callables."""
        w, o = self.w, self.out
        model = o / "model.hdhm"
        cli = self.cli
        commands = [lambda: cli("train", ["train", "--config", inp.config, "--features",
                                          inp.main, "--out", model, "--label-col", "last"],
                                model)]
        # The short commands repeat, so their timings have more samples.
        for op, features, codes in self.encodes(inp):
            argv = ["encode", "--model", model, "--features", features,
                    "--out", o / codes, "--label-col", "last"]
            repeats = w.encode_repeats if op == self.encode_metric_op else 1
            commands += [lambda op=op, argv=argv, codes=codes: cli(op, argv, o / codes)] * repeats
        query = ["query", "--codes", inp.index_codes, "--q", to_hex(self.cli_query),
                 "--k", TOPK_K]
        commands += [lambda: cli("query", query)] * w.query_repeats
        commands.append(lambda: cli("eval_label", [
            "eval-pr", "--codes", o / "main.hdhc", "--features", inp.main, "--mode",
            "label", "--out", o / "label.csv", "--label-col", "last"], o / "label.csv"))
        euclid_codes = o / ("heldout.hdhc" if w.heldout_rows else "main.hdhc")
        commands.append(lambda: cli("eval_euclid", [
            "eval-pr", "--codes", euclid_codes, "--features", inp.euclid, "--mode",
            "euclidean", "--gt-n", w.gt_n, "--out", o / "euclid.csv", "--label-col",
            "last"], o / "euclid.csv"))
        return commands

    def encodes(self, inp):
        """(operation, features file, codes file) of each encode in a round."""
        yield "encode", inp.main, "main.hdhc"
        if self.w.heldout_rows:
            yield "encode_heldout", inp.euclid, "heldout.hdhc"
        if self.w.encode_rows:
            yield "encode_packed", inp.encode, "packed.hdhc"

    @property
    def encode_metric_op(self):
        return "encode_packed" if self.w.encode_rows else "encode"

    # ---------------------------------------------------------------- checks

    def check(self, inp) -> tuple[set, dict]:
        """Independent checks of round 1's outputs. Returns the operations
        whose output is wrong (with every repeat of them) and some facts."""
        w, ref = self.w, self.reference
        wrong, facts = {}, {}
        model = checks.read_model(ref["train"][1])
        encodes = {"encode": inp.values, "encode_heldout": inp.euclid_values,
                   "encode_packed": inp.encode_values}
        words, recomputed = {}, {}
        for op, raw in encodes.items():
            if op not in ref:
                continue
            words[op], n_bits = checks.read_codes(ref[op][1])
            recomputed[op] = checks.recompute_codes(model, raw)
            problems = checks.check_codes(words[op], *recomputed[op])
            if n_bits != w.code_bits:
                problems.append(f"{n_bits}-bit codes, expected {w.code_bits}")
            wrong[op] = problems
        facts["near_tie_rows"] = sum(int(tie.sum()) for _, tie in recomputed.values())
        main = words["encode"]
        facts["distinct_codes"] = len(np.unique(main, axis=0))
        facts["largest_bucket_share"] = float(
            np.unique(main, axis=0, return_counts=True)[1].max() / main.shape[0])
        bit_means = checks.bit_means(main, w.code_bits)
        facts["bit_mean_avg"] = float(bit_means.mean())
        facts["constant_bits"] = int(np.sum((bit_means == 0) | (bit_means == 1)))

        ids = np.arange(self.index_words.shape[0])
        topk = []
        for qi, query in enumerate(self.query_words):
            d = checks.distances(self.index_words, query)
            topk.append(checks.expected_topk(d, ids, TOPK_K))
            wrong[f"topk:{qi}"] = checks.check_hits(self.hits[("topk", qi)], topk[qi], "topk")
            wrong[f"radius:{qi}"] = checks.check_hits(
                self.hits[("radius", qi)], checks.expected_radius(d, ids, w.radius),
                "radius")
        cli_hits = [tuple(int(part.split("=")[1]) for part in line.split())
                    for line in ref["query"][0].splitlines() if line.startswith("id=")]
        wrong["query"] = checks.check_hits(
            cli_hits, checks.expected_topk(checks.distances(
                self.index_words, self.cli_query), ids, TOPK_K), "hdhash query")

        labels = inp.labels
        label_table = checks.read_pr_csv(ref["eval_label"][1].decode())
        auc = float(ref["eval_label"][0].split("auc=")[1].split()[0])
        label_expected = checks.expected_pr(
            main, w.code_bits, lambda rows: labels[rows, None] == labels[None, :])
        wrong["eval_label"] = (checks.check_pr(label_table, auc, label_expected)
                               + checks.check_pr_properties(label_table, main.shape[0]))
        base = checks.class_base_rate(labels)
        if not auc > base:
            wrong["eval_label"].append(f"label auc {auc} not above base rate {base}")
        facts["label_auc"], facts["base_rate"] = auc, base

        e_words = words["encode_heldout" if w.heldout_rows else "encode"]
        e_table = checks.read_pr_csv(ref["eval_euclid"][1].decode())
        e_auc = float(ref["eval_euclid"][0].split("auc=")[1].split()[0])
        expected = checks.expected_pr(e_words, w.code_bits, lambda rows: checks.euclid_neighbours(
            inp.euclid_values, rows, w.gt_n))
        wrong["eval_euclid"] = (checks.check_pr(e_table, e_auc, expected)
                                + checks.check_pr_properties(e_table, e_words.shape[0]))

        facts["self_test"] = self_test(main, recomputed["encode"], topk[0],
                                       label_table, auc, label_expected)
        for op, problems in wrong.items():
            for p in problems:
                print(f"{op}: {p}", file=sys.stderr)
        return {op for op, problems in wrong.items() if problems}, facts


def self_test(codes, recomputed, topk, pr_table, auc, pr_expected) -> list[str]:
    """Plant one wrong code bit, id, distance and PR value in copies of real
    outputs; return the checkers that did not catch theirs."""
    missed = []
    expected, tie = recomputed
    planted = codes.copy()
    planted[int(np.flatnonzero(~tie)[0]), 0] ^= np.uint64(1)
    if not checks.check_codes(planted, expected, tie):
        missed.append("code bit")
    (id0, d0), rest = topk[0], topk[1:]
    if not checks.check_hits([(id0 + 1, d0)] + rest, topk, "topk"):
        missed.append("id")
    if not checks.check_hits([(id0, d0 + 1)] + rest, topk, "topk"):
        missed.append("distance")
    planted = pr_table.copy()
    planted[len(planted) // 2, 2] += 1e-6
    if not checks.check_pr(planted, auc, pr_expected):
        missed.append("PR value")
    return missed


def _sweep_percentile(sweeps, q):
    """The q-th percentile of each sweep's latencies, median over sweeps."""
    return statistics.median(float(np.percentile(s, q)) for s in sweeps)


def run(args, hd) -> dict:
    w = WORKLOADS[args.workload]
    directory = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inp = make_inputs(w, args.seed, directory / "inputs")
            setup.append(time.perf_counter() - start)
        bench = Bench(w, args.seed, directory, hd)
        bench.build_index(inp.index, w.index_bits)
        tracer = tracing.Tracer() if args.trace else None
        round_s = {False: [], True: []}
        begin = time.perf_counter()
        last = 0.0
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - begin + last <= args.seconds:
            # A traced run alternates untraced and traced rounds, so both
            # give per-round times and the difference is the tracing cost.
            traced = tracer is not None and rounds % 2 == 1
            if traced:
                tracer.round = rounds
                tracer.install(hd)
            gc.collect()
            start = time.perf_counter()
            try:
                bench.round(inp)
            finally:
                if traced:
                    tracer.uninstall()
            last = time.perf_counter() - start
            round_s[traced].append(last)
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        wrong, facts = bench.check(inp)
        failed = sum(1 for op, ok in bench.attempts if not ok or op in wrong)
        correct = failed == 0 and not facts["self_test"]
        info = {"workload": w.name, "seed": args.seed, "rounds": rounds,
                "setup_runs_s": setup, "round_s": round_s[False],
                "traced_round_s": round_s[True], **facts}

        if tracer is None:
            t = {op: statistics.median(times) for op, times in bench.times.items()}
            encode_rows = w.encode_rows or w.rows
            metrics = {
                "setup_s": statistics.median(setup),
                "train_s": t["train"],
                "encode_rows_per_s": encode_rows / t[bench.encode_metric_op],
                "query_cli_s": t["query"],
                "topk_p50_ms": _sweep_percentile(bench.sweeps["topk"], 50),
                "topk_p90_ms": _sweep_percentile(bench.sweeps["topk"], 90),
                "radius_p50_ms": _sweep_percentile(bench.sweeps["radius"], 50),
                "radius_p90_ms": _sweep_percentile(bench.sweeps["radius"], 90),
                "eval_label_s": t["eval_label"],
                "eval_euclid_s": t["eval_euclid"],
                "peak_rss_mb": peak_rss_mb,
            }
            info["sweeps"] = {kind: len(s) for kind, s in bench.sweeps.items()}
            info["times"] = bench.times
        else:
            per_round = tracer.per_round()
            metrics = tracing.median_per_round(per_round)
            metrics["quality.label_auc"] = facts["label_auc"]
            metrics["quality.distinct_codes"] = facts["distinct_codes"]
            info["trace_overhead"] = (statistics.median(round_s[True])
                                      / statistics.median(round_s[False]) - 1.0)
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"trace-{w.name}-seed{args.seed}.jsonl")
        print("info " + json.dumps(info), file=sys.stderr)
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        listed = spec["per_layer" if args.trace else "end_to_end"]
        return {"correct": correct, "attempted": len(bench.attempts), "failed": failed,
                "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                            for m in listed}}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hdhash" / "__init__.py").is_file():
        print(f"run.py: no hdhash sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    hd = {name: importlib.import_module(f"hdhash.{name}") for name in tracing.MODULES}
    result = run(args, hd)
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
