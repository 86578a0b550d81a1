"""Traced runs: spans around the calls into each hdhash layer.

Tracer.install replaces the public functions named in LAYER_FUNCTIONS with
timing wrappers. hdhash's call sites look these names up through a module
(`search.topk`, `rbm_ops.gibbs_chain`, or a name a module imported with
`from .codes import hamming_words`), so the wrapper is set on every hdhash
module that holds the original. Spans (name, start, end, parent, round) are
kept in memory and written out once, at the end of the run.
"""
from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np


def _ground_truth_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else None)
    return "search.ground_truth_" + ("label" if mode == "label" else "euclid")


# (module, function, span name); a callable name is derived from the args.
LAYER_FUNCTIONS = (
    ("features", "load_features", "features.load"),
    ("features", "normalize", "features.normalize"),
    ("sae", "gradients", "sae.gradients"),
    ("sae", "objective", "sae.objective"),
    ("sae", "forward", "sae.forward"),
    ("sae", "sgd_step", "sae.sgd_step"),
    ("rbm", "cd_gradients_with_stats", "rbm.cd"),
    ("rbm", "gibbs_chain", "rbm.gibbs_chain"),
    ("rbm", "penalty_gradients", "rbm.penalty"),
    ("rbm", "free_energy", "rbm.free_energy"),
    ("rbm", "reg_objective_terms", "rbm.reg_objective"),
    ("rbm", "hash_bits", "rbm.hash_bits"),
    ("pipeline", "train", "pipeline.train"),
    ("pipeline", "encode_matrix", "pipeline.encode_matrix"),
    ("pipeline", "save_model", "pipeline.save_model"),
    ("pipeline", "load_model", "pipeline.load_model"),
    ("codes", "hamming_words", "codes.hamming_words"),
    ("codes", "pack_bits", "codes.pack_bits"),
    ("search", "read_codes_file", "search.read_codes"),
    ("search", "HammingIndex", "search.index_build"),
    ("search", "topk", "search.topk"),
    ("search", "radius_search", "search.radius_search"),
    ("search", "ground_truth", _ground_truth_name),
    ("search", "pr_table", "search.pr_table"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_encode", "cli.encode"),
    ("cli", "cmd_query", "cli.query"),
    ("cli", "cmd_eval_pr", "cli.eval"),
)

MODULES = ("features", "sae", "rbm", "pipeline", "codes", "search", "cli")

# Per-layer metric -> (span name, parent span name or None): self times.
SELF_TIMES = {
    "features.load_s": ("features.load", None),
    "features.normalize_s": ("features.normalize", None),
    "sae.gradients_s": ("sae.gradients", None),
    "sae.objective_s": ("sae.objective", None),
    "sae.forward_s": ("sae.forward", None),
    "rbm.cd_s": ("rbm.cd", None),
    "rbm.gibbs_chain_s": ("rbm.gibbs_chain", None),
    "rbm.penalty_s": ("rbm.penalty", None),
    "rbm.free_energy_s": ("rbm.free_energy", None),
    "rbm.reg_objective_s": ("rbm.reg_objective", None),
    "rbm.hash_bits_s": ("rbm.hash_bits", None),
    "pipeline.train_s": ("pipeline.train", None),
    "pipeline.save_model_s": ("pipeline.save_model", None),
    "pipeline.load_model_s": ("pipeline.load_model", None),
    "pipeline.encode_matrix_s": ("pipeline.encode_matrix", None),
    "codes.pack_bits_s": ("codes.pack_bits", None),
    "search.read_codes_s": ("search.read_codes", None),
    "search.index_build_s": ("search.index_build", None),
    "search.topk_scan_s": ("codes.hamming_words", "search.topk"),
    "search.topk_rank_s": ("search.topk", None),
    "search.radius_scan_s": ("codes.hamming_words", "search.radius_search"),
    "search.radius_rank_s": ("search.radius_search", None),
    "search.ground_truth_label_s": ("search.ground_truth_label", None),
    "search.ground_truth_euclid_s": ("search.ground_truth_euclid", None),
    "search.pr_table_s": ("search.pr_table", None),
    "cli.train_self_s": ("cli.train", None),
    "cli.encode_self_s": ("cli.encode", None),
    "cli.query_self_s": ("cli.query", None),
    "cli.eval_self_s": ("cli.eval", None),
}
COUNTED_SPANS = {
    "sae.gradients": "sae.gradients_calls",
    "sae.objective": "sae.objective_calls",
    "rbm.gibbs_chain": "rbm.gibbs_chain_calls",
    "search.pr_table": "search.pr_table_calls",
    "codes.hamming_words": "codes.hamming_calls",
}
# Counters the wrappers add to, named as the metrics they become.
COUNTERS = ("pipeline.sae_passes", "pipeline.rbm_passes", "pipeline.model_bytes",
            "codes.words_compared", "search.radius_hits")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.round = 0
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self._patched: list = []

    def _count(self, name, amount):
        self.counters[self.round][name] += int(amount)

    def _after(self, fn_name, result, args):
        if fn_name == "train":
            history = result[1]
            self._count("pipeline.sae_passes", sum(1 + r.sae_repeats for r in history))
            self._count("pipeline.rbm_passes", sum(1 + r.rbm_repeats for r in history))
        elif fn_name == "save_model":
            self._count("pipeline.model_bytes", os.path.getsize(args[1]))
        elif fn_name == "hamming_words":
            self._count("codes.words_compared", np.broadcast(*args[:2]).size)
        elif fn_name == "radius_search":
            self._count("search.radius_hits", len(result))

    def wrap(self, fn, fn_name, name):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (span_name, start, end, parent, self.round)
            self._after(fn_name, result, args)
            return result
        return traced

    def install(self, package: dict) -> None:
        """package maps module names of MODULES to the imported modules."""
        for mod_name, fn_name, name in LAYER_FUNCTIONS:
            original = getattr(package[mod_name], fn_name)
            traced = self.wrap(original, fn_name, name)
            for holder in MODULES:
                module = package[holder]
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, traced)
                    self._patched.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def per_round(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of each traced round, from span self times."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_span = defaultdict(list)
        for metric, (span, under) in SELF_TIMES.items():
            by_span[span].append((metric, under))
        rounds: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            out = rounds[rnd]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            for metric, under in by_span[name]:
                if under in (None, parent_name):
                    out[metric] += end - start - child[i]
            if name in COUNTED_SPANS:
                out[COUNTED_SPANS[name]] += 1
        for rnd, out in rounds.items():
            for metric in COUNTERS:
                out[metric] = self.counters[rnd][metric]
        return rounds

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "round": rnd}) + "\n")


def median_per_round(rounds: dict) -> dict[str, float]:
    names = sorted({m for out in rounds.values() for m in out})
    return {m: statistics.median(out.get(m, 0.0) for out in rounds.values())
            for m in names}
