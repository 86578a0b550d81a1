"""The benchmark's traced run wraps hdhash functions by name.

perfbench/tracing.py lists (module, function) pairs and replaces each on its
module; the run then reads one metric per traced span. A renamed function,
or a call that no longer goes through the module, stops that run with a
KeyError, so these tests check both against a tiny end-to-end flow. They
only read perfbench/.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from hdhash.codes import HashCode
from hdhash.pipeline import TrainingConfig, config_lines

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for mod_name, fn_name, _ in tracing.LAYER_FUNCTIONS:
        assert mod_name in tracing.MODULES
        module = importlib.import_module(f"hdhash.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"hdhash.{mod_name}.{fn_name}"


def test_cli_flow_yields_every_traced_metric(tmp_path):
    tracing = load_tracing()
    hd = {name: importlib.import_module(f"hdhash.{name}") for name in tracing.MODULES}
    config = TrainingConfig(layer_dims=(4, 3), code_bits=8, epochs=2, batch_size=5,
                            seed=1, outer_iters=3, init_mode="symmetric", eps_sae=0.0,
                            eps_rbm=0.0, max_repeats_per_iter=1)
    (tmp_path / "t.cfg").write_text("\n".join(config_lines(config, prefix="")) + "\n")
    values = np.random.default_rng(0).uniform(-1, 1, (12, 4))
    (tmp_path / "f.csv").write_text("".join(
        ",".join(f"{x:.6f}" for x in row) + f",{i % 2}\n" for i, row in enumerate(values)))
    p = {name: str(tmp_path / name) for name in ("t.cfg", "f.csv", "m", "c", "pr")}
    commands = [
        ["train", "--config", p["t.cfg"], "--features", p["f.csv"], "--out", p["m"],
         "--label-col", "last"],
        ["encode", "--model", p["m"], "--features", p["f.csv"], "--out", p["c"],
         "--label-col", "last"],
        ["query", "--codes", p["c"], "--q", "00" * 8, "--k", "3"],
        ["eval-pr", "--codes", p["c"], "--features", p["f.csv"], "--mode", "label",
         "--out", p["pr"], "--label-col", "last"],
        ["eval-pr", "--codes", p["c"], "--features", p["f.csv"], "--mode", "euclidean",
         "--gt-n", "3", "--out", p["pr"], "--label-col", "last"],
    ]
    tracer = tracing.Tracer()
    tracer.install(hd)
    try:
        for argv in commands:
            assert hd["cli"].main(argv) == 0, argv
        words, n_bits = hd["search"].read_codes_file(p["c"])
        index = hd["search"].HammingIndex(words, n_bits, np.arange(words.shape[0]))
        hd["search"].radius_search(index, HashCode(n_bits, words[0]), 2)
    finally:
        tracer.uninstall()
    metrics = tracing.median_per_round(tracer.per_round())
    expected = (set(tracing.SELF_TIMES) | set(tracing.COUNTED_SPANS.values())
                | set(tracing.COUNTERS))
    assert expected - set(metrics) == set()
    assert metrics["pipeline.sae_passes"] > 3 and metrics["pipeline.rbm_passes"] > 3
