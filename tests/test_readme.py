"""The README's examples work as printed."""
import re
from pathlib import Path

from hdhash.pipeline import parse_config_text

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def block_after(heading, lang=""):
    """The first fenced block of the given language below a heading."""
    section = README[README.index(heading):]
    match = re.search(rf"^```{lang}\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert match, f"no ```{lang} block under {heading!r}"
    return match.group(1)


def test_config_example_parses():
    config = parse_config_text(block_after("### Config file"), where="README")
    assert config.layer_dims == (32, 16, 8)
    assert config.code_bits == 8


def test_library_example_runs(capsys):
    exec(compile(block_after("## Library", "python"), "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
