"""The public library surface: README's examples and ``h2vqe.__all__`` agree."""

import re
from pathlib import Path

import h2vqe

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_are_exported():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    used = {name for block in blocks for name in re.findall(r"\bhv\.(\w+)", block)}
    assert used, "no hv.<name> in README's code blocks"
    assert used <= set(h2vqe.__all__), sorted(used - set(h2vqe.__all__))


def test_exported_names_resolve():
    assert len(set(h2vqe.__all__)) == len(h2vqe.__all__)
    assert [n for n in h2vqe.__all__ if not hasattr(h2vqe, n)] == []
