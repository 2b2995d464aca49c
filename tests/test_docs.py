"""The examples in the docstrings and in README run as written."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import motzkinperm

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples() -> str:
    """README's fenced ``python`` blocks, in order, as one doctest text."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    return "\n".join(blocks)


def test_module_doctests_and_readme_examples():
    modules = [motzkinperm] + [
        importlib.import_module(f"motzkinperm.{info.name}")
        for info in pkgutil.iter_modules(motzkinperm.__path__)
    ]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted >= 8  # perms and polys hold examples

    text = _readme_examples()
    parser = doctest.DocTestParser()
    test = parser.get_doctest(text, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.failed == 0
    assert result.attempted == text.count(">>> ") > 0
