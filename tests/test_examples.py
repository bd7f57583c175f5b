"""Every example imports: an API an example still uses cannot be deleted.

Each ``examples/*.py`` is loaded as a module under its own name, so its
imports run and its ``if __name__ == "__main__"`` block (``main()``) does
not.  Running the examples end to end is ``make examples``.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
