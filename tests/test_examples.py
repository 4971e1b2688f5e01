"""Every walkthrough under ``examples/`` imports cleanly.

The examples are the README's runnable walkthroughs, the scale ones
included. Each runs its acts only under ``__main__``, so importing one
executes just its imports and module-level setup: this catches an
example that imports a name the library no longer has.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"examples.{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
