"""Every script under ``examples/`` still loads against the package.

Each example guards ``main()`` behind ``__name__ == "__main__"``, so running
it under another name executes only its imports and definitions.  A public
name an example uses that is renamed or deleted fails here.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES, "no scripts under examples/"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads(path):
    namespace = runpy.run_path(str(path), run_name="__check__")
    assert callable(namespace.get("main"))
