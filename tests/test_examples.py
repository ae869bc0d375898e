"""Every example script imports cleanly and defines ``main``.

Importing an example runs its imports but not its study (each keeps the work
behind a ``__main__`` guard), so an example that still uses a removed or
renamed name fails here instead of going stale.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
