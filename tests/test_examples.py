"""Every example script imports against the current package.

Each module under ``examples/`` keeps its work behind a ``__main__``
guard, so importing it runs nothing but its imports and definitions: an
example that names a deleted or renamed API fails here.  CI's
``examples-smoke`` job runs all of them end to end.
"""

import importlib.util
import os

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "examples")

NAMES = sorted(name[:-3] for name in os.listdir(EXAMPLES)
               if name.endswith(".py"))


def test_six_examples_found():
    assert NAMES == ["coherence_microscope", "design_space", "io_node_dma",
                     "multichip_numa", "oltp_scaling", "quickstart"]


@pytest.mark.parametrize("name", NAMES)
def test_example_imports(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", os.path.join(EXAMPLES, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
