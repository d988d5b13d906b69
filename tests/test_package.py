"""The package surface: the lazy export table and the README's Python example."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import numpy as np

import hieval

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    for name in hieval.__all__:
        if name in hieval._EXPORTS:
            module = importlib.import_module(f"hieval.{hieval._EXPORTS[name]}")
            assert getattr(hieval, name) is getattr(module, name), name
        else:  # submodules listed for ``from hieval import *``
            importlib.import_module(f"hieval.{name}")


def test_readme_python_example_runs_and_flips_rose_to_bus():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    leaves = namespace["t"].leaf_names()
    assert leaves[int(np.argmax(namespace["fine"].values[0]))] == "rose"
    combined = namespace["combined"].values[0]
    np.testing.assert_allclose(combined, [0.16, 0.04, 0.56, 0.24], rtol=0, atol=1e-12)
    assert leaves[int(np.argmax(combined))] == "bus"
    lines = out.getvalue().splitlines()
    assert lines[1] == "[2]"  # CRM on the combined row also says bus
    assert lines[2] == "1.0 {1: 0.0}"
