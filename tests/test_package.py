"""The package surface: the lazy export table and the README's examples."""

import ast
import contextlib
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import hieval

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_every_exported_name_is_used_in_the_package():
    # An export that no module of the package reads is API only tests use.
    used = set()
    for path in (ROOT / "src" / "hieval").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(hieval._EXPORTS) - used) == []


def test_readme_quick_start_commands_run(tmp_path):
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```bash\n(.*?)```", section, flags=re.S)
    commands = [shlex.split(line) for line in "".join(blocks).replace("\\\n", " ").splitlines()
                if line.strip()]
    assert [argv[:2] for argv in commands] == [
        ["hieval", "synth"], ["hieval", "validate"], ["hieval", "compare"],
        ["hieval", "infer"], ["hieval", "eval"],
    ]
    # The commands run in tmp_path, so the package is put on the path absolutely.
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "hieval"] + argv[1:], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)
