"""The README's "Public API" list against the names ``cliffproxy`` imports.

Each bullet of that section names a module and the names the package takes
from it; both sides must list the same names, and each name must be in its
module's ``__all__``.  A last test pins numpy as the only third-party
module the package loads.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import cliffproxy

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_api() -> dict[str, set[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    api: dict[str, set[str]] = {}
    module = None
    for line in section.splitlines():
        bullet = re.match(r"- `(\w+)`:(.*)", line)
        if bullet:
            module, rest = bullet.groups()
        elif module is not None and line.startswith("  "):
            rest = line
        else:
            module = None
            continue
        api.setdefault(module, set()).update(re.findall(r"`(\w+)`", rest))
    return api


def _package_api() -> dict[str, set[str]]:
    tree = ast.parse(Path(cliffproxy.__file__).read_text(encoding="utf-8"))
    return {
        node.module: {alias.name for alias in node.names}
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_readme_lists_the_package_imports():
    readme = _readme_api()
    assert readme, "README has no Public API list"
    assert readme == _package_api()


def test_public_names_are_in_module_all():
    for module, names in _package_api().items():
        exported = set(importlib.import_module(f"cliffproxy.{module}").__all__)
        assert names <= exported, (module, sorted(names - exported))


_LOADED = """
import json, sys, sysconfig
site = {sysconfig.get_path(k) for k in ("purelib", "platlib")}

def third_party():
    out = set()
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None) or ""
        if "." not in name and any(path.startswith(s) for s in site):
            out.add(name)
    return out

before = third_party()
import cliffproxy, cliffproxy.cli, cliffproxy.scenarios, cliffproxy.figures
print(json.dumps(sorted(third_party() - before)))
"""


def test_numpy_is_the_only_runtime_dependency():
    # a subprocess, so the test runner's own imports do not count; modules
    # that .pth hooks preload are in the "before" set
    src = str(Path(cliffproxy.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _LOADED], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == ["numpy"]
