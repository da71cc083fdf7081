import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sosci

_MODULES = ["sosci"] + [f"sosci.{info.name}" for info in pkgutil.iter_modules(sosci.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from sosci import *", namespace)
    assert set(sosci.__all__) <= set(namespace)


def test_bench_tracer_wraps_names_that_exist():
    # bench/tracer.py wraps sosci's layer boundaries by attribute name, so a
    # moved function must keep every wrapped name resolving; the subprocess
    # keeps the wrappers out of this test session
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    proc = subprocess.run([sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_heavy_scipy_module():
    # sosci uses scipy.special alone; a fresh interpreter shows what an import pulls in
    code = ("import sys, sosci, sosci.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.integrate') "
            "if m in sys.modules))")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_public_api_lists_every_export():
    # README's "Public API" section is one bullet per module: `module`: `name`, ...
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for module, names in re.findall(r"^- `(\w+)`:(.*(?:\n  .*)*)", section, flags=re.M):
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = module
    assert sorted(set(sosci.__all__) - set(listed)) == []
    assert sorted(set(listed) - set(sosci.__all__)) == []
    for name, module in listed.items():
        owner = sosci if module == "sosci" else importlib.import_module(f"sosci.{module}")
        assert name in vars(owner), (name, module)
