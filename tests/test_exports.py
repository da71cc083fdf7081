import ast
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


def _fresh_scipy_modules(code):
    # the scipy modules loaded once `code` has run in a fresh interpreter
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_import_loads_no_heavy_scipy_module():
    # the normal quantile is in-package, so an import loads no scipy at all
    assert _fresh_scipy_modules("import sys, sosci, sosci.cli") == []


# every command whose intervals need only the normal quantile, the offset
# methods each through `intervals`; their stdout is discarded
_NORMAL_ONLY_RUN = """\
import contextlib, io, sys
from sosci import cli
argvs = [["compare", "--m", "10", "--k-range", "1:10"],
         ["delta-scan", "--m", "10", "--k", "1,5", "--grid", "5"],
         ["intervals", "--y", "3,1", "--method", "larger-of-two"]]
argvs += [["intervals", "--y", "3,1,2", "--k", "2", "--method", method]
          for method in (*cli._OFFSET_METHODS, "sos")]
with contextlib.redirect_stdout(io.StringIO()):
    assert [cli.main(argv) for argv in argvs] == [0] * len(argvs)
"""


def test_normal_only_commands_load_no_scipy_and_the_rest_load_special():
    assert _fresh_scipy_modules(_NORMAL_ONLY_RUN) == []
    abs_max = ("import contextlib, io, sys\nfrom sosci import cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert cli.main(['cplus-curve', '--a-max', '1', '--step', '0.5']) == 0")
    t_family = "import sys, sosci\nsosci.student_t_family(5).quantile(0.9)"
    for code in (abs_max, t_family):
        assert "scipy.special" in _fresh_scipy_modules(code)


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
