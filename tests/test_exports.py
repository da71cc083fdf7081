import ast
import importlib
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path, PurePath

import numpy as np
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


def _fresh_output(code):
    # the last line `code` prints in a fresh interpreter, read as a literal
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _fresh_modules(code, roots=("scipy",)):
    # the modules under any of `roots` loaded once `code` has run in a fresh
    # interpreter
    return _fresh_output(
        code + f"\nprint(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))")


# standard library that only some runs read: the thread pool (with the
# logging it imports) at n_jobs > 1, json for JSON output and config files,
# and statistics (with fractions and decimal), whose AS241 comes from
# _statistics instead
_ON_USE_STDLIB = ("concurrent", "json", "statistics", "logging", "fractions", "decimal")


def test_import_loads_no_heavy_scipy_module():
    # the normal quantile is in-package, so an import loads no scipy at all,
    # and none of the standard library that a default run does not read
    assert _fresh_modules("import sys, sosci, sosci.cli") == []
    assert _fresh_modules("import sys, sosci, sosci.cli", _ON_USE_STDLIB) == []


def test_normal_quantile_without_the_c_statistics_module():
    # where _statistics is missing, dist falls back to statistics' AS241,
    # which matches the C routine to within 4 ulp after the tail step
    probes = [1e-300, 1e-10, 0.025, 0.5, 1.0 - 2.0 ** -53]
    code = ("import sys\nsys.modules['_statistics'] = None\n"
            "import sosci.dist as d\n"
            "assert hasattr(d._as241, '__code__')\n"  # the pure-Python routine
            f"print([d.std_normal_quantile(p) for p in {probes!r}])")
    for p, x in zip(probes, _fresh_output(code)):
        accelerated = sosci.std_normal_quantile(p)
        assert abs(x - accelerated) <= 4 * math.ulp(accelerated), (p, x, accelerated)


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
    assert _fresh_modules(_NORMAL_ONLY_RUN) == []
    abs_max = ("import contextlib, io, sys\nfrom sosci import cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert cli.main(['cplus-curve', '--a-max', '1', '--step', '0.5']) == 0")
    t_family = "import sys, sosci\nsosci.student_t_family(5).quantile(0.9)"
    for code in (abs_max, t_family):
        assert "scipy.special" in _fresh_modules(code)


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


# -- the two-outcome contract over the whole public API ---------------------

_SCENARIO = sosci.Scenario(4, sosci.CovarianceModel("ar", 0.3), 100, 1, 0.5)
_CONFIG = {"m": 4, "covariance": {"kind": "ar", "rho": 0.3}, "reps": 100, "seed": 1}
# values no entry point should take where a real, an integer, a label, an
# array or a path is due: bools, strs, None, non-finite and huge numbers,
# numpy scalars, lists, 2-d and non-finite arrays, complex, exact rationals
# and decimals, bytes and a path
_HOSTILE = [
    True, "1", None, math.nan, math.inf, -math.inf, -0.0, 1e308, 10**400,
    np.float32(0.5), [1.0], np.ones((2, 2)), np.array([math.nan, 1.0]),
    np.array([math.inf, 1.0]), 1j, np.int64(3), Fraction(1, 3), Decimal("0.5"), b"1",
    PurePath("no-such-file"),
]


def _valid_calls(config_path):
    # one valid call of each callable in sosci.__all__: name -> (args, kwargs);
    # the Monte-Carlo calls stay at 100 reps and the curves at step 0.5
    normal = sosci.NORMAL
    return {
        "ShiftFamily": (("custom", sosci.std_normal_quantile), {}),
        "CovarianceModel": (("block", 0.3, 2), {}),
        "NotPositiveDefiniteError": (("not positive definite",), {}),
        "student_t_family": ((5,), {}),
        "std_normal_cdf": ((0.3,), {}),
        "std_normal_quantile": ((0.3,), {}),
        "student_t_quantile": ((0.3, 5), {}),
        "cholesky": ((np.eye(2),), {}),
        "sample_mvn": ((np.zeros(2), np.eye(2), 3, 1), {}),
        "seeded_rng": ((1, 2), {}),
        "select_top_k": (([3.0, 1.0, 2.0], 2), {}),
        "select_abs_max": (([3.0, -4.0],), {}),
        "ConfidenceInterval": ((0, -1.0, 1.0, "x"), {}),
        "OptimizationError": (("no root",), {}),
        "interval_length": ((10, 2, 0.05, 0.5, normal), {}),
        "optimize_delta": ((10, 2, 0.05, normal), {}),
        "CPlusCurve": ((0.05, 1.0, 0.5), {}),
        "larger_of_two_interval": (([1.0, 2.0], 0.05, normal), {}),
        "b_region_probability": (((1.0, 0.5), 2.0), {}),
        "c_plus": ((1.0, 0.05), {}),
        "cplus_curve": ((0.05, 1.0, 0.5), {}),
        "abs_max_interval": (([1.0, 0.3], 0.05, sosci.cplus_curve(0.05, 1.0, 0.5)), {}),
        "MethodLabel": (("sidak",), {}),
        "sidak_halfwidth": ((10, 0.05, normal), {}),
        "fcw_constants": ((10, 2, 0.05, "symmetric"), {}),
        "method_tail_levels": (("sidak", 10, 2, 0.05, normal), {}),
        "method_offsets": (("sidak", 10, 2, 0.05, normal), {}),
        "k_of_m_intervals": (([1.0, 2.0, 3.0], 2, 0.05, "fixed"),
                             {"delta": 0.5, "family": normal}),
        "Scenario": ((4, sosci.CovarianceModel("ar", 0.3), 100, 1, 0.5, None, "all_normal"), {}),
        "CoverageReport": (("sidak", 1, 0.05, 100, 1, 0, 0, 0, 0), {}),
        "build_covariance": ((_SCENARIO,), {}),
        "resolve_theta": ((_SCENARIO,), {}),
        "run_coverage": ((_SCENARIO, 1, "sidak", 0.05, 1), {}),
        "scenario_from_dict": ((_CONFIG,), {}),
        "load_scenario": ((config_path,), {}),
    }


# what a constructed value is for: a hostile argument the constructor takes
# must not fail later, where the value is used
_USES = {
    "ShiftFamily": lambda family: sosci.interval_length(10, 2, 0.05, 0.5, family),
    "student_t_family": lambda family: sosci.interval_length(10, 2, 0.05, 0.5, family),
    "CovarianceModel": lambda model: sosci.build_covariance(sosci.Scenario(4, model, 100, 1)),
    "seeded_rng": lambda rng: rng.standard_normal(2),
    "CPlusCurve": lambda curve: sosci.abs_max_interval([1.0, 0.3], curve.alpha, curve),
    "cplus_curve": lambda curve: sosci.abs_max_interval([1.0, 0.3], curve.alpha, curve),
    "ConfidenceInterval": lambda ci: (ci.length, ci.contains(0.0)),
    "Scenario": lambda scenario: sosci.run_coverage(scenario, 1, "sidak"),
    "scenario_from_dict": lambda scenario: sosci.run_coverage(scenario, 1, "sidak"),
    "load_scenario": lambda scenario: sosci.run_coverage(scenario, 1, "sidak"),
}


def test_every_export_has_two_outcomes_for_hostile_arguments(tmp_path, monkeypatch):
    # the library's contract for bad input: a ValueError, or a named
    # numerical error, never a stray exception.  One valid call per
    # callable, then each argument in turn swapped for each hostile value;
    # a value a constructor returns is then put to its use (_USES).
    # load_scenario reads a file, so a str or path naming none is the OSError
    # of `open` (the CLI reports it as exit 2 too); the run starts in an
    # empty directory so that "1" names no file
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(_CONFIG), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    calls = _valid_calls(config_path)
    callables = [name for name in sosci.__all__ if callable(getattr(sosci, name))]
    assert sorted(calls) == sorted(callables)
    allowed = (ValueError, sosci.OptimizationError, sosci.NotPositiveDefiniteError)
    escaped = []
    for name, (args, kwargs) in calls.items():
        function = getattr(sosci, name)
        use = _USES.get(name, lambda value: None)
        use(function(*args, **kwargs))  # the valid call must succeed
        swaps = [(i, None) for i in range(len(args))] + [(None, key) for key in kwargs]
        for (i, key), value in itertools.product(swaps, _HOSTILE):
            bad_args = args if i is None else args[:i] + (value,) + args[i + 1:]
            bad_kwargs = kwargs if key is None else {**kwargs, key: value}
            try:
                use(function(*bad_args, **bad_kwargs))
            except allowed:
                pass
            except OSError:
                if name != "load_scenario" or not isinstance(value, (str, os.PathLike)):
                    escaped.append(f"{name} arg {i if key is None else key} = {value!r}: OSError")
            except Exception as exc:  # anything else breaks the contract
                escaped.append(f"{name} arg {i if key is None else key} = {value!r}: "
                               f"{type(exc).__name__}: {exc}")
    assert escaped == [], "\n".join(escaped)
    for fd in (0, 1, 2):
        os.fstat(fd)  # no call closed a standard stream
