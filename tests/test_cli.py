import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sosci
from sosci import bivariate, cli
from sosci.sos import OptimizationError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.split("\r\n")
    assert lines[-1] == ""  # RFC 4180 rows end with CRLF
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:-1]]


def test_intervals_larger_of_two_exact_output(capsys):
    code, out, err = run_cli(capsys, "intervals", "--y", "2.9,2.5",
                             "--method", "larger-of-two")
    assert code == 0 and err == ""
    header, rows = csv_rows(out)
    assert header == ["index", "estimate", "lo", "hi", "method"]
    assert rows == [["1", "2.9", "0.940036", "4.85996", "larger_of_two"]]


def test_intervals_sos_default(capsys):
    code, out, _ = run_cli(capsys, "intervals", "--y", "2.9,2.5", "--k", "1")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][0] == "1" and rows[0][4] == "sos_symmetric"
    assert float(rows[0][2]) == pytest.approx(2.9 - 2.128045234, abs=1e-5)


def test_intervals_bonferroni_rows_best_first(capsys):
    code, out, _ = run_cli(capsys, "intervals", "--y", "1.0,2.0,3.0",
                           "--k", "3", "--method", "bonferroni")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[0] for r in rows] == ["3", "2", "1"]  # 1-based, best first
    assert rows[0][2] == "0.60602"  # 3 - 2.393980 at 6 significant digits
    assert rows[0][3] == "5.39398"


def test_intervals_fcr_indices(capsys):
    code, out, _ = run_cli(capsys, "intervals", "--y", "5,1,2,3", "--k", "2",
                           "--method", "fcr-selection-aware")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[0] for r in rows] == ["1", "4"]
    assert rows[0][4] == "fcr_selection_aware"


def test_intervals_abs_max_matches_the_library(capsys):
    code, out, err = run_cli(capsys, "intervals", "--y", "1.2,-0.3", "--method", "abs-max")
    assert code == 0 and err == ""
    _, rows = csv_rows(out)
    iv = bivariate.abs_max_interval([1.2, -0.3], 0.05)
    assert rows == [[str(iv.index + 1), "1.2", f"{iv.lo:.6g}", f"{iv.hi:.6g}", "abs_max"]]


def test_intervals_from_csv_file(tmp_path, capsys):
    path = tmp_path / "est.csv"
    path.write_text("y\n2.9\n\n2.5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "intervals", "--input", str(path),
                           "--method", "larger-of-two")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][1] == "2.9"


def test_intervals_input_with_byte_order_mark(tmp_path, capsys):
    # a spreadsheet's "CSV UTF-8" starts with U+FEFF, which is not part of the header
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("y\n2.9\n-2.5\n", encoding="utf-8")
    marked.write_text("\ufeffy\n2.9\n-2.5\n", encoding="utf-8")
    outs = [run_cli(capsys, "intervals", "--input", str(path), "--method", "abs-max")
            for path in (plain, marked)]
    assert outs[0][0] == 0 and outs[0] == outs[1]


def test_intervals_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "intervals", "--y", "2.9,2.5",
                           "--method", "larger-of-two", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["method"] == "larger_of_two"
    assert payload["meta"]["m"] == 2 and payload["meta"]["alpha"] == 0.05
    (row,) = payload["rows"]
    assert row["index"] == 1
    assert row["lo"] == 0.940036  # same 6-digit rendering as the CSV
    assert row["hi"] == 4.85996


def test_out_file_matches_stdout(tmp_path, capsys):
    args = ("intervals", "--y", "1.5,0.2,0.9", "--k", "2", "--method", "sidak")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    path = tmp_path / "table.csv"
    code2 = cli.main([*args, "--out", str(path)])
    assert code2 == 0
    assert path.read_bytes().decode("utf-8") == out


def test_cli_runs_are_deterministic(capsys):
    args = ("simulate", "--sigma-model", "block", "--rho", "0.5", "--m", "20",
            "--k", "2", "--eta", "0,5", "--reps", "2000", "--seed", "3",
            "--methods", "sos_symmetric")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    _, parallel, _ = run_cli(capsys, *args, "--n-jobs", "3")
    assert first == second == parallel
    header, rows = csv_rows(first)
    assert header == ["sigma_model", "rho", "eta", "method", "sos_rate",
                      "se", "reps", "seed"]
    assert [r[2] for r in rows] == ["0", "5"]
    assert all(float(r[4]) <= 0.2 for r in rows)


def test_simulate_config_file(tmp_path, capsys):
    cfg = {"m": 10, "covariance": {"kind": "ar", "rho": 0.3}, "reps": 1000,
           "seed": 7, "eta": 1.0}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path),
                           "--k", "2", "--methods", "bonferroni,sos_shortest")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[3] for r in rows] == ["bonferroni", "sos_shortest"]
    assert rows[0][0] == "ar" and rows[0][6] == "1000"
    # a fractional m is a configuration error, not a truncation
    path.write_text(json.dumps({**cfg, "m": 10.7}), encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--k", "2")
    assert code == 2 and "m must be an integer" in err
    # config-file reals must be JSON numbers: no traceback, no coercion.  Each
    # fragment is its field's own message ("theta must" holds "eta must")
    for key, value, fragment in [("eta", None, "error: eta must be a finite number"),
                                 ("eta", "2", "error: eta must be a finite number"),
                                 ("theta", 5, "theta must be a sequence of length m=10")]:
        path.write_text(json.dumps({**cfg, key: value}), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--k", "2")
        assert code == 2 and out == "" and fragment in err
    path.write_text(json.dumps({**cfg, "covariance": {"kind": "ar", "rho": None}}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--k", "2")
    assert code == 2 and "rho" in err


def test_simulate_config_refuses_inputs_it_would_not_read(tmp_path, capsys):
    # eta scales only a drawn theta, the mixed panel's t df is fixed by its
    # name, and m is the covariance's dimension: a file that sets them where
    # they are not read exits 2 naming them
    path = tmp_path / "scenario.json"
    base = {"m": 2, "covariance": {"kind": "ar"}, "reps": 100, "seed": 1}
    for extra, fragment in [({"theta": [0, 0], "eta": 25}, "must be 0 beside a given theta"),
                            ({"t_df": 5}, "unknown scenario keys: ['t_df']"),
                            ({"theta_rule": "fixed", "theta": [0, 0]},
                             "unknown scenario keys: ['theta_rule']"),
                            ({"covariance": {"kind": "ar", "dimension": 2}},
                             "unknown covariance keys: ['dimension']")]:
        path.write_text(json.dumps({**base, **extra}), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--k", "1",
                                 "--methods", "sidak")
        assert (code, out) == (2, "") and fragment in err, extra


def test_simulate_refuses_a_covariance_flag_its_kind_ignores(capsys):
    base = ("simulate", "--m", "10", "--k", "2", "--reps", "100", "--methods", "sidak")
    for flags, fragment in [(("--sigma-model", "time-decay", "--rho", "0.7"),
                             "rho is not read by kind time_decay"),
                            (("--sigma-model", "ar", "--block-size", "7"),
                             "block_size is not read by kind ar")]:
        code, out, err = run_cli(capsys, *base, *flags)
        assert (code, out) == (2, "") and fragment in err, flags


def test_simulate_config_refuses_scenario_flags(tmp_path, capsys):
    # the file is the whole scenario: a scenario flag beside it is an error, not ignored
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"m": 4, "covariance": {"kind": "ar"}, "reps": 200, "seed": 3}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--k", "2",
                             "--reps", "7")
    assert (code, out) == (2, "") and "--reps" in err
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--k", "2",
                             "--m", "50", "--eta", "3", "--panel", "half_normal_half_t5",
                             "--rho", "0.9", "--sigma-model", "block", "--block-size", "5",
                             "--seed", "2")
    assert (code, out) == (2, "")
    for flag in ("--sigma-model", "--rho", "--block-size", "--m", "--eta", "--panel",
                 "--seed"):
        assert flag in err
    # --k, --methods and the common flags still apply to the file's scenario
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--k", "2",
                           "--methods", "sidak")
    assert code == 0 and csv_rows(out)[1][0][3] == "sidak"


def test_simulate_unset_scenario_flags_take_the_defaults(capsys):
    base = ("simulate", "--m", "4", "--k", "1", "--reps", "200", "--methods", "sidak")
    _, unset, _ = run_cli(capsys, *base, "--format", "json")
    _, spelled, _ = run_cli(capsys, *base, "--format", "json", "--sigma-model", "ar",
                            "--rho", "0", "--block-size", "10", "--eta", "0",
                            "--panel", "all_normal", "--seed", "1")
    assert unset == spelled
    meta = json.loads(unset)["meta"]
    assert meta["scenarios"][0]["covariance"] == {"kind": "ar", "rho": 0.0, "block_size": 10}


def test_simulate_json_meta_records_the_inputs(tmp_path, capsys):
    # the version, the methods and the resolved scenario, but no n_jobs and
    # no paths, so a replay is byte-identical at any --n-jobs
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"m": 10, "covariance": {"kind": "block", "rho": 0.3,
                                                        "block_size": 5},
                                "reps": 5000, "seed": 7, "panel": "half_normal_half_t5"}),
                    encoding="utf-8")
    args = ("simulate", "--config", str(path), "--k", "2", "--methods", "sidak,sos_symmetric",
            "--format", "json")
    code, out, _ = run_cli(capsys, *args, "--n-jobs", "1")
    assert code == 0
    out_path = tmp_path / "table.json"
    assert cli.main([*args, "--n-jobs", "3", "--out", str(out_path)]) == 0
    assert out_path.read_bytes().decode("utf-8") == out
    meta = json.loads(out)["meta"]
    assert meta["version"] == sosci.__version__
    assert meta["methods"] == ["sidak", "sos_symmetric"]
    scenario = dataclasses.asdict(sosci.load_scenario(path))
    assert meta["scenarios"] == [json.loads(json.dumps(scenario))]
    assert "n_jobs" not in out and str(tmp_path) not in out


@pytest.mark.parametrize("argv", [
    ("intervals", "--y", "1,2"),
    ("compare", "--m", "3", "--k-range", "1"),
    ("cplus-curve", "--a-max", "0.5", "--step", "0.5"),
    ("delta-scan", "--m", "3", "--k", "1", "--grid", "1"),
    ("simulate", "--m", "2", "--k", "1", "--reps", "10", "--eta", "0,1"),
], ids=lambda argv: argv[0])
def test_json_meta_names_the_command_and_version(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert (meta["command"], meta["version"]) == (argv[0], sosci.__version__)


def test_cplus_curve_json_meta_names_the_quadrature_rule(capsys):
    # JSON meta only: the CSV has no meta, so recorded digests do not move
    code, out, _ = run_cli(capsys, "cplus-curve", "--a-max", "0.5", "--step", "0.25",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["quadrature_nodes_per_panel"] == 28 == len(bivariate._GL_X)


def test_simulate_rejects_unknown_method(capsys):
    code, _, err = run_cli(capsys, "simulate", "--m", "4", "--k", "1",
                           "--reps", "10", "--methods", "sos_symmetric,median")
    assert code == 2
    assert "error" in err


def test_compare_includes_larger_of_two_only_for_pairs(capsys):
    code, out, _ = run_cli(capsys, "compare", "--m", "2", "--k-range", "1:2")
    assert code == 0
    _, rows = csv_rows(out)
    methods_k1 = [r[1] for r in rows if r[0] == "1"]
    methods_k2 = [r[1] for r in rows if r[0] == "2"]
    assert "larger_of_two" in methods_k1
    assert "larger_of_two" not in methods_k2
    assert len(methods_k1) == 9 and len(methods_k2) == 8


def test_compare_k_range_step(capsys):
    code, out, _ = run_cli(capsys, "compare", "--m", "10", "--k-range", "1:5:2")
    assert code == 0
    _, rows = csv_rows(out)
    assert sorted({r[0] for r in rows}) == ["1", "3", "5"]


def test_cplus_curve_output(capsys):
    code, out, _ = run_cli(capsys, "cplus-curve", "--a-max", "0.5",
                           "--step", "0.25")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["a", "c_plus"]
    assert [r[0] for r in rows] == ["0", "0.25", "0.5"]
    assert rows[0][1] == "2.23648"
    values = [float(r[1]) for r in rows]
    assert values[0] >= values[1] >= values[2]


def test_delta_scan_table(capsys):
    code, out, _ = run_cli(capsys, "delta-scan", "--m", "100", "--k", "1,10",
                           "--grid", "5")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["m", "k", "delta", "length", "optimum"]
    assert len(rows) == 2 * 6  # 5 grid rows plus the starred optimum per k
    assert all(r[0] == "100" for r in rows)
    for k in ("1", "10"):
        k_rows = [r for r in rows if r[1] == k]
        stars = [r for r in k_rows if r[4] == "1"]
        assert len(stars) == 1
        best_grid = min(float(r[3]) for r in k_rows if r[4] == "0")
        assert float(stars[0][3]) <= best_grid + 1e-6


def test_delta_scan_explicit_deltas(capsys):
    code, out, _ = run_cli(capsys, "delta-scan", "--m", "10", "--k", "2",
                           "--deltas", "0.3,0.5")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[2] for r in rows[:2]] == ["0.3", "0.5"]


def test_delta_scan_takes_one_of_grid_and_deltas(capsys):
    # a grid beside explicit deltas is a usage error, not ignored, even at its
    # default size; with neither, the grid holds 19 deltas
    for grid in ("3", "19"):
        code, out, err = run_cli(capsys, "delta-scan", "--m", "10", "--k", "1",
                                 "--grid", grid, "--deltas", "0.5")
        assert (code, out) == (2, "") and "--grid" in err and "--deltas" in err
    code, out, _ = run_cli(capsys, "delta-scan", "--m", "10", "--k", "1")
    assert code == 0 and len(csv_rows(out)[1]) == 19 + 1


@pytest.mark.parametrize("argv", [
    ("intervals",),                                             # y or input
    ("intervals", "--y", "1.0,abc"),
    ("intervals", "--y", ""),
    ("intervals", "--y", "1,2", "--input", "x.csv"),
    ("intervals", "--y", "1,2", "--k", "3"),
    ("intervals", "--y", "1,2,inf"),
    ("intervals", "--y", "1,2", "--delta", "0.4"),              # needs fixed
    ("intervals", "--y", "1,2", "--delta-policy", "fixed"),     # needs delta
    ("intervals", "--y", "1,2,3", "--method", "abs-max"),       # pairs only
    ("intervals", "--y", "1,2", "--method", "abs-max", "--k", "2"),
    ("intervals", "--y", "1,2", "--method", "larger-of-two", "--k", "2"),
    ("intervals", "--input", "/nonexistent/path.csv"),
    ("compare", "--m", "5", "--k-range", "0:3"),
    ("cplus-curve", "--a-max", "inf"),
    ("cplus-curve", "--a-max", "nan"),
    ("compare", "--m", "5", "--k-range", "4:2"),
    ("compare", "--m", "5", "--k-range", "1:3:0"),
    ("compare", "--m", "5", "--k-range", "1:2:3:4"),
    ("compare", "--m", "5", "--k-range", "a:2"),
    ("compare", "--m", "5", "--k-range", "1,x"),
    ("compare", "--m", "5", "--k-range", ","),
    ("delta-scan", "--m", "10", "--k", "2", "--deltas", "0.0,0.5"),
    ("delta-scan", "--m", "10", "--k", "2", "--grid", "0"),
    ("simulate", "--sigma-model", "block", "--m", "15", "--k", "1",
     "--reps", "10"),                                           # 15 % 10 != 0
    ("simulate", "--m", "4", "--k", "1", "--reps", "10", "--eta", ""),
    ("simulate", "--m", "4", "--k", "1", "--reps", "10", "--methods", ","),
    ("simulate", "--m", "2", "--k", "2", "--reps", "10", "--methods", "abs_max"),
    ("simulate", "--m", "4", "--k", "1", "--reps", "10", "--sigma-model", "time-decay",
     "--rho", "nan"),
    ("intervals", "--y", "3,2,1", "--method", "bonferroni", "--delta", "0.3"),  # sos only
    ("intervals", "--y", "3,2,1", "--method", "sidak", "--delta-policy", "symmetric"),
    ("intervals", "--y", "1,2", "--method", "abs-max", "--delta-policy", "fixed",
     "--delta", "0.3"),
    ("simulate", "--m", "4", "--k", "1", "--reps", "10", "--n-jobs", "65"),  # thread cap
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # a usage error between two runs leaves the shared parser as it was, and
    # a scenario flag given once does not carry over to the next run
    calls = [("simulate", "--m", "4", "--k", "1", "--reps", "200", "--rho", "0.5",
              "--methods", "sidak"),
             ("delta-scan", "--m", "10", "--k", "1", "--grid", "3", "--deltas", "0.5"),
             ("simulate", "--m", "4", "--k", "1", "--reps", "200", "--methods", "sidak")]
    separate = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        separate.append(run_cli(capsys, *argv))
    built = []
    build_parser = cli.build_parser

    def spy():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_PARSER", None)
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert len(built) == 1
    assert [code for code, _, _ in shared] == [0, 2, 0]
    assert shared == separate
    assert shared[0][1] != shared[2][1]  # rho 0.5, then the default 0


# grids whose expansion would take more memory than any machine has
_OVERSIZED = [
    ("compare", "--m", "100", "--k-range", f"1:{10**15}"),
    ("compare", "--m", str(10**15), "--k-range", f"1:{10**15}"),
    ("delta-scan", "--m", "100", "--k", f"1:{10**15}"),
    ("delta-scan", "--m", "100", "--k", "1", "--grid", str(10**12)),
    ("cplus-curve", "--a-max", "1e300", "--step", "1e-300"),
    ("cplus-curve", "--a-max", "1e12", "--step", "1e-3"),
    ("simulate", "--m", "200000", "--reps", "1", "--k", "1"),         # m x m covariance
    ("simulate", "--m", "4", "--k", "2", "--reps", "10000000000000"),  # a job per block
]


def test_oversized_grids_exit_2_before_allocating():
    # each command runs in a child whose address space is capped at 1 GiB, so
    # a grid expanded before its size is checked fails at once with a
    # MemoryError instead of filling the machine's memory
    pytest.importorskip("resource")  # RLIMIT_AS is POSIX-only
    code = ("import json, resource, sys\n"
            "from sosci import cli\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "print(json.dumps([cli.main(list(argv)) for argv in json.loads(sys.argv[1])]))\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(_OVERSIZED)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [2] * len(_OVERSIZED), proc.stderr
    errors = proc.stderr.splitlines()
    assert len(errors) == len(_OVERSIZED), proc.stderr
    assert all(line.startswith("sosci: error: ") for line in errors), proc.stderr
    assert "need 1 <= start <= stop <= m=100" in errors[0]
    assert f"more than {10**6}" in errors[1]
    assert "need 1 <= start <= stop <= m=100" in errors[2]
    assert f"--grid must lie in 1..{10**6}" in errors[3]
    assert all(f"more than {10**6} knots" in line for line in errors[4:6]), proc.stderr
    assert "m must be at most 4096, got 200000" in errors[6]
    assert f"reps must be at most {4096 * 10**6}, got {10**13}" in errors[7]


# runs each argv it reads (one JSON list a line) through cli.main under a
# 1 GiB address-space cap and answers with [rc, stdout, stderr]; an escaping
# exception comes back as rc None with its traceback
_FUZZ_CHILD = """\
import contextlib, io, json, resource, sys, traceback
from sosci import cli
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(json.loads(line))
        except Exception:  # MemoryError included
            rc = None
            traceback.print_exc()
    print(json.dumps([rc, out.getvalue(), err.getvalue()]), flush=True)
"""

_EDGES = ("0", "-1", "nan", "inf", "5e-324", "1e308", "0.9999999999999999", str(2**70),
          "", "5:1", ",")
# small sizes that the drawn flags then override
_FUZZ_BASE = {
    "intervals": ("--y", "1,2,3"),
    "compare": ("--m", "5", "--k-range", "1:5"),
    "cplus-curve": ("--step", "0.5"),
    "delta-scan": ("--m", "10", "--k", "1,2", "--grid", "3"),
    "simulate": ("--m", "4", "--k", "2", "--reps", "200"),
}


def _fuzz_argvs():
    # per subcommand: its base, then up to four of its flags, each with an
    # edge value or one of the flag's own choices
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_FUZZ_BASE)
    by_command = []
    for name, parser in sub.choices.items():
        flags = [st.tuples(st.just(a.option_strings[-1]),
                           st.sampled_from(_EDGES + tuple(a.choices or ())))
                 for a in parser._actions if a.option_strings and a.dest != "help"]
        by_command.append(st.lists(st.one_of(flags), max_size=4).map(
            lambda pairs, name=name: [name, *_FUZZ_BASE[name],
                                      *(token for pair in pairs for token in pair)]))
    return st.one_of(by_command)


@pytest.fixture(scope="module")
def fuzz_child(tmp_path_factory):
    # one child serves every example; it runs in a scratch directory, since
    # --out writes a file and --input or --config may read one back
    pytest.importorskip("resource")  # RLIMIT_AS is POSIX-only
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, "-c", _FUZZ_CHILD], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=tmp_path_factory.mktemp("fuzz"))

    def run(argv):
        assert proc.poll() is None, "the child died on an earlier argv"
        proc.stdin.write(json.dumps(argv) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        assert line, f"the child died on {argv}"
        return json.loads(line)

    yield run
    proc.stdin.close()
    proc.wait(timeout=60)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_fuzz_argvs())
@example(["intervals", "--y", "1,2", "--method", "unadjusted", "--alpha", "1e-322"])
def test_fuzzed_argvs_exit_cleanly(fuzz_child, argv):
    rc, out, err = fuzz_child(argv)
    assert rc in (0, 2, 3), err
    assert "Traceback" not in err
    assert rc == 0 or out == ""


def test_unadjusted_interval_at_a_subnormal_tail_level(capsys):
    # alpha / 2 = 5e-323 is subnormal; the quantile's tail step forms no exp there
    assert run_cli(capsys, "intervals", "--y", "1,2", "--method", "unadjusted",
                   "--alpha", "1e-322") == (
        0, "index,estimate,lo,hi,method\r\n2,2,-36.4075,40.4075,unadjusted\r\n", "")


def test_delta_flags_need_method_sos(capsys):
    for flag in (("--delta", "0.3"), ("--delta-policy", "symmetric")):
        code, out, err = run_cli(capsys, "intervals", "--y", "3,2,1",
                                 "--method", "bonferroni", *flag)
        assert (code, out) == (2, "") and f"{flag[0]} applies only to --method sos" in err


def test_bad_flag_exits_2(capsys):
    assert run_cli(capsys, "intervals", "--y", "1,2", "--method", "magic")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_bad_input_header(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("value\n1.0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "intervals", "--input", str(path))
    assert code == 2 and "header" in err


@pytest.mark.parametrize("text, message", [
    ("y\n1.0,2.0\n", ":2: expected one value per row"),
    ("y\n", ": no estimates found"),
], ids=["two-values", "header-only"])
def test_bad_input_rows(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "intervals", "--input", str(path))
    assert (code, out) == (2, "") and message in err


def test_bad_input_cell(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y\n1.0\noops\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "intervals", "--input", str(path))
    assert code == 2 and ":3:" in err


def test_numerical_failure_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise OptimizationError("synthetic root-solve failure")

    monkeypatch.setattr(cli, "cplus_curve", boom)
    code, out, err = run_cli(capsys, "cplus-curve", "--a-max", "1", "--step", "0.5")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_calibration_iteration_cap_exits_3(capsys, monkeypatch):
    # a Newton solve that hits its step cap is a named numerical failure
    monkeypatch.setattr(bivariate, "_MAX_STEPS", 2)
    code, out, err = run_cli(capsys, "cplus-curve", "--alpha", "0.0437", "--a-max", "1",
                             "--step", "0.5")
    assert code == 3
    assert out == ""
    assert "did not converge" in err
    code, out, err = run_cli(capsys, "intervals", "--method", "abs-max", "--y", "1.2,0.3")
    assert code == 3
    assert "did not converge" in err


@pytest.mark.parametrize("y, k, method, alpha", [
    (",".join(str(i) for i in range(100)), 10, "fcw-symmetric", "1e-20"),
    ("1,2,3", 2, "fcw-symmetric", "1e-300"),
    ("1,2,3", 1, "fcw-shortest", "0.9999999999"),
    ("1,2,3", 2, "fcw-shortest", "1e-300"),
], ids=["m100-symmetric", "m3-symmetric", "m3-shortest-large-alpha", "m3-shortest-tiny-alpha"])
def test_unattainable_fcw_coverage_exits_3(capsys, y, k, method, alpha):
    code, out, err = run_cli(capsys, "intervals", "--y", y, "--k", str(k),
                             "--method", method, "--alpha", alpha)
    assert code == 3
    assert out == ""
    assert f"m={len(y.split(','))}, k={k}, alpha={float(alpha)!r}" in err


@pytest.mark.parametrize("method, label", [
    ("sos", "sos_symmetric"), ("unadjusted", "unadjusted"), ("bonferroni", "bonferroni"),
    ("sidak", "sidak"), ("fcr-selection-aware", "fcr_selection_aware"),
])
def test_underflowed_tail_levels_exit_3(capsys, method, label):
    # alpha / (m + k) and its kin round to 0: a named failure, not a bad p
    code, out, err = run_cli(capsys, "intervals", "--y", "1,2", "--k", "1",
                             "--method", method, "--alpha", "5e-324")
    assert (code, out) == (3, "")
    assert f"{label} tail levels underflow to 0 at m=2, k=1, alpha=5e-324" in err


@pytest.mark.parametrize("argv, where", [
    (("delta-scan", "--alpha", "5e-324", "--k", "1"), "m=100, k=1, alpha=5e-324"),
    (("intervals", "--y", "3,1,2", "--method", "sos", "--delta-policy", "fixed",
      "--delta", "1e-300"), "m=3, k=1, alpha=0.05"),
], ids=["delta-scan", "fixed-delta"])
def test_lost_delta_family_level_exits_3(capsys, argv, where):
    # the delta family's lower level rounds 1 - level to 1: a named failure
    # at the user's m, k and alpha, not a bad p the user never passed
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "delta-family lower tail level" in err and where in err


@pytest.mark.parametrize("flags, code, message", [
    (("--alpha", "5e-324"), 3, "sos_symmetric tail levels underflow to 0"),
    (("--methods", "fcw_symmetric"), 2, "fcw_symmetric is defined for normal estimates only"),
], ids=["underflow", "fcw"])
def test_mixed_panel_tail_level_failures(capsys, flags, code, message):
    # the mixed panel's shared tail levels fail as the one-family offsets do
    rc, out, err = run_cli(capsys, "simulate", "--panel", "half_normal_half_t5", "--m", "4",
                           "--k", "2", "--reps", "10", *flags)
    assert (rc, out) == (code, "")
    assert message in err


def test_cplus_curve_where_one_minus_alpha_rounds(capsys):
    code, out, _ = run_cli(capsys, "cplus-curve", "--alpha", "1e-17")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 801


def test_simulate_abs_max_at_huge_eta(capsys):
    # RuntimeWarnings are errors in this suite, so an overflow would fail here
    code, out, _ = run_cli(capsys, "simulate", "--m", "2", "--k", "1", "--methods",
                           "abs_max", "--eta", "1e300", "--reps", "200")
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[3] for r in rows] == ["abs_max"]


def test_module_runs_as_a_script(capsys):
    # python -m sosci.cli prints what main prints and exits with its code
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv in (("compare", "--m", "3", "--k-range", "1:2"), ("compare", "--m", "0")):
        proc = subprocess.run([sys.executable, "-m", "sosci.cli", *argv], env=env,
                              capture_output=True, timeout=60)
        code, out, err = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.encode("utf-8"), err.encode("utf-8"))


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "intervals", "--help")[0] == 0


_HUGE_M = str(10**399)  # 400 digits: an integer with no finite float value


@pytest.mark.parametrize("argv", [
    ("compare", "--m", _HUGE_M, "--k-range", "1"),
    ("delta-scan", "--m", _HUGE_M, "--k", "1"),
], ids=["compare", "delta-scan"])
def test_m_beyond_float_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "m must be at most" in err


def test_compare_at_m_1e300_is_a_numerical_failure(capsys):
    # a finite float m passes the check and stops in the delta search
    code, out, err = run_cli(capsys, "compare", "--m", str(10**300), "--k-range", "1")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def replay_recorded(name, capsys, monkeypatch, tmp_path):
    """(one result per op of workload `name`, the recorded results).

    bench/expected.json holds, per op at the recorded seed, the sha256 of a
    CLI op's stdout or the width of an abs-max interval; the benchmark's
    replay fails on any moved byte or on a width more than WIDTH_TOL off.
    """
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    recorded = json.loads((bench / "expected.json").read_text(encoding="utf-8"))[name]
    wl = workloads.WORKLOADS[name](recorded["seed"], tmp_path)
    results = []
    for kind, _, arg in wl.ops:
        if kind == "cli":
            code, out, err = run_cli(capsys, *arg)
            assert (code, err) == (0, ""), arg
            results.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        else:  # the benchmark child's abs-max op, on the cached curve
            alpha = workloads.ALPHA
            ci = bivariate.abs_max_interval([arg, 0.0], alpha, curve=bivariate.cplus_curve(alpha))
            results.append(ci.hi - ci.lo)
    return results, recorded["ops"]


def test_offsets_sweep_replays_recorded_bytes(capsys, monkeypatch, tmp_path):
    digests, recorded = replay_recorded("offsets_sweep", capsys, monkeypatch, tmp_path)
    assert len(digests) == 18
    assert digests == recorded


def test_coverage_grid_replays_recorded_bytes(capsys, monkeypatch, tmp_path):
    # 16 simulate ops, one 4096-rep block each: a moved count moves a digest
    digests, recorded = replay_recorded("coverage_grid", capsys, monkeypatch, tmp_path)
    assert len(digests) == 16
    assert digests == recorded


def test_absmax_calibration_replays_recorded_outputs(capsys, monkeypatch, tmp_path):
    # cplus-curve and the m=2 simulate replay byte for byte, and each of the
    # 120 abs-max widths lies within the benchmark's tolerance of its record
    results, recorded = replay_recorded("absmax_calibration", capsys, monkeypatch, tmp_path)
    width_tol = importlib.import_module("run").WIDTH_TOL
    assert len(results) == len(recorded) == 122
    digests = [(got, want) for got, want in zip(results, recorded) if isinstance(want, str)]
    widths = [(got, want) for got, want in zip(results, recorded) if not isinstance(want, str)]
    assert len(digests) == 2 and all(got == want for got, want in digests)
    assert len(widths) == 120
    assert all(abs(got - want) <= width_tol for got, want in widths)
