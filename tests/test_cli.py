import json

import pytest

from sosci import cli
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


def test_intervals_from_csv_file(tmp_path, capsys):
    path = tmp_path / "est.csv"
    path.write_text("y\n2.9\n\n2.5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "intervals", "--input", str(path),
                           "--method", "larger-of-two")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][1] == "2.9"


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
    # config-file reals must be JSON numbers: no traceback, no coercion
    for key, value in [("eta", None), ("eta", "2"), ("theta", 5)]:
        path.write_text(json.dumps({**cfg, "theta_rule": "fixed", key: value}), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--k", "2")
        assert code == 2 and out == "" and key in err
    path.write_text(json.dumps({**cfg, "covariance": {"kind": "ar", "rho": None}}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--k", "2")
    assert code == 2 and "rho" in err


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
    ("delta-scan", "--m", "10", "--k", "2", "--deltas", "0.0,0.5"),
    ("delta-scan", "--m", "10", "--k", "2", "--grid", "0"),
    ("simulate", "--sigma-model", "block", "--m", "15", "--k", "1",
     "--reps", "10"),                                           # 15 % 10 != 0
    ("simulate", "--m", "4", "--k", "1", "--reps", "10", "--eta", ""),
    ("simulate", "--m", "4", "--k", "1", "--reps", "10", "--methods", ","),
    ("simulate", "--m", "2", "--k", "2", "--reps", "10", "--methods", "abs_max"),
    ("simulate", "--m", "4", "--k", "1", "--reps", "10", "--sigma-model", "time-decay",
     "--rho", "nan"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_bad_flag_exits_2(capsys):
    assert run_cli(capsys, "intervals", "--y", "1,2", "--method", "magic")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_bad_input_header(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("value\n1.0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "intervals", "--input", str(path))
    assert code == 2 and "header" in err


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


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "intervals", "--help")[0] == 0
