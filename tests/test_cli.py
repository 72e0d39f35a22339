import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coupled_gue
from coupled_gue import gram
from coupled_gue.cli import COMMAND_FLAGS, RunConfig, _build_parser, main
from coupled_gue.fredholm import FredholmError
from coupled_gue.onematrix import solve_one_matrix

# a value each flag accepts, for passing it where it is not read
FLAG_ARGS = {
    "--grid": ["0:1:3"], "--fd-h": ["1e-3"], "--fd-hc": ["5e-4"],
    "--tol": ["1e-6"], "--equations": ["toda00"], "--mc": [],
    "--samples": ["100"], "--seed": ["1"], "--format": ["json"],
    "--quad-m": ["48"],
}
UNREAD = [(cmd, flag) for cmd in COMMAND_FLAGS for flag in FLAG_ARGS
          if flag not in COMMAND_FLAGS[cmd]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_prob_orthant(capsys):
    code, out = run_cli(capsys, "prob", "--n", "1", "--c", "0.5", "--xi", "0", "0")
    assert code == 0
    row = json.loads(out)
    assert row["P"] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert row["ln_P"] == pytest.approx(math.log(row["P"]), rel=1e-12)
    assert {"n", "c", "xi1", "xi2", "P", "ln_P", "r11", "r22"} <= set(row)


def test_repeated_main_calls_share_no_parser_state(capsys):
    # main builds its parser once per process; a value given in one call
    # must not become the default of the next
    assert _build_parser() is _build_parser()
    _, out = run_cli(capsys, "prob", "--n", "1", "--c", "0.3", "--xi", "0", "0")
    assert json.loads(out)["c"] == 0.3
    _, out = run_cli(capsys, "prob", "--n", "1", "--xi", "0", "0")
    assert json.loads(out)["c"] == 0.5


def test_prob_trivial(capsys):
    code, out = run_cli(capsys, "prob", "--n", "3", "--c", "0.7", "--xi", "12", "12")
    assert code == 0
    assert json.loads(out)["P"] == pytest.approx(1.0, abs=1e-12)


def test_prob_one_matrix_value(capsys):
    code, out = run_cli(capsys, "prob", "--n", "2", "--c", "0.6",
                        "--xi", "0.5", "12")
    assert json.loads(out)["P"] == pytest.approx(
        solve_one_matrix(2, 0.5, 64).prob, abs=1e-8
    )


def test_prob_csv_format(capsys):
    code, out = run_cli(capsys, "prob", "--n", "1", "--c", "0.5",
                        "--xi", "0", "0", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["P"]) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_scan_grid(capsys):
    code, out = run_cli(capsys, "scan", "--n", "2", "--c", "0.5",
                        "--grid=-0.5:0.5:3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    keys = [(float(r["c"]), float(r["xi1"]), float(r["xi2"])) for r in rows]
    assert keys == sorted(keys)
    # P nondecreasing along each xi axis
    by_x1 = {}
    for r in rows:
        by_x1.setdefault(float(r["xi1"]), []).append(float(r["P"]))
    for vals in by_x1.values():
        assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))
    # exchange symmetry between mirrored rows
    table = {(float(r["xi1"]), float(r["xi2"])): float(r["P"]) for r in rows}
    for (a, b), p in table.items():
        assert p == pytest.approx(table[(b, a)], abs=1e-10)


def test_scan_has_derived_columns(capsys):
    _, out = run_cli(capsys, "scan", "--n", "2", "--c", "0.5", "--grid", "0.2:0.4:2")
    header = out.splitlines()[0].split(",")
    for col in ("X_t", "X_3", "A2", "G_t", "P_x", "Delta"):
        assert col in header


def test_verify_subset_and_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "--n", "2", "--c", "0.5",
                        "--xi", "0.0", "0.3", "--equations", "toda00,cor_x,ccom_p")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [r["equation"] for r in payload["reports"]] == ["toda00", "cor_x", "ccom_p"]
    for r in payload["reports"]:
        for key in ("equation", "center", "residual", "scale", "relative",
                    "tolerance", "passed"):
            assert key in r


def test_verify_tol_override_failure(capsys):
    code, out = run_cli(capsys, "verify", "--n", "2", "--c", "0.5",
                        "--xi", "0.0", "0.3", "--equations", "ccom_p",
                        "--tol", "1e-12")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_deterministic(capsys):
    args = ("verify", "--n", "2", "--c", "0.5", "--xi", "0.0", "0.3",
            "--equations", "toda00,thm1_pt", "--seed", "5")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_mc_rows(capsys):
    code, out = run_cli(capsys, "verify", "--n", "2", "--c", "0.5",
                        "--xi", "0.5", "0.5", "--equations", "toda00",
                        "--mc", "--samples", "20000", "--seed", "3")
    payload = json.loads(out)
    assert "mc" in payload
    row = payload["mc"][0]
    assert {"p_mc", "stderr", "p_fredholm", "within_4_stderr"} <= set(row)
    assert row["within_4_stderr"] is True
    assert code == 0


# A fresh interpreter runs the default verify and one verify --mc, lists the
# scipy modules loaded by then, and runs the default prob last.
_FRESH_CLI = """
import contextlib, io, json, sys
from coupled_gue import cli
codes = []
for argv in (["verify"], ["verify", "--mc", "--samples", "2000", "--seed", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(cli.main(["prob"]))
print(json.dumps({"codes": codes, "scipy": scipy, "prob": out.getvalue()}))
"""


def test_verify_runs_without_scipy(capsys):
    src = str(Path(coupled_gue.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _FRESH_CLI], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    child = json.loads(proc.stdout)
    assert child["codes"] == [0, 0, 0]
    assert child["scipy"] == []
    assert child["prob"] == run_cli(capsys, "prob")[1]


def test_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["prob", "--bogus"])
    assert exc.value.code != 0


@pytest.mark.parametrize("command,flag", UNREAD)
def test_unread_flag_is_a_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "1", flag, *FLAG_ARGS[flag]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unread_flags_counted():
    # 8 flags prob does not read, 7 for scan, 3 for verify (it has no node count)
    assert len(UNREAD) == 18
    assert sum(map(len, COMMAND_FLAGS.values())) == 24


def test_fd_steps_reach_the_fifth_order_ids(capsys):
    def residual(*extra):
        code, out = run_cli(capsys, "verify", "--equations", "app_T1", *extra)
        assert code == 0
        return json.loads(out)["reports"][0]["residual"]

    default = residual()
    assert default == residual("--fd-h", "5e-3", "--fd-hc", "1e-3")
    finer = residual("--fd-h", "1e-3", "--fd-hc", "5e-4")
    # 2nd-order truncation: 5x smaller steps, about 10x smaller residual
    assert abs(finer) < 0.2 * abs(default)


@pytest.mark.parametrize("argv", [
    ("--n", "20", "--c", "0.1", "--xi", "4", "4.5"),
    ("--n", "50", "--c", "0.2", "--xi", "9", "9.5"),
])
def test_verify_at_large_n_and_small_c(argv, capsys):
    # on the Nystrom route 36 and 20 of the 36 reports failed here (K_12 cancellation)
    code, out = run_cli(capsys, "verify", *argv)
    payload = json.loads(out)
    assert code == 0
    assert len(payload["reports"]) == 36
    assert all(r["passed"] is not False for r in payload["reports"])
    assert sum(r["passed"] is True for r in payload["reports"]) >= 34


@pytest.mark.parametrize("n, c, xi, code", [
    ("200", "0.5", "20", 2),
    ("143", "0.9", "17", 2),
    ("142", "0.9", "17", 0),     # the scales still fit a float
])
def test_verify_where_theorem1_scales_overflow(n, c, xi, code, capsys):
    # every observed point builds theorem 1's U and W, whatever the ids
    got = main(["verify", "--n", n, "--c", c, "--xi", xi, xi, "--equations", "toda00"])
    out, err = capsys.readouterr()
    assert got == code
    if code == 0:
        assert json.loads(out)["passed"]
    else:
        assert out == ""
        assert err == f"coupled-gue verify: error: theorem 1's U and W scales overflow " \
                      f"a float at n={n}, c={c}\n"


def test_verify_reports_carry_no_node_count(capsys):
    code, out = run_cli(capsys, "verify", "--equations", "toda00")
    assert code == 0
    assert set(json.loads(out)["reports"][0]["center"]) == {"n", "c", "xi1", "xi2"}


@pytest.mark.parametrize("argv", [
    ["--fd-h", "0"],                                # a step that is not positive
    ["--fd-h", "nan"],                              # nor one that is not finite
    ["--c", "0.5", "--fd-hc", "0.3"],              # c - 2 h_c leaves (0, 1)
    ["--c", "0.995", "--equations", "app_T1"],     # c + 2 (4 h_c) leaves (0, 1)
    ["--n", "0"],                                   # KernelParams rejects n < 1
    ["--c", "1.5", "--equations", "toda00"],       # c outside (0, 1), no c-difference
    ["--xi", "nan", "0.3"],                         # an endpoint that is not finite
    ["--equations", "nope"],                        # an unknown id
    ["--mc", "--samples", "0", "--equations", "toda00"],   # too few samples
    ["--mc", "--seed", "-1", "--equations", "toda00"],     # a seed numpy rejects
    # c = 0.999999 takes no c-difference in toda00, but a K_12 tail of 5.5e7 terms
    ["--c", "0.999999", "--equations", "toda00"],
    ["--c", "0.999999", "--equations", "toda00", "--mc", "--samples", "1000"],
], ids=["zero-step", "nan-step", "wide-c-step", "fifth-order-near-1", "n-zero", "c-above-1",
        "nan-xi", "unknown-id", "few-samples", "negative-seed", "long-tail", "long-tail-mc"])
def test_invalid_stencil_is_a_usage_error(argv, capsys, monkeypatch):
    def refused(*args):
        raise AssertionError("ray_tables ran")

    monkeypatch.setattr(gram, "ray_tables", refused)    # refused before any table is built
    code = main(["verify", *argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("coupled-gue verify: error: ")


@pytest.mark.parametrize("argv", [
    ["prob", "--n", "0"],                           # KernelParams rejects n < 1
    ["prob", "--c", "1.5"],                         # c outside (0, 1)
    ["prob", "--c", "0.5", "1.5"],                  # at any of the points
    ["prob", "--xi", "nan", "0.3"],                 # an endpoint that is not finite
    ["prob", "--quad-m", "4"],                      # fewer nodes than ray_grid takes
    ["prob", "--quad-m", "513"],                    # more than gauss_legendre takes
    ["scan", "--grid", "1:2:0"],                    # no grid point
    ["scan", "--grid", "1:2"],                      # not a:b:steps
    ["scan", "--grid", "1:2:x"],                    # steps not an integer
    ["scan", "--n", "0", "--grid", "0:1:3"],
    ["scan", "--c", "0", "--grid", "0:1:3"],
    ["scan", "--grid", "nan:1:3"],
    ["scan", "--quad-m", "4"],
], ids=["prob-n-zero", "prob-c-above-1", "prob-second-c", "prob-nan-xi", "prob-few-nodes",
        "prob-many-nodes", "scan-no-steps", "scan-two-parts", "scan-text-steps", "scan-n-zero",
        "scan-c-zero", "scan-nan-grid", "scan-few-nodes"])
def test_invalid_prob_or_scan_input_is_a_usage_error(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"coupled-gue {argv[0]}: error: ")


def test_verify_echoes_the_settings_it_reads(capsys):
    code, out = run_cli(capsys, "verify", "--equations", "toda00")
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == {"command", "n", "c", "xi", "out", "fd_h", "fd_hc", "tol",
                           "equations", "mc", "samples", "seed"}
    assert config["command"] == "verify" and config["equations"] == ["toda00"]


def test_prob_above_one_is_a_fredholm_error():
    # ln det(I - K) = +770 with cond ~ 3e50 at this K_12-cancellation point
    with pytest.raises(FredholmError, match="> 0"):
        main(["prob", "--n", "50", "--c", "0.12", "--xi", "0", "0.3"])


def test_config_roundtrip():
    cfg = RunConfig(command="verify", n=3, c=[0.2, 0.4], xi=[0.1, -0.2],
                    grid="0:1:5", quad_m=32, fd_h=1e-3, fd_hc=2e-4,
                    tol=1e-5, equations=["toda00"], mc=True, samples=5000,
                    seed=42, out=None, fmt="json")
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_output_file(tmp_path, capsys):
    path = tmp_path / "row.json"
    code, out = run_cli(capsys, "prob", "--n", "1", "--c", "0.5",
                        "--xi", "0", "0", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["P"] == pytest.approx(1 / 3, abs=1e-8)
