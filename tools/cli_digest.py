"""Byte-identity check of the command-line interface.

    python3 tools/cli_digest.py SRC_DIR [--each] [--only prob,scan]

Runs a fixed list of `coupled-gue` commands in-process against the
`coupled_gue` package found in SRC_DIR and prints the number of commands
and one sha256 over (argv, exit code, stdout or raised exception) of each.
Two source trees that give the same digest gave the same bytes on every
command.  `--each` also prints one short hash per command, so two runs can
be diffed to find the commands that differ.  `--only` keeps the commands of
the named subcommands, so a change meant to move one command's output can
show the others unchanged.

The digest depends on the BLAS build (summation order inside LAPACK), so
compare two trees on the same machine; BLAS runs on one thread here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Fixed here rather than read from the package, so that every source tree
# runs the same commands.
CENTERS = (("2", "0.5", "0", "0.3"),
           ("5", "0.6791", "3.1364", "1.4037"),
           ("10", "0.4", "5", "5.5"))
ALL_IDS = ",".join((
    "toda00", "cor_x", "thm1_00", "thm1_pt", "thm1_mt", "thm1_ps", "thm1_ms",
    "avm", "f4t", "cor_Ax", "cor_pm1", "cor_pm2", "cor_pm3", "cor_a",
    "ccom_p", "ccom_m", "fin_Axx", "fin_Ap2", "fin_Am2", "fin_aa", "fin_Px",
    "fin_Pp", "fin_Pa", "app_S", "app_Tt3", "app_pTt", "app_mT3", "app_DDA",
    "app_pGt", "app_mG3", "app_pB", "app_mB", "app_Bp", "app_Ap", "app_Am",
    "app_Ca", "app_T1", "app_T2", "app_AG0", "app_tAG0",
))


def commands() -> list[list[str]]:
    cmds = []
    for n in (1, 2, 5, 10, 20, 50):
        s = math.sqrt(2 * n)
        for c in ("0.03", "0.12", "0.5", "0.93"):
            for xi in ((0.0, 0.3), (s - 0.4, s + 0.7)):
                cmds.append(["prob", "--n", str(n), "--c", c,
                             "--xi", repr(xi[0]), repr(xi[1])])
    cmds.append(["prob", "--n", "2", "--c", "0.3", "0.7", "--xi", "0", "0.3",
                 "--format", "csv"])
    cmds.append(["scan", "--n", "5", "--c", "0.03", "0.5", "--grid", "1:4:4"])
    cmds.append(["scan", "--n", "10", "--c", "0.3", "0.93", "--grid", "2:6:3",
                 "--format", "json"])
    cmds.append(["scan", "--n", "2", "--c", "0.5", "--xi", "0.1", "0.2",
                 "--quad-m", "48"])
    # shaped like the benchmark's scan-grid requests: three couplings on a
    # 3 x 3 grid about the spectral edge sqrt(2n), in both formats
    for n in (5, 10, 20):
        s = math.sqrt(2 * n)
        grid = f"--grid={s - 1.7:.12f}:{s + 2.1:.12f}:3"
        for fmt in ("csv", "json"):
            cmds.append(["scan", "--n", str(n), "--c", "0.137", "0.52", "0.94", grid,
                         "--format", fmt])
    for n, c, x1, x2 in CENTERS:
        base = ["verify", "--n", n, "--c", c, "--xi", x1, x2]
        cmds.append(base)
        cmds.append(base + ["--equations", ALL_IDS])
    cmds.append(["verify", "--n", "2", "--c", "0.5", "--xi", "0", "0.3",
                 "--fd-h", "1e-2", "--fd-hc", "2e-3", "--tol", "1e-6"])
    cmds.append(["verify", "--n", "2", "--c", "0.5", "--xi", "0.5", "0.5",
                 "--equations", "toda00", "--mc", "--samples", "20000",
                 "--seed", "3"])
    # n >= 10 at small c, where the Nystrom K_12 cancels
    cmds.append(["verify", "--n", "20", "--c", "0.1", "--xi", "4", "4.5"])
    cmds.append(["verify", "--n", "50", "--c", "0.2", "--xi", "9", "9.5"])
    # the last n whose theorem 1 U and W scales fit a float, and the first that overflows
    for n in ("196", "197"):
        cmds.append(["verify", "--n", n, "--c", "0.9", "--xi", "20", "20", "--equations", "toda00"])
    return cmds


def run(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return {"argv": argv, "exit": code, "stdout": buf.getvalue()}
    except SystemExit as exc:
        return {"argv": argv, "exit": exc.code, "stdout": buf.getvalue()}
    except Exception as exc:  # recorded as the command's outcome
        return {"argv": argv, "exception": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    ap = argparse.ArgumentParser(description="sha256 over the output of fixed CLI commands")
    ap.add_argument("src", help="directory holding the coupled_gue package")
    ap.add_argument("--each", action="store_true", help="also print one hash per command")
    ap.add_argument("--only", type=lambda s: s.split(","),
                    help="comma-separated subcommands to keep, e.g. prob,scan")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from coupled_gue import cli

    cmds = [argv for argv in commands() if args.only is None or argv[0] in args.only]
    total = hashlib.sha256()
    for argv in cmds:
        blob = json.dumps(run(cli, argv), sort_keys=True).encode()
        total.update(blob)
        if args.each:
            print(hashlib.sha256(blob).hexdigest()[:16], " ".join(argv))
    print(len(cmds), total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
