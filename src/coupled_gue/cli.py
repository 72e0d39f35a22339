"""Command-line interface: probabilities, scans, and the verification suite.

    coupled-gue prob   --n 2 --c 0.5 --xi 0.0 0.3
    coupled-gue scan   --n 2 --c 0.5 --grid "-1:1:3"
    coupled-gue verify --n 2 --c 0.5 --xi 0.0 0.3 [--equations toda00,cor_x]

Reports are JSON, scans CSV by default; every emitted number carries its
parameter row.  `verify` exits 0 iff every non-skipped check passes, so it
can gate CI.  An input a command cannot take is a usage error, exit 2,
with one line on stderr.  `prob` and `scan` check theirs before computing:
parameters KernelParams rejects at any point, a --grid that is not 'a:b:steps'
with steps >= 1, and a --quad-m outside [8, 512].  `verify` checks a stencil
step that is not positive and finite, parameters KernelParams rejects, an
unknown equation id, too few --samples or a negative --seed before anything
is evaluated; then a c-difference that leaves (0, 1) at a center, and a
coupling whose K_12 tail is longer than gram.MAX_TAIL, and an (n, c) where
theorem 1's U and W scales overflow a float.  A FredholmError is not caught.

Each command accepts only the flags it reads (COMMAND_FLAGS); any other flag
is a usage error (exit 2).  Every default lives in RunConfig, and `verify`
echoes the command and the settings it reads.  `prob` and `scan` solve the
Nystrom system with --quad-m nodes per ray, and load scipy for its LU;
`verify` takes the closed-form Gram route (`gram`), which has no node count
and runs on numpy alone, so importing this module and running `verify`
(with --mc too) loads no scipy.  The FD steps --fd-h and --fd-hc apply as
given to the default equations; the fifth-order ids take 2nd-order stencils
at 4x both steps.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, asdict, field

from .kernel import KernelParams
from . import gram
from .fredholm import solve, endpoint_data
from .observables import build_quartet, build_derived, SCALAR_FIELDS
from .residuals import (DEFAULT_STENCIL, EQUATION_IDS, HIGHER_ORDER_IDS, PointCache, Stencil,
                        StencilError, evaluate)
from .montecarlo import MIN_SAMPLES, estimate_joint
from .quadrature import DEFAULT_M

__all__ = ["RunConfig", "main", "cmd_prob", "cmd_scan", "cmd_verify"]


@dataclass
class RunConfig:
    command: str
    n: int = 2
    c: list = field(default_factory=lambda: [0.5])
    xi: list = field(default_factory=lambda: [0.0, 0.3])
    grid: str | None = None
    quad_m: int = DEFAULT_M
    fd_h: float = DEFAULT_STENCIL.h_xi
    fd_hc: float = DEFAULT_STENCIL.h_c
    tol: float | None = None
    equations: list | None = None
    mc: bool = False
    samples: int = 200_000
    seed: int = 12345
    out: str | None = None
    fmt: str = "json"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(**d)


def _parse_grid(text: str) -> list[float]:
    """'a:b:steps' -> inclusive linspace; a bare number -> [number]."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"grid must be 'a:b:steps', got {text!r}")
    a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError("grid must contain at least one point")
    if steps == 1:
        return [a]
    return [a + (b - a) * k / (steps - 1) for k in range(steps)]


def _usage_error(cfg: RunConfig, exc: Exception) -> int:
    print(f"coupled-gue {cfg.command}: error: {exc}", file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _checked_points(cfg: RunConfig) -> list[KernelParams]:
    """The points prob or scan computes, in output order, once every input
    they read checks out; a failed check raises ValueError."""
    if not 8 <= cfg.quad_m <= 512:      # the node counts quadrature.ray_grid takes
        raise ValueError(f"--quad-m must be in [8, 512], got {cfg.quad_m}")
    scan = cfg.command == "scan"
    if scan and cfg.grid:
        xi1s = xi2s = _parse_grid(cfg.grid)
    else:
        xi1s, xi2s = [cfg.xi[0]], [cfg.xi[1]]
    points = [(c, x1, x2) for c in cfg.c for x1 in xi1s for x2 in xi2s]
    if scan:
        points.sort()
    return [KernelParams(cfg.n, c, x1, x2) for c, x1, x2 in points]


def cmd_prob(cfg: RunConfig) -> int:
    try:
        ps = _checked_points(cfg)
    except ValueError as exc:
        return _usage_error(cfg, exc)
    rows = []
    for p in ps:
        sol = solve(p, cfg.quad_m)
        e = endpoint_data(sol)
        rows.append({
            "n": p.n, "c": p.c, "xi1": p.xi1, "xi2": p.xi2,
            "P": sol.prob, "ln_P": sol.log_prob,
            "r11": float(e.r[0, 0]), "r22": float(e.r[1, 1]),
        })
    if cfg.fmt == "csv":
        _emit(_rows_to_csv(rows), cfg.out)
    else:
        _emit(json.dumps(rows if len(rows) > 1 else rows[0],
                         sort_keys=True, indent=2) + "\n", cfg.out)
    return 0


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for r in rows:
        writer.writerow({k: (_fmt_float(v) if isinstance(v, float) else v)
                         for k, v in r.items()})
    return buf.getvalue()


def cmd_scan(cfg: RunConfig) -> int:
    try:
        ps = _checked_points(cfg)
    except ValueError as exc:
        return _usage_error(cfg, exc)
    rows = []
    for p in ps:
        sol = solve(p, cfg.quad_m)
        e = endpoint_data(sol)
        der = build_derived(e, build_quartet(e), p)
        row = {"n": p.n, "c": p.c, "xi1": p.xi1, "xi2": p.xi2,
               "P": sol.prob, "ln_P": sol.log_prob}
        for name in SCALAR_FIELDS:
            row[name] = float(getattr(der, name))
        rows.append(row)
    if cfg.fmt == "json":
        _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", cfg.out)
    else:
        _emit(_rows_to_csv(rows), cfg.out)
    return 0


def _checked_stencil(cfg: RunConfig) -> Stencil:
    """The stencil of cfg, once every input that verify reads checks out;
    a failed check raises ValueError."""
    stencil = Stencil(h_xi=cfg.fd_h, h_c=cfg.fd_hc)
    for c in cfg.c:
        KernelParams(cfg.n, c, cfg.xi[0], cfg.xi[1])
    unknown = [i for i in cfg.equations or () if i not in EQUATION_IDS + HIGHER_ORDER_IDS]
    if unknown:
        raise ValueError(f"unknown equation ids: {unknown}")
    if cfg.mc and cfg.samples < MIN_SAMPLES:
        raise ValueError(f"--samples must be >= {MIN_SAMPLES}, got {cfg.samples}")
    if cfg.mc and cfg.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {cfg.seed}")
    return stencil


def cmd_verify(cfg: RunConfig) -> int:
    try:
        stencil = _checked_stencil(cfg)
    except ValueError as exc:       # StencilError is one
        return _usage_error(cfg, exc)
    reports = []
    try:
        for c in cfg.c:
            cache = PointCache(cfg.n)
            center = (cfg.xi[0], cfg.xi[1], c)
            reports.extend(evaluate(cache, center, stencil, ids=cfg.equations or None))
    # a c-difference leaves (0, 1); c too near 1; theorem 1's U/W scales overflow
    except (StencilError, gram.TailError, OverflowError) as exc:
        return _usage_error(cfg, exc)
    for rep in reports:
        if cfg.tol is not None and rep.status == "ok":
            rep.tolerance = cfg.tol
            rep.passed = rep.relative <= cfg.tol
    payload = {
        "config": _echo(cfg),
        "reports": [r.to_dict() for r in reports],
    }
    if cfg.mc:
        mc_rows = []
        for c in cfg.c:
            est = estimate_joint(cfg.n, c, cfg.xi[0], cfg.xi[1],
                                 cfg.samples, cfg.seed)
            p_num = gram.solve(KernelParams(cfg.n, c, cfg.xi[0], cfg.xi[1])).prob
            mc_rows.append({
                "n": cfg.n, "c": c, "xi1": cfg.xi[0], "xi2": cfg.xi[1],
                "p_mc": est.p_hat, "stderr": est.stderr,
                "n_samples": est.n_samples, "seed": est.seed,
                "p_fredholm": p_num,
                "within_4_stderr": bool(abs(est.p_hat - p_num) <= 4 * est.stderr),
            })
        payload["mc"] = mc_rows
    ok = all(r.passed is not False for r in reports)
    if cfg.mc:
        ok = ok and all(row["within_4_stderr"] for row in payload["mc"])
    payload["passed"] = ok
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", cfg.out)
    return 0 if ok else 1


# flag -> add_argument keywords; no defaults here, they live in RunConfig
_FLAGS = {
    "--n": dict(type=int),
    "--c": dict(type=float, nargs="+"),
    "--xi": dict(type=float, nargs=2, metavar=("XI1", "XI2")),
    "--grid": dict(type=str, help="xi grid 'a:b:steps'"),
    "--quad-m": dict(type=int),
    "--fd-h": dict(type=float),
    "--fd-hc": dict(type=float),
    "--tol": dict(type=float),
    "--equations": dict(type=lambda s: s.split(",") if s else None,
                        help="comma-separated equation ids"),
    "--mc": dict(action="store_true"),
    "--samples": dict(type=int),
    "--seed": dict(type=int),
    "--out": dict(type=str),
    "--format": dict(dest="fmt", choices=("json", "csv")),
}
_PROB_FLAGS = ("--n", "--c", "--xi", "--quad-m", "--out", "--format")
COMMAND_FLAGS = {
    "prob": _PROB_FLAGS,
    "scan": _PROB_FLAGS + ("--grid",),
    "verify": ("--n", "--c", "--xi", "--out", "--fd-h", "--fd-hc", "--tol",
               "--equations", "--mc", "--samples", "--seed"),
}


def _echo(cfg: RunConfig) -> dict:
    """The command and the RunConfig fields of the flags it reads."""
    dests = (_FLAGS[f].get("dest", f[2:].replace("-", "_")) for f in COMMAND_FLAGS[cfg.command])
    return {"command": cfg.command, **{d: getattr(cfg, d) for d in dests}}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="coupled-gue",
        description="Joint largest-eigenvalue probabilities for coupled GUE "
                    "and verification of their PDE systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        # a flag not given stays out of the namespace, so RunConfig supplies it
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    sub.choices["scan"].set_defaults(fmt="csv")
    return ap


def main(argv: list[str] | None = None) -> int:
    cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
    run = {"prob": cmd_prob, "scan": cmd_scan, "verify": cmd_verify}[cfg.command]
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
