"""Seeded request streams for the benchmark's workloads, and their output checks.

Each workload turns a seed into an endless, reproducible stream of requests.
A request is one op: the argv of one `coupled-gue` invocation. Matrix sizes
come in shuffled rounds that hold every size once, so any stretch of the
stream has a near-even size mix and medians do not jump with the seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

from reference import OracleError

__all__ = ["LNP_TOL", "DEFECT_ERRORS", "Request", "Check", "WORKLOADS", "requests"]

# Absolute tolerance on every emitted ln P against the independent reference.
LNP_TOL = 1e-8

# Exceptions with which the program reports that it has no answer at a point (the
# determinant came out singular or with a non-positive sign); they mark a defect.
DEFECT_ERRORS = ("FredholmError",)

PROB_N = (1, 2, 5, 10, 20, 50)
SCAN_N = (5, 10, 20)
VERIFY_N = (2, 5, 10)
SCAN_C_COUNT = 3
SCAN_G = 3


@dataclass(frozen=True)
class Request:
    n: int
    c: tuple          # coupling values, one for prob and verify, SCAN_C_COUNT for scan
    xi: tuple         # (xi1, xi2) for prob and verify, the scan grid values for scan
    argv: tuple

    @property
    def points(self) -> int:
        """Probabilities (prob, scan) or centers (verify) this op produces."""
        if self.argv[0] == "scan":
            return len(self.c) * len(self.xi) ** 2
        return 1


@dataclass
class Check:
    """Outcome of checking one op's output."""

    failed: bool          # the op did not complete: an unexpected exception, or
                          # prob/scan exited non-zero
    well_formed: bool     # output parsed and matched the request
    defect: bool = False  # the program answered wrongly or reported that it could not:
                          # an ln P missed the reference, a DEFECT_ERRORS exception,
                          # or verify reported a failing residual (exit 1)
    verified: bool = True  # every ln P was compared with a converged reference
    max_err: float = 0.0  # largest |ln P - reference| over the op's points
    max_gap: float = 0.0  # largest reference m-convergence gap used
    detail: str = ""


def _fixed(x: float) -> float:
    """x rounded to what its fixed-point argument string carries."""
    return float(_arg(x))


def _arg(x: float) -> str:
    """Fixed-point text: argparse takes '-2e-05' for an option, '-0.000020000000' it does not."""
    return f"{x:.12f}"


def _rounds(rng: random.Random, sizes):
    while True:
        order = list(sizes)
        rng.shuffle(order)
        yield from order


def _edge_xi(rng: random.Random, n: int) -> float:
    """sqrt(2n) + U[-2, 3]: from inside the bulk edge to the deep tail."""
    return _fixed(math.sqrt(2.0 * n) + rng.uniform(-2.0, 3.0))


def _prob_stream(rng):
    for n in _rounds(rng, PROB_N):
        c = _fixed(rng.uniform(0.1, 0.95))
        xi = (_edge_xi(rng, n), _edge_xi(rng, n))
        yield Request(n, (c,), xi, ("prob", "--n", str(n), "--c", _arg(c),
                                    "--xi", _arg(xi[0]), _arg(xi[1])))


def _grid(lo: float, hi: float, steps: int) -> tuple:
    """The values `coupled-gue scan --grid lo:hi:steps` evaluates."""
    return tuple(lo + (hi - lo) * k / (steps - 1) for k in range(steps))


def _scan_grid(rng):
    for n in _rounds(rng, SCAN_N):
        cs = tuple(sorted(_fixed(rng.uniform(0.1, 0.95)) for _ in range(SCAN_C_COUNT)))
        mid = math.sqrt(2.0 * n) + rng.uniform(-0.5, 0.5)
        lo, hi = _fixed(mid - 2.0), _fixed(mid + 2.0)
        yield Request(n, cs, _grid(lo, hi, SCAN_G),
                      ("scan", "--n", str(n), "--c", *map(_arg, cs),
                       f"--grid={_arg(lo)}:{_arg(hi)}:{SCAN_G}"))


def _verify_center(rng):
    for n in _rounds(rng, VERIFY_N):
        c = _fixed(rng.uniform(0.3, 0.7))
        xi = (_edge_xi(rng, n), _edge_xi(rng, n))
        yield Request(n, (c,), xi, ("verify", "--n", str(n), "--c", _arg(c),
                                    "--xi", _arg(xi[0]), _arg(xi[1])))


WORKLOADS = {
    "prob-stream": _prob_stream,
    "scan-grid": _scan_grid,
    "verify-center": _verify_center,
}


def requests(workload: str, seed: int, stream: str = "timed"):
    """Endless request stream; equal (workload, seed, stream) give equal streams."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{stream}"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _expected_points(req: Request) -> list[tuple]:
    if req.argv[0] == "scan":
        return sorted((c, x1, x2) for c in req.c for x1 in req.xi for x2 in req.xi)
    return [(req.c[0], req.xi[0], req.xi[1])]


def _rows(req: Request, text: str) -> list[dict]:
    if req.argv[0] == "scan":
        return list(csv.DictReader(io.StringIO(text)))
    return [json.loads(text)]


def check(req: Request, rc, text: str, reference) -> Check:
    """Check one op's output; rc is None when the op raised, text is then 'Type: message'."""
    if rc is None:
        defect = text.split(":", 1)[0] in DEFECT_ERRORS
        return Check(failed=not defect, well_formed=True, defect=defect, detail=text)
    if req.argv[0] == "verify":
        try:
            payload = json.loads(text)
            ok = payload["passed"] is (rc == 0) and len(payload["reports"]) > 0
        except (ValueError, KeyError, TypeError):
            ok = False
        return Check(failed=rc not in (0, 1), well_formed=ok, defect=rc == 1)
    try:
        rows = _rows(req, text)
        got = [(float(r["c"]), float(r["xi1"]), float(r["xi2"]), float(r["ln_P"]), int(r["n"]))
               for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return Check(failed=rc != 0, well_formed=False, detail=f"unparsable output: {exc}")
    want = _expected_points(req)
    if rc != 0 or len(got) != len(want) or any(
        n != req.n or not all(map(_close, (c, x1, x2), w))
        for (c, x1, x2, _, n), w in zip(got, want)
    ):
        return Check(failed=rc != 0, well_formed=False, detail="rows do not match the request")
    max_err = max_gap = 0.0
    try:
        for c, x1, x2, lnp, _ in got:
            ref = reference.log_prob(req.n, c, x1, x2)
            max_err = max(max_err, abs(lnp - ref.log_prob))
            max_gap = max(max_gap, ref.gap)
    except OracleError as exc:
        return Check(failed=False, well_formed=True, verified=False, detail=str(exc))
    finally:
        reference.clear()
    return Check(failed=False, well_formed=True, defect=not max_err <= LNP_TOL,
                 max_err=max_err, max_gap=max_gap)
