"""Layer timings of `verify`'s Gram route, per point and per batch of points.

    python3 tools/layer_times.py

`residuals.evaluate` computes the stencil points of one center as a batch,
through four layers:

- `ray_tables`: `gram.ray_tables` on the batch's endpoints;
- `m_lu`: M and ln det M (one stacked `np.linalg.slogdet`, an LU per
  point), timed as `gram.solve_batch` with `gram.ray_tables` swapped for a
  lookup of tables built beforehand;
- `endpoint_solves`: `gram.endpoint_batch`, whose one stacked
  `np.linalg.solve` per coupling value factors each point's M again for
  its 8 right-hand sides, and the contractions around it;
- `observables`: `hatted_vars`, `build_quartet`, `build_derived` and
  `theorem1_uw` on the stacked endpoint data.

Each layer runs on a batch of 1 point and on a batch of 10 points, at
n = 2, 5, 10 and 20, c = 0.5, with endpoints near the spectral edge
sqrt(2n) and two new endpoints per point.  Writes BENCH_verify_layers.json
at the repository root: the environment, and for each layer, n and batch
size the median and minimum over repeats of the time per call and per
point.

The residual stencils are timed as a whole: `evaluate` at one center near
the edge, (sqrt(2n) - 0.3, sqrt(2n) + 0.2, c = 0.5), for each n, once with
the default ids and once with the fifth-order ids; on a fresh `PointCache`
(the batch and both passes over the stencils) and on a full one (the two
passes alone).  BLAS runs on one thread.

The `setup` record is the start-up of one `coupled-gue verify` process: in
each of SETUP_PROCESSES fresh interpreters, the import of `coupled_gue.cli`
plus one default `verify`, timed from before the import.  It gives the
median and minimum seconds, whether any of them loaded scipy, and the median
peak resident set, read from VmHWM in the child's /proc/self/status (null
where the system has none).  VmHWM starts afresh at exec, whereas the
ru_maxrss of getrusage carries over the parent's peak across fork and exec.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from coupled_gue import KernelParams, gram  # noqa: E402
from coupled_gue.observables import (  # noqa: E402
    build_derived, build_quartet, hatted_vars, theorem1_uw)
from coupled_gue.residuals import HIGHER_ORDER_IDS, PointCache, evaluate  # noqa: E402

OUT = ROOT / "BENCH_verify_layers.json"
SIZES = (2, 5, 10, 20)
BATCHES = (1, 10)
C = 0.5
STEP = 5e-3          # the default endpoint step of the verify stencils
REPEATS = 7
REPEAT_SECONDS = 0.02
SETUP_PROCESSES = 7

# Run in a fresh interpreter; prints one JSON line.
SETUP_CHILD = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
from coupled_gue import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["verify"])
seconds = time.perf_counter() - t0
peak_mb = None
with contextlib.suppress(OSError), open("/proc/self/status") as fh:
    peak_mb = next((int(ln.split()[1]) / 1024.0 for ln in fh if ln.startswith("VmHWM:")), None)
print(json.dumps({"seconds": seconds, "rc": rc, "scipy": "scipy" in sys.modules,
                  "peak_mb": peak_mb}))
"""


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def points(n: int, batch: int) -> list:
    """batch points along the diagonal near the edge, each with two new endpoints."""
    edge = math.sqrt(2.0 * n)
    return [KernelParams(n, C, edge - 0.3 + k * STEP, edge + 0.2 - k * STEP) for k in range(batch)]


def timed(fn) -> dict:
    """Median and minimum over REPEATS of the seconds per call of fn."""
    number, start = 0, time.perf_counter()
    while time.perf_counter() - start < REPEAT_SECONDS / 4 or number == 0:
        fn()
        number += 1
    per_call = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - start) / number)
    return {"median": statistics.median(per_call), "min": min(per_call)}


def layers(n: int, batch: int) -> dict:
    ps = points(n, batch)
    k_max = n + gram.tail_length(C)
    xis = [xi for p in ps for xi in (p.xi1, p.xi2)]
    sols = gram.solve_batch(ps)
    e = gram.endpoint_batch(sols)
    built = dict(zip(xis, gram.ray_tables(n, xis, k_max)))
    build, gram.ray_tables = gram.ray_tables, lambda n_, todo, k: [built[xi] for xi in todo]
    try:
        m_lu = timed(lambda: gram.solve_batch(ps))
    finally:
        gram.ray_tables = build

    def observables():
        hats = hatted_vars(e)
        build_derived(e, build_quartet(e, hats), e.params)
        theorem1_uw(e, e.params, hats)

    return {
        "ray_tables": timed(lambda: gram.ray_tables(n, xis, k_max)),
        "m_lu": m_lu,
        "endpoint_solves": timed(lambda: gram.endpoint_batch(sols)),
        "observables": timed(observables),
    }


def setup() -> dict:
    """Start-up of `verify` over SETUP_PROCESSES fresh interpreters."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    runs = [json.loads(subprocess.run([sys.executable, "-c", SETUP_CHILD], capture_output=True,
                                      text=True, check=True,
                                      env={**os.environ, "PYTHONPATH": path}).stdout)
            for _ in range(SETUP_PROCESSES)]
    seconds = [r["seconds"] for r in runs]
    peaks = [r["peak_mb"] for r in runs if r["peak_mb"] is not None]
    return {"command": "verify", "processes": SETUP_PROCESSES,
            "exit_codes": sorted({r["rc"] for r in runs}),
            "median_s": round(statistics.median(seconds), 4), "min_s": round(min(seconds), 4),
            "scipy_loaded": any(r["scipy"] for r in runs),
            "peak_rss_mb": round(statistics.median(peaks), 1) if peaks else None}


def stencils(n: int) -> list:
    """evaluate at the center of points(n, 1), on a fresh and on a full cache."""
    p = points(n, 1)[0]
    center = (p.xi1, p.xi2, C)
    rows = []
    for ids_name, ids in (("default", None), ("fifth_order", HIGHER_ORDER_IDS)):
        full = PointCache(n)
        evaluate(full, center, ids=ids)
        for cache_name, fn in (("fresh", lambda: evaluate(PointCache(n), center, ids=ids)),
                               ("full", lambda: evaluate(full, center, ids=ids))):
            t = timed(fn)
            rows.append({"n": n, "ids": ids_name, "cache": cache_name,
                         "points": len(full._T),
                         "median_us": round(1e6 * t["median"], 2),
                         "min_us": round(1e6 * t["min"], 2)})
    return rows


def main() -> int:
    rows: dict = {}
    for n in SIZES:
        for batch in BATCHES:
            for layer, t in layers(n, batch).items():
                rows.setdefault(layer, []).append({
                    "n": n,
                    "batch": batch,
                    "median_us": round(1e6 * t["median"], 2),
                    "min_us": round(1e6 * t["min"], 2),
                    "median_us_per_point": round(1e6 * t["median"] / batch, 2),
                    "min_us_per_point": round(1e6 * t["min"] / batch, 2),
                })
    residual_stencils = [row for n in SIZES for row in stencils(n)]
    start = setup()
    result = {
        "script": "tools/layer_times.py",
        "environment": environment(),
        "config": {"c": C, "endpoint_step": STEP, "repeats": REPEATS, "sizes": list(SIZES),
                   "batches": list(BATCHES)},
        "setup": start,
        "layers": rows,
        "residual_stencils": residual_stencils,
    }
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    for layer, entries in rows.items():
        print(layer, " ".join(f"n={r['n']}/b={r['batch']}:{r['median_us_per_point']}us"
                              for r in entries))
    print("setup", " ".join(f"{k}={v}" for k, v in start.items()))
    print("residual_stencils", " ".join(f"n={r['n']}/{r['ids']}/{r['cache']}:{r['median_us']}us"
                                        for r in residual_stencils))
    return 0


if __name__ == "__main__":
    sys.exit(main())
