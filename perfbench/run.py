"""Benchmark of coupled-gue through its own entry point, `coupled_gue.cli.main`.

    python3 perfbench/run.py --workload prob-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                     # every workload

One closed-loop client in one process sends each request only after the
previous one returned; requests come from a seeded stream (workloads.py) and
every op runs `cli.main` in-process with its output captured.

--trace 0 reports the end-to-end metrics: set-up time and peak memory from
fresh interpreters (setup_probe.py), then, after a warm-up, op latency and
throughput over --seconds. --trace 1 runs each request twice, untraced and
under the span tracer (tracer.py), and reports the per-layer metrics and the
tracing overhead (median paired difference); the traced outputs must equal
the untraced ones byte for byte. Every emitted ln P is checked against the
independent reference (reference.py) to workloads.LNP_TOL.

`failed` in the result line counts ops that did not complete. Ops that hit a
known program defect (an ln P off the reference, a FredholmError, a `verify`
center with a failing residual) are counted apart, printed as defect_ratio and
reported in the traced run as check.defect_ratio.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, which never exceeds nproc and keeps the closed loop steady on
# a shared machine; it must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from reference import Reference  # noqa: E402
from speed import SpeedLog  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import LNP_TOL, WORKLOADS, check, requests  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROCESSES = 5
WARMUP_S = 1.0
PROBE_TIMEOUT_S = 120
# A p90 needs at least ten samples beyond it.
P90_MIN_OPS = 100


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_op(cli, argv) -> tuple:
    """One op: (exit code or None if it raised, captured output, seconds, end time)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        text = buf.getvalue()
    except SystemExit as exc:  # argparse refused the arguments
        rc, text = exc.code, buf.getvalue()
    except Exception as exc:  # the op failed; it is counted, the run goes on
        rc, text = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return rc, text, t1 - t0, t1


def closed_loop(cli, stream, seconds: float, speed=None) -> list:
    """Run requests back to back until `seconds` have passed.

    With a SpeedLog, the yardstick runs after each op, outside its time."""
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        req = next(stream)
        samples.append((req, *run_op(cli, req.argv)))
        if speed is not None:
            speed.measure_after(samples[-1][3])
    return samples


def paired_traced(cli, stream, seconds: float, tracer) -> tuple[list, list]:
    """Run each request untraced and traced, alternating which goes first."""
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        req = next(stream)
        for under_trace in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if under_trace:
                with tracer, tracer.op():
                    traced.append((req, *run_op(cli, req.argv)))
            else:
                plain.append((req, *run_op(cli, req.argv)))
    return plain, traced


def probe_setup(argv) -> list[dict]:
    """Set-up time and peak RSS of fresh interpreters running the first op."""
    out = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(list(argv))],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _ms(values, q: float) -> float:
    if len(values) == 1:
        return 1e3 * values[0]
    if q == 0.5:
        return 1e3 * statistics.median(values)
    return 1e3 * statistics.quantiles(values, n=10, method="inclusive")[int(q * 10) - 1]


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit or None,
    }


def check_all(samples) -> list:
    reference = Reference()
    return [check(req, rc, text, reference) for req, rc, text, *_ in samples]


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    metrics, notes = {}, []
    if not trace:
        probes = probe_setup(next(requests(workload, seed)).argv)
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in probes)
        notes.append(f"set-up: median of {len(probes)} fresh interpreters, "
                     f"first-op exit codes {[p['rc'] for p in probes]}")
    closed_loop(cli, requests(workload, seed, "warmup"), WARMUP_S)
    identical = True
    if trace:
        tracer = Tracer()
        samples, traced = paired_traced(cli, requests(workload, seed), seconds, tracer)
        identical = all(a[1:3] == b[1:3] for a, b in zip(samples, traced))
        metrics.update(tracer.summary())
        metrics["trace.overhead_ms"] = 1e3 * statistics.median(
            b[3] - a[3] for a, b in zip(samples, traced))
        metrics["trace.ops"] = len(traced)
        notes.append(f"traced outputs identical to untraced: {identical}")
    else:
        log = SpeedLog()
        samples = closed_loop(cli, requests(workload, seed), seconds, log)
        raw = [s[3] for s in samples]
        times = [s[3] * log.scale(s[4]) for s in samples]
        metrics["op_ms.p50"] = _ms(times, 0.5)
        metrics["points_per_s"] = sum(s[0].points for s in samples) / sum(times)
        if len(times) >= P90_MIN_OPS:
            notes.append(f"op_ms.p90 {_ms(times, 0.9):.6g} ms ({len(times)} ops; "
                         f"as measured {_ms(raw, 0.9):.6g} ms)")
        else:
            notes.append(f"op_ms.p90 not reported: {len(times)} ops < {P90_MIN_OPS}")
        notes.append(f"as measured, before scaling to the reference speed: op_ms.p50 "
                     f"{_ms(raw, 0.5):.6g} ms, set-up "
                     f"{statistics.median(p['raw_setup_s'] for p in probes):.6g} s")
    checks = check_all(samples)
    failed = sum(c.failed for c in checks)
    defects = sum(c.defect for c in checks)
    if trace:
        metrics["check.defect_ratio"] = defects / len(samples)
    correct = identical and bool(samples) and all(c.well_formed and c.verified for c in checks)
    problems = [(s[0].argv, c.detail) for s, c in zip(samples, checks)
                if not (c.well_formed and c.verified)]
    return {
        "workload": workload, "seed": seed, "ops": len(samples), "failed": failed,
        "defects": defects,
        "correct": correct, "metrics": metrics, "notes": notes, "problems": problems,
        "max_err": max((c.max_err for c in checks), default=0.0),
        "max_gap": max((c.max_gap for c in checks), default=0.0),
        "records": [
            {"argv": list(s[0].argv), "rc": s[1], "op_ms": 1e3 * s[3], "failed": c.failed,
             "defect": c.defect, "max_err": c.max_err, "max_gap": c.max_gap, "detail": c.detail}
            for s, c in zip(samples, checks)
        ],
        "spans": tracer.spans if trace else None,
    }


def report(res: dict, trace: bool, units: dict) -> None:
    ops = res["ops"]
    print(f"workload {res['workload']}  seed {res['seed']}  ops {ops}  "
          f"{'traced' if trace else 'timed'}")
    for name, value in res["metrics"].items():
        unit = units[name]
        samples = "" if name in ("setup_s", "peak_rss_mb") else f"  ({ops} ops)"
        print(f"  {name:34s} {value:.6g} {unit}{samples}")
    print(f"  {'failed_ratio':34s} {res['failed'] / max(ops, 1):.6g}  ({res['failed']} of {ops} "
          f"did not complete)")
    print(f"  {'defect_ratio':34s} {res['defects'] / max(ops, 1):.6g}  ({res['defects']} of {ops} "
          f"with an ln P off the reference, a FredholmError or a failing verify residual)")
    print(f"  correctness: |ln P - reference| <= {LNP_TOL:g}; largest miss {res['max_err']:.3g}, "
          f"largest reference m-gap {res['max_gap']:.3g}; outputs well-formed and "
          f"checked: {res['correct']}")
    for note in res["notes"]:
        print(f"  {note}")
    for argv, detail in res["problems"][:5]:
        print(f"  unchecked op {' '.join(argv)}: {detail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="prob-stream, scan-grid, verify-center or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="also write every op record (and spans, when traced) as JSON here")
    args = ap.parse_args(argv)
    if not (SRC / "coupled_gue" / "cli.py").is_file():
        print(f"error: no coupled_gue sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from coupled_gue import cli

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        ap.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    trace = bool(args.trace)
    units = metric_units(trace)
    env = environment()
    results = [run_workload(cli, name, args.seed, args.seconds, trace) for name in names]
    for res in results:
        if set(res["metrics"]) != set(units):
            raise RuntimeError(f"metrics {sorted(res['metrics'])} differ from BENCHMARK.json")
        report(res, trace, units)
    print("environment " + json.dumps(env, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": env, "args": vars(args), "results": results}, fh)

    prefix = len(results) > 1  # --workload all: one line, names prefixed "<workload>:"
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["ops"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}:" if prefix else "") + name:
                    {"value": v, "unit": units[name]}
                    for r in results for name, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
