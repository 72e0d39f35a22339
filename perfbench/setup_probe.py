"""Set-up probe: one fresh interpreter imports `coupled_gue` and runs one op.

    python3 perfbench/setup_probe.py '<argv of the op as a JSON list>'

Prints one JSON line: setup_s (import plus the op, timed from before the
package import, scaled to the reference machine speed of speed.py),
raw_setup_s (as measured) and peak_rss_mb (the process's peak resident set,
taken before the yardstick runs).
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

YARDSTICK_UNITS = 40

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from coupled_gue import cli  # noqa: E402

argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a failing op still ends set-up; the timed run counts it
        rc = f"{type(exc).__name__}: {exc}"
setup_s = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

import speed  # noqa: E402  (after the timed part: it needs numpy and scipy)

parts = zip(*(speed.unit() for _ in range(YARDSTICK_UNITS)))
print(json.dumps({"setup_s": setup_s * speed.scale(*parts), "raw_setup_s": setup_s,
                  "peak_rss_mb": peak_kb / 1024.0, "rc": rc}))
