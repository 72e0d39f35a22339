"""Golden residual reports: every equation, higher-order ones included, at two centers.

These values pin refactors of `residuals`, not accuracy: the other residual
tests check only pass/fail.  They were recorded with `repr` (stored as JSON,
which round-trips floats exactly) from `evaluate(..., include_higher=True)`
with the default stencil at two well-conditioned centers.  They were
re-recorded when `PointCache` moved from the m = 64 Nystrom solve to the
closed-form Gram route: only `avm`, whose c-difference sits inside two
endpoint differences and so amplifies rounding by about 1/(h_c h_xi^2), moved
by more than 1e-9 * scale (4.2e-9 and 3.5e-9); every other residual moved by
at most 1.1e-10 * scale, and no status changed.  One entry was re-recorded
when the Gram route moved from scipy's LU to numpy.linalg: `avm` at
(n=5, c=0.6791, xi=(3.1364, 1.4037)), by 1.89e-9 (1.17e-9 * scale).
np.linalg.slogdet sums the pivot logs in sequence, where the old route's
numpy sum was pairwise, which can reorder it from 2n = 8 pivots up; the old LU
with its pivot logs summed in sequence gives the new reports bit for bit.
Every other entry moved by at most 3.8e-11 * scale, and no status changed.

The status must match exactly, and residual and scale within 1e-9 * scale.
That bound is far above the noise of reordering the nested finite
differences (about 1e-11 relative) and far below what a change of formula
moves.  A change meant to move residuals re-records this file and says why;
exact coupling derivatives in place of the c-differences are such a change.
"""

import json
from pathlib import Path

import pytest

from coupled_gue.residuals import PointCache, evaluate

GOLDEN = json.loads((Path(__file__).parent / "golden_residuals.json").read_text())


def _center_id(g):
    return f"n{g['n']}-c{g['c']}-xi{g['xi'][0]}_{g['xi'][1]}"


@pytest.mark.parametrize("g", GOLDEN, ids=_center_id)
def test_golden_residuals(g):
    reports = evaluate(PointCache(g["n"]), (g["xi"][0], g["xi"][1], g["c"]),
                       include_higher=True)
    assert [r.equation for r in reports] == [w["equation"] for w in g["reports"]]
    for rep, want in zip(reports, g["reports"]):
        assert rep.status == want["status"], rep.equation
        bound = 1e-9 * want["scale"]
        assert abs(rep.residual - want["residual"]) <= bound, rep.equation
        assert abs(rep.scale - want["scale"]) <= bound, rep.equation
