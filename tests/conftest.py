import pytest

from coupled_gue import KernelParams, solve, endpoint_data
from coupled_gue.observables import build_quartet, build_derived


class SolveBank:
    """Session-wide memo of solves and endpoint data keyed by parameters."""

    def __init__(self):
        self._sols = {}
        self._ends = {}
        self._ders = {}

    def sol(self, n, c, xi1, xi2, m=64):
        key = (n, c, xi1, xi2, m)
        if key not in self._sols:
            self._sols[key] = solve(KernelParams(n, c, xi1, xi2), m)
        return self._sols[key]

    def end(self, n, c, xi1, xi2, m=64):
        key = (n, c, xi1, xi2, m)
        if key not in self._ends:
            self._ends[key] = endpoint_data(self.sol(n, c, xi1, xi2, m))
        return self._ends[key]

    def derived(self, n, c, xi1, xi2, m=64):
        key = (n, c, xi1, xi2, m)
        if key not in self._ders:
            e = self.end(n, c, xi1, xi2, m)
            self._ders[key] = build_derived(e, build_quartet(e))
        return self._ders[key]


@pytest.fixture(scope="session")
def bank():
    return SolveBank()


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)
