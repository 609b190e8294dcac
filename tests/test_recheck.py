"""An independent re-check of `build` reports, from their bytes alone.

Nothing here imports hermitia: the reports come from golden files or from
the CLI run as a separate process.  From each report's `field` dict (p, m
and the modulus, low to high) the checker does its own polynomial
arithmetic over GF(p) and re-decides the two verdicts a report states:

- nonplanar: the 4x4 frame F is invertible, by Gaussian elimination;
- on_surface: on the Fermat surface, sum over r of x_r^(q+1), the form
  pulled back along x = F (s^d, s^(d-i) t^i, s^(d-j) t^j, t^d) is
  sum over (l, m) of B[l][m] s^(..) t^(e_l + q e_m) with B = t(F) F^(q)
  and e = (0, i, j, d), so it vanishes exactly when, for every exponent k,
  the B[l][m] with e_l + q e_m = k sum to zero.

Every report checked here is of a --fermat build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


class PolyField:
    """GF(p^m) as coefficient tuples over GF(p), low to high, reduced
    modulo the monic modulus of the report's field dict."""

    def __init__(self, doc):
        self.p, self.m = doc["p"], doc["m"]
        self.modulus = doc["modulus"]
        assert len(self.modulus) == self.m + 1 and self.modulus[-1] == 1
        self.zero = (0,) * self.m
        self.one = (1,) + (0,) * (self.m - 1)

    def element(self, coeffs):
        assert len(coeffs) == self.m
        return tuple(c % self.p for c in coeffs)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):   # x^m = -(modulus - x^m)
            c = prod[k] % p
            if c:
                for t, f in enumerate(self.modulus):
                    prod[k - m + t] -= c * f
        return tuple(c % p for c in prod[:m])

    def pow(self, a, e):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a):
        assert a != self.zero
        return self.pow(a, self.p ** self.m - 2)


def _frame(curve):
    doc = curve["frame"]
    f = PolyField(doc["field"])
    rows, cols = doc["rows"], doc["cols"]
    assert rows == cols == 4 and len(doc["entries"]) == 16
    flat = [f.element(c) for c in doc["entries"]]
    return f, [flat[4 * r:4 * r + 4] for r in range(4)]


def _invertible(f, F) -> bool:
    A = [row[:] for row in F]
    for col in range(4):
        pivot = next((r for r in range(col, 4) if A[r][col] != f.zero), None)
        if pivot is None:
            return False
        A[col], A[pivot] = A[pivot], A[col]
        scale = f.inv(A[col][col])
        for r in range(col + 1, 4):
            factor = f.neg(f.mul(A[r][col], scale))
            A[r] = [f.add(x, f.mul(factor, y)) for x, y in zip(A[r], A[col])]
    return True


def _on_fermat_surface(f, F, q, exponents) -> bool:
    Fq = [[f.pow(x, q) for x in row] for row in F]
    groups = {}
    for l in range(4):
        for m in range(4):
            b = f.zero
            for r in range(4):
                b = f.add(b, f.mul(F[r][l], Fq[r][m]))
            k = exponents[l] + q * exponents[m]
            groups[k] = f.add(groups.get(k, f.zero), b)
    return all(v == f.zero for v in groups.values())


def recheck(report):
    """(on_surface, nonplanar) of a --fermat build report, recomputed."""
    curve = report["curve"]
    q = curve["q"]
    d, i, j = curve["sig"]
    f, F = _frame(curve)
    return (_on_fermat_surface(f, F, q, (0, i, j, d)), _invertible(f, F))


GOLDEN_BUILDS = sorted(p.name for p in GOLDEN.glob("build_*.json"))


def test_every_golden_build_is_found():
    assert GOLDEN_BUILDS == ["build_c1_q3_fermat.json", "build_c2_q2_fermat.json",
                             "build_c2_q4_fermat.json", "build_c3_q3_fermat.json"]


@pytest.mark.parametrize("name", GOLDEN_BUILDS)
def test_golden_build_rechecks(name):
    report = json.loads((GOLDEN / name).read_text())
    assert recheck(report) == (True, True)
    assert (report["on_surface"], report["nonplanar"]) == (True, True)


def _run_build(q, case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hermitia.cli", "build", "--q", str(q),
         "--case", case, "--fermat"], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("case,q", [("c2", 8), ("c3", 5), ("c3", 7),
                                    ("c2", 16), ("c3", 11)])
def test_cli_build_rechecks(case, q):
    """The builds pinned by stdout digest (c2 q = 8, c3 q = 5 and 7), and
    c2 q = 16 and c3 q = 11, whose three-cycle field GF(q^6) the closed
    form reaches where a scan over it could not run."""
    proc = _run_build(q, case)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["curve"]["q"] == q
    assert recheck(report) == (True, True)
    assert (report["on_surface"], report["nonplanar"]) == (True, True)


def test_a_flipped_frame_coefficient_fails_the_recheck():
    """Changing the constant coefficient of any one frame entry of the
    c2 q = 4 build by one takes the curve off the surface."""
    report = json.loads((GOLDEN / "build_c2_q4_fermat.json").read_text())
    entries = report["curve"]["frame"]["entries"]
    p = report["curve"]["frame"]["field"]["p"]
    for k in range(16):
        flipped = json.loads(json.dumps(report))
        coeffs = flipped["curve"]["frame"]["entries"][k]
        coeffs[0] = (coeffs[0] + 1) % p
        assert coeffs != entries[k]
        assert recheck(flipped)[0] is False, k
