"""An independent re-check of `build` and `count` reports, from their
bytes alone.

Nothing here imports hermitia: the reports come from golden files or from
the CLI run as a separate process.  From each build report's `field` dict
(p, m and the modulus, low to high) the checker does its own polynomial
arithmetic over GF(p) and re-decides the two verdicts a report states:

- nonplanar: the 4x4 frame F is invertible, by Gaussian elimination;
- on_surface: on the Fermat surface, sum over r of x_r^(q+1), the form
  pulled back along x = F (s^d, s^(d-i) t^i, s^(d-j) t^j, t^d) is
  sum over (l, m) of B[l][m] s^(..) t^(e_l + q e_m) with B = t(F) F^(q)
  and e = (0, i, j, d), so it vanishes exactly when, for every exponent k,
  the B[l][m] with e_l + q e_m = k sum to zero.

Every build report checked here is of a --fermat build.  A count report's
aut_order is re-derived from q alone as |PGU(4, q)|, and each entry with a
stab_order must satisfy count x stab_order = aut_order (orbit-stabilizer).

A stabilizer report lists 4x4 stars S over its search field GF(q^6).  Each
must be diagonal with first entry 1, the list strictly increasing in the
order of the entries' packed values (distinct, sorted), its length
`order`, and `order` the D of q alone: q^3 + 1 for c2, (q^3 + 1)/2 for c3.
S acts on the representative's 4x4 core C as t(S) C S^(q), which scales
cell (l, m) by s_l s_m^q; each S must scale C's four support cells by one
common factor.
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

    def frobenius(self, q):
        """x -> x^q, which is GF(p)-linear: the images of 1, x, ..., x^(m-1)
        are computed once, and each image after is their combination."""
        rows = [self.pow(tuple(int(k == t) for k in range(self.m)), q)
                for t in range(self.m)]

        def frob(a):
            out = [0] * self.m
            for c, row in zip(a, rows):
                if c:
                    for k, v in enumerate(row):
                        out[k] += c * v
            return tuple(x % self.p for x in out)
        return frob


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


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hermitia.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("case,q", [("c2", 8), ("c3", 5), ("c3", 7),
                                    ("c2", 16), ("c3", 11)])
def test_cli_build_rechecks(case, q):
    """The builds pinned by stdout digest (c2 q = 8, c3 q = 5 and 7), and
    c2 q = 16 and c3 q = 11, whose three-cycle field GF(q^6) the closed
    form reaches where a scan over it could not run."""
    proc = _run_cli("build", "--q", str(q), "--case", case, "--fermat")
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


def pgu4_order(q):
    """|PGU(4, q)| = q^6 (q^2 - 1)(q^3 + 1)(q^4 - 1)."""
    return q ** 6 * (q ** 2 - 1) * (q ** 3 + 1) * (q ** 4 - 1)


def recheck_count(report):
    """Every entry's aut_order is |PGU(4, q)|, and count x stab_order equals
    it wherever stab_order is not null."""
    q = report["q"]
    return bool(report["cases"]) and all(
        e["aut_order"] == pgu4_order(q) and
        (e["stab_order"] is None or e["count"] * e["stab_order"] == e["aut_order"])
        for e in report["cases"])


GOLDEN_COUNTS = sorted(p.name for p in GOLDEN.glob("count_*.json"))


def test_pgu4_orders():
    assert pgu4_order(2) == 25920
    assert pgu4_order(3) == 13063680


@pytest.mark.parametrize("name", GOLDEN_COUNTS)
def test_golden_count_rechecks(name):
    assert recheck_count(json.loads((GOLDEN / name).read_text()))


@pytest.mark.parametrize("q", [7, 8, 9, 10 ** 18 + 3])
def test_cli_count_rechecks(q):
    proc = _run_cli("count", "--q", str(q))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["q"] == q and len(report["cases"]) == 2
    assert all(e["stab_order"] is not None for e in report["cases"])
    assert recheck_count(report)


@pytest.mark.parametrize("name", ["count_q3.json", "count_q4.json",
                                  "count_q5.json"])
def test_a_changed_count_field_fails_the_recheck(name):
    """Adding one to q, or to the aut_order, count or stab_order of any one
    entry, fails the check."""
    report = json.loads((GOLDEN / name).read_text())
    assert recheck_count(report)
    changed = json.loads(json.dumps(report))
    changed["q"] += 1
    assert not recheck_count(changed)
    for k in range(len(report["cases"])):
        for field in ("aut_order", "count", "stab_order"):
            changed = json.loads(json.dumps(report))
            changed["cases"][k][field] += 1
            assert not recheck_count(changed), (k, field)


def stabilizer_order(case, q):
    """D = q^3 + 1 for c2 and (q^3 + 1)/2 for c3."""
    return q ** 3 + 1 if case == "c2" else (q ** 3 + 1) // 2


def representative(case, q):
    """The c2/c3 representative's 4x4 core, as integers: the case shape
    [[0, b1, 0, b2], [0, 0, 0, b3], [0, 0, -b3, 0], [-b1, -b2, 0, 0]] at
    (b1, b2, b3) = (1, 0, 1), the same for both cases at every q of the
    case's parity."""
    assert (case, q % 2) in (("c2", 0), ("c3", 1))
    return [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [-1, 0, 0, 0]]


def recheck_stabilizer(report):
    """Whether the report's elements are `order` = D distinct diagonal stars,
    in packed order, with first entry 1, each scaling the representative's
    support by one common factor."""
    q, case, elements = report["q"], report["case"], report["elements"]
    f = PolyField(report["search_field"])
    if f.p ** f.m != q ** 6 or report["order"] != stabilizer_order(case, q):
        return False
    if len(elements) != report["order"]:
        return False
    stars = []
    for e in elements:
        if (e["rows"], e["cols"], e["field"]) != (4, 4, report["search_field"]):
            return False
        entries = e["entries"]
        if len(entries) != 16 or any(any(entries[k]) for k in range(16) if k % 5):
            return False
        stars.append([f.element(entries[5 * k]) for k in range(4)])
        if stars[-1][0] != f.one:
            return False
    # packed order: coefficients from the highest, off-diagonal zeros aside
    keys = [tuple(x[::-1] for x in s) for s in stars]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    core = representative(case, q)
    support = [(l, m) for l in range(4) for m in range(4) if core[l][m]]
    frob = f.frobenius(q)
    for s in stars:
        sq = [frob(x) for x in s]
        # s_l C[l][m] s_m^q = c C[l][m] with C[l][m] != 0 is s_l s_m^q = c
        if len({f.mul(s[l], sq[m]) for l, m in support}) != 1:
            return False
    return True


GOLDEN_STABILIZERS = sorted(p.name for p in GOLDEN.glob("stabilizer_*.json")
                            if "full_small" not in p.name)


def test_stabilizer_orders():
    assert [stabilizer_order("c2", q) for q in (4, 16)] == [65, 4097]
    assert [stabilizer_order("c3", q) for q in (3, 5, 7, 19)] == [14, 63, 172, 3430]


def test_every_golden_stabilizer_is_found():
    assert GOLDEN_STABILIZERS == ["stabilizer_c2_q4.json", "stabilizer_c3_q3.json"]


@pytest.mark.parametrize("name", GOLDEN_STABILIZERS)
def test_golden_stabilizer_rechecks(name):
    assert recheck_stabilizer(json.loads((GOLDEN / name).read_text()))


@pytest.mark.parametrize("case,q", [("c3", 5), ("c3", 7), ("c3", 19),
                                    ("c2", 16)])
def test_cli_stabilizer_rechecks(case, q):
    """The listings pinned by stdout digest at c3 q = 5, 7 and 19 and
    c2 q = 16; c3 q = 7 and 19 exit 2, as their order is twice the closed
    form (README finding 2)."""
    proc = _run_cli("stabilizer", "--q", str(q), "--case", case,
                    "--samples", "0")
    report = json.loads(proc.stdout)
    assert proc.returncode == (0 if report["match"] else 2), proc.stderr
    assert (report["q"], report["case"]) == (q, case)
    assert recheck_stabilizer(report)


@pytest.mark.parametrize("name", GOLDEN_STABILIZERS)
def test_a_changed_element_coefficient_fails_the_stabilizer_recheck(name):
    """Adding one to a coefficient of any one entry of any one element,
    the coefficient chosen in turn, fails the check; so does changing the
    order, or q."""
    report = json.loads((GOLDEN / name).read_text())
    assert recheck_stabilizer(report)
    p, m = report["search_field"]["p"], report["search_field"]["m"]
    for k, element in enumerate(report["elements"]):
        for u in range(16):
            entries = [list(c) for c in element["entries"]]
            entries[u][(k + u) % m] = (entries[u][(k + u) % m] + 1) % p
            elements = list(report["elements"])
            elements[k] = {**element, "entries": entries}
            assert not recheck_stabilizer({**report, "elements": elements}), (k, u)
    for field in ("order", "q"):
        changed = json.loads(json.dumps(report))
        changed[field] += 2
        assert not recheck_stabilizer(changed), field
