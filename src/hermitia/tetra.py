"""Tetranomial signatures, the t-exponent matrix of the pulled-back form,
symbolic expansion and the exact surface-containment test, and the
smoothness / singularity bookkeeping for the three standard curve families.

Smoothness is decided without walking points: every entry of the Jacobian
of a stored equation system along the curve is a binary form over GF(p),
so the 2x2 minors are too, and the rank drops below 2 exactly at their
common zeros.  Those are read off at t = 0 and s = 0 from the minors' end
coefficients, and elsewhere from the roots of their gcd in the parameter
field.

A signature (d, i, j) names the parametrization (s^d, s^(d-i) t^i,
s^(d-j) t^j, t^d).  Scaling (d,i,j) by n and the flip
(d,i,j) -> (d, d-j, d-i) give the same curve up to coordinate changes, so
signatures are canonicalized by dividing out gcd(d,i,j) and picking the
lexicographically smaller of (i,j) and (d-j, d-i).
"""

from __future__ import annotations

import math
import operator

from . import gf, poly
from .gf import Field
from .matff import Mat, MatError, SurfaceSpec, twisted_gram

# the three families of degree-d curves that can lie on a smooth surface
CASE_C1 = "c1"  # d = q+1, all q
CASE_C2 = "c2"  # d = q(q+1), q even
CASE_C3 = "c3"  # d = q(q+1)/2, q odd


class SignatureError(ValueError):
    pass


class Signature(tuple):
    """The exponents (d, i, j) of a tetranomial curve: a tuple, so immutable,
    hashable and ordered as (d, i, j), but equal only to a Signature."""

    __slots__ = ()

    def __new__(cls, d: int, i: int, j: int):
        if not (1 <= i < j <= d - 1):
            raise SignatureError(f"need 1 <= i < j <= d-1, got {(d, i, j)}")
        return super().__new__(cls, (d, i, j))

    d, i, j = (property(operator.itemgetter(k)) for k in range(3))

    def __eq__(self, other):
        return type(other) is Signature and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self):
        return f"Signature(d={self.d}, i={self.i}, j={self.j})"

    def astuple(self):
        return tuple(self)

    def flip(self) -> "Signature":
        return Signature(self.d, self.d - self.j, self.d - self.i)

    @property
    def exponents(self):
        """The four t-exponents (0, i, j, d)."""
        return (0, self.i, self.j, self.d)


def canonical_signature(d: int, i: int, j: int) -> Signature:
    """Divide out gcd(d, i, j), then flip to the lexicographically smaller of
    (i, j) and (d-j, d-i).  Idempotent."""
    sig = Signature(d, i, j)
    g = math.gcd(sig.d, math.gcd(sig.i, sig.j))
    sig = Signature(sig.d // g, sig.i // g, sig.j // g)
    flipped = sig.flip()
    return flipped if (flipped.i, flipped.j) < (sig.i, sig.j) else sig


def case_signature(case: str, q: int) -> Signature:
    """The conventional (d, i, j) label of each family at a given q."""
    if case == CASE_C1:
        return Signature(q + 1, 1, q)
    if case == CASE_C2:
        if q % 2:
            raise SignatureError("the degree-q(q+1) family needs q even")
        return Signature(q * (q + 1), q + 1, q * q + 1)
    if case == CASE_C3:
        if q % 2 == 0:
            raise SignatureError("the degree-q(q+1)/2 family needs q odd")
        return Signature(q * (q + 1) // 2, (q + 1) // 2, (q * q + 1) // 2)
    raise SignatureError(f"unknown case {case!r}")


def exponent_matrix(sig: Signature, q: int):
    """4x4 integer matrix of t-exponents: cell (l, m) carries the exponent of
    t in the monomial multiplying B[l][m], namely e_l + q * e_m for
    e = (0, i, j, d).  Coincidences between entries are exactly what forces
    linear relations on B."""
    e = sig.exponents
    return [[e[l] + q * e[m] for m in range(4)] for l in range(4)]


def expand_form(sig: Signature, q: int, B: Mat) -> dict:
    """The binary form t(v) B v^(q) of degree (q+1)d as {t-exponent:
    coefficient}, the 16 monomials grouped by t-exponent; the s-exponent is
    determined and zero coefficients are absent.  Exact and symbolic."""
    if B.rows != 4 or B.cols != 4:
        raise MatError("form matrix must be 4x4")
    f = B.field
    E = exponent_matrix(sig, q)
    coeffs = {}
    for l in range(4):
        for m in range(4):
            b = B.data[l][m]
            if b:
                e = E[l][m]
                coeffs[e] = f.add(coeffs.get(e, 0), b)
    return {e: c for e, c in coeffs.items() if c}


def is_identically_zero(sig: Signature, q: int, B: Mat) -> bool:
    return not expand_form(sig, q, B)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class CurveSpec:
    """A parametrized curve F . (s^d, s^(d-i) t^i, s^(d-j) t^j, t^d); it is
    nonplanar exactly when the frame F is invertible."""

    def __init__(self, q: int, sig: Signature, frame: Mat):
        self.q = q
        self.sig = sig
        self.frame = frame

    @property
    def nonplanar(self) -> bool:
        return self.frame.is_invertible()

    def to_json(self) -> dict:
        return {"q": self.q, "sig": list(self.sig.astuple()),
                "frame": self.frame.to_json()}


def monomial_point(sig: Signature, field: Field, s: int, t: int):
    """(s^d, s^(d-i) t^i, s^(d-j) t^j, t^d) over the field."""
    return [field.mul(field.pow(s, sig.d - e), field.pow(t, e))
            for e in sig.exponents]


def on_surface(curve: CurveSpec, surf: SurfaceSpec) -> bool:
    """Exact symbolic containment: pull the surface form back along the frame
    and test that every grouped coefficient cancels.  Never decided by point
    sampling."""
    F = curve.frame
    A = surf.gram
    if F.field is not A.field:
        if F.field.m % A.field.m == 0:
            A = A.lift_to(F.field)
        elif A.field.m % F.field.m == 0:
            F = F.lift_to(A.field)
        else:
            raise MatError("frame and surface fields are incompatible")
    B = twisted_gram(F, A, curve.q)
    return is_identically_zero(curve.sig, curve.q, B)


# ---------------------------------------------------------------------------
# defining equations and Jacobian ranks
# ---------------------------------------------------------------------------

def defining_equations(case: str, q: int):
    """Stored equation systems for the standard curve of each family, as
    {exponent 4-tuple: integer coefficient}.  Containment of the
    parametrized locus and the Jacobian ranks are what get tested; that the
    systems generate the full ideal is an assumption, not a checked fact."""
    if case == CASE_C1:
        return [
            {(0, q, 0, 0): 1, (q - 1, 0, 1, 0): -1},
            {(0, 0, q, 0): 1, (0, 1, 0, q - 1): -1},
            {(0, 1, 1, 0): 1, (1, 0, 0, 1): -1},
        ]
    if case in (CASE_C2, CASE_C3):
        case_signature(case, q)  # parity check
        half = q * (q + 1) // 2
        return [
            {(0, q, 0, 0): 1, (q - 1, 0, 0, 1): -1},
            {(0, 0, q + 1, 0): 1, (0, 1, 0, q): -1},
            {(0, half, half, 0): 1,
             ((q + 2) * (q - 1) // 2, 0, 0, (q * q + q + 2) // 2): -1},
        ]
    raise SignatureError(f"unknown case {case!r}")


def eval_equation(eq: dict, point, field: Field) -> int:
    acc = 0
    for expv, c in eq.items():
        term = field.element([c % field.p])
        for x, e in zip(point, expv):
            if e:
                if x == 0:
                    term = 0
                    break
                term = field.mul(term, field.pow(x, e))
        acc = field.add(acc, term)
    return acc


def _partial(eq: dict, k: int):
    out = {}
    for expv, c in eq.items():
        e = expv[k]
        if e:
            new = list(expv)
            new[k] -= 1
            out[tuple(new)] = c * e
    return out


def jacobian_matrix(eqs, point, field: Field) -> Mat:
    rows = []
    for eq in eqs:
        rows.append([eval_equation(_partial(eq, k), point, field) for k in range(4)])
    return Mat(field, rows)


def jacobian_rank(eqs, point, field: Field) -> int:
    if not any(point):
        raise MatError("Jacobian rank needs a nonzero point")
    return jacobian_matrix(eqs, point, field).rank()


def normalize_point(field: Field, point):
    """Scale so the first nonzero coordinate is 1 (the deterministic
    projective representative)."""
    for x in point:
        if x:
            inv = field.inv(x)
            return tuple(field.mul(inv, y) for y in point)
    raise MatError("zero vector is not a projective point")


class SmoothnessReport:
    def __init__(self, case: str, q: int, field: Field, points_scanned: int,
                 containment_ok: bool, singular: list):
        self.case = case
        self.q = q
        self.field = field
        self.points_scanned = points_scanned
        self.containment_ok = containment_ok
        # [(normalized point tuple, jacobian rank), ...], sorted
        self.singular = singular

    def to_json(self) -> dict:
        f = self.field
        return {
            "case": self.case, "q": self.q,
            "param_field": gf.field_to_json(f),
            "points_scanned": self.points_scanned,
            "containment_ok": self.containment_ok,
            "singular": [{"point": [f.coeffs(x) for x in pt], "rank": r}
                         for pt, r in self.singular],
        }




# ---------------------------------------------------------------------------
# smoothness from the Jacobian minors
# ---------------------------------------------------------------------------

def _degree(eq: dict) -> int:
    degrees = {sum(expv) for expv in eq}
    if len(degrees) != 1:
        raise MatError("a defining equation must be a nonzero homogeneous form")
    return degrees.pop()


def _pull_back(eq: dict, sig: Signature, p: int) -> dict:
    """The form eq(v(s, t)) over GF(p) as {t-exponent: coefficient}; the
    s-exponent is the degree of eq times d, minus the t-exponent."""
    e = sig.exponents
    out = {}
    for expv, c in eq.items():
        k = sum(a * b for a, b in zip(expv, e))
        out[k] = (out.get(k, 0) + c) % p
    return {k: c for k, c in out.items() if c}


def jacobian_minors(eqs, sig: Signature, p: int):
    """The 2x2 minors of the Jacobian of eqs at v(s, t), as (degree, form)
    pairs with form = {t-exponent: coefficient mod p}.  Entry (k, l) is the
    pull-back of d eq_k / d x_l, a form of degree (deg eq_k - 1) d; the minor
    on rows a, b has degree (deg eq_a + deg eq_b - 2) d.  The Jacobian has
    rank below 2 at v(s, t) exactly when every minor vanishes there."""
    degrees = [_degree(eq) for eq in eqs]
    J = [[_pull_back(_partial(eq, l), sig, p) for l in range(4)] for eq in eqs]
    minors = []
    for a in range(len(eqs)):
        for b in range(a + 1, len(eqs)):
            degree = (degrees[a] + degrees[b] - 2) * sig.d
            for l in range(4):
                for m in range(l + 1, 4):
                    form = {}
                    for x, y, sign in ((J[a][l], J[b][m], 1),
                                       (J[a][m], J[b][l], -1)):
                        for ex, cx in x.items():
                            for ey, cy in y.items():
                                form[ex + ey] = (form.get(ex + ey, 0)
                                                 + sign * cx * cy) % p
                    minors.append(
                        (degree, {k: c for k, c in form.items() if c}))
    return minors


def minor_gcd(minors, p: int):
    """gcd over GF(p) of the minors at s = 1, each with its powers of
    x = t/s divided out, as coefficients low to high; () when every minor
    vanishes identically.  Its roots are the parameters (1 : x), x != 0,
    where the rank drops.  Lowest degree first, so a minor with a single
    term ends the search at once."""
    polys = sorted(([form.get(k, 0) for k in range(min(form), max(form) + 1)]
                    for _, form in minors if form), key=len)
    g = ()
    for c in polys:
        g = poly.gcd(g, c, p)
        if len(g) == 1:
            break
    return g


def _vanishes_on_line(eq: dict, sig: Signature, field: Field) -> bool:
    """Whether eq vanishes at v(s, t) for every (s : t) in P^1(field): the
    pulled-back form vanishes at (1 : 0) and (0 : 1), and x^order - x
    divides its value at s = 1.  The remainder folds x^k onto
    x^(1 + (k-1) mod (order-1)); a form that cancels identically passes."""
    form = _pull_back(eq, sig, field.p)
    if 0 in form or _degree(eq) * sig.d in form:
        return False
    n = field.order - 1
    rem = {}
    for k, c in form.items():
        e = 1 + (k - 1) % n
        rem[e] = (rem.get(e, 0) + c) % field.p
    return not any(rem.values())


def decide_smoothness(eqs, sig: Signature, field: Field):
    """(containment_ok, singular) for the homogeneous system eqs along
    v(s, t) over P^1(field), decided from the Jacobian minors over GF(p).
    Candidates are (1 : 0) when every minor's t^0 coefficient vanishes,
    (0 : 1) when every top coefficient does, and (1 : r) for the roots r of
    the minors' gcd in the field; each candidate's image is normalized and
    its rank taken with jacobian_rank.  `singular` lists the points of rank
    below 2 with their rank, sorted."""
    minors = jacobian_minors(eqs, sig, field.p)
    params = [(1, r) for r in poly.roots_in(minor_gcd(minors, field.p), field)]
    if not any(form.get(0) for _, form in minors):
        params.append((1, 0))
    if not any(form.get(degree) for degree, form in minors):
        params.append((0, 1))
    points = {normalize_point(field, monomial_point(sig, field, s, t))
              for s, t in params}
    containment_ok = all(_vanishes_on_line(eq, sig, field) for eq in eqs)
    return containment_ok, sorted((pt, jacobian_rank(eqs, pt, field))
                                  for pt in points)


def smoothness_scan(case: str, q: int, param_field: Field) -> SmoothnessReport:
    """Decide, for every parameter value of P^1 over param_field, whether
    the standard curve's image satisfies the stored equations and where the
    Jacobian rank of the system drops below 2 (decide_smoothness).  Exact:
    no point is sampled.  `points_scanned` is param_field.order + 1, the
    number of parameters the verdict covers."""
    p, n = gf.prime_power_split(q)
    if param_field.p != p or param_field.m % (2 * n):
        raise MatError("parameter field must extend GF(q^2)")
    containment_ok, singular = decide_smoothness(
        defining_equations(case, q), case_signature(case, q), param_field)
    return SmoothnessReport(case, q, param_field, param_field.order + 1,
                            containment_ok, singular)
