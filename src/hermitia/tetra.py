"""Tetranomial signatures, the t-exponent matrix of the pulled-back form,
symbolic expansion and the exact surface-containment test, and the
smoothness / singularity bookkeeping for the three standard curve families.

A signature (d, i, j) names the parametrization (s^d, s^(d-i) t^i,
s^(d-j) t^j, t^d).  Scaling (d,i,j) by n and the flip
(d,i,j) -> (d, d-j, d-i) give the same curve up to coordinate changes, so
signatures are canonicalized by dividing out gcd(d,i,j) and picking the
lexicographically smaller of (i,j) and (d-j, d-i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gf
from .gf import Field
from .matff import Mat, MatError, SurfaceSpec, twisted_gram

# the three families of degree-d curves that can lie on a smooth surface
CASE_C1 = "c1"  # d = q+1, all q
CASE_C2 = "c2"  # d = q(q+1), q even
CASE_C3 = "c3"  # d = q(q+1)/2, q odd


class SignatureError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Signature:
    d: int
    i: int
    j: int

    def __post_init__(self):
        if not (1 <= self.i < self.j <= self.d - 1):
            raise SignatureError(f"need 1 <= i < j <= d-1, got {self.astuple()}")

    def astuple(self):
        return (self.d, self.i, self.j)

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


@dataclass
class SparseForm:
    """A binary form of degree (q+1)d, stored as {t-exponent: coefficient};
    the s-exponent is determined.  Zero coefficients are absent."""
    degree: int
    coeffs: dict
    field: Field

    def is_zero(self) -> bool:
        return not self.coeffs


def expand_form(sig: Signature, q: int, B: Mat) -> SparseForm:
    """Group the 16 monomials of t(v) B v^(q) by t-exponent and sum the
    coefficients.  Exact and symbolic."""
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
    return SparseForm((q + 1) * sig.d, {e: c for e, c in coeffs.items() if c}, f)


def is_identically_zero(sig: Signature, q: int, B: Mat) -> bool:
    return expand_form(sig, q, B).is_zero()


def evaluate_form(sig: Signature, q: int, B: Mat, s: int, t: int) -> int:
    """Value of t(v) B v^(q) at (s, t); an independent check of expand_form."""
    f = B.field
    v = [f.mul(f.pow(s, sig.d - e), f.pow(t, e)) for e in sig.exponents]
    acc = 0
    for l in range(4):
        for m in range(4):
            b = B.data[l][m]
            if b:
                acc = f.add(acc, f.mul(f.mul(v[l], b), f.pow(v[m], q)))
    return acc


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass
class CurveSpec:
    """A parametrized curve F . (s^d, s^(d-i) t^i, s^(d-j) t^j, t^d); it is
    nonplanar exactly when the frame F is invertible."""
    q: int
    sig: Signature
    frame: Mat

    @property
    def nonplanar(self) -> bool:
        return self.frame.is_invertible()

    def point(self, s: int, t: int):
        f = self.frame.field
        v = [f.mul(f.pow(s, self.sig.d - e), f.pow(t, e)) for e in self.sig.exponents]
        return [_dot(f, row, v) for row in self.frame.data]

    def to_json(self) -> dict:
        return {"q": self.q, "sig": list(self.sig.astuple()),
                "frame": self.frame.to_json()}

    @classmethod
    def from_json(cls, obj) -> "CurveSpec":
        return cls(obj["q"], Signature(*obj["sig"]), Mat.from_json(obj["frame"]))


def _dot(f, row, v):
    acc = 0
    for a, b in zip(row, v):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


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


def projective_line(field: Field):
    """All points of P^1 over the field: (1 : t) for every t, then (0 : 1)."""
    for t in field.elements():
        yield (1, t)
    yield (0, 1)


@dataclass
class SmoothnessReport:
    case: str
    q: int
    field: Field
    points_scanned: int
    containment_ok: bool
    singular: list  # [(normalized point tuple, jacobian rank), ...] sorted

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


def smoothness_scan(case: str, q: int, param_field: Field) -> SmoothnessReport:
    """Walk every parameter value of P^1 over param_field through the
    standard curve, confirm each image point satisfies the stored equations,
    and report every point where the Jacobian rank of the system drops
    below 2."""
    p, n = gf.prime_power_split(q)
    if param_field.p != p or param_field.m % (2 * n):
        raise MatError("parameter field must extend GF(q^2)")
    sig = case_signature(case, q)
    eqs = defining_equations(case, q)
    curve = CurveSpec(q, sig, Mat.identity(param_field, 4))

    points = 0
    containment_ok = True
    seen = {}
    for s, t in projective_line(param_field):
        points += 1
        pt = normalize_point(param_field, curve.point(s, t))
        if not all(eval_equation(eq, pt, param_field) == 0 for eq in eqs):
            containment_ok = False
        rank = jacobian_rank(eqs, pt, param_field)
        if rank < 2:
            seen[pt] = min(rank, seen.get(pt, 2))
    return SmoothnessReport(case, q, param_field, points, containment_ok,
                            sorted(seen.items()))
