"""Desk-scale rediscovery of the admissible signatures: for a concrete q and
degree bound, find every (d, i, j) that admits an invertible 4x4 form matrix
B with the pulled-back form vanishing identically, and check each admissible
solution space against the three expected shapes.

Only a fixed list is visited: the canonical points where two collision
planes x = q*y cross (x, y differences of (0, i, j, d)), at most one per
pair of the 30 planes and none past d = (q + 1)^2 at any q tested (the
lemma in enumerate_admissible).  The rest are counted, not visited: there are
sum over d of (N(d) + phi(d)/2) / 2 canonical signatures with
N(d) = sum over g | d of mu(g) C(d/g - 1, 2).  Working over the algebraic
closure is reduced to two exact finite computations: an invertible witness
certifies "yes", and a vanishing-determinant certificate on a
5-point-per-variable grid certifies "no" (det is a degree-4 polynomial in
the free coefficients, so per-variable degree is at most 4 and a full grid
of 5 values per variable decides identical vanishing).
"""

from __future__ import annotations

import itertools
import math

from . import gf
from .matff import Mat
from .tetra import (CASE_C1, CASE_C2, CASE_C3, Signature, SignatureError,
                    canonical_signature, case_signature, exponent_matrix,
                    is_identically_zero)

_WITNESS_SEARCH_BITS = 24   # exhaustive witness hunt over GF(q^2)^dim up to 2^24 vectors
_GRID_DIM_LIMIT = 10        # 5^dim grid guard; never hit at desk scale


class ClassifyError(ValueError):
    pass


class SolutionSpace:
    """The linear space {B : pulled-back form == 0} for one signature.

    Cells of the 4x4 matrix are partitioned by equal t-exponent; singleton
    cells are forced to zero and every larger group must sum to zero, which
    leaves (group size - 1) free coefficients per group.
    """

    def __init__(self, sig: Signature, q: int, field: gf.Field,
                 forced_zero: frozenset, groups: tuple):
        self.sig = sig
        self.q = q
        self.field = field
        self.forced_zero = forced_zero  # cells (l, m) that must vanish
        self.groups = groups            # tuples of cells sharing an exponent, size >= 2

    @property
    def dim(self) -> int:
        return sum(len(group) - 1 for group in self.groups)

    def combination(self, coeffs, fld=None) -> Mat:
        """B with the k-th free cell of each group set from coeffs (the group
        anchor picks up minus the sum)."""
        f = fld or self.field
        data = [[0] * 4 for _ in range(4)]
        it = iter(coeffs)
        for group in self.groups:
            total = 0
            for (l, m) in group[1:]:
                c = next(it)
                data[l][m] = c
                total = f.add(total, c)
            l0, m0 = group[0]
            data[l0][m0] = f.neg(total)
        return Mat(f, data)


def solution_space(sig: Signature, q: int) -> SolutionSpace:
    E = exponent_matrix(sig, q)
    by_value = {}
    for l, m in itertools.product(range(4), repeat=2):
        by_value.setdefault(E[l][m], []).append((l, m))
    forced = frozenset(cells[0] for cells in by_value.values() if len(cells) == 1)
    groups = tuple(tuple(cells) for _, cells in sorted(by_value.items())
                   if len(cells) >= 2)
    return SolutionSpace(sig, q, gf.gfq2(q), forced, groups)


class InvertibleVerdict:
    def __init__(self, invertible: bool, method: str,
                 witness: Mat | None = None, checked: int = 0):
        self.invertible = invertible
        self.method = method
        self.witness = witness
        self.checked = checked


def exists_invertible(space: SolutionSpace) -> InvertibleVerdict:
    """Decide whether the span contains an invertible matrix over the
    algebraic closure, exactly in both directions: witness search over
    GF(q^2) coefficients first, then the 5-per-variable grid over GF(q^4)
    which either produces a witness or certifies det == 0 identically.
    """
    dim = space.dim
    if dim == 0:
        return InvertibleVerdict(False, "empty-space")
    active = [cell for group in space.groups for cell in group]
    if len({l for l, _ in active}) < 4:
        return InvertibleVerdict(False, "zero-row")
    if len({m for _, m in active}) < 4:
        return InvertibleVerdict(False, "zero-column")

    checked = 0
    q2 = space.field.order
    if dim * (q2 - 1).bit_length() <= _WITNESS_SEARCH_BITS:
        for coeffs in itertools.product(range(q2), repeat=dim):
            checked += 1
            B = space.combination(coeffs)
            if B.det() != 0:
                return InvertibleVerdict(True, "witness-gfq2", B, checked)

    if dim > _GRID_DIM_LIMIT:
        raise ClassifyError(f"solution space dim {dim} beyond grid guard")
    fld4 = gf.gf_ext(space.q, 2)
    grid = fld4.elements()[:5]
    for coeffs in itertools.product(grid, repeat=dim):
        checked += 1
        B = space.combination(coeffs, fld4)
        if B.det() != 0:
            return InvertibleVerdict(True, "witness-gfq4", B, checked)
    return InvertibleVerdict(False, "grid-certificate", None, checked)


# -- the three expected shapes ------------------------------------------------

def case1_shape(fld, a11, a12, a13, a21, a22, a23) -> Mat:
    """The degree-(q+1) shape with parameter rows (a11, a12, a13) and
    (a21, a22, a23)."""
    n = fld.neg
    return Mat(fld, [[0, a11, a12, a13], [0, a21, a22, a23],
                     [n(a11), n(a12), n(a13), 0], [n(a21), n(a22), n(a23), 0]])


def case23_shape(fld, b1, b2, b3) -> Mat:
    """The shape shared by the degree-q(q+1) and degree-q(q+1)/2 families."""
    n = fld.neg
    return Mat(fld, [[0, b1, 0, b2], [0, 0, 0, b3], [0, 0, n(b3), 0],
                     [n(b1), n(b2), 0, 0]])


def case_shape_basis(case: str, q: int, fld=None):
    """Basis matrices of the expected solution-space span for a case,
    including the extra zeros for q >= 3."""
    fld = fld or gf.gfq2(q)
    if case == CASE_C1:
        shape, size, free = case1_shape, 6, [0, 2, 3, 5] + [1, 4] * (q == 2)
    else:
        shape, size, free = case23_shape, 3, [0, 2] + [1] * (q == 2)
    return [shape(fld, *(int(k == u) for k in range(size))) for u in free]


def case_shape_check(B: Mat, case: str, q: int) -> bool:
    """Support pattern, sign ties and side conditions of one case."""
    f, d = B.field, B.data
    if B.rows != 4 or B.cols != 4:
        return False
    if case == CASE_C1:
        a11, a12, a13, a21, a22, a23 = d[0][1:] + d[1][1:]
        if (q >= 3 and (a12 or a22)) or not (a11 or a21) or not (a13 or a23):
            return False
        return (B == case1_shape(f, a11, a12, a13, a21, a22, a23)
                and Mat(f, [d[0], d[1]]).rank() == 2)
    if case in (CASE_C2, CASE_C3):
        b1, b2, b3 = d[0][1], d[0][3], d[1][3]
        if b1 == 0 or b3 == 0 or (q >= 3 and b2 != 0):
            return False
        return B == case23_shape(f, b1, b2, b3)
    raise ClassifyError(f"unknown case {case!r}")


def expected_cases(q: int):
    """Map canonical signature -> (roman label, case id, label signature,
    flipped?) for the families valid at this q."""
    out = {}
    for case, roman in ((CASE_C1, "I"), (CASE_C2, "II"), (CASE_C3, "III")):
        try:
            label = case_signature(case, q)
        except SignatureError:
            continue
        canon = canonical_signature(*label.astuple())
        out[canon] = (roman, case, label, canon != label)
    return out


def match_case_shape(space: SolutionSpace, case: str, q: int,
                     flipped: bool) -> bool:
    """The admissible space equals the expected span exactly: dimensions
    agree and every shape basis matrix lies in the space (conjugated by the
    index reversal when the canonical signature is the flipped label)."""
    shape = case_shape_basis(case, q, space.field)
    if flipped:
        # J B J for the anti-diagonal permutation J
        shape = [Mat(b.field, [row[::-1] for row in b.data[::-1]]) for b in shape]
    if space.dim != len(shape):
        return False
    return all(is_identically_zero(space.sig, space.q, b) for b in shape)


class AdmissibleEntry:
    def __init__(self, sig: Signature, case_sig: Signature | None, dim: int,
                 case: str, witness: Mat):
        self.sig = sig                  # canonical
        self.case_sig = case_sig        # conventional label, when a case matched
        self.dim = dim
        self.case = case                # "I" | "II" | "III" | "unexpected"
        self.witness = witness

    def to_json(self) -> dict:
        label = self.case_sig
        return {"sig": list(self.sig.astuple()), "dim": self.dim,
                "case": self.case, "witness": self.witness.to_json(),
                "case_sig": list(label.astuple()) if label else None}


class ClassificationReport:
    def __init__(self, q: int, d_max: int, admissible: list, stats: dict):
        self.q = q
        self.d_max = d_max
        self.admissible = admissible    # AdmissibleEntry, sorted by signature
        self.stats = stats

    def signatures(self):
        return [e.sig for e in self.admissible]

    @property
    def matches_prediction(self) -> bool:
        if any(e.case == "unexpected" for e in self.admissible):
            return False
        predicted = predicted_signatures(self.q, self.d_max)
        return set(self.signatures()) == set(predicted)

    def to_json(self) -> dict:
        return {"q": self.q, "d_max": self.d_max,
                "admissible": [e.to_json() for e in self.admissible],
                "matches_prediction": self.matches_prediction,
                "stats": self.stats}


def predicted_signatures(q: int, d_max: int):
    """Canonical signatures the admissible set is expected to equal."""
    return sorted(canon for canon, (_, _, label, _) in expected_cases(q).items()
                  if label.d <= d_max)


# i, j, d, j - i, d - i, d - j as coefficients on (j, d, i)
_DIFFERENCES = ((0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 0, -1), (0, 1, -1),
                (-1, 1, 0))


def collision_signatures(q: int, d_max: int):
    """Sorted, the canonical (d, i, j), d <= d_max, where two distinct
    collision planes cross (the lemma in enumerate_admissible).  The pair
    (x, y) of differences holds on the plane with normal x - q*y on (j, d, i);
    two planes cross on the line through their normals' cross product, whose
    one canonical point, if any, is the primitive multiple with d > 0 and
    0 < i < j <= d - i.  A zero cross product means the planes coincide."""
    normals = [tuple(a - q * b for a, b in zip(x, y))
               for x, y in itertools.permutations(_DIFFERENCES, 2)]
    points = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(normals, 2):
        line = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
        g = math.gcd(*line) * (1 if line[1] > 0 else -1)
        if g:
            j, d, i = (k // g for k in line)
            if 0 < i < j <= d - i and d <= d_max:
                points.add(Signature(d, i, j))
    return sorted(points)


def canonical_signature_count(d_max: int) -> int:
    """The number of canonical signatures with d <= d_max: the sum over d of
    (N(d) + phi(d)/2) / 2.  N(d) = sum over g | d of mu(g) C(d/g - 1, 2)
    counts the i < j < d with gcd(d, i, j) = 1, and the flip pairs them off
    but for the phi(d)/2 with i + j = d.  N and phi invert, divisor by
    divisor, C(d - 1, 2) and d: the sums over e | d of N(e) and phi(e)."""
    pairs = [0] + [math.comb(d - 1, 2) for d in range(1, d_max + 1)]
    phi = list(range(d_max + 1))
    for d in range(1, d_max + 1):
        for k in range(2 * d, d_max + 1, d):
            pairs[k] -= pairs[d]
            phi[k] -= phi[d]
    return sum((pairs[d] + phi[d] // 2) // 2 for d in range(3, d_max + 1))


def enumerate_admissible(q: int, d_max: int | None = None) -> ClassificationReport:
    """Classify every canonical signature with d <= d_max: keep those whose
    solution space contains an invertible element, and pattern-match each
    admissible space against the expected shapes.

    Lemma: only collision_signatures can be admissible, whatever the degree.
    1. Cells (l, m) != (l', m') share a t-exponent exactly when
       e_l - e_l' = q (e_m' - e_m), e = (0, i, j, d): a pair (x, y) of
       differences from {i, j, d, j - i, d - i, d - j} with x = q*y holds.
       Each pair that holds is one pair of cells, in the two rows of x
       (x = e_l - e_l') and the two columns of y.
    2. A cell that collides with nothing is forced to zero, so an invertible
       B needs the pairs that hold to cover all four rows: at least two
       pairs with different x.
    3. Two pairs with different x never give the same plane.  Each entry
       of the cross product of two normals x - q*y is an integer polynomial
       in q of degree <= 2 with |coefficients| <= 2, so it has no root
       q >= 3 unless it is identically zero, and no cross product is; at
       q = 2 the zero ones all join two pairs with the same x.
    4. So an admissible (j, d, i) lies on the line where two distinct planes
       through the origin meet, and, being primitive, it is that line's
       canonical point.
    Every other signature is counted, not visited: canonical_signature_count
    gives signatures_scanned.  The list does not depend on d_max, and at
    every q tested its largest d is (q + 1)^2, below the default d_max."""
    gf.prime_power_split(q)
    if d_max is None:
        d_max = (3 * (q + 1) * q + 1) // 2  # past every expected degree
    if d_max < 3:
        raise ClassifyError("d_max must be at least 3")
    expected = expected_cases(q)
    admissible = []
    for sig in collision_signatures(q, d_max):
        space = solution_space(sig, q)
        verdict = exists_invertible(space)
        if not verdict.invertible:
            continue
        roman, case, label, flipped = expected.get(sig, (None,) * 4)
        if case is None or not match_case_shape(space, case, q, flipped):
            roman, label = "unexpected", None
        admissible.append(AdmissibleEntry(sig, label, space.dim, roman,
                                          verdict.witness))
    stats = {"signatures_scanned": canonical_signature_count(d_max),
             "admissible": len(admissible)}
    return ClassificationReport(q, d_max, admissible, stats)
