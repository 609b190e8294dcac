"""Symmetric-power action on big form matrices, equivalence and normalization
of the standard form representatives, twisted congruence solving, the
diagonal stabilizer, and the closed-form curve counts.

Degree-d monomial vectors live in a (d+1)-dimensional space indexed by the
t-exponent 0..d.  A 4x4 form matrix supported on the four exponents
(0, i, j, d) embeds as a sparse (d+1)x(d+1) "big form"; GL2 acts on big forms
through the symmetric power, M -> t(phi(g)) M phi(g)^(q), exactly.  A
diagonal g rescales each big cell by a monomial (diag_weight), so diagonal
problems are congruences on discrete logs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Optional

from . import gf
from .gf import Field
from .matff import Mat, MatError, SurfaceSpec, hermitian_decompose, is_hermitian, \
    twisted_gram
from .tetra import (CASE_C1, CASE_C2, CASE_C3, CurveSpec, case_signature,
                    on_surface)
from .classify import case1_shape, case23_shape, case_shape_check

INFINITE = "infinite"

_UNTWIST_FIELD_LIMIT = 1 << 18  # largest field scanned by the congruence search
_COSET_SCAN_LIMIT = 10 ** 5     # most torus cosets an equivalence scan walks


class SearchExhausted(RuntimeError):
    """An existence search ran out of its configured extension budget."""


class OrbitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# orders and counts
# ---------------------------------------------------------------------------

def aut_order(q: int) -> int:
    """Order of the projective automorphism group of a smooth surface
    t(x) A x^(q) = 0 with invertible Hermitian A."""
    return q ** 6 * (q ** 4 - 1) * (q ** 3 + 1) * (q ** 2 - 1)


def stab_order(case: str, q: int) -> int:
    """Closed-form order of the stabilizer of the standard curve, q >= 3.

    These are the orders the counting formulas divide by.  The diagonal
    stabilizer (stabilizer_search) is computed from the representative's
    cells instead, and the two are compared, never reconciled.
    """
    if q < 3:
        raise OrbitError("closed-form stabilizer orders need q >= 3")
    if case == CASE_C1:
        return q * q * (q ** 4 - 1)
    if case == CASE_C2:
        if q % 2:
            raise OrbitError("the degree-q(q+1) family needs q even")
        return q ** 3 + 1
    if case == CASE_C3:
        if q % 2 == 0:
            raise OrbitError("the degree-q(q+1)/2 family needs q odd")
        return (q ** 3 + 1) // 2 if q % 4 == 1 else (q ** 3 + 1) // 4
    raise OrbitError(f"unknown case {case!r}")


def count_Td(case: str, q: int):
    """Number of nonplanar tetranomial curves of the case's degree on a
    smooth surface; the string "infinite" for the q=2 one-parameter families."""
    if case == CASE_C1:
        if q == 2:
            return INFINITE
        return q ** 4 * (q ** 3 + 1) * (q ** 2 - 1)
    if case == CASE_C2:
        if q % 2:
            raise OrbitError("the degree-q(q+1) family needs q even")
        if q == 2:
            return INFINITE
        return q ** 6 * (q ** 4 - 1) * (q ** 2 - 1)
    if case == CASE_C3:
        if q % 2 == 0:
            raise OrbitError("the degree-q(q+1)/2 family needs q odd")
        base = q ** 6 * (q ** 4 - 1) * (q ** 2 - 1)
        return 2 * base if q % 4 == 1 else 4 * base
    raise OrbitError(f"unknown case {case!r}")


@dataclass
class CountEntry:
    case: str
    d: int
    count: object               # int or "infinite"
    aut: int
    stab: Optional[int]
    note: str = ""

    def to_json(self) -> dict:
        return {"case": self.case, "d": self.d, "count": self.count,
                "aut_order": self.aut, "stab_order": self.stab, "note": self.note}


@dataclass
class CountReport:
    q: int
    entries: list

    def to_json(self) -> dict:
        return {"q": self.q, "cases": [e.to_json() for e in self.entries]}


def count_report(q: int) -> CountReport:
    if not gf.is_prime_power(q):
        raise OrbitError(f"q={q} is not a prime power")
    entries = []
    cases = [CASE_C1] + ([CASE_C2] if q % 2 == 0 else [CASE_C3])
    aut = aut_order(q)
    for case in cases:
        d = case_signature(case, q).d
        cnt = count_Td(case, q)
        if q == 2:
            entries.append(CountEntry(case, d, cnt, aut, None,
                                      "one-parameter family of orbit classes"))
        else:
            stab = stab_order(case, q)
            if aut % stab or aut // stab != cnt:
                raise OrbitError("orbit-stabilizer cross-check failed")
            entries.append(CountEntry(case, d, cnt, aut, stab))
    return CountReport(q, entries)


# ---------------------------------------------------------------------------
# representatives
# ---------------------------------------------------------------------------

def canonical_rep(case: str, q: int) -> Mat:
    """The single orbit representative (4x4 core), defined for q >= 3 only:
    for q = 2 the orbit space is an infinite family and no single
    representative exists."""
    if q < 3:
        raise OrbitError("no single representative exists for q = 2")
    if case == CASE_C1:
        return case1_shape(gf.gfq2(q), 1, 0, 0, 0, 0, 1)
    return case_target(case, q)  # the c2/c3 target is the representative


def case_target(case: str, q: int) -> Mat:
    """Construction target for each case, valid for every admissible q.  For
    the degree-(q+1) family it is the Hermitian member of the shape
    (a21 = 1, a13 = -1), which splits over GF(q^2) directly."""
    if case == CASE_C1:
        fld = gf.gfq2(q)
        return case1_shape(fld, 0, 0, fld.neg(1), 1, 0, 0)
    case_signature(case, q)  # parity check
    return case23_shape(gf.gfq2(q), 1, 0, 1)


# ---------------------------------------------------------------------------
# symmetric powers and the big-form action
# ---------------------------------------------------------------------------

def _poly_mul(f, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


def _linear_powers(f, c0, c1, d):
    """Coefficient lists of (c0 s + c1 t)^k for k = 0..d."""
    pows = [[1]]
    lin = [c0, c1]
    for _ in range(d):
        pows.append(_poly_mul(f, pows[-1], lin))
    return pows


def sympow(g: Mat, d: int) -> Mat:
    """The (d+1)x(d+1) matrix expressing degree-d monomials of g.(s,t) in
    degree-d monomials of (s,t).  A group homomorphism in g."""
    if g.rows != 2 or g.cols != 2:
        raise OrbitError("sympow acts on 2x2 matrices")
    if d < 1:
        raise OrbitError("degree must be >= 1")
    f = g.field
    (a, b), (c, e) = g.data
    top = _linear_powers(f, a, b, d)
    bot = _linear_powers(f, c, e, d)
    rows = []
    for r in range(d + 1):
        prod = _poly_mul(f, top[d - r], bot[r])
        prod += [0] * (d + 1 - len(prod))
        rows.append(prod)
    return Mat(f, rows)


def lucas_exponents(n: int, p: int) -> set:
    """The k with C(n, k) nonzero mod p.  Lucas's theorem (Lidl &
    Niederreiter, Finite Fields): C(n, k) is the product of C(n_l, k_l) over
    the base-p digits, so these are the k whose every digit is at most n's."""
    ks, place = {0}, 1
    while n:
        n, digit = divmod(n, p)
        ks = {k + t * place for k in ks for t in range(digit + 1)}
        place *= p
    return ks


def diag_weight(u: int, w: int, d: int, q: int):
    """Exponents (a, b) with act(M, diag(l, m)) = l^a m^b M at big cell
    (u, w): phi(diag(l, m)) is diag(l^(d-k) m^k), k = 0..d."""
    return (d - u) + q * (d - w), u + q * w


def star_positions(case: str, q: int):
    """The four t-exponents (0, i, j, d) carrying the sparse big form."""
    return case_signature(case, q).exponents


@dataclass
class BigForm:
    """Sparse (d+1)x(d+1) form matrix over the monomial index space."""
    case: str
    q: int
    n: int                       # d + 1
    field: Field
    cells: dict                  # (row, col) -> nonzero element

    def lift_to(self, fld: Field) -> "BigForm":
        if fld is self.field:
            return self
        emb = gf.make_embedding(self.field, fld)
        return BigForm(self.case, self.q, self.n, fld,
                       {rc: emb(v) for rc, v in self.cells.items()})


def embed_qprime(B4: Mat, case: str, q: int) -> BigForm:
    """Place a 4x4 core of the case shape at the case's four indices inside
    the big space."""
    if not case_shape_check(B4, case, q):
        raise OrbitError("core matrix violates the case shape")
    pos = star_positions(case, q)
    n = case_signature(case, q).d + 1
    cells = {}
    for l in range(4):
        for m in range(4):
            v = B4.data[l][m]
            if v:
                cells[(pos[l], pos[m])] = v
    return BigForm(case, q, n, B4.field, cells)


def act(M: BigForm, g: Mat, phi: Mat = None) -> BigForm:
    """t(phi(g)) M phi(g)^(q), computed exactly in the big space.  A caller
    moving several forms of one degree by g passes phi = sympow(g, d) once;
    a phi of another size or field is refused, but one built from another g
    of that size is not detected."""
    if g.field is not M.field:
        raise OrbitError("lift the form and g to a common field first")
    f = M.field
    q = M.q
    if phi is None:
        phi = sympow(g, M.n - 1)
    elif phi.field is not f or phi.rows != M.n or phi.cols != M.n:
        raise OrbitError(f"phi must be sympow(g, {M.n - 1}) over the form's field")
    powq = {}
    for (_, c) in M.cells:
        if c not in powq:
            powq[c] = [f.pow(x, q) for x in phi.data[c]]
    out = {}
    for (r, c), v in M.cells.items():
        phir = phi.data[r]
        phiqc = powq[c]
        for u in range(M.n):
            a = phir[u]
            if not a:
                continue
            av = f.mul(a, v)
            row_out = out.setdefault(u, [0] * M.n)
            for w in range(M.n):
                b = phiqc[w]
                if b:
                    row_out[w] = f.add(row_out[w], f.mul(av, b))
    cells = {}
    for u, row in out.items():
        for w, v in enumerate(row):
            if v:
                cells[(u, w)] = v
    return BigForm(M.case, M.q, M.n, f, cells)


def proportional(M: BigForm, N: BigForm) -> Optional[int]:
    """The scalar c with M = c N, if one exists."""
    f = M.field
    if set(M.cells) != set(N.cells):
        return None
    c = None
    for rc, v in M.cells.items():
        ratio = f.div(v, N.cells[rc])
        if c is None:
            c = ratio
        elif c != ratio:
            return None
    return c


# ---------------------------------------------------------------------------
# diagonal congruences
# ---------------------------------------------------------------------------

def _solve_linear_congruence(a: int, b: int, n: int) -> Optional[int]:
    """Smallest x with a x == b (mod n), or None."""
    g = math.gcd(a, n)
    if b % g:
        return None
    return (b // g) * pow(a // g, -1, n // g) % (n // g)


def diagonal_solutions(M: BigForm, N: BigForm):
    """(X0, step) such that act(M, diag(x^X, 1)), x the generator of M's
    field, is proportional to N exactly when X == X0 (mod step); None when no
    X is.  diag(x^X, 1) scales cell (u, w) by x^(X a) (diag_weight), so with
    r = dlog(N / M) each support cell asks (a - a0) X == r - r0 (mod |F| - 1)
    against the first cell: one linear congruence per cell."""
    if set(M.cells) != set(N.cells):
        return None
    f = M.field
    n = f.order - 1
    x0, step, first = 0, 1, None
    for (u, w), v in M.cells.items():
        a = diag_weight(u, w, M.n - 1, M.q)[0]
        r = f.dlog(f.div(N.cells[(u, w)], v))
        first = first or (a, r)
        a, r = a - first[0], r - first[1]
        t = _solve_linear_congruence(a * step % n, (r - a * x0) % n, n)
        if t is None:
            return None
        x0 += step * t
        step *= n // math.gcd(a * step, n)
    return x0 % step, step


def diagonal_fixing_order(M: BigForm, n: int) -> int:
    """How many x of a cyclic group of order n make diag(x, 1) fix M up to a
    scalar, the homogeneous case N = M of diagonal_solutions (n / step): the
    count is D = gcd(n, a - a0 over M's support).  Only M's cells are read,
    so n need not be the order of M's field."""
    a = [diag_weight(u, w, M.n - 1, M.q)[0] for (u, w) in M.cells]
    return math.gcd(n, *(x - a[0] for x in a))


# ---------------------------------------------------------------------------
# equivalence scans
# ---------------------------------------------------------------------------

def _torus_cosets(fld: Field):
    """One h per ordered pair of distinct points of P^1 over fld, the images
    of (1 : 0) and (0 : 1): [[1, y], [x, 1]] with xy != 1, [[0, 1], [1, y]],
    and [[1, 1], [x, 0]] with x != 0, |F|(|F| + 1) in all.  Every invertible
    g is h diag(s, t) for exactly one of them.  Refuses before anything is
    generated when there are more than _COSET_SCAN_LIMIT of them."""
    count = fld.order * (fld.order + 1)
    if count > _COSET_SCAN_LIMIT:
        raise OrbitError(f"GL2 scan over {fld} refused: |F|(|F| + 1) = {count} "
                         f"torus cosets > {_COSET_SCAN_LIMIT}")
    F, mul = fld.elements(), fld.mul
    return itertools.chain(
        (Mat(fld, [[1, y], [x, 1]]) for x in F for y in F if mul(x, y) != 1),
        (Mat(fld, [[0, 1], [1, y]]) for y in F),
        (Mat(fld, [[1, 1], [x, 0]]) for x in F if x))


def pairwise_equivalence(forms, search_field: Field):
    """Scan GL2 over the search field once, testing every ordered pair of
    forms; returns {(i, j): witness g or None}.  A None verdict is exhaustive
    for this field, nothing more.

    Coset lemma: every invertible g is h diag(s, t) for exactly one h of
    _torus_cosets, and act(M, h D) = act(act(M, h), D).  Projectively
    diag(s, t) is diag(s/t, 1), so one act per (h, source) and one
    diagonal_solutions call per target decide the whole torus coset h T:
    |F|(|F| + 1) acts per source instead of |F|(|F|^2 - 1).  Sources of one
    degree share each h's sympow."""
    cosets = _torus_cosets(search_field)
    lifted = [m.lift_to(search_field) for m in forms]
    n = len(lifted)
    verdicts = {(i, j): None for i in range(n) for j in range(n) if i != j}
    unresolved = set(verdicts)
    for h in cosets:
        if not unresolved:
            break
        by_source = {}
        for (i, j) in unresolved:
            by_source.setdefault(i, []).append(j)
        phis = {}
        for i, targets in by_source.items():
            d = lifted[i].n - 1
            if d not in phis:
                phis[d] = sympow(h, d)
            Mh = act(lifted[i], h, phis[d])
            for j in targets:
                sol = diagonal_solutions(Mh, lifted[j])
                if sol is None:
                    continue
                x = search_field.exp_gen(sol[0])
                g = h.mul(Mat(search_field, [[x, 0], [0, 1]]))
                if proportional(act(lifted[i], g), lifted[j]) is None:
                    raise OrbitError("internal: torus coset witness fails act")
                verdicts[(i, j)] = g
                unresolved.discard((i, j))
    return verdicts


# ---------------------------------------------------------------------------
# q = 2 representative families
# ---------------------------------------------------------------------------

def q2_parameter_matrices():
    """The three fixed 2x3 parameter matrices of the complete q=2 degree-3
    representative list, over GF(4)."""
    fld = gf.gfq2(2)
    rows = [
        [[1, 0, 0], [0, 0, 1]],
        [[0, 1, 1], [1, 0, 0]],
        [[1, 1, 0], [0, 0, 1]],
    ]
    return [Mat(fld, r) for r in rows]


def q2_lambda_member(lam: int, fld: Field = None) -> Mat:
    """The lambda-indexed member [[lam, 1, 0], [1, 0, 1]] of the family."""
    fld = fld or gf.gfq2(2)
    return Mat(fld, [[lam, 1, 0], [1, 0, 1]])


def inflate_case1(params: Mat, q: int = 2) -> Mat:
    """Blow a 2x3 parameter matrix up to the 4x4 degree-(q+1) shape."""
    (a11, a12, a13), (a21, a22, a23) = params.data
    B = case1_shape(params.field, a11, a12, a13, a21, a22, a23)
    if not case_shape_check(B, CASE_C1, q):
        raise OrbitError("parameter matrix violates the shape side conditions")
    return B


# ---------------------------------------------------------------------------
# normalization to the representative (diagonal reparametrization)
# ---------------------------------------------------------------------------

def _extension_ladder(src: Field, q: int, max_ext: int, search: str):
    """Yield (GF(q^(2m)), embedding of src) for m = 1..max_ext, skipping the
    fields above _UNTWIST_FIELD_LIMIT or not containing src.  A caller that
    finds nothing sees SearchExhausted, naming both bounds and the field
    orders tried, once the ladder runs out."""
    p, n0 = gf.prime_power_split(q)
    tried = []
    for m in range(1, max_ext + 1):
        if p ** (2 * n0 * m) > _UNTWIST_FIELD_LIMIT or (2 * n0 * m) % src.m:
            continue  # guard before any field gets built
        fld = gf.gf_ext(q, m)
        emb = gf.make_embedding(src, fld)
        tried.append(fld.order)
        yield fld, emb
    raise SearchExhausted(
        f"no {search} within GF(q^(2m)), m <= {max_ext}, field size <= "
        f"2^{_UNTWIST_FIELD_LIMIT.bit_length() - 1}; field orders tried: {tried}")


def normalize_to_rep(B4: Mat, case: str, q: int, max_ext: int = 6) -> Mat:
    """Diagonal reparametrization g = diag(l, m) over GF(q^(2m)), m <= max_ext,
    carrying a b2-free core of the degree-q(q+1) or half-degree shape onto the
    canonical representative.  diagonal_solutions fixes l/m = x^X up to
    X == X0 (mod step); diag(m, m) scales every cell by m^(d(q+1)), so the
    scalar is one more congruence, on any one cell.  The output is verified
    through act before return."""
    if case not in (CASE_C2, CASE_C3):
        raise OrbitError("diagonal normalization applies to the c2/c3 shapes")
    if q < 3:
        raise OrbitError("normalization targets the q >= 3 representative")
    if not case_shape_check(B4, case, q) or B4.data[0][3] != 0:
        raise OrbitError("core must match the case shape with zero corner entry")
    e = case_signature(case, q).d * (q + 1)
    big4 = embed_qprime(B4, case, q)
    rep4 = embed_qprime(canonical_rep(case, q), case, q)
    for fld, _ in _extension_ladder(B4.field, q, max_ext,
                                    "diagonal normalization"):
        big, target = big4.lift_to(fld), rep4.lift_to(fld)
        sol = diagonal_solutions(big, target)
        if sol is None:
            continue
        x0, step = sol
        n, k = fld.order - 1, math.gcd(e, fld.order - 1)
        (u, w), v = next(iter(big.cells.items()))
        a = diag_weight(u, w, big.n - 1, q)[0]
        r = fld.dlog(fld.div(target.cells[(u, w)], v))
        # m^e = x^(r - a X) needs r - a X == 0 (mod gcd(e, n))
        t = _solve_linear_congruence(a * step % k, (r - a * x0) % k, k)
        if t is None:
            continue
        X = x0 + step * t
        Y = _solve_linear_congruence(e % n, (r - a * X) % n, n)
        g = Mat(fld, [[fld.exp_gen(X + Y), 0], [0, fld.exp_gen(Y)]])
        if proportional(act(big, g), target) == 1:
            return g


# ---------------------------------------------------------------------------
# twisted congruence solving
# ---------------------------------------------------------------------------

def _signed_permutation_cycles(M: Mat):
    """Decompose an invertible monomial matrix into cycles
    [(indices, values)], or None if the support is not a permutation."""
    n = M.rows
    col_of = {}
    for r in range(n):
        nz = [c for c in range(n) if M.data[r][c]]
        if len(nz) != 1:
            return None
        col_of[r] = nz[0]
    if len(set(col_of.values())) != n:
        return None
    seen = set()
    cycles = []
    for start in range(n):
        if start in seen:
            continue
        idx = [start]
        seen.add(start)
        cur = col_of[start]
        while cur != start:
            idx.append(cur)
            seen.add(cur)
            cur = col_of[cur]
        cycles.append((idx, [M.data[r][col_of[r]] for r in idx]))
    return cycles


def _solve_three_cycle(fld: Field, values, q: int):
    """G block (3x3) with twisted Gram form equal to the cyclic matrix carrying
    `values` on the cycle cells.

    Circulant ansatz c I + a P + b P^2: its twisted Gram form is circulant
    with coefficients a^(q+1)+b^(q+1)+c^(q+1) on I, ab^q+bc^q+ca^q on P and
    ba^q+cb^q+ac^q on P^2.  A candidate needs (0, u, 0) with u nonzero; the
    leftover u and the cycle values are then absorbed by a diagonal factor.
    Scaling (a,b,c) rescales u, so a is normalized to 1 (or 0) and c is
    pinned by the norm condition, leaving a linear scan in b.
    """
    f = fld
    for a in (1, 0):
        na = f.pow(a, q + 1)
        aq = f.pow(a, q)
        for b in (f.elements() if a else [1]):
            w = f.neg(f.add(na, f.pow(b, q + 1)))
            bq = f.pow(b, q)
            for c in f.power_roots(w, q + 1):
                cq = f.pow(c, q)
                z = f.add(f.add(f.mul(b, aq), f.mul(c, bq)), f.mul(a, cq))
                if z:
                    continue
                u = f.add(f.add(f.mul(a, bq), f.mul(b, cq)), f.mul(c, aq))
                if not u:
                    continue
                deltas = _cycle_diagonal(f, values, u, q)
                if deltas is None:
                    continue
                Gp = Mat(f, [[c, a, b], [b, c, a], [a, b, c]])  # c I + a P + b P^2
                G = Gp.mul(Mat.diagonal(f, deltas))
                target = Mat(f, [[0, values[0], 0], [0, 0, values[1]],
                                 [values[2], 0, 0]])
                if twisted_gram(G, Mat.identity(f, 3), q) == target:
                    return G
    return None


def _cycle_diagonal(f: Field, values, u: int, q: int):
    """diag(d1, d2, d3) with d_k d_{k+1}^q u = values[k]; solved by discrete
    logs, chaining the three conditions into one congruence."""
    n = f.order - 1
    try:
        cs = [f.dlog(f.div(v, u)) for v in values]
    except ZeroDivisionError:
        return None
    # x3 (q^3 + 1) == c3 - q c1 + q^2 c2 (mod n)
    rhs = (cs[2] - q * cs[0] + q * q * cs[1]) % n
    x3 = _solve_linear_congruence((q ** 3 + 1) % n, rhs, n)
    if x3 is None:
        return None
    x2 = (cs[1] - q * x3) % n
    x1 = (cs[0] - q * x2) % n
    return [f.exp_gen(x1), f.exp_gen(x2), f.exp_gen(x3)]


def _untwist(M: Mat, q: int, max_ext: int):
    """G with t(G) G^(q) = M.  Hermitian matrices split over GF(q^2); the
    case-shaped monomial targets go through the cycle machinery over
    increasing extensions."""
    if is_hermitian(M, q):
        return hermitian_decompose(M, q)
    cycles = _signed_permutation_cycles(M)
    if cycles is None:
        raise OrbitError("target must be Hermitian or a monomial case shape")
    for fld, emb in _extension_ladder(M.field, q, max_ext,
                                      "twisted splitting found"):
        blocks = {}
        for idx, values in cycles:
            vals = [emb(v) for v in values]
            if len(idx) == 1:
                roots = fld.power_roots(vals[0], q + 1)
                block = Mat(fld, [roots[:1]]) if roots else None
            elif len(idx) == 3:
                block = _solve_three_cycle(fld, vals, q)
            else:
                raise OrbitError(f"unsupported cycle length {len(idx)}")
            if block is None:
                break
            blocks[tuple(idx)] = block
        if len(blocks) < len(cycles):
            continue
        n = M.rows
        G = Mat.zeros(fld, n, n)
        for idx, block in blocks.items():
            for r, gr in enumerate(idx):
                for c, gc in enumerate(idx):
                    G.data[gr][gc] = block.data[r][c]
        if twisted_gram(G, Mat.identity(fld, n), q) == M.lift_to(fld):
            return G


def twisted_congruence_solve(A: Mat, Mtarget: Mat, q: int,
                             max_ext: int = 6) -> Mat:
    """F with t(F) A F^(q) = Mtarget, exactly.

    A is split as t(H) H^(q) over GF(q^2) (it must be invertible Hermitian);
    the target is split over an extension, and F = H^{-1} G.
    """
    if not is_hermitian(A, q):
        raise MatError("surface matrix must be Hermitian over GF(q^2)")
    if A.det() == 0 or Mtarget.det() == 0:
        raise MatError("both matrices must be invertible")
    H = hermitian_decompose(A, q)
    G = _untwist(Mtarget, q, max_ext)
    fld = G.field
    F = H.lift_to(fld).inverse().mul(G)
    if twisted_gram(F, A.lift_to(fld), q) != Mtarget.lift_to(fld):
        raise OrbitError("internal: congruence round trip failed")
    return F


def build_curve(case: str, q: int, surf: SurfaceSpec,
                max_ext: int = 6) -> CurveSpec:
    """A verified member of the case's curve family on the given surface: the
    four frame columns returned are the ones sitting at the case's big-form
    indices."""
    if max_ext < 1:
        raise OrbitError(f"max_ext={max_ext} must be >= 1")
    if surf.q != q:
        raise OrbitError("surface and requested q disagree")
    if not surf.hermitian:
        raise MatError("surface matrix must be Hermitian")
    if not surf.smooth:
        raise MatError("surface is singular")
    target = case_target(case, q)
    F = twisted_congruence_solve(surf.gram, target, q, max_ext)
    curve = CurveSpec(q, case_signature(case, q), F)
    if not on_surface(curve, surf):
        raise OrbitError("internal: constructed curve fails containment")
    return curve


# ---------------------------------------------------------------------------
# the stabilizer
# ---------------------------------------------------------------------------

@dataclass
class StabilizerReport:
    case: str
    q: int
    field: Field
    elements: list               # projective 4x4 star matrices, scalar-normalized
    order: int
    cyclic: bool
    predicted_order: int
    nondiagonal_samples: int = 0
    nondiagonal_hits: ClassVar[int] = 0  # by nondiagonal_excluded

    @property
    def matches_prediction(self) -> bool:
        return self.order == self.predicted_order and self.cyclic

    def to_json(self) -> dict:
        return {
            "case": self.case, "q": self.q, "mode": "diagonal_exhaustive",
            "search_field": gf.field_to_json(self.field),
            "order": self.order, "cyclic": self.cyclic,
            "predicted_order": self.predicted_order,
            "match": self.matches_prediction,
            "nondiagonal_samples": self.nondiagonal_samples,
            "nondiagonal_hits": self.nondiagonal_hits,
            "elements": [e.to_json() for e in self.elements],
        }


def diagonal_stabilizer(M: BigForm) -> list:
    """Sorted projective stars diag(1, x^-i, x^-j, x^-d) of every diag(x, 1)
    over M's field fixing M up to a scalar.  The fixing x are the powers of
    x^step, step = |F*| / diagonal_fixing_order, so one walk steps that
    generator's star entry by entry until it returns to the identity: the
    group is cyclic by construction, and its order is the walk's length.
    diag(a, e) acts as diag(a/e, 1) projectively."""
    f = M.field
    mul = f.mul
    n = f.order - 1
    step = n // diagonal_fixing_order(M, n)
    gen = [f.exp_gen(-step * k % n) for k in star_positions(M.case, M.q)]
    stars, cur = [], [1] * len(gen)
    while True:
        stars.append(Mat.diagonal(f, cur))
        cur = [mul(x, y) for x, y in zip(cur, gen)]
        if all(x == 1 for x in cur):
            return sorted(stars, key=Mat.key)


def nondiagonal_excluded(M: BigForm) -> bool:
    """Whether the support-row lemma rules every non-diagonal g out of M's
    stabilizer, over M's field and every extension of it: the rows of
    phi(g) = sympow(g, d) at the stars then escape the span of the stars.

    Support-row lemma.  Let M be supported on S x S, S = (0, i, j, d) the
    star positions, with invertible 4x4 core.  If act(M, g) is proportional
    to M, then phi[r][u] = 0 for every r in S and u not in S.  Proof: row u
    of act(M, g) is the sum over r in S of phi[r][u] times row r of
    M_core P^(q), P the rows of phi at S.  phi is invertible (sympow is a
    homomorphism), so P and its Frobenius twist P^(q) have rank 4, and so
    has M_core P^(q): its rows are independent.  For u not in S row u of a
    multiple of M is zero, so every phi[r][u] vanishes.

    Row r of phi is (a s + b t)^(d - r) (c s + e t)^r for g = [[a, b],
    [c, e]].  With a b != 0 row 0 has support exactly lucas_exponents(d, p),
    and with c e != 0 so has row d.  An invertible g with a b = c e = 0 is
    diagonal or anti-diagonal, whose row r is the one monomial at column
    d - r.  So every non-diagonal g is excluded when lucas_exponents(d, p)
    leaves S and some d - r, r in S, is not in S: support_rows_exclude(d,
    S, p), which reads nothing else.  Raises OrbitError if M leaves S x S
    or its core is singular, where the lemma does not apply."""
    f = M.field
    pos = star_positions(M.case, M.q)
    stars = set(pos)
    if any(r not in stars or c not in stars for r, c in M.cells):
        raise OrbitError("internal: support-row test needs a form on the stars")
    core = Mat(f, [[M.cells.get((r, c), 0) for c in pos] for r in pos])
    if core.det() == 0:
        raise OrbitError("internal: support-row test needs an invertible core")
    return support_rows_exclude(M.n - 1, pos, f.p)


def support_rows_exclude(d: int, stars, p: int) -> bool:
    """nondiagonal_excluded's verdict: lucas_exponents(d, p) leaves the stars
    S, and so does d - r for some star r.  True for c2 and c3 at every q:
    d = q k with k prime to p puts q, not a star, in lucas_exponents(d, p);
    and d - j is q - 1 (c2) or (q - 1)/2 (c3), not a star either."""
    stars = set(stars)
    return (not lucas_exponents(d, p) <= stars
            and any(d - r not in stars for r in stars))


def stabilizer_search(case: str, q: int,
                      samples: int = 10 ** 4) -> StabilizerReport:
    """Projective g with t(phi(g)) M phi(g)^(q) = lambda M for the standard
    representative M, against the closed-form order.  The diagonal part is
    exact over GF(q^6), which holds every diagonal solution ratio: one gcd
    and one walk (diagonal_stabilizer).  nondiagonal_excluded proves once
    that no non-diagonal g over any field fixes M, as it does for every
    c2/c3 representative, so a False verdict is an internal OrbitError.
    Nothing is drawn: the report echoes samples as nondiagonal_samples, and
    nondiagonal_hits is 0 by that proof, for any samples >= 0."""
    if case not in (CASE_C2, CASE_C3):
        raise OrbitError("stabilizer scans cover the c2/c3 families")
    if samples < 0:
        raise OrbitError(f"samples must be >= 0, got {samples}")
    rep = canonical_rep(case, q)
    fld = gf.gf_ext(q, 3)
    big = embed_qprime(rep, case, q).lift_to(fld)
    elems = diagonal_stabilizer(big)
    if not nondiagonal_excluded(big):
        raise OrbitError("internal: the support rows leave a non-diagonal g open")
    return StabilizerReport(case, q, fld, elems, len(elems), True,
                            stab_order(case, q), samples)
