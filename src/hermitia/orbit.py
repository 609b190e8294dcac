"""Symmetric-power action on big form matrices, equivalence and normalization
of the standard form representatives, twisted congruence solving, stabilizer
scans, and the closed-form curve counts.

Degree-d monomial vectors live in a (d+1)-dimensional space indexed by the
t-exponent 0..d.  A 4x4 form matrix supported on the four exponents
(0, i, j, d) embeds as a sparse (d+1)x(d+1) "big form"; GL2 acts on big forms
through the symmetric power, M -> t(phi(g)) M phi(g)^(q).  Every scan below
works in the big space, exactly.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from . import gf
from .gf import Field
from .matff import Mat, MatError, SurfaceSpec, hermitian_decompose, is_hermitian, \
    twisted_gram
from .tetra import (CASE_C1, CASE_C2, CASE_C3, CurveSpec, case_signature,
                    on_surface)
from .classify import case1_shape, case23_shape, case_shape_check

INFINITE = "infinite"

_UNTWIST_FIELD_LIMIT = 1 << 18  # largest field scanned by the congruence search
_GL2_SCAN_LIMIT = 10 ** 9       # |field|^4 guard for exhaustive (P)GL2 scans


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

    These are the orders the counting formulas divide by.  The diagonal scan
    (stabilizer_search) recomputes the same quantity exhaustively and the two
    are compared, never reconciled.
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


def project_star(M: BigForm) -> Mat:
    """Inverse of embed_qprime on its image."""
    pos = star_positions(M.case, M.q)
    posset = set(pos)
    if any(r not in posset or c not in posset for (r, c) in M.cells):
        raise OrbitError("big form has support outside the case index set")
    idx = {e: k for k, e in enumerate(pos)}
    data = [[0] * 4 for _ in range(4)]
    for (r, c), v in M.cells.items():
        data[idx[r]][idx[c]] = v
    return Mat(M.field, data)


def act(M: BigForm, g: Mat) -> BigForm:
    """t(phi(g)) M phi(g)^(q), computed exactly in the big space."""
    if g.field is not M.field:
        raise OrbitError("lift the form and g to a common field first")
    f = M.field
    q = M.q
    d = M.n - 1
    phi = sympow(g, d)
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
# equivalence scans
# ---------------------------------------------------------------------------

def _pgl2_elements(fld: Field):
    """One matrix per scalar class of GL2(fld): [[1, b], [c, e]] with e != bc,
    then [[0, 1], [c, e]] with c != 0, |F|(|F|^2 - 1) in all.  A scalar
    lambda I multiplies every big form by lambda^(d(q+1)), so a scan up to
    proportionality needs no other element.  Refuses before anything is
    generated when |F|^4 exceeds the GL2 scan guard."""
    if fld.order ** 4 > _GL2_SCAN_LIMIT:
        raise OrbitError(f"GL2 scan over {fld} refused: |F|^4 = {fld.order ** 4} "
                         f"> {_GL2_SCAN_LIMIT}")
    F, mul = fld.elements(), fld.mul
    return itertools.chain(
        (Mat(fld, [[1, b], [c, e]]) for b in F for c in F for e in F
         if e != mul(b, c)),
        (Mat(fld, [[0, 1], [c, e]]) for c in F if c for e in F))


def pairwise_equivalence(forms, search_field: Field):
    """Scan PGL2 over the search field once, testing every ordered pair of
    forms; returns {(i, j): witness g or None}.  A None verdict is exhaustive
    for this field, nothing more."""
    elements = _pgl2_elements(search_field)
    lifted = [m.lift_to(search_field) for m in forms]
    n = len(lifted)
    verdicts = {(i, j): None for i in range(n) for j in range(n) if i != j}
    unresolved = set(verdicts)
    for g in elements:
        if not unresolved:
            break
        by_source = {}
        for (i, j) in unresolved:
            by_source.setdefault(i, []).append(j)
        for i, targets in by_source.items():
            Mi = act(lifted[i], g)
            for j in targets:
                if proportional(Mi, lifted[j]) is not None:
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

def _extension_ladder(src: Field, q: int, max_ext: int, tried: list):
    """Yield (GF(q^(2m)), embedding of src) for m = 1..max_ext, skipping the
    fields above _UNTWIST_FIELD_LIMIT or not containing src, and append each
    field order yielded to `tried`."""
    p, n0 = gf.prime_power_split(q)
    for m in range(1, max_ext + 1):
        if p ** (2 * n0 * m) > _UNTWIST_FIELD_LIMIT or (2 * n0 * m) % src.m:
            continue  # guard before any field gets built
        fld = gf.gf_ext(q, m)
        emb = gf.make_embedding(src, fld)
        tried.append(fld.order)
        yield fld, emb


def _solve_linear_congruence(a: int, b: int, n: int) -> Optional[int]:
    """Smallest x with a x == b (mod n), or None."""
    g = math.gcd(a, n)
    if b % g:
        return None
    return (b // g) * pow(a // g, -1, n // g) % (n // g)


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t


def _solve_2x2_congruence(E, rhs, n: int):
    """One solution (x, y) of the integer system E (x, y) == rhs (mod n), or
    None.  Row-reduce over Z to a triangular system, then walk the finitely
    many candidates of the second unknown's solution line."""
    (e11, e12), (e21, e22) = E
    r1, r2 = rhs
    g, u, v = _xgcd(e11, e21)
    if g == 0:
        # first column vanishes: x is free, both rows constrain y alone
        f11, f12, s1 = 0, e12, r1
        f22, s2 = e22, r2
    else:
        f11 = g
        f12 = u * e12 + v * e22
        s1 = u * r1 + v * r2
        f22 = (-e21 // g) * e12 + (e11 // g) * e22
        s2 = (-e21 // g) * r1 + (e11 // g) * r2
    y0 = _solve_linear_congruence(f22 % n, s2 % n, n)
    if y0 is None:
        return None
    gy = math.gcd(f22 % n, n)
    step = n // gy if gy else n
    for k in range(gy if gy else 1):
        y = (y0 + k * step) % n
        x = _solve_linear_congruence(f11 % n, (s1 - f12 * y) % n, n)
        if x is not None and (e11 * x + e12 * y - r1) % n == 0 \
                and (e21 * x + e22 * y - r2) % n == 0:
            return x, y
    return None


def _solve_two_power_equations(fld: Field, b1: int, b3: int, exps):
    """Solve b1 l^e11 m^e12 = 1 and b3 l^e21 m^e22 = 1 in the cyclic group of
    fld; returns (l, m) or None."""
    n = fld.order - 1
    rhs = ((-fld.dlog(b1)) % n, (-fld.dlog(b3)) % n)
    sol = _solve_2x2_congruence(exps, rhs, n)
    if sol is None:
        return None
    return fld.exp_gen(sol[0]), fld.exp_gen(sol[1])


def normalize_to_rep(B4: Mat, case: str, q: int, max_ext: int = 6) -> Mat:
    """Diagonal reparametrization g = diag(l, m) over GF(q^(2m)), m <= max_ext,
    carrying a b2-free core of the degree-q(q+1) or half-degree shape onto the
    canonical representative.  The output is verified through act before
    return."""
    if case not in (CASE_C2, CASE_C3):
        raise OrbitError("diagonal normalization applies to the c2/c3 shapes")
    if q < 3:
        raise OrbitError("normalization targets the q >= 3 representative")
    if not case_shape_check(B4, case, q) or B4.data[0][3] != 0:
        raise OrbitError("core must match the case shape with zero corner entry")
    sig = case_signature(case, q)
    d, j = sig.d, sig.j
    exps = ((d * q, d), ((d - j) * (q + 1), j * (q + 1)))
    rep = canonical_rep(case, q)
    tried = []
    for fld, emb in _extension_ladder(B4.field, q, max_ext, tried):
        b1 = emb(B4.data[0][1])
        b3 = emb(B4.data[1][3])
        sol = _solve_two_power_equations(fld, b1, b3, exps)
        if sol is None:
            continue
        lam, mu = sol
        g = Mat(fld, [[lam, 0], [0, mu]])
        big = embed_qprime(B4, case, q).lift_to(fld)
        target = embed_qprime(rep, case, q).lift_to(fld)
        moved = act(big, g)
        if proportional(moved, target) == 1:
            return g
    raise SearchExhausted(
        f"no diagonal normalization within GF(q^(2m)), m <= {max_ext}; "
        f"field orders tried: {tried}")


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


def _solve_fixed_cell(fld: Field, value: int, q: int) -> Optional[int]:
    roots = fld.power_roots(value, q + 1)
    return roots[0] if roots else None


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
    tried = []
    for fld, emb in _extension_ladder(M.field, q, max_ext, tried):
        blocks = {}
        for idx, values in cycles:
            vals = [emb(v) for v in values]
            if len(idx) == 1:
                c = _solve_fixed_cell(fld, vals[0], q)
                block = None if c is None else Mat(fld, [[c]])
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
    raise SearchExhausted(
        f"no twisted splitting found within GF(q^(2m)), m <= {max_ext}; "
        f"field orders tried: {tried}")


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
# stabilizer scans
# ---------------------------------------------------------------------------

@dataclass
class StabilizerReport:
    case: str
    q: int
    mode: str
    field: Field
    elements: list               # projective 4x4 star matrices, scalar-normalized
    order: int
    cyclic: bool
    predicted_order: int
    nondiagonal_samples: int = 0
    nondiagonal_hits: int = 0

    @property
    def matches_prediction(self) -> bool:
        return self.order == self.predicted_order and self.cyclic

    def to_json(self) -> dict:
        return {
            "case": self.case, "q": self.q, "mode": self.mode,
            "search_field": gf.field_to_json(self.field),
            "order": self.order, "cyclic": self.cyclic,
            "predicted_order": self.predicted_order,
            "match": self.matches_prediction,
            "nondiagonal_samples": self.nondiagonal_samples,
            "nondiagonal_hits": self.nondiagonal_hits,
            "elements": [e.to_json() for e in self.elements],
        }


def _normalize_projective(M: Mat) -> Mat:
    for row in M.data:
        for v in row:
            if v:
                return M.scalar(M.field.inv(v))
    raise OrbitError("zero matrix is not projective")


def _star_of_phi(g: Mat, case: str, q: int) -> Mat:
    d = case_signature(case, q).d
    phi = sympow(g, d)
    pos = star_positions(case, q)
    return Mat(g.field, [[phi.data[r][c] for c in pos] for r in pos])


def _group_is_cyclic(elements) -> bool:
    """Whether some element's projective order equals the group order."""
    order = len(elements)
    if order <= 1:
        return True
    for e in elements:
        k = 1
        cur = e
        while not _is_identity_projective(cur):
            cur = _normalize_projective(cur.mul(e))
            k += 1
            if k > order:
                return False  # not closed; caller has bigger problems
        if k == order:
            return True
    return False


def _is_identity_projective(M: Mat) -> bool:
    n = _normalize_projective(M)
    return n == Mat.identity(M.field, 4)


def stabilizer_search(case: str, q: int, mode: str = "diagonal_exhaustive",
                      samples: int = 10 ** 4, seed: int = 1,
                      search_field: Field = None) -> StabilizerReport:
    """Scan reparametrizations g for t(phi(g)) M phi(g)^(q) = lambda M with
    the standard representative M, collect the projective fixing elements,
    and compare against the closed-form order.

    Diagonal mode is exhaustive over diagonal g modulo scalars (the scalar
    never changes the condition, so diag(a, d) is scanned as diag(a/d, 1))
    over GF(q^6), which contains every diagonal solution ratio.  Sampled
    non-diagonal g double-check that no further solutions hide off the
    diagonal.  Full mode scans all of GL2 modulo scalars over the search
    field.
    """
    if case not in (CASE_C2, CASE_C3):
        raise OrbitError("stabilizer scans cover the c2/c3 families")
    if samples < 0:
        raise OrbitError(f"samples must be >= 0, got {samples}")
    rep = canonical_rep(case, q)
    fld = search_field or gf.gf_ext(q, 3)
    big = embed_qprime(rep, case, q).lift_to(fld)
    elements = {}

    if mode == "diagonal_exhaustive":
        for r in range(1, fld.order):
            g = Mat(fld, [[r, 0], [0, 1]])
            if proportional(act(big, g), big) is not None:
                star = _normalize_projective(_star_of_phi(g, case, q))
                elements[star.key()] = star
    elif mode == "full_small":
        for g in _pgl2_elements(fld):
            if proportional(act(big, g), big) is not None:
                star = _normalize_projective(_star_of_phi(g, case, q))
                elements[star.key()] = star
    else:
        raise OrbitError(f"unknown mode {mode!r}")

    elems = [elements[k] for k in sorted(elements)]
    hits = 0
    if mode == "diagonal_exhaustive" and samples:
        rng = random.Random(seed)
        done = 0
        while done < samples:
            a, b = rng.randrange(fld.order), rng.randrange(fld.order)
            c, e = rng.randrange(fld.order), rng.randrange(fld.order)
            if (b == 0 and c == 0) or fld.sub(fld.mul(a, e), fld.mul(b, c)) == 0:
                continue
            done += 1
            g = Mat(fld, [[a, b], [c, e]])
            if proportional(act(big, g), big) is not None:
                hits += 1
    return StabilizerReport(case, q, mode, fld, elems, len(elems),
                            _group_is_cyclic(elems), stab_order(case, q),
                            samples if mode == "diagonal_exhaustive" else 0, hits)
