"""Symmetric-power action on big form matrices, equivalence of the standard
form representatives, twisted congruence solving, the diagonal stabilizer,
and the closed-form curve counts.

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

from . import gf
from .gf import Field, SearchExhausted
from .matff import Mat, MatError, SurfaceSpec, hermitian_decompose, is_hermitian, \
    twisted_gram
from .tetra import (CASE_C1, CASE_C2, CASE_C3, CurveSpec, case_signature,
                    on_surface)
from .classify import case1_shape, case23_shape, case_shape_check

INFINITE = "infinite"

_COSET_SCAN_LIMIT = 10 ** 5     # most torus cosets an equivalence scan walks
_THREE_CYCLE_BUDGET = 10 ** 5   # most steps a three-cycle search may estimate


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


class CountEntry:
    def __init__(self, case: str, d: int, count, aut: int, stab: int | None,
                 note: str = ""):
        self.case = case
        self.d = d
        self.count = count      # int or "infinite"
        self.aut = aut
        self.stab = stab
        self.note = note

    def to_json(self) -> dict:
        return {"case": self.case, "d": self.d, "count": self.count,
                "aut_order": self.aut, "stab_order": self.stab, "note": self.note}


class CountReport:
    def __init__(self, q: int, entries: list):
        self.q = q
        self.entries = entries

    def to_json(self) -> dict:
        return {"q": self.q, "cases": [e.to_json() for e in self.entries]}


def count_report(q: int) -> CountReport:
    gf.prime_power_split(q)
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


class BigForm:
    """Sparse (d+1)x(d+1) form matrix over the monomial index space."""

    def __init__(self, case: str, q: int, n: int, field: Field, cells: dict):
        self.case = case
        self.q = q
        self.n = n              # d + 1
        self.field = field
        self.cells = cells      # (row, col) -> nonzero element

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
    sig = case_signature(case, q)
    pos, n = sig.exponents, sig.d + 1
    cells = {}
    for l in range(4):
        for m in range(4):
            v = B4.data[l][m]
            if v:
                cells[(pos[l], pos[m])] = v
    return BigForm(case, q, n, B4.field, cells)


def _frobenius_rows(phi: Mat, q: int, rows) -> dict:
    """{r: row r of phi with every entry raised to the q-th power}."""
    pow_ = phi.field.pow
    return {r: [pow_(x, q) for x in phi.data[r]] for r in rows}


def act(M: BigForm, g: Mat, phi: Mat = None, phiq: dict = None) -> BigForm:
    """t(phi(g)) M phi(g)^(q), computed exactly in the big space as two
    products: Y_r = sum over c of M[r][c] phi^(q)_c for each nonzero row r
    of M, then out[u] = sum over r of phi[r][u] Y_r, skipping zeros.

    A caller moving several forms of one degree by g passes phi =
    sympow(g, d) once, and may pass phiq = _frobenius_rows(phi, q, range(n))
    with it; without phiq the rows M's columns need are raised here.  A phi
    or phiq of another size, or a phi of another field, is refused, but one
    built from another g of that size is not detected."""
    if g.field is not M.field:
        raise OrbitError("lift the form and g to a common field first")
    f, n = M.field, M.n
    if phi is None:
        phi, phiq = sympow(g, n - 1), None
    elif phi.field is not f or phi.rows != n or phi.cols != n or \
            (phiq is not None and len(phiq) != n):
        raise OrbitError(f"phi must be sympow(g, {n - 1}) over the form's field")
    if phiq is None:
        phiq = _frobenius_rows(phi, M.q, {c for (_, c) in M.cells})
    mul, add = f.mul, f.add
    ys = {}
    for (r, c), v in M.cells.items():
        y = ys.setdefault(r, [0] * n)
        for w, b in enumerate(phiq[c]):
            if b:
                y[w] = add(y[w], mul(v, b))
    out = {}
    for r, y in ys.items():
        y = [(w, b) for w, b in enumerate(y) if b]
        if not y:
            continue
        for u, a in enumerate(phi.data[r]):
            if a:
                row = out.setdefault(u, [0] * n)
                for w, b in y:
                    row[w] = add(row[w], mul(a, b))
    cells = {}
    for u, row in out.items():
        for w, v in enumerate(row):
            if v:
                cells[(u, w)] = v
    return BigForm(M.case, M.q, n, f, cells)


def proportional(M: BigForm, N: BigForm) -> int | None:
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

def _solve_linear_congruence(a: int, b: int, n: int) -> int | None:
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
    """Scan GL2 over the search field once, testing every pair of forms;
    returns {(i, j): witness g or None} over all ordered pairs.  A None
    verdict is exhaustive for this field, nothing more.

    Coset lemma: every invertible g is h diag(s, t) for exactly one h of
    _torus_cosets, and act(M, h D) = act(act(M, h), D).  Projectively
    diag(s, t) is diag(s/t, 1), so one act per (h, source) and one
    diagonal_solutions call per target decide the whole torus coset h T:
    |F|(|F| + 1) acts per source instead of |F|(|F|^2 - 1).  Sources of one
    degree and q share each h's sympow and its Frobenius rows.

    Symmetry lemma: act is linear in M, and act(act(M, g), g') =
    act(M, g g') because sympow is a homomorphism, so act(M_i, g) = c M_j
    gives act(M_j, g^-1) = c^-1 M_i.  A scalar lambda moves every form by
    lambda^(d(q+1)), so the adjugate [[e, -b], [-c, a]] of g = [[a, b],
    [c, e]] serves as g^-1.  Only the pairs i < j are scanned, and a witness
    g for (i, j) gives its adjugate for (j, i); the last source has no
    target left.  Both witnesses are checked with a dense act."""
    cosets = _torus_cosets(search_field)
    lifted = [m.lift_to(search_field) for m in forms]
    n = len(lifted)
    verdicts = {(i, j): None for i in range(n) for j in range(n) if i != j}
    targets = {i: list(range(i + 1, n)) for i in range(n - 1)}
    neg = search_field.neg
    for h in cosets:
        if not targets:
            break
        shared = {}
        for i, js in list(targets.items()):
            M = lifted[i]
            key = (M.n, M.q)
            if key not in shared:
                phi = sympow(h, M.n - 1)
                shared[key] = phi, _frobenius_rows(phi, M.q, range(M.n))
            Mh = act(M, h, *shared[key])
            for j in list(js):
                sol = diagonal_solutions(Mh, lifted[j])
                if sol is None:
                    continue
                x = search_field.exp_gen(sol[0])
                g = h.mul(Mat(search_field, [[x, 0], [0, 1]]))
                (a, b), (c, e) = g.data
                g_inv = Mat(search_field, [[e, neg(b)], [neg(c), a]])
                if proportional(act(M, g), lifted[j]) is None or \
                        proportional(act(lifted[j], g_inv), M) is None:
                    raise OrbitError("internal: torus coset witness fails act")
                verdicts[(i, j)], verdicts[(j, i)] = g, g_inv
                js.remove(j)
            if not js:
                del targets[i]
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


def q2_lambda_member(lam: int) -> Mat:
    """The lambda-indexed member [[lam, 1, 0], [1, 0, 1]] of the family,
    over GF(4)."""
    return Mat(gf.gfq2(2), [[lam, 1, 0], [1, 0, 1]])


def inflate_case1(params: Mat) -> Mat:
    """Blow a 2x3 parameter matrix over GF(4) up to the 4x4 degree-3 shape
    of q = 2."""
    (a11, a12, a13), (a21, a22, a23) = params.data
    B = case1_shape(params.field, a11, a12, a13, a21, a22, a23)
    if not case_shape_check(B, CASE_C1, 2):
        raise OrbitError("parameter matrix violates the shape side conditions")
    return B


# ---------------------------------------------------------------------------
# twisted congruence solving
# ---------------------------------------------------------------------------

def _solve_three_cycle(f: Field, values, q: int, pairs):
    """G block (3x3) with twisted Gram form equal to the cyclic matrix carrying
    `values` on the cycle cells, or None.

    Circulant ansatz G0 = c I + a P + b P^2, P the cyclic shift: its twisted
    Gram form is circulant with coefficients a^(q+1)+b^(q+1)+c^(q+1) on I,
    u = ab^q+bc^q+ca^q on P and z = ba^q+cb^q+ac^q on P^2.  A candidate
    needs (0, u, 0) with u nonzero; the leftover u and the cycle values are
    then absorbed by a diagonal factor (_cycle_diagonal).  The candidates
    are the (b, c) of `pairs`, with a = 1, tried in order: _untwist passes
    the scan (_scanned_circulants) for p = 3 and the closed form
    (_closed_form_circulants) otherwise.

    Lemma (pick).  The scan visits a = 1, b in packed order, then c in
    packed order, and returns the first candidate passing z = 0, u != 0,
    _cycle_diagonal and the Gram check.  A candidate with z = 0 and
    u != 0 has t(G0) G0^(q) = u P, so its eigenvalue l_0 = a + b + c has
    l_0^(q+1) = u (see _closed_form_circulants), and G0 / l_0 is the one
    multiple with t(G0) G0^(q) = P.  So the a != 0 members of the closed
    form's set, divided by a, are exactly the scan's candidates with z = 0
    and u != 0; sorted by (b, c) and put through the same tests, they give
    the scan's answer.
    The scan's other branch, a = 0 and b = 1, has z = c with c^(q+1) = -1,
    so it never passes: when no a = 1 candidate passes, both return None.
    """
    target = Mat(f, [[0, values[0], 0], [0, 0, values[1]], [values[2], 0, 0]])
    for b, c in pairs:
        bq, cq = f.pow(b, q), f.pow(c, q)
        if f.add(f.add(b, f.mul(c, bq)), cq):  # z with a = 1
            continue
        u = f.add(f.add(bq, f.mul(b, cq)), c)
        if not u:
            continue
        deltas = _cycle_diagonal(f, values, u, q)
        if deltas is None:
            continue
        G = Mat(f, [[c, 1, b], [b, c, 1], [1, b, c]]).mul(Mat.diagonal(f, deltas))
        if twisted_gram(G, Mat.identity(f, 3), q) == target:
            return G
    return None


def _scanned_circulants(f: Field, q: int):
    """(b, c) with 1 + b^(q+1) + c^(q+1) = 0, b and then c in packed order:
    the scan over all of f, one Frobenius power per element."""
    frob = [f.pow(x, q) for x in f.elements()]
    fiber = {}
    for c, cq in enumerate(frob):
        fiber.setdefault(f.mul(c, cq), []).append(c)
    for b, bq in enumerate(frob):
        for c in fiber.get(f.neg(f.add(1, f.mul(b, bq))), ()):
            yield b, c


def _closed_form_circulants(f: Field, q: int):
    """(b, c) of c I + P + b P^2 for every circulant G0 = c I + a P + b P^2
    with t(G0) G0^(q) = P and a != 0, sorted; f must hold a cube root of
    unity, so p != 3.

    G0 has eigenvalue l_k = c + a w^k + b w^(2k) on (1, w^k, w^(2k)), w a
    primitive cube root of unity; t(G0) has l_(-k) there and G0^(q) has
    l_(k/q)^q, k/q taken mod 3.  So t(G0) G0^(q) = u P exactly when
    l_(-k) l_(k/q)^q = u w^k for k = 0, 1, 2, and scaling G0 by 1/l_0 makes
    l_0 = u = 1.  With w = g^(n/3), g the field's generator and n = |F*|:
    - q = 2 mod 3: l_1^(q+1) = w^2 and l_2^(q+1) = w, (q+1)^2 pairs;
    - q = 1 mod 3: l_1^(q^2-1) = w^(-1) and l_2 = w / l_1^q, q^2 - 1 pairs.
    Each root set is one coset of the (q+1)-th or (q^2-1)-th roots of unity,
    stepped one multiplication per root from g^e, e from the log n/3 of w.
    Inverting the DFT, 3 (c, a, b) = sum_k l_k (1, w^(-k), w^(-2k)); the
    factor 3 cancels in b / a and c / a, and one inversion serves every a."""
    n = f.order - 1
    mul, add = f.mul, f.add
    w = f.exp_gen(n // 3)
    w2 = mul(w, w)

    def coset(e, k):
        r, step, out = f.exp_gen(e), f.exp_gen(n // k), []
        for _ in range(k):
            out.append(r)
            r = mul(r, step)
        return out

    if q % 3 == 2:
        k = q + 1
        lams = [(l1, l2) for l1 in coset(2 * n // 3 // k, k)
                for l2 in coset(n // 3 // k, k)]
    else:
        k = q * q - 1
        e = 2 * n // 3 // k
        l2, step = f.exp_gen(n // 3 - q * e), f.exp_gen(-q * (n // k))
        lams = []
        for l1 in coset(e, k):
            lams.append((l1, l2))
            l2 = mul(l2, step)
    cab = [(add(add(1, l1), l2), add(add(1, mul(w2, l1)), mul(w, l2)),
            add(add(1, mul(w, l1)), mul(w2, l2))) for l1, l2 in lams]
    cab = [x for x in cab if x[1]]
    # batched inversion: prefix products of the a, one inv, then back
    prefix, acc = [], 1
    for _, a, _ in cab:
        prefix.append(acc)
        acc = mul(acc, a)
    acc = f.inv(acc)
    pairs = []
    for (c, a, b), before in zip(reversed(cab), reversed(prefix)):
        a_inv = mul(acc, before)
        acc = mul(acc, a)
        pairs.append((mul(b, a_inv), mul(c, a_inv)))
    return sorted(pairs)


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
    """G with t(G) G^(q) = M.  A Hermitian M splits over GF(q^2).  The
    c2/c3 target is the only other M taken: supported on the three-cycle
    cells (0, 1), (1, 3), (3, 0) and the fixed cell (2, 2), it splits over
    GF(q^6) as a 3x3 block on rows and columns (0, 1, 3) and a (q+1)-th
    root at (2, 2), or raises SearchExhausted.

    Lemma (3 | m).  If t(G) G^(q) = C with C over GF(q^2), then
    G^(q^2) = G K for K = t(C)^(-1) C^(q): conjugating gives
    t(G^(q)) G^(q^2) = C^(q), and t(G^(q)) = t(C) G^(-1).  K is fixed by
    x -> x^(q^2), so G^(q^(2m)) = G K^m, and G over GF(q^(2m)) forces
    K^m = I.  On a 3-cycle block C = V P, V diagonal and P the cyclic shift
    (t(P) = P^(-1)), K = V^(-1) P V^(q) P = D P^2 with D diagonal, and
    K^m = D' P^(2m) is the identity only when 3 | m.  So GF(q^6) is the
    least field GF(q^(2m)) that can hold the block, and a max_ext below 3
    leaves none.

    Before GF(q^6) is built, the search estimates its work: |F| = q^6
    steps for the p = 3 scan, about sqrt|F| = q^3 baby steps per discrete
    log for the closed form, and refuses past _THREE_CYCLE_BUDGET."""
    if is_hermitian(M, q):
        return hermitian_decompose(M, q)
    cells = ((0, 1), (1, 3), (3, 0), (2, 2))
    if M.rows != 4 or any(x for r, row in enumerate(M.data)
                          for c, x in enumerate(row) if (r, c) not in cells):
        raise OrbitError("target must be Hermitian or a monomial case shape")
    if max_ext < 3:
        raise SearchExhausted(f"no twisted splitting within GF(q^(2m)), "
                              f"m <= {max_ext}: a three-cycle needs 3 | m")
    steps, unit = (q ** 6, "|F| for the p = 3 scan") if q % 3 == 0 else (
        q ** 3, "sqrt|F| baby steps per discrete log")
    if steps > _THREE_CYCLE_BUDGET:
        raise SearchExhausted(
            f"three-cycle search over GF({q}^6) refused: about {steps} steps "
            f"({unit}) > budget {_THREE_CYCLE_BUDGET}")
    fld = gf.gf_ext(q, 3)
    emb = gf.make_embedding(M.field, fld)
    *values, fixed = (emb(M.data[r][c]) for r, c in cells)
    roots = fld.power_roots(fixed, q + 1)
    candidates = _scanned_circulants if fld.p == 3 else _closed_form_circulants
    block = _solve_three_cycle(fld, values, q, candidates(fld, q)) if roots else None
    if block is None:
        raise SearchExhausted(f"no twisted splitting over GF({q}^6)")
    rows = [row[:2] + [0] + row[2:] for row in block.data]
    return Mat(fld, rows[:2] + [[0, 0, roots[0], 0]] + rows[2:])


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

class StabilizerReport:
    nondiagonal_hits = 0  # by nondiagonal_excluded

    def __init__(self, case: str, q: int, field: Field, elements: list,
                 order: int, cyclic: bool, predicted_order: int,
                 nondiagonal_samples: int = 0):
        self.case = case
        self.q = q
        self.field = field
        self.elements = elements  # projective 4x4 star matrices, scalar-normalized
        self.order = order
        self.cyclic = cyclic
        self.predicted_order = predicted_order
        self.nondiagonal_samples = nondiagonal_samples

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
    diag(a, e) acts as diag(a/e, 1) projectively.

    Lemma (order).  On the representative's support cells (0, i), (i, d),
    (j, j) and (d, 0) the diag_weight exponents differ by 0 and
    -i (q^2 - q + 1): -(q^3 + 1) for c2 (i = q + 1) and -(q^3 + 1)/2 for
    c3 (i = (q + 1)/2).  Both divide q^6 - 1, so over GF(q^6) the order D
    is q^3 + 1 for c2 and (q^3 + 1)/2 for c3 at every q."""
    f = M.field
    mul = f.mul
    n = f.order - 1
    step = n // diagonal_fixing_order(M, n)
    gen = [f.exp_gen(-step * k % n)
           for k in case_signature(M.case, M.q).exponents]
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
    pos = case_signature(M.case, M.q).exponents
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
