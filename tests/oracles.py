"""Brute-force scans, kept as oracles for the differential tests.

The package decides the diagonal stabilizer with one gcd over the
representative's support and lists it as the powers of one generator, so
cyclic by construction (orbit.diagonal_stabilizer), equivalence by one act per
torus coset (orbit.pairwise_equivalence), and smoothness from the gcd of
the Jacobian minors (tetra.decide_smoothness).  These scans decide the same
questions the slow way, one dense act or power walk per group element or
one Jacobian rank per point of P^1, so the tests can check the fast paths
on every field they can still reach.  The Hermitian splitting with a rank
filter, the schoolbook polynomial product, the per-signature classify
loop, which builds a solution space for every canonical signature, and the
walk over every (d, i) that finds the signatures whose exponents collide,
where the package visits only the points where two collision planes cross,
are references in the same sense.  So is the big-form action computed
one cell at a time, where orbit.act takes two matrix products.  So are
the field tables built one multiplication per power, which the package's
fields of at most 257 elements must equal and its larger fields' exp_gen
and dlog must agree with, and the prime power split by trial division,
where the package takes integer roots and a Miller-Rabin test.

A few references have no fast counterpart; no command needs them, so they
live here rather than in the package: normalize_to_rep, the diagonal
reparametrization of a c2/c3 core onto the representative, over a ladder
of extensions GF(q^(2m)) that build no longer climbs; curve_point, a
curve's point at one parameter; curve_from_json, the inverse of
CurveSpec.to_json; scale, a matrix times a scalar; and is_prime_power,
gf.prime_power_split as a predicate.
"""

import itertools
import math

from hermitia import gf
from hermitia.classify import (_DIFFERENCES, AdmissibleEntry,
                               ClassificationReport, case_shape_check,
                               exists_invertible, expected_cases,
                               match_case_shape, solution_space)
from hermitia.matff import (Mat, MatError, _form_value, is_hermitian,
                            twisted_gram)
from hermitia.orbit import (BigForm, OrbitError, SearchExhausted,
                            StabilizerReport, _solve_linear_congruence, act,
                            canonical_rep, diag_weight, diagonal_solutions,
                            embed_qprime, proportional, stab_order, sympow)
from hermitia.tetra import (CASE_C2, CASE_C3, CurveSpec, Signature,
                            SmoothnessReport, case_signature,
                            defining_equations, eval_equation, jacobian_rank,
                            monomial_point, normalize_point)

_GL2_SCAN_LIMIT = 10 ** 9       # |field|^4 guard for the exhaustive PGL2 scan
_LADDER_FIELD_LIMIT = 1 << 18   # largest field the extension ladder builds


def _pgl2_elements(fld):
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


def scale(M: Mat, c: int) -> Mat:
    """c M, entry by entry."""
    f = M.field
    return Mat(f, [[f.mul(c, a) for a in r] for r in M.data])


def _normalize_projective(M: Mat) -> Mat:
    for row in M.data:
        for v in row:
            if v:
                return scale(M, M.field.inv(v))
    raise OrbitError("zero matrix is not projective")


def _group_is_cyclic(elements) -> bool:
    """Whether some element's projective order equals the group order, by
    walking the powers of every element in turn."""
    order = len(elements)
    if order <= 1:
        return True
    ident = Mat.identity(elements[0].field, 4)
    for e in elements:
        k, cur = 1, e
        while cur != ident:
            cur = _normalize_projective(cur.mul(e))
            k += 1
            if k > order:
                return False  # not closed; caller has bigger problems
        if k == order:
            return True
    return False


def act_by_cells(M: BigForm, g: Mat, phi: Mat = None) -> BigForm:
    """t(phi(g)) M phi(g)^(q) one cell of M at a time: each cell (r, c)
    adds v phi[r][u] phi[c][w]^q to every (u, w), the product orbit.act
    computes in two stages."""
    f = M.field
    phi = phi or sympow(g, M.n - 1)
    powq = {c: [f.pow(x, M.q) for x in phi.data[c]] for (_, c) in M.cells}
    out = {}
    for (r, c), v in M.cells.items():
        for u in range(M.n):
            a = phi.data[r][u]
            if not a:
                continue
            av = f.mul(a, v)
            row_out = out.setdefault(u, [0] * M.n)
            for w in range(M.n):
                b = powq[c][w]
                if b:
                    row_out[w] = f.add(row_out[w], f.mul(av, b))
    return BigForm(M.case, M.q, M.n, f,
                   {(u, w): v for u, row in out.items()
                    for w, v in enumerate(row) if v})


def star_of_phi(g: Mat, case: str, q: int) -> Mat:
    """The 4x4 block of sympow(g, d) at the case's four star positions."""
    pos = case_signature(case, q).exponents
    phi = sympow(g, pos[-1])
    return Mat(g.field, [[phi.data[r][c] for c in pos] for r in pos])


def _fixing_stars(M, elements) -> list:
    """Sorted normalized stars of the g among `elements` that fix M up to a
    scalar."""
    stars = {}
    for g in elements:
        if proportional(act(M, g), M) is not None:
            star = _normalize_projective(star_of_phi(g, M.case, M.q))
            stars[star.key()] = star
    return [stars[k] for k in sorted(stars)]


def diagonal_scan_stabilizer(M) -> list:
    """Every diag(r, 1), r in M's field, through the dense act, computed
    over a tabled_copy of the field and returned over M's own."""
    f = tabled_copy(M.field)
    stars = _fixing_stars(BigForm(M.case, M.q, M.n, f, M.cells),
                          (Mat(f, [[r, 0], [0, 1]]) for r in range(1, f.order)))
    return [Mat(M.field, star.data) for star in stars]


def full_small_stabilizer(M) -> list:
    """All of GL2 over M's field modulo scalars, through the dense act."""
    return _fixing_stars(M, _pgl2_elements(M.field))


def full_small_report(M) -> dict:
    """The JSON report of the full GL2 scan, in the layout the stabilizer
    command prints, with "mode": "full_small"."""
    elems = full_small_stabilizer(M)
    doc = StabilizerReport(M.case, M.q, M.field, elems, len(elems),
                           _group_is_cyclic(elems),
                           stab_order(M.case, M.q)).to_json()
    doc["mode"] = "full_small"
    return doc


# -- normalization to the representative ---------------------------------------

def _extension_ladder(src, q: int, max_ext: int, search: str):
    """Yield (GF(q^(2m)), embedding of src) for m = 1..max_ext, skipping
    the fields above _LADDER_FIELD_LIMIT or not containing src.  A caller
    that finds nothing sees SearchExhausted, naming both bounds and the
    field orders tried, once the ladder runs out."""
    p, n0 = gf.prime_power_split(q)
    tried = []
    for m in range(1, max_ext + 1):
        if p ** (2 * n0 * m) > _LADDER_FIELD_LIMIT or (2 * n0 * m) % src.m:
            continue  # guard before any field gets built
        fld = gf.gf_ext(q, m)
        tried.append(fld.order)
        yield fld, gf.make_embedding(src, fld)
    raise SearchExhausted(
        f"no {search} within GF(q^(2m)), m <= {max_ext}, field size <= "
        f"2^{_LADDER_FIELD_LIMIT.bit_length() - 1}; field orders tried: {tried}")


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


# -- smoothness --------------------------------------------------------------

def curve_point(curve, s, t):
    """The point F . (s^d, s^(d-i) t^i, s^(d-j) t^j, t^d) of the curve at
    the parameter (s, t), F its frame."""
    F = curve.frame
    v = monomial_point(curve.sig, F.field, s, t)
    return [x for x, in F.mul(Mat(F.field, [[x] for x in v])).data]


def curve_from_json(obj):
    """The curve of CurveSpec.to_json's document."""
    return CurveSpec(obj["q"], Signature(*obj["sig"]), Mat.from_json(obj["frame"]))


def projective_line(field):
    """All points of P^1 over the field: (1 : t) for every t, then (0 : 1)."""
    for t in field.elements():
        yield (1, t)
    yield (0, 1)


def evaluate_form(sig, q, B, s, t):
    """Value of t(v) B v^(q) at (s, t); an independent check of
    tetra.expand_form."""
    f = B.field
    v = monomial_point(sig, f, s, t)
    acc = 0
    for l in range(4):
        for m in range(4):
            b = B.data[l][m]
            if b:
                acc = f.add(acc, f.mul(f.mul(v[l], b), f.pow(v[m], q)))
    return acc


def walk_smoothness(eqs, sig, field):
    """(containment_ok, singular) by walking every parameter of P^1 over the
    field: each image point is normalized, checked against every equation,
    and its Jacobian rank taken, over a tabled_copy of the field."""
    field = tabled_copy(field)
    containment_ok = True
    seen = {}
    for s, t in projective_line(field):
        pt = normalize_point(field, monomial_point(sig, field, s, t))
        if not all(eval_equation(eq, pt, field) == 0 for eq in eqs):
            containment_ok = False
        rank = jacobian_rank(eqs, pt, field)
        if rank < 2:
            seen[pt] = min(rank, seen.get(pt, 2))
    return containment_ok, sorted(seen.items())


def smoothness_walk(case, q, param_field):
    """tetra.smoothness_scan by walking all param_field.order + 1 points."""
    p, n = gf.prime_power_split(q)
    if param_field.p != p or param_field.m % (2 * n):
        raise MatError("parameter field must extend GF(q^2)")
    containment_ok, singular = walk_smoothness(
        defining_equations(case, q), case_signature(case, q), param_field)
    return SmoothnessReport(case, q, param_field, param_field.order + 1,
                            containment_ok, singular)


# -- Hermitian splitting -------------------------------------------------------

def hermitian_decompose_rank_filter(A: Mat, q: int) -> Mat:
    """matff.hermitian_decompose with a rank filter in place of the lemma in
    its docstring: every basis vector is projected, and an in-order rank
    filter keeps a basis of the complement."""
    n = A.rows
    f = A.field
    if not is_hermitian(A, q):
        raise MatError("matrix is not Hermitian for this q")
    if A.det() == 0:
        raise MatError("matrix is singular")

    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ortho = []
    while basis:
        pivot = None
        for v in basis:
            if _form_value(A, v, v, q):
                pivot = v
                break
        if pivot is None:
            for a_idx in range(len(basis)):
                for b_idx in range(a_idx + 1, len(basis)):
                    for c in range(1, f.order):
                        v = [f.add(x, f.mul(c, y))
                             for x, y in zip(basis[a_idx], basis[b_idx])]
                        if _form_value(A, v, v, q):
                            pivot = v
                            break
                    if pivot:
                        break
                if pivot:
                    break
        if pivot is None:
            raise MatError("no anisotropic vector found (degenerate form)")
        d = _form_value(A, pivot, pivot, q)
        ortho.append((pivot, d))
        d_inv = f.inv(d)
        new_basis = []
        for v in basis:
            c = f.mul(_form_value(A, v, pivot, q), d_inv)
            w = [f.sub(x, f.mul(c, y)) for x, y in zip(v, pivot)]
            if any(w):
                new_basis.append(w)
        basis = _independent_subset(f, new_basis, n - len(ortho))

    P = Mat(f, list(zip(*[v for v, _ in ortho])))  # columns are the new basis
    lam = [gf.solve_norm(f, d, q) for _, d in ortho]
    B = Mat.diagonal(f, lam).mul(P.inverse())
    if twisted_gram(B, Mat.identity(f, n), q) != A:
        raise MatError("internal: decomposition round trip failed")
    return B


def _independent_subset(f, vectors, want: int):
    picked = []
    m = []
    for v in vectors:
        trial = m + [v]
        if Mat(f, trial).rank() == len(trial):
            picked.append(v)
            m = trial
            if len(picked) == want:
                break
    return picked


# -- fields --------------------------------------------------------------------

def prime_power_split_by_trial_division(q: int):
    """(p, n) with q = p^n, by trial division over every p up to sqrt(q);
    raises FieldError if q is not a prime power >= 2."""
    if q < 2:
        raise gf.FieldError(f"q={q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            n = 0
            m = q
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                raise gf.FieldError(f"q={q} is not a prime power")
            return p, n
        p += 1
    return q, 1  # q itself is prime


def is_prime_power(q: int) -> bool:
    """Whether gf.prime_power_split, the package's one prime-power rule,
    accepts q."""
    try:
        gf.prime_power_split(q)
        return True
    except gf.FieldError:
        return False


def stepped_tables(field):
    """The exp and log tables of a field, one coefficient multiplication
    per power of the generator: exp[k] = g^k, log[exp[k]] = k (log[0] = 0)."""
    g = field.exp_gen(1)
    exp, v = [], 1
    for _ in range(field.order - 1):
        exp.append(v)
        v = gf.Field.mul(field, v, g)
    log = [0] * field.order
    for k, v in enumerate(exp):
        log[v] = k
    return exp, log


def tabled_copy(field):
    """A private, uninterned copy of the field whose mul, div, inv, pow,
    dlog and exp_gen look up stepped_tables.  The package computes on
    coefficients above 257 elements; the walks here visit every element of
    such fields, and the copy keeps them fast with a multiplication
    independent of the package's.  Elements are the same packed ints."""
    f = gf.Field(field.p, field.m, field.modulus)
    exp, log = stepped_tables(field)
    n = field.order - 1

    def mul(x, y):
        return exp[(log[x] + log[y]) % n] if x and y else 0

    def inv(x):
        if not x:
            raise ZeroDivisionError("zero has no inverse")
        return exp[-log[x] % n]

    def pow(x, e):
        if x:
            return exp[log[x] * e % n]
        if e < 0:
            raise ZeroDivisionError("zero has no inverse")
        return 0 if e else 1

    def dlog(x):
        if not x:
            raise ZeroDivisionError("log of zero")
        return log[x]

    f.mul, f.inv, f.pow, f.dlog = mul, inv, pow, dlog
    f.div = lambda x, y: mul(x, inv(y))
    f.exp_gen = lambda e: exp[e % n]
    return f


# -- polynomials over GF(p) ----------------------------------------------------

def _poly_product(a, b, p):
    """The schoolbook product of two coefficient tuples (low to high) over
    GF(p), untrimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


# -- admissible signatures -----------------------------------------------------

def canonical_signatures_upto(d_max: int):
    """The fixed points of canonical_signature with d <= d_max: (d, i, j) is
    canonical exactly when gcd(d, i, j) = 1 and (i, j) <= (d - j, d - i)."""
    for d in range(3, d_max + 1):
        for i in range(1, d - 1):
            for j in range(i + 1, d):
                if (i, j) <= (d - j, d - i) and math.gcd(d, i, j) == 1:
                    yield Signature(d, i, j)


def collision_signatures(q: int, d_max: int):
    """In order, the canonical (d, i, j), d <= d_max, where a difference x of
    the exponents is q times another, y: every signature whose solution
    space is nonzero (step 1 of the lemma in classify.enumerate_admissible).
    Canonical: gcd(d, i, j) = 1 and (i, j) <= (d - j, d - i), i.e. j <= d - i.
    Each pair (x, y) reads a*j = b*d + c*i: one j per (d, i) if a != 0, every
    j or none if a == 0 (d = q*i, for one)."""
    planes = [(ax - q * ay, q * dy - dx, q * iy - ix)
              for (ax, dx, ix), (ay, dy, iy)
              in itertools.permutations(_DIFFERENCES, 2)]
    for d in range(3, d_max + 1):
        for i in range(1, (d + 1) // 2):
            js = set()
            for a, b, c in planes:
                if a:
                    j, r = divmod(b * d + c * i, a)
                    if not r:
                        js.add(j)
                elif b * d + c * i == 0:
                    js.update(range(i + 1, d - i + 1))
            for j in sorted(js):
                if i < j <= d - i and math.gcd(d, i, j) == 1:
                    yield Signature(d, i, j)


def exhaustive_reports(q: int, d_max: int) -> dict:
    """{d: the report of classify.enumerate_admissible(q, d)} for every d from
    3 to d_max, from one pass of the per-signature loop over
    canonical_signatures_upto(d_max): a solution space, an invertibility
    verdict and, when admissible, a shape match for every signature.  Every
    d >= 3 has a canonical signature, (d, 1, 2), so every d gets a report."""
    expected = expected_cases(q)
    reports, admissible, scanned = {}, [], 0
    for d, sigs in itertools.groupby(canonical_signatures_upto(d_max),
                                     key=lambda sig: sig.d):
        for sig in sigs:
            scanned += 1
            space = solution_space(sig, q)
            verdict = exists_invertible(space)
            if not verdict.invertible:
                continue
            entry = AdmissibleEntry(sig, None, space.dim, "unexpected",
                                    verdict.witness)
            if sig in expected:
                roman, case, label, flipped = expected[sig]
                if match_case_shape(space, case, q, flipped):
                    entry = AdmissibleEntry(sig, label, space.dim, roman,
                                            verdict.witness)
            admissible.append(entry)
        reports[d] = ClassificationReport(
            q, d, list(admissible),
            {"signatures_scanned": scanned, "admissible": len(admissible)})
    return reports
