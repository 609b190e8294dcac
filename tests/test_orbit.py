import itertools
import math
import random
import time

import pytest

from hermitia import gf, orbit
from hermitia.matff import (Mat, MatError, SurfaceSpec, fermat_surface,
                            is_hermitian, twisted_gram)
from hermitia.tetra import (CASE_C1, CASE_C2, CASE_C3, case_signature,
                            is_identically_zero, on_surface)
from hermitia.classify import case_shape_check
from hermitia.orbit import (INFINITE, BigForm, OrbitError, SearchExhausted,
                            _torus_cosets, act, aut_order, build_curve,
                            canonical_rep, case_target, count_Td, count_report,
                            diag_weight, diagonal_fixing_order,
                            diagonal_solutions, diagonal_stabilizer,
                            embed_qprime, inflate_case1, lucas_exponents,
                            nondiagonal_excluded, normalize_to_rep,
                            pairwise_equivalence,
                            proportional, q2_lambda_member,
                            q2_parameter_matrices, stab_order,
                            stabilizer_search, star_positions,
                            support_rows_exclude,
                            sympow, twisted_congruence_solve)

from matrices import mat_from_ints, random_hermitian_invertible, random_mat
from oracles import (_group_is_cyclic, _pgl2_elements,
                     diagonal_scan_stabilizer, full_small_stabilizer)


# -- counting formulas ---------------------------------------------------------

def test_count_values():
    assert count_Td(CASE_C1, 3) == 18144
    assert count_Td(CASE_C3, 3) == 1866240
    assert count_Td(CASE_C1, 4) == 249600
    assert count_Td(CASE_C2, 4) == 15667200
    assert count_Td(CASE_C1, 5) == 1890000
    assert count_Td(CASE_C3, 5) == 468000000
    assert count_Td(CASE_C1, 2) == INFINITE
    assert count_Td(CASE_C2, 2) == INFINITE


def test_count_parity_validation():
    with pytest.raises(OrbitError):
        count_Td(CASE_C2, 3)
    with pytest.raises(OrbitError):
        count_Td(CASE_C3, 4)


def test_orbit_stabilizer_identity():
    for q in (3, 4, 5, 7, 8, 9, 11, 13):
        for case in [CASE_C1] + ([CASE_C2] if q % 2 == 0 else [CASE_C3]):
            assert aut_order(q) % stab_order(case, q) == 0
            assert aut_order(q) // stab_order(case, q) == count_Td(case, q)


def test_count_report_q2_note():
    rep = count_report(2)
    assert [e.case for e in rep.entries] == [CASE_C1, CASE_C2]
    assert all(e.count == INFINITE and e.stab is None for e in rep.entries)


# -- representatives -------------------------------------------------------------

def test_canonical_rep_matrices():
    f9 = gf.gfq2(3)
    assert canonical_rep(CASE_C1, 3) == mat_from_ints(
        f9, [[0, 1, 0, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, 0, -1, 0]])
    f16 = gf.gfq2(4)
    assert canonical_rep(CASE_C2, 4) == mat_from_ints(
        f16, [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [-1, 0, 0, 0]])
    assert canonical_rep(CASE_C3, 3) == mat_from_ints(
        f9, [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [-1, 0, 0, 0]])
    with pytest.raises(OrbitError):
        canonical_rep(CASE_C1, 2)
    assert case_shape_check(canonical_rep(CASE_C1, 3), CASE_C1, 3)
    assert case_shape_check(canonical_rep(CASE_C3, 3), CASE_C3, 3)
    # the Hermitian degree-(q+1) construction target, at every q
    for q in (2, 3, 4, 5):
        target = case_target(CASE_C1, q)
        assert target == mat_from_ints(
            gf.gfq2(q), [[0, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 0]])
        assert is_hermitian(target, q) and case_shape_check(target, CASE_C1, q)
    assert case_target(CASE_C2, 2) == mat_from_ints(
        gf.gfq2(2), [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [-1, 0, 0, 0]])


# -- symmetric powers -------------------------------------------------------------

def test_sympow_identity_and_diagonal():
    f9 = gf.gfq2(3)
    assert sympow(Mat.identity(f9, 2), 4) == Mat.identity(f9, 5)
    lam, mu = 4, 7
    S = sympow(Mat(f9, [[lam, 0], [0, mu]]), 2)
    assert [S.data[k][k] for k in range(3)] == [
        f9.mul(lam, lam), f9.mul(lam, mu), f9.mul(mu, mu)]
    assert all(S.data[r][c] == 0 for r in range(3) for c in range(3) if r != c)


def test_sympow_homomorphism():
    f9 = gf.gfq2(3)
    rng = random.Random(5)
    for d in (3, 7, 13):
        g, h = random_mat(f9, 2, 2, rng), random_mat(f9, 2, 2, rng)
        assert sympow(g.mul(h), d) == sympow(g, d).mul(sympow(h, d))


@pytest.mark.parametrize("q,ext", [(2, 3), (4, 2)])
def test_sympow_star_closed_form(q, ext):
    """Cross-check: the 4x4 submatrix of the symmetric power at the
    degree-q(q+1) indices has closed-form entries in a, b, c, d for generic
    g (nonzero diagonal)."""
    fld = gf.gf_ext(q, ext)
    d = case_signature(CASE_C2, q).d
    pos = star_positions(CASE_C2, q)
    P = fld.pow
    rng = random.Random(1)
    checked = 0
    while checked < 6:
        g = random_mat(fld, 2, 2, rng)
        (a, b), (c, e) = g.data
        if a == 0 or e == 0 or g.det() == 0:
            continue
        checked += 1
        det = g.det()
        alpha = fld.mul(P(a, q * q - q - 2), P(det, q + 1))
        beta = fld.mul(fld.mul(fld.mul(P(a, q - 2), P(b, q * q - q)), P(e, q)), det)
        delta = fld.mul(fld.mul(P(a, q - 2), P(e, q * q)), det)
        expect = [
            [P(a, q * q + q), 0, 0, P(b, q * q + q)],
            [fld.mul(P(a, q * q - 1), P(c, q + 1)), alpha, beta,
             fld.mul(P(b, q * q - 1), P(e, q + 1))],
            [fld.mul(P(a, q - 1), P(c, q * q + 1)), 0, delta,
             fld.mul(P(b, q - 1), P(e, q * q + 1))],
            [P(c, q * q + q), 0, 0, P(e, q * q + q)],
        ]
        phi = sympow(g, d)
        assert [[phi.data[r][cc] for cc in pos] for r in pos] == expect


# -- big forms and the action ------------------------------------------------------

def test_star_positions():
    assert star_positions(CASE_C1, 3) == (0, 1, 3, 4)
    assert star_positions(CASE_C2, 4) == (0, 5, 17, 20)
    assert star_positions(CASE_C3, 3) == (0, 2, 5, 6)


def test_embed_project_roundtrip():
    M1 = canonical_rep(CASE_C1, 3)
    big = embed_qprime(M1, CASE_C1, 3)
    assert big.n == 5
    pos = star_positions(CASE_C1, 3)
    assert big.cells == {(pos[l], pos[m]): M1.data[l][m] for l in range(4)
                         for m in range(4) if M1.data[l][m]}


def test_embed_rejects_wrong_shape():
    f9 = gf.gfq2(3)
    with pytest.raises(OrbitError):
        embed_qprime(Mat.identity(f9, 4), CASE_C1, 3)


def test_act_is_an_action():
    f9 = gf.gfq2(3)
    bf = embed_qprime(canonical_rep(CASE_C3, 3), CASE_C3, 3)
    assert act(bf, Mat.identity(f9, 2)).cells == bf.cells
    rng = random.Random(8)
    for _ in range(4):
        g = random_mat(f9, 2, 2, rng)
        h = random_mat(f9, 2, 2, rng)
        if g.det() == 0 or h.det() == 0:
            continue
        assert act(act(bf, g), h).cells == act(bf, g.mul(h)).cells


def test_act_diagonal_preserves_support():
    f9 = gf.gfq2(3)
    bf = embed_qprime(canonical_rep(CASE_C1, 3), CASE_C1, 3)
    g = Mat(f9, [[4, 0], [0, 7]])
    moved = act(bf, g)
    assert set(moved.cells) <= set(bf.cells)


def test_case_representatives_are_vanishing_forms():
    for case, q in ((CASE_C2, 2), (CASE_C3, 3)):
        B = canonical_rep(case, q) if q >= 3 else mat_from_ints(
            gf.gfq2(2), [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [-1, 0, 0, 0]])
        assert is_identically_zero(case_signature(case, q), q, B)


# -- normalization ------------------------------------------------------------------

def test_normalize_to_rep_c3_q3():
    f9 = gf.gfq2(3)
    B = mat_from_ints(f9, [[0, 2, 0, 0], [0, 0, 0, 1],
                           [0, 0, -1, 0], [-2, 0, 0, 0]])
    g = normalize_to_rep(B, CASE_C3, 3)
    assert g.data[0][1] == 0 and g.data[1][0] == 0
    big = embed_qprime(B, CASE_C3, 3).lift_to(g.field)
    target = embed_qprime(canonical_rep(CASE_C3, 3), CASE_C3, 3).lift_to(g.field)
    assert proportional(act(big, g), target) == 1


def test_normalize_to_rep_identity_input():
    rep = canonical_rep(CASE_C3, 3)
    g = normalize_to_rep(rep, CASE_C3, 3)
    assert g == Mat.identity(g.field, 2)


def test_normalize_to_rep_c2_q4_solvable_instance():
    f16 = gf.gfq2(4)
    b3 = f16.exp_gen(5)
    B = Mat(f16, [[0, 1, 0, 0], [0, 0, 0, b3],
                  [0, 0, f16.neg(b3), 0], [f16.neg(1), 0, 0, 0]])
    g = normalize_to_rep(B, CASE_C2, 4)
    big = embed_qprime(B, CASE_C2, 4).lift_to(g.field)
    target = embed_qprime(canonical_rep(CASE_C2, 4), CASE_C2, 4).lift_to(g.field)
    assert proportional(act(big, g), target) == 1


def test_normalize_to_rep_reports_exhaustion():
    # generic coefficients need roots of unity far beyond the scan bound
    f16 = gf.gfq2(4)
    B = Mat(f16, [[0, 3, 0, 0], [0, 0, 0, 3],
                  [0, 0, f16.neg(3), 0], [f16.neg(3), 0, 0, 0]])
    with pytest.raises(SearchExhausted) as err:
        normalize_to_rep(B, CASE_C2, 4)
    assert "field orders tried" in str(err.value)
    assert "field size <= 2^18" in str(err.value)


# -- twisted congruence and builds ----------------------------------------------------

def test_twisted_solve_hermitian_target():
    q = 3
    surf = fermat_surface(q)
    target = case_target(CASE_C1, q)
    F = twisted_congruence_solve(surf.gram, target, q)
    assert F.field.m == 2  # solved over GF(9)
    assert twisted_gram(F, surf.gram, q) == target


def test_twisted_solve_case2_target_q2():
    q = 2
    surf = fermat_surface(q)
    target = mat_from_ints(gf.gfq2(2), [[0, 1, 0, 0], [0, 0, 0, 1],
                                        [0, 0, -1, 0], [-1, 0, 0, 0]])
    F = twisted_congruence_solve(surf.gram, target, q, max_ext=4)
    assert twisted_gram(F, surf.gram.lift_to(F.field), q) == target.lift_to(F.field)


def test_twisted_solve_rejects_non_hermitian_surface():
    f9 = gf.gfq2(3)
    u = f9.element([0, 1])
    bad = Mat.diagonal(f9, [u, 1, 1, 1])
    with pytest.raises(MatError):
        twisted_congruence_solve(bad, case_target(CASE_C1, 3), 3)


@pytest.mark.parametrize("case,q", [(CASE_C1, 2), (CASE_C1, 3), (CASE_C1, 4),
                                    (CASE_C1, 5), (CASE_C2, 2), (CASE_C2, 4),
                                    (CASE_C3, 3), (CASE_C3, 5)])
def test_build_curve_on_fermat(case, q):
    surf = fermat_surface(q)
    curve = build_curve(case, q, surf)
    assert curve.nonplanar
    assert on_surface(curve, surf)
    assert curve.sig == case_signature(case, q)


def test_build_curve_parity_mismatch():
    with pytest.raises(Exception):
        build_curve(CASE_C2, 3, fermat_surface(3))


def test_build_curve_on_nonfermat_surface():
    # a non-identity Hermitian Gram matrix
    A = random_hermitian_invertible(3, 4, seed=12)
    surf = SurfaceSpec(3, A)
    curve = build_curve(CASE_C1, 3, surf)
    assert on_surface(curve, surf)


# -- equivalence -----------------------------------------------------------------------

def test_equivalent_recovers_planted_witness():
    f4 = gf.gfq2(2)
    M = embed_qprime(inflate_case1(q2_lambda_member(0)), CASE_C1, 2)
    rng = random.Random(11)
    while True:
        g0 = random_mat(f4, 2, 2, rng)
        if g0.det():
            break
    N = act(M, g0)
    g = pairwise_equivalence([M, N], f4)[(0, 1)]
    assert g is not None
    assert proportional(act(M, g), N) is not None


def test_lambda_family_inequivalent_over_gf4():
    forms = [embed_qprime(inflate_case1(q2_lambda_member(lam)), CASE_C1, 2)
             for lam in range(4)]
    verdicts = pairwise_equivalence(forms, gf.gfq2(2))
    assert all(v is None for v in verdicts.values())


def test_pairwise_equivalence_shares_sympow_per_coset_and_degree(monkeypatch):
    """One sympow per torus coset and source degree, however many sources
    of that degree: four degree-3 forms and one degree-6 form over GF(16),
    272 cosets, no witness."""
    lams = [embed_qprime(inflate_case1(q2_lambda_member(lam)), CASE_C1, 2)
            for lam in range(4)]
    sextic = embed_qprime(case_target(CASE_C2, 2), CASE_C2, 2)
    degrees, real = [], orbit.sympow
    monkeypatch.setattr(orbit, "sympow",
                        lambda g, d: degrees.append(d) or real(g, d))
    verdicts = pairwise_equivalence(lams + [sextic], gf.make_field(2, 4))
    assert all(v is None for v in verdicts.values())
    assert sorted(degrees) == [3] * 272 + [6] * 272


def test_act_refuses_phi_of_another_degree_or_field():
    M = embed_qprime(case_target(CASE_C3, 3), CASE_C3, 3)
    g = Mat(M.field, [[1, 1], [0, 1]])
    assert act(M, g, sympow(g, M.n - 1)).cells == act(M, g).cells
    with pytest.raises(OrbitError, match="phi must be"):
        act(M, g, sympow(g, M.n - 2))
    other = gf.gf_ext(3, 3)
    with pytest.raises(OrbitError, match="phi must be"):
        act(M, g, sympow(Mat(other, [[1, 1], [0, 1]]), M.n - 1))


def test_cube_root_witness_over_gf64():
    """Two degree-6 forms whose corner coefficients differ by a primitive
    cube root of unity are carried onto each other by a diagonal
    reparametrization over GF(64)."""
    f4 = gf.gfq2(2)
    f64 = gf.make_field(2, 6)
    lam9 = f64.exp_gen(63 // 9)           # order-9 element
    omega = f64.pow(lam9, 3)              # primitive cube root of unity
    def form(b2, fld):
        B = Mat(fld, [[0, 1, 0, b2], [0, 0, 0, 1], [0, 0, 1, 0], [1, b2, 0, 0]])
        return embed_qprime(B, CASE_C2, 2)
    m_one = form(1, f4).lift_to(f64)
    m_omega = form(omega, f64)
    g = Mat(f64, [[lam9, 0], [0, 1]])
    assert proportional(act(m_one, g), m_omega) is not None


def test_q2_parameter_matrices():
    fixed, family = q2_parameter_matrices(), q2_lambda_member
    assert [row for row in fixed[0].data] == [[1, 0, 0], [0, 0, 1]]
    assert len(fixed) == 3
    for p in fixed:
        B = inflate_case1(p)
        assert case_shape_check(B, CASE_C1, 2)
    lamb = family(2)
    assert case_shape_check(inflate_case1(lamb), CASE_C1, 2)


def test_inflate_rejects_degenerate_parameters():
    f4 = gf.gfq2(2)
    with pytest.raises(OrbitError):
        inflate_case1(Mat(f4, [[0, 1, 0], [0, 1, 0]]))


def test_q2_representatives_bundle():
    fixed = q2_parameter_matrices()
    assert len(fixed) == 3 and q2_lambda_member(0).data == [[0, 1, 0], [1, 0, 1]]


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_pgl2_elements_one_per_scalar_class(p, m):
    fld = gf.make_field(p, m)
    n = fld.order

    def normal(a, b, c, e):  # scaled so the top row's first nonzero entry is 1
        s = fld.inv(a or b)
        return tuple(fld.mul(s, x) for x in (a, b, c, e))

    flat = [tuple(x for row in g.data for x in row) for g in _pgl2_elements(fld)]
    assert len(flat) == n * (n * n - 1)
    assert all(fld.mul(a, e) != fld.mul(b, c) for a, b, c, e in flat)
    # each element is its own normal form and no two coincide, so no two are
    # proportional
    assert [normal(*g) for g in flat] == flat
    assert len(set(flat)) == len(flat)
    gl2 = {normal(a, b, c, e)
           for a, b, c, e in itertools.product(range(n), repeat=4)
           if fld.mul(a, e) != fld.mul(b, c)}
    assert gl2 == set(flat)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_torus_cosets_one_per_coset(p, m):
    """|F|(|F| + 1) representatives, and every invertible g is h diag(s, t)
    for exactly one of them."""
    fld = gf.make_field(p, m)
    n = fld.order
    cosets = list(_torus_cosets(fld))
    assert len(cosets) == n * (n + 1)
    products = [h.mul(Mat.diagonal(fld, [s, t])).key() for h in cosets
                for s in range(1, n) for t in range(1, n)]
    gl2 = {Mat(fld, [[a, b], [c, e]]).key()
           for a, b, c, e in itertools.product(range(n), repeat=4)
           if fld.mul(a, e) != fld.mul(b, c)}
    assert len(products) == len(set(products)) and set(products) == gl2


def test_torus_cosets_cover_gf256():
    assert sum(1 for _ in _torus_cosets(gf.make_field(2, 8))) == 256 * 257


def test_torus_cosets_refuse_gf512_before_generating():
    """The guard counts the |F|(|F| + 1) representatives and raises on the
    call itself, not on the first element drawn."""
    with pytest.raises(OrbitError, match=r"\(\|F\| \+ 1\) = 262656 torus cosets"):
        _torus_cosets(gf.make_field(2, 9))


def _random_form(case, q, fld, rng, cells=None):
    """A big form with random nonzero values on `cells`, or on one to five
    random cells of the whole (d+1)x(d+1) grid."""
    n = case_signature(case, q).d + 1
    if cells is None:
        cells = rng.sample([(u, w) for u in range(n) for w in range(n)],
                           rng.randrange(1, 6))
    return BigForm(case, q, n, fld, {rc: rng.randrange(1, fld.order)
                                     for rc in cells})


@pytest.mark.parametrize("case,q,fld", [
    (CASE_C3, 3, gf.make_field(3, 2)), (CASE_C2, 4, gf.make_field(2, 4)),
    (CASE_C1, 7, gf.make_field(7, 2)),
])
def test_diagonal_solutions_matches_walk(case, q, fld):
    """The congruence coset against the dense act over every x in F*, on
    planted targets c act(M, diag(x0, 1)) and on unplanted ones."""
    n = fld.order - 1
    rng = random.Random(fld.order)
    for _ in range(4):
        M = _random_form(case, q, fld, rng)
        planted = act(M, Mat.diagonal(fld, [rng.randrange(1, fld.order), 1]))
        c = rng.randrange(1, fld.order)
        targets = [BigForm(case, q, M.n, fld,
                           {rc: fld.mul(c, v) for rc, v in planted.cells.items()}),
                   _random_form(case, q, fld, rng, list(M.cells)),
                   _random_form(case, q, fld, rng)]
        for k, N in enumerate(targets):
            walk = {X for X in range(n) if proportional(
                act(M, Mat.diagonal(fld, [fld.exp_gen(X), 1])), N) is not None}
            sol = diagonal_solutions(M, N)
            assert (sol is not None) == bool(walk)
            assert k > 0 or sol is not None
            if sol is not None:
                x0, step = sol
                assert n % step == 0 and 0 <= x0 < step
                assert walk == set(range(x0, n, step))


def _gl2_equivalent_pairs(forms, fld):
    """Ordered pairs (i, j) with act(forms[i], g) proportional to forms[j]
    for some g, by walking every invertible matrix of all |F|^4."""
    n = len(forms)
    pending = {(i, j) for i in range(n) for j in range(n) if i != j}
    for a, b, c, e in itertools.product(fld.elements(), repeat=4):
        if not pending:
            break
        if fld.mul(a, e) == fld.mul(b, c):
            continue
        g = Mat(fld, [[a, b], [c, e]])
        for i in {i for i, _ in pending}:
            moved = act(forms[i], g)
            pending -= {(i, j) for j in range(n) if (i, j) in pending
                        and proportional(moved, forms[j]) is not None}
    return {(i, j) for i in range(n) for j in range(n) if i != j} - pending


def _assert_scan_matches_gl2(forms, fld):
    verdicts = pairwise_equivalence(forms, fld)
    assert {k for k, g in verdicts.items() if g is not None} == \
        _gl2_equivalent_pairs(forms, fld)
    for (i, j), g in verdicts.items():
        if g is not None:
            assert proportional(act(forms[i], g), forms[j]) is not None


def _invertible(fld, rng):
    while True:
        g = random_mat(fld, 2, 2, rng)
        if g.det():
            return g


def test_pairwise_equivalence_matches_gl2_scan_q2_forms():
    """The seven reps-q2 forms over GF(4), plus a planted image of one."""
    f4 = gf.gfq2(2)
    params = q2_parameter_matrices() + [q2_lambda_member(lam) for lam in range(4)]
    forms = [embed_qprime(inflate_case1(p), CASE_C1, 2) for p in params]
    forms.append(act(forms[4], _invertible(f4, random.Random(2))))
    _assert_scan_matches_gl2(forms, f4)


def test_pairwise_equivalence_matches_gl2_scan_c3_q3():
    f9 = gf.gfq2(3)
    rep = embed_qprime(canonical_rep(CASE_C3, 3), CASE_C3, 3)
    forms = [rep, act(rep, _invertible(f9, random.Random(4)))]
    _assert_scan_matches_gl2(forms, f9)


@pytest.mark.parametrize("case,q,fld", [
    (CASE_C1, 2, gf.make_field(2, 3)), (CASE_C3, 3, gf.make_field(3, 2)),
])
def test_pairwise_equivalence_matches_gl2_scan_planted_nondiagonal(case, q, fld):
    """A random form on the star positions and its image under a random g
    that is not diagonal."""
    rng = random.Random(fld.order)
    pos = star_positions(case, q)
    M = _random_form(case, q, fld, rng,
                     [(r, c) for r in pos for c in pos if rng.random() < 0.5])
    g = _invertible(fld, rng)
    while g.data[0][1] == 0 and g.data[1][0] == 0:
        g = _invertible(fld, rng)
    _assert_scan_matches_gl2([M, act(M, g)], fld)


@pytest.mark.parametrize("m,order", [(1, 16), (2, 720)])
def test_c1_q3_stabilizer_through_torus_cosets(m, order):
    """The c1 q=3 stabilizer counted as the sum over torus cosets h of the
    (|F| - 1) / step solutions of act(M, h diag(x, 1)) ~ M: over GF(9) the
    16 elements the full GL2 scan finds, over GF(81) all q^2(q^4 - 1)."""
    fld = gf.gf_ext(3, m)
    M = embed_qprime(canonical_rep(CASE_C1, 3), CASE_C1, 3).lift_to(fld)
    count = 0
    for h in _torus_cosets(fld):
        sol = diagonal_solutions(act(M, h), M)
        if sol is not None:
            count += (fld.order - 1) // sol[1]
    assert count == order
    if m == 1:
        assert count == len(full_small_stabilizer(M))
    else:
        assert count == stab_order(CASE_C1, 3)


def test_equivalence_scan_field_guard():
    forms = [embed_qprime(inflate_case1(q2_lambda_member(0)), CASE_C1, 2)]
    with pytest.raises(OrbitError):
        pairwise_equivalence(forms * 2, gf.make_field(2, 10))


def test_act_requires_common_field():
    bf = embed_qprime(canonical_rep(CASE_C3, 3), CASE_C3, 3)
    with pytest.raises(OrbitError):
        act(bf, Mat.identity(gf.gf_ext(3, 2), 2))


# -- stabilizers ------------------------------------------------------------------------

def test_stabilizer_c3_q3_exhaustive_diagonal():
    """The exact diagonal stabilizer over GF(3^6): exactly (q^3+1)/2 = 14
    projective elements, double the closed-form prediction for q = 3 mod 4.
    The group is cyclic and closed."""
    rep = stabilizer_search(CASE_C3, 3, samples=300)
    assert rep.order == 14
    assert rep.cyclic
    assert rep.predicted_order == 7
    assert not rep.matches_prediction
    assert rep.nondiagonal_hits == 0
    keys = {e.key() for e in rep.elements}
    f = rep.elements[0].field
    for e1 in rep.elements:
        for e2 in rep.elements:
            prod = e1.mul(e2)
            nz = next(v for row in prod.data for v in row if v)
            assert prod.scalar(f.inv(nz)).key() in keys


def test_stabilizer_c3_q3_contains_order_two_element():
    rep = stabilizer_search(CASE_C3, 3, samples=0)
    f = rep.elements[0].field
    order2 = Mat.diagonal(f, [1, 1, f.neg(1), 1])
    assert order2.key() in {e.key() for e in rep.elements}


def test_stabilizer_c3_q3_full_gl2_over_gf9():
    """Exhaustive over all of GL2(GF(9)), no diagonal restriction: the
    fixing elements visible in GF(9) are exactly the identity and the
    order-two element (the 14th roots of unity meet GF(9)* in {1, -1})."""
    M = embed_qprime(canonical_rep(CASE_C3, 3), CASE_C3, 3)
    assert len(full_small_stabilizer(M)) == 2


def test_stabilizer_c2_q4_matches_prediction():
    rep = stabilizer_search(CASE_C2, 4, samples=300)
    assert rep.order == 65
    assert rep.cyclic
    assert rep.predicted_order == 65
    assert rep.matches_prediction
    assert rep.nondiagonal_hits == 0


def test_stabilizer_sample_count_costs_nothing():
    """Nothing is drawn: 10^12 samples give the samples=0 report, apart
    from the echoed count, at once."""
    none = stabilizer_search(CASE_C3, 3, samples=0).to_json()
    t0 = time.perf_counter()
    many = stabilizer_search(CASE_C3, 3, samples=10 ** 12).to_json()
    assert time.perf_counter() - t0 < 0.25
    assert (none.pop("nondiagonal_samples"), many.pop("nondiagonal_samples")) \
        == (0, 10 ** 12)
    assert many == none


@pytest.mark.parametrize("case,q", [
    (CASE_C3, 3), (CASE_C3, 5), (CASE_C3, 7), (CASE_C2, 4),
])
def test_generator_order_certificate_matches_power_walk_oracle(case, q):
    """The one walk over the generator's powers reports a cyclic group; the
    oracle that walks the powers of every element agrees."""
    rep = stabilizer_search(case, q, samples=0)
    assert rep.order == len(rep.elements)
    assert rep.cyclic and _group_is_cyclic(rep.elements)


@pytest.mark.parametrize("case,q,m", [
    (CASE_C3, 3, 3), (CASE_C2, 4, 3), (CASE_C3, 5, 3),
    (CASE_C3, 3, 1), (CASE_C3, 3, 2), (CASE_C2, 4, 1), (CASE_C2, 4, 2),
])
def test_diagonal_stabilizer_matches_diagonal_scan(case, q, m):
    """The gcd over the support gives the same sorted stars as the dense
    act over every diag(r, 1) of GF(q^(2m))."""
    M = embed_qprime(canonical_rep(case, q), case, q).lift_to(gf.gf_ext(q, m))
    assert diagonal_stabilizer(M) == diagonal_scan_stabilizer(M)


@pytest.mark.parametrize("case,q,m", [
    (CASE_C3, 3, 1), (CASE_C3, 3, 2), (CASE_C3, 3, 3),
    (CASE_C2, 4, 1), (CASE_C2, 4, 2),
])
def test_diagonal_stabilizer_matches_scan_on_random_supports(case, q, m):
    """The same comparison on forms with random cells on the case's star
    positions, where the gcd needs every cell of the support."""
    fld = gf.gf_ext(q, m)
    pos = star_positions(case, q)
    rng = random.Random(10 * q + m)
    for _ in range(3):
        cells = {(r, c): rng.randrange(1, fld.order)
                 for r in pos for c in pos if rng.random() < 0.4}
        M = BigForm(case, q, pos[-1] + 1, fld, cells)
        assert diagonal_stabilizer(M) == diagonal_scan_stabilizer(M)


@pytest.mark.parametrize("q,cases", [
    (3, (CASE_C1, CASE_C3)), (4, (CASE_C1, CASE_C2)), (7, (CASE_C1, CASE_C3)),
])
def test_act_by_diagonal_scales_each_cell_by_diag_weight(q, cases):
    """act(M, diag(l, m)) multiplies cell (u, w) by l^a m^b, (a, b) =
    diag_weight(u, w, d, q), on a form with every cell nonzero."""
    fld = gf.gfq2(q)
    rng = random.Random(q)
    for case in cases:
        n = case_signature(case, q).d + 1
        cells = {(u, w): rng.randrange(1, fld.order)
                 for u in range(n) for w in range(n)}
        M = BigForm(case, q, n, fld, cells)
        for _ in range(3):
            lam, mu = rng.randrange(1, fld.order), rng.randrange(1, fld.order)
            moved = act(M, Mat.diagonal(fld, [lam, mu]))
            expect = {}
            for (u, w), v in cells.items():
                a, b = diag_weight(u, w, n - 1, q)
                expect[(u, w)] = fld.mul(v, fld.mul(fld.pow(lam, a),
                                                    fld.pow(mu, b)))
            assert moved.cells == expect


@pytest.mark.parametrize("case,q,order,closed_form", [
    (CASE_C3, 9, 365, 365), (CASE_C3, 11, 666, 333),
    (CASE_C3, 13, 1099, 1099), (CASE_C3, 19, 3430, 1715),
    (CASE_C3, 23, 6084, 3042), (CASE_C3, 27, 9842, 4921),
    (CASE_C2, 16, 4097, 4097), (CASE_C2, 32, 32769, 32769),
])
def test_diagonal_order_table_without_gf_q6(case, q, order, closed_form):
    """The diagonal order over GF(q^6) from the support exponents and
    n = q^6 - 1 alone, beside the closed form it is never reconciled with:
    they differ by a factor of 2 exactly at q = 3 mod 4."""
    M = embed_qprime(canonical_rep(case, q), case, q)
    assert diagonal_fixing_order(M, q ** 6 - 1) == order
    assert stab_order(case, q) == closed_form


def test_stabilizer_rejects_c1():
    with pytest.raises(OrbitError):
        stabilizer_search(CASE_C1, 3)


def test_order_two_stabilizer_element_on_fermat_surface():
    """End-to-end witness: conjugating diag(1,1,-1,1) by a curve frame gives
    a projective transformation that preserves the surface form exactly and
    maps the curve to itself by the reparametrization t -> -t."""
    q = 3
    surf = fermat_surface(q)
    curve = build_curve(CASE_C3, q, surf)
    F, fld = curve.frame, curve.frame.field
    gamma = F.mul(Mat.diagonal(fld, [1, 1, fld.neg(1), 1])).mul(F.inverse())
    A = surf.gram.lift_to(fld)
    assert gamma.transpose().mul(A).mul(gamma.powq(q)) == A
    nz = next(v for row in gamma.data for v in row if v)
    assert gamma.scalar(fld.inv(nz)) != Mat.identity(fld, 4)
    sq = gamma.mul(gamma)
    nz = next(v for row in sq.data for v in row if v)
    assert sq.scalar(fld.inv(nz)) == Mat.identity(fld, 4)
    rng = random.Random(0)
    for _ in range(20):
        s, t = rng.randrange(fld.order), rng.randrange(fld.order)
        if not (s or t):
            continue
        x = curve.point(s, t)
        gx = [0] * 4
        for r in range(4):
            acc = 0
            for c in range(4):
                acc = fld.add(acc, fld.mul(gamma.data[r][c], x[c]))
            gx[r] = acc
        y = curve.point(s, fld.neg(t))
        ratios = {fld.div(a, b) for a, b in zip(gx, y) if a or b
                  if (a != 0) == (b != 0)}
        assert len(ratios) == 1 and all((a == 0) == (b == 0)
                                        for a, b in zip(gx, y))


# -- the support-row filter of the sampled stabilizer ------------------------------------

def test_lucas_exponents_are_the_binomials_nonzero_mod_p():
    for p in (2, 3, 5, 7):
        for n in range(60):
            assert lucas_exponents(n, p) == {k for k in range(n + 1)
                                             if math.comb(n, k) % p}


_C2_Q = (2, 4, 8, 16, 32, 64)
_C3_Q = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)


@pytest.mark.parametrize("case,q", [(CASE_C2, q) for q in _C2_Q]
                         + [(CASE_C3, q) for q in _C3_Q])
def test_span_escape_rejects_every_nondiagonal_shape_for_c2_c3(case, q):
    """Both facts of the proof in nondiagonal_excluded, c2 at q <= 64 and c3
    at q <= 49: t^q, not a star, is in the support of the full rows 0 and
    d, and an anti-diagonal g moves row j to d - j, not a star either."""
    M = embed_qprime(case_target(case, q), case, q)
    pos = star_positions(case, q)
    d, j, stars = M.n - 1, pos[2], set(pos)
    assert q in lucas_exponents(d, M.field.p) and q not in stars
    assert d - j == (q - 1 if case == CASE_C2 else (q - 1) // 2)
    assert d - j not in stars
    assert nondiagonal_excluded(M)


def _filter_probes(M, rng, count):
    """Invertible g of every non-diagonal shape: random, upper and lower
    triangular and anti-diagonal; then the diag(x^k step, 1) of M's own
    diagonal stabilizer."""
    f = M.field
    unit = lambda: rng.randrange(1, f.order)  # noqa: E731
    probes = [Mat(f, [[unit(), unit()], [unit(), unit()]]) for _ in range(count)]
    for _ in range(count // 4):
        probes += [Mat(f, [[unit(), unit()], [0, unit()]]),
                   Mat(f, [[unit(), 0], [unit(), unit()]]),
                   Mat(f, [[0, unit()], [unit(), 0]])]
    n = f.order - 1
    D = diagonal_fixing_order(M, n)
    probes += [Mat(f, [[f.exp_gen(k * (n // D)), 0], [0, 1]])
               for k in range(min(D, count))]
    return [g for g in probes if g.det()]


def _is_diagonal(g):
    return not g.data[0][1] and not g.data[1][0]


@pytest.mark.parametrize("case,q,m", [
    (CASE_C3, 3, 1), (CASE_C3, 3, 3), (CASE_C2, 4, 1), (CASE_C3, 5, 1),
])
def test_span_escape_rejects_only_non_stabilizer_g(case, q, m):
    """Differential test of the support-row lemma over GF(9), GF(3^6),
    GF(16) and GF(25): the form is excluded, every non-diagonal g has
    act(M, g) not proportional to M, and the diagonal stabilizer's own
    elements are hits."""
    M = embed_qprime(canonical_rep(case, q), case, q).lift_to(gf.gf_ext(q, m))
    assert nondiagonal_excluded(M)
    nondiagonal = hits = 0
    for g in _filter_probes(M, random.Random(q * m), 60):
        hit = proportional(act(M, g), M) is not None
        if not _is_diagonal(g):
            assert not hit
            nondiagonal += 1
        hits += hit
    assert nondiagonal and hits


@pytest.mark.parametrize("case,fixing", [(CASE_C3, 2), (CASE_C1, 16)])
def test_span_escape_over_all_of_pgl2_gf9(case, fixing):
    """Every element of PGL2(GF(9)) at q = 3: the c3 form is excluded and
    its hits are diagonal; the c1 form is not, and 14 of its 16 hits lie off
    the diagonal."""
    M = embed_qprime(canonical_rep(case, 3), case, 3)
    excluded = nondiagonal_excluded(M)
    hits = nondiagonal_hits = 0
    for g in _pgl2_elements(M.field):
        if proportional(act(M, g), M) is not None:
            hits += 1
            nondiagonal_hits += not _is_diagonal(g)
    assert hits == fixing
    assert excluded == (case == CASE_C3)
    assert nondiagonal_hits == (0 if excluded else 14)


@pytest.mark.parametrize("stars,p,lucas,anti,verdict", [
    ((0, 1, 5, 6), 2, True, False, False),
    ((0, 1, 2, 4), 2, False, True, False),
    ((0, 5, 17, 20), 2, True, True, True),
], ids=["6,1,5", "4,1,2", "20,5,17"])
def test_support_rows_verdict_needs_both_clauses(stars, p, lucas, anti, verdict):
    """(6,1,5), (4,1,2) and (20,5,17) at p = 2: only the Lucas clause, only
    the anti-diagonal clause, and both.  The verdict is their conjunction."""
    d = stars[-1]
    assert (not lucas_exponents(d, p) <= set(stars)) == lucas
    assert any(d - r not in stars for r in stars) == anti
    assert support_rows_exclude(d, stars, p) == verdict


def test_span_escape_refuses_forms_outside_the_lemma():
    M = embed_qprime(canonical_rep(CASE_C3, 3), CASE_C3, 3)
    singular = BigForm(M.case, M.q, M.n, M.field, {(0, 5): 1, (5, 0): 1})
    with pytest.raises(OrbitError, match="invertible core"):
        nondiagonal_excluded(singular)
    off_stars = BigForm(M.case, M.q, M.n, M.field, {**M.cells, (1, 1): 1})
    with pytest.raises(OrbitError, match="on the stars"):
        nondiagonal_excluded(off_stars)


@pytest.mark.parametrize("case,q", [(CASE_C2, 4), (CASE_C3, 3), (CASE_C3, 5)])
def test_sampled_stabilizer_needs_no_dense_act(case, q, monkeypatch):
    """The default samples cost no act, no proportional and no per-sample
    verdict: nondiagonal_excluded decides once per form."""
    calls = []
    for name in ("act", "proportional", "nondiagonal_excluded"):
        real = getattr(orbit, name)
        monkeypatch.setattr(orbit, name, lambda *a, name=name, real=real:
                            calls.append(name) or real(*a))
    rep = stabilizer_search(case, q)
    assert rep.nondiagonal_samples == 10 ** 4 and rep.nondiagonal_hits == 0
    assert calls == ["nondiagonal_excluded"]
