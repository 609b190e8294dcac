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
                            nondiagonal_excluded, pairwise_equivalence,
                            proportional, q2_lambda_member,
                            q2_parameter_matrices, stab_order,
                            stabilizer_search, support_rows_exclude,
                            sympow, twisted_congruence_solve)

from matrices import mat_from_ints, random_hermitian_invertible, random_mat
from oracles import (_group_is_cyclic, _pgl2_elements, act_by_cells,
                     all_cosets_equivalence, curve_point,
                     diagonal_scan_stabilizer,
                     full_small_stabilizer, normalize_to_rep, scale,
                     stabilizer_json, star_mats)


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
    pos = case_signature(CASE_C2, q).exponents
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
    assert case_signature(CASE_C1, 3).exponents == (0, 1, 3, 4)
    assert case_signature(CASE_C2, 4).exponents == (0, 5, 17, 20)
    assert case_signature(CASE_C3, 3).exponents == (0, 2, 5, 6)


def test_embed_project_roundtrip():
    M1 = canonical_rep(CASE_C1, 3)
    big = embed_qprime(M1, CASE_C1, 3)
    assert big.n == 5
    pos = case_signature(CASE_C1, 3).exponents
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


def _three_cycle_values(case, q, fld):
    """The values on the case target's three-cycle cells (0, 1), (1, 3) and
    (3, 0), embedded in fld."""
    target = case_target(case, q)
    emb = gf.make_embedding(target.field, fld)
    return [emb(target.data[r][c]) for r, c in ((0, 1), (1, 3), (3, 0))]


@pytest.mark.parametrize("case,q", [(CASE_C2, 2), (CASE_C2, 4), (CASE_C2, 8),
                                    (CASE_C3, 3), (CASE_C3, 5), (CASE_C3, 7)])
def test_three_cycle_splits_over_no_field_below_q6(case, q):
    """The lemma in orbit._untwist: a 3-cycle block splits over GF(q^(2m))
    only when 3 divides m, so build goes straight to GF(q^6).  The
    exhaustive scan finds nothing over GF(q^2) or GF(q^4)."""
    for m in (1, 2):
        fld = gf.gf_ext(q, m)
        values = _three_cycle_values(case, q, fld)
        assert orbit._solve_three_cycle(
            fld, values, q, orbit._scanned_circulants(fld, q)) is None


def _circulant_coefficients(f, q, b, c):
    """(z, u), the P^2 and P coefficients of t(G0) G0^(q) for
    G0 = c I + P + b P^2."""
    bq, cq = f.pow(b, q), f.pow(c, q)
    return (f.add(f.add(b, f.mul(c, bq)), cq),
            f.add(f.add(bq, f.mul(b, cq)), c))


def test_untwist_goes_straight_to_gf_q6_and_no_further():
    """build climbs no ladder: a monomial target with a 3-cycle is split
    over GF(q^6) or not at all.  A fixed-point value generating GF(9)* has
    no 4th root in GF(3^6), since 4 does not divide its log 91 k, k odd;
    a target that is neither Hermitian nor has a 3-cycle is refused."""
    f9 = gf.gfq2(3)
    g = f9.exp_gen(1)
    M = Mat(f9, [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, g, 0], [f9.neg(1), 0, 0, 0]])
    with pytest.raises(SearchExhausted, match=r"no twisted splitting over GF\(3\^6\)"):
        twisted_congruence_solve(Mat.identity(f9, 4), M, 3)
    with pytest.raises(OrbitError, match="Hermitian or a monomial case shape"):
        twisted_congruence_solve(Mat.identity(f9, 4),
                                 Mat.diagonal(f9, [g, 1, 1, 1]), 3)


def test_untwist_refuses_a_three_cycle_off_the_case_cells():
    """Only the c2/c3 support is split: an invertible, non-Hermitian
    monomial target whose three-cycle is 1 -> 2 -> 3 -> 1, with 0 fixed, is
    refused although its cycle type is the case target's."""
    f9 = gf.gfq2(3)
    M = Mat(f9, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, f9.neg(1), 0, 0]])
    with pytest.raises(OrbitError, match="Hermitian or a monomial case shape"):
        twisted_congruence_solve(Mat.identity(f9, 4), M, 3)


@pytest.mark.parametrize("case,q", [(CASE_C2, 2), (CASE_C2, 4), (CASE_C3, 5)])
def test_closed_form_pick_equals_the_scan(case, q):
    """The pick lemma in orbit._solve_three_cycle, on every field where the
    exhaustive scan over GF(q^6) runs in about a second: the closed form
    enumerates exactly the scan's candidates with z = 0 and u != 0, in
    the scan's order, and both return the same block."""
    fld = gf.gf_ext(q, 3)
    values = _three_cycle_values(case, q, fld)
    pairs = list(orbit._scanned_circulants(fld, q))
    frob = [fld.pow(x, q) for x in fld.elements()]
    add, mul = fld.add, fld.mul
    assert orbit._closed_form_circulants(fld, q) == [
        (b, c) for b, c in pairs
        if add(add(b, mul(c, frob[b])), frob[c]) == 0          # z
        and add(add(frob[b], mul(b, frob[c])), c)]             # u
    G = orbit._solve_three_cycle(fld, values, q,
                                 orbit._closed_form_circulants(fld, q))
    assert G is not None
    assert G == orbit._solve_three_cycle(fld, values, q, pairs)


@pytest.mark.parametrize("q", [2, 4, 5, 7, 8, 11, 13])
def test_the_other_cube_root_gives_no_candidate(q):
    """With w = g^(n/3) in the eigenvalues l_k = c + a w^k + b w^(2k), the
    condition t(G0) G0^(q) = P reads l_(-k) l_(k/q)^q = w^k.  Taking the
    other cube root on the right, w^(-k), describes t(G0) G0^(q) = P^2
    instead: every such circulant has u = 0, so none passes, while every
    closed-form candidate has z = 0 and u != 0."""
    f = gf.gf_ext(q, 3)
    n = f.order - 1
    w = f.exp_gen(n // 3)
    w2 = f.mul(w, w)
    if q % 3 == 2:   # l_2^(q+1) = w^2, l_1^(q+1) = w
        lams = [(l1, l2) for l1 in f.power_roots(w, q + 1)
                for l2 in f.power_roots(w2, q + 1)]
    else:            # l_1^(q^2-1) = w, l_2 = w^2 / l_1^q
        lams = [(l1, f.div(w2, f.pow(l1, q)))
                for l1 in f.power_roots(w, q * q - 1)]
    wrong = []
    for l1, l2 in lams:
        c = f.add(f.add(1, l1), l2)
        a = f.add(f.add(1, f.mul(w2, l1)), f.mul(w, l2))
        b = f.add(f.add(1, f.mul(w, l1)), f.mul(w2, l2))
        if a:
            wrong.append((f.div(b, a), f.div(c, a)))
    assert wrong
    for b, c in wrong:
        assert _circulant_coefficients(f, q, b, c)[1] == 0
    for b, c in orbit._closed_form_circulants(f, q):
        z, u = _circulant_coefficients(f, q, b, c)
        assert z == 0 and u != 0
    values = [1, 1, f.neg(1)]
    assert orbit._solve_three_cycle(f, values, q, wrong) is None


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
    """One sympow and one set of Frobenius rows per scanned torus coset and
    source degree, however many sources of that degree: one degree-6 form,
    listed first so that it is a source, and four degree-3 forms over
    GF(16), no witness.  Every cell lies in GF(4), so one coset per orbit
    of x -> x^4 is scanned, 146 of 272.  Only the pairs i < j are scanned,
    so the last form is no source, and a source gets the full act on a
    coset exactly when its image, computed here by the oracle act, is zero
    on every cell outside its targets' supports."""
    lams = [embed_qprime(inflate_case1(q2_lambda_member(lam)), CASE_C1, 2)
            for lam in range(4)]
    sextic = embed_qprime(case_target(CASE_C2, 2), CASE_C2, 2)
    fld = gf.make_field(2, 4)
    forms = [m.lift_to(fld) for m in [sextic] + lams]
    scanned = list(_torus_cosets(fld, 4))
    expected = [M.n for h in scanned for i, M in enumerate(forms[:-1])
                if set(act_by_cells(M, h).cells) <=
                set().union(*(N.cells for N in forms[i + 1:]))]
    degrees, frobenius, acted = [], [], []
    real_sympow, real_rows, real_act = (orbit.sympow, orbit._frobenius_rows,
                                        orbit.act)
    monkeypatch.setattr(orbit, "sympow",
                        lambda g, d: degrees.append(d) or real_sympow(g, d))
    monkeypatch.setattr(orbit, "_frobenius_rows", lambda phi, q, rows:
                        frobenius.append(phi.rows) or real_rows(phi, q, rows))
    monkeypatch.setattr(orbit, "act",
                        lambda M, *rest: acted.append(M.n) or real_act(M, *rest))
    verdicts = pairwise_equivalence([sextic] + lams, fld)
    assert len(verdicts) == 20 and all(v is None for v in verdicts.values())
    assert len(scanned) == 146
    assert sorted(degrees) == [3] * 146 + [6] * 146
    assert sorted(frobenius) == [4] * 146 + [7] * 146
    assert sorted(acted) == sorted(expected)
    assert 0 < len(acted) < 4 * 146


def test_act_refuses_phi_of_another_degree_or_field():
    M = embed_qprime(case_target(CASE_C3, 3), CASE_C3, 3)
    g = Mat(M.field, [[1, 1], [0, 1]])
    assert act(M, g, sympow(g, M.n - 1)).cells == act(M, g).cells
    with pytest.raises(OrbitError, match="phi must be"):
        act(M, g, sympow(g, M.n - 2))
    other = gf.gf_ext(3, 3)
    with pytest.raises(OrbitError, match="phi must be"):
        act(M, g, sympow(Mat(other, [[1, 1], [0, 1]]), M.n - 1))
    phi = sympow(g, M.n - 1)
    with pytest.raises(OrbitError, match="phi must be"):
        act(M, g, phi, orbit._frobenius_rows(phi, 3, range(M.n - 1)))


@pytest.mark.parametrize("p,m", [(2, 4), (7, 2), (2, 12), (7, 6)])
def test_act_equals_the_cell_by_cell_product(p, m):
    """The two-stage act equals oracles.act_by_cells with and without the
    phi and the Frobenius rows a scan shares, on sparse and dense random
    forms moved by diagonal and dense g, over GF(16) and GF(49) (tabled)
    and GF(2^12) and GF(7^6) (untabled)."""
    fld = gf.make_field(p, m)
    q = p ** (m // 2)
    n = 5
    rng = random.Random(fld.order)
    grid = [(u, w) for u in range(n) for w in range(n)]
    for k in range(8):
        cells = grid if k % 4 == 3 else rng.sample(grid, rng.randrange(1, 9))
        M = BigForm(CASE_C1, q, n, fld,
                    {rc: rng.randrange(1, fld.order) for rc in cells})
        if k % 2:
            g = _invertible(fld, rng)
        else:
            g = Mat.diagonal(fld, [rng.randrange(1, fld.order),
                                   rng.randrange(1, fld.order)])
        phi = sympow(g, n - 1)
        want = act_by_cells(M, g).cells
        assert act(M, g).cells == want
        assert act(M, g, phi).cells == want
        assert act(M, g, phi, orbit._frobenius_rows(phi, q, range(n))).cells == want


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


@pytest.mark.parametrize("p,m,k", [(2, 4, 2), (2, 4, 1), (2, 6, 3), (2, 6, 2),
                                   (3, 4, 2)])
def test_torus_cosets_one_per_frobenius_orbit(p, m, k, monkeypatch):
    """sigma: x -> x^r, GF(r) = GF(p^k) inside GF(p^m), maps the
    representatives onto themselves entry by entry.  Given r, exactly the
    first of each sigma-orbit, in order, is generated, and their number is
    Burnside's count of orbits, (1/K) times the sum over j < K of
    s (s + 1), s = r^gcd(j, K), K = m / k: 146 for GF(16) over GF(4).
    pairwise_equivalence scans that many cosets when its forms' cells
    generate GF(r): a rank-one form and a rank-two one, never equivalent."""
    fld, r, K = gf.make_field(p, m), p ** k, m // k

    def sigma(key):
        return tuple(tuple(fld.pow(x, r) for x in row) for row in key)
    every = [h.key() for h in _torus_cosets(fld)]
    assert {sigma(key) for key in every} == set(every)
    firsts, seen = [], set()
    for key in every:
        if key not in seen:
            firsts.append(key)
            for _ in range(K):
                seen.add(key)
                key = sigma(key)
    scanned = [h.key() for h in _torus_cosets(fld, r)]
    assert scanned == firsts
    burnside = sum(s * (s + 1) for s in (r ** math.gcd(j, K) for j in range(K)))
    assert len(scanned) * K == burnside
    assert (p, m, k) != (2, 4, 2) or len(scanned) == 146
    gen = fld.exp_gen((fld.order - 1) // (r - 1))
    forms = [BigForm(CASE_C1, p, 4, fld, {(0, 0): gen}),
             BigForm(CASE_C1, p, 4, fld, {(0, 0): 1, (1, 1): 1})]
    degrees = []
    real_sympow = orbit.sympow
    monkeypatch.setattr(orbit, "sympow",
                        lambda g, d: degrees.append(d) or real_sympow(g, d))
    assert set(pairwise_equivalence(forms, fld).values()) == {None}
    assert len(degrees) == len(scanned)


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
    pos = case_signature(case, q).exponents
    M = _random_form(case, q, fld, rng,
                     [(r, c) for r in pos for c in pos if rng.random() < 0.5])
    g = _invertible(fld, rng)
    while g.data[0][1] == 0 and g.data[1][0] == 0:
        g = _invertible(fld, rng)
    _assert_scan_matches_gl2([M, act(M, g)], fld)


def test_unordered_scan_matches_gl2_scan_with_partners_on_both_sides():
    """Scanning only i < j and taking (j, i) from the adjugate gives the
    ordered pairs of the full GL2 walk: lambda-0 sits at index 2 between two
    planted images of it, one before it and one after, among two forms of
    other classes; every witness of either direction passes proportional."""
    f4 = gf.gfq2(2)
    params = q2_parameter_matrices()
    M = embed_qprime(inflate_case1(q2_lambda_member(0)), CASE_C1, 2)
    rng = random.Random(7)
    forms = [act(M, _invertible(f4, rng)),
             embed_qprime(inflate_case1(params[0]), CASE_C1, 2), M,
             act(M, _invertible(f4, rng)),
             embed_qprime(inflate_case1(params[1]), CASE_C1, 2)]
    _assert_scan_matches_gl2(forms, f4)
    verdicts = pairwise_equivalence(forms, f4)
    assert {k for k, g in verdicts.items() if g is not None} == \
        {(i, j) for i in (0, 2, 3) for j in (0, 2, 3) if i != j}


def _subfield_order(fld, forms):
    """The order of the least subfield of fld holding every cell."""
    values = {v for M in forms for v in M.lift_to(fld).cells.values()}
    return min(fld.p ** k for k in range(1, fld.m + 1) if fld.m % k == 0
               and all(fld.pow(v, fld.p ** k) == v for v in values))


def _all_cosets_cases():
    """(forms, search field, least subfield order, witnesses): the seven
    reps-q2 forms over GF(16); planted images under GL2(GF(4)) of two of
    them, over GF(16), where x -> x^4 halves the scan; a planted image
    under GL2(GF(16)), whose cells fill GF(16); and the c3 q = 3
    representative with a planted image, over GF(9) and over GF(81)."""
    f4, f9, f16 = gf.gfq2(2), gf.gfq2(3), gf.make_field(2, 4)
    params = q2_parameter_matrices() + [q2_lambda_member(lam) for lam in range(4)]
    reps = [embed_qprime(inflate_case1(p), CASE_C1, 2) for p in params]
    yield pytest.param(reps, f16, 4, 0, id="reps-q2")
    for seed in range(6):
        rng = random.Random(seed)
        yield pytest.param([reps[4], act(reps[4], _invertible(f4, rng)),
                            reps[0], act(reps[0], _invertible(f4, rng)),
                            act(reps[4], _invertible(f4, rng))], f16, 4, 8,
                           id=f"planted-gf4-{seed}")
    M = reps[4].lift_to(f16)
    yield pytest.param([M, reps[1], act(M, _invertible(f16, random.Random(16)))],
                       f16, 16, 2, id="gf16-cells")
    rep = embed_qprime(canonical_rep(CASE_C3, 3), CASE_C3, 3)
    c3 = [rep, act(rep, _invertible(f9, random.Random(4)))]
    yield pytest.param(c3, f9, 9, 2, id="c3-q3-gf9")
    yield pytest.param(c3, gf.gf_ext(3, 2), 9, 2, id="c3-q3-gf81")


@pytest.mark.parametrize("forms,fld,r,witnesses", list(_all_cosets_cases()))
def test_pairwise_equivalence_matches_the_all_cosets_scan(forms, fld, r,
                                                          witnesses):
    """The descent and support lemmas change no verdict and no witness:
    the same {(i, j): g} as the scan over every coset with a full act per
    source (oracles.all_cosets_equivalence), each witness moving its form
    onto a multiple of its partner."""
    assert _subfield_order(fld, forms) == r
    verdicts = pairwise_equivalence(forms, fld)
    assert verdicts == all_cosets_equivalence(forms, fld)
    assert sum(g is not None for g in verdicts.values()) == witnesses
    lifted = [M.lift_to(fld) for M in forms]
    for (i, j), g in verdicts.items():
        if g is not None:
            assert proportional(act(lifted[i], g), lifted[j]) is not None


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
    elements = star_mats(rep)
    keys = {e.key() for e in elements}
    f = rep.field
    for e1 in elements:
        for e2 in elements:
            prod = e1.mul(e2)
            nz = next(v for row in prod.data for v in row if v)
            assert scale(prod, f.inv(nz)).key() in keys


def test_stabilizer_c3_q3_contains_order_two_element():
    rep = stabilizer_search(CASE_C3, 3, samples=0)
    f = rep.field
    order2 = Mat.diagonal(f, [1, 1, f.neg(1), 1])
    assert order2.key() in {e.key() for e in star_mats(rep)}


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
    none = stabilizer_json(stabilizer_search(CASE_C3, 3, samples=0))
    t0 = time.perf_counter()
    many = stabilizer_json(stabilizer_search(CASE_C3, 3, samples=10 ** 12))
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
    assert rep.cyclic and _group_is_cyclic(star_mats(rep))


@pytest.mark.parametrize("case,q", [
    (CASE_C2, 4), (CASE_C2, 8), (CASE_C2, 16), (CASE_C2, 32),
    (CASE_C3, 3), (CASE_C3, 5), (CASE_C3, 7), (CASE_C3, 9), (CASE_C3, 11),
    (CASE_C3, 19),
])
def test_stabilizer_order_is_D_and_the_walk_lists_D_stars(case, q):
    """The order is D = q^3 + 1 (c2) or (q^3 + 1)/2 (c3), from integers, and
    the walk over GF(q^6) lists exactly D distinct stars, sorted."""
    rep = stabilizer_search(case, q, samples=0)
    D = q ** 3 + 1 if case == CASE_C2 else (q ** 3 + 1) // 2
    assert rep.order == len(rep.elements) == D
    assert all(a < b for a, b in zip(rep.elements, rep.elements[1:]))


def test_a_walk_that_misses_D_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(orbit, "diagonal_stabilizer",
                        lambda M, walk=orbit.diagonal_stabilizer: walk(M)[1:])
    with pytest.raises(OrbitError, match="internal: the walk lists 13 stars, "
                                         "not D = 14"):
        stabilizer_search(CASE_C3, 3, samples=0)


def _diagonal_mats(M) -> list:
    return [Mat.diagonal(M.field, star) for star in diagonal_stabilizer(M)]


@pytest.mark.parametrize("case,q,m", [
    (CASE_C3, 3, 3), (CASE_C2, 4, 3), (CASE_C3, 5, 3),
    (CASE_C3, 3, 1), (CASE_C3, 3, 2), (CASE_C2, 4, 1), (CASE_C2, 4, 2),
])
def test_diagonal_stabilizer_matches_diagonal_scan(case, q, m):
    """The gcd over the support gives the same sorted stars as the dense
    act over every diag(r, 1) of GF(q^(2m)): the diagonals sorted as
    tuples come in Mat.key order."""
    M = embed_qprime(canonical_rep(case, q), case, q).lift_to(gf.gf_ext(q, m))
    assert _diagonal_mats(M) == diagonal_scan_stabilizer(M)


@pytest.mark.parametrize("case,q,m", [
    (CASE_C3, 3, 1), (CASE_C3, 3, 2), (CASE_C3, 3, 3),
    (CASE_C2, 4, 1), (CASE_C2, 4, 2),
])
def test_diagonal_stabilizer_matches_scan_on_random_supports(case, q, m):
    """The same comparison on forms with random cells on the case's star
    positions, where the gcd needs every cell of the support."""
    fld = gf.gf_ext(q, m)
    pos = case_signature(case, q).exponents
    rng = random.Random(10 * q + m)
    for _ in range(3):
        cells = {(r, c): rng.randrange(1, fld.order)
                 for r in pos for c in pos if rng.random() < 0.4}
        M = BigForm(case, q, pos[-1] + 1, fld, cells)
        assert _diagonal_mats(M) == diagonal_scan_stabilizer(M)


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


@pytest.mark.parametrize("case,q", [(CASE_C2, 4), (CASE_C2, 8), (CASE_C3, 3),
                                    (CASE_C3, 5), (CASE_C3, 7), (CASE_C3, 11)])
def test_diagonal_order_is_the_support_exponent_gap(case, q):
    """The lemma in orbit.diagonal_stabilizer, in integers only: on the
    representative's four support cells the diag_weight exponents differ
    by 0 and -i (q^2 - q + 1), which is -(q^3 + 1) for c2 (i = q + 1) and
    -(q^3 + 1)/2 for c3 (i = (q + 1)/2), so D = q^3 + 1 and (q^3 + 1)/2."""
    sig = case_signature(case, q)
    d, i, j = sig.d, sig.exponents[1], sig.exponents[2]
    cells = {(0, i): 1, (i, d): 1, (j, j): 1, (d, 0): 1}
    M = BigForm(case, q, d + 1, None, cells)
    a = [diag_weight(u, w, d, q)[0] for u, w in cells]
    gap = i * (q * q - q + 1)
    assert {x - a[0] for x in a} == {0, -gap}
    D = q ** 3 + 1 if case == CASE_C2 else (q ** 3 + 1) // 2
    assert gap == D and (q ** 6 - 1) % D == 0
    assert diagonal_fixing_order(M, q ** 6 - 1) == D


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
    assert scale(gamma, fld.inv(nz)) != Mat.identity(fld, 4)
    sq = gamma.mul(gamma)
    nz = next(v for row in sq.data for v in row if v)
    assert scale(sq, fld.inv(nz)) == Mat.identity(fld, 4)
    rng = random.Random(0)
    for _ in range(20):
        s, t = rng.randrange(fld.order), rng.randrange(fld.order)
        if not (s or t):
            continue
        x = curve_point(curve, s, t)
        gx = [0] * 4
        for r in range(4):
            acc = 0
            for c in range(4):
                acc = fld.add(acc, fld.mul(gamma.data[r][c], x[c]))
            gx[r] = acc
        y = curve_point(curve, s, fld.neg(t))
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
    pos = case_signature(case, q).exponents
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
