import random

import pytest
from hypothesis import given, settings, strategies as st

from hermitia import gf
from hermitia.matff import Mat, MatError, fermat_surface
from hermitia.orbit import case_target, twisted_congruence_solve
from hermitia.tetra import (CASE_C1, CASE_C2, CASE_C3, CurveSpec, Signature,
                            SignatureError, canonical_signature, case_signature,
                            decide_smoothness, defining_equations,
                            eval_equation, expand_form, exponent_matrix,
                            is_identically_zero, jacobian_matrix,
                            jacobian_minors, jacobian_rank, minor_gcd,
                            normalize_point, on_surface, smoothness_scan)
from matrices import random_mat
from oracles import (curve_from_json, curve_point, evaluate_form,
                     is_prime_power, projective_line, scale, smoothness_walk,
                     walk_smoothness)


# -- signatures -----------------------------------------------------------------

def test_canonical_signature_examples():
    assert canonical_signature(6, 2, 4).astuple() == (3, 1, 2)
    assert canonical_signature(7, 4, 5).astuple() == (7, 2, 3)
    for q in (2, 3, 4, 5):
        sig = (q + 1, 1, q)
        assert canonical_signature(*sig).astuple() == sig  # self-flipped


def test_signature_validation():
    with pytest.raises(SignatureError):
        Signature(4, 3, 3)
    with pytest.raises(SignatureError):
        Signature(4, 0, 2)
    with pytest.raises(SignatureError):
        Signature(4, 1, 4)


def test_signature_is_a_hashable_ordered_immutable_value():
    a, b, c = Signature(4, 1, 3), Signature(4, 1, 3), Signature(3, 1, 2)
    assert a == b and a is not b and a != c and a != (4, 1, 3)
    assert {a, b, c, Signature(3, 1, 2)} == {a, c}
    assert sorted([Signature(6, 2, 5), a, Signature(4, 1, 2), c]) == [
        c, Signature(4, 1, 2), a, Signature(6, 2, 5)]
    assert c < a <= b and a > c and a >= b and not a < b
    with pytest.raises(AttributeError):
        a.d = 5
    with pytest.raises(AttributeError):
        del a.i
    assert a.astuple() == (4, 1, 3) and a == b


@st.composite
def raw_signatures(draw):
    d = draw(st.integers(3, 40))
    i = draw(st.integers(1, d - 2))
    j = draw(st.integers(i + 1, d - 1))
    return d, i, j


@settings(max_examples=150, deadline=None)
@given(sig=raw_signatures(), n=st.integers(1, 3), flip=st.booleans())
def test_canonical_signature_idempotent_and_invariant(sig, n, flip):
    d, i, j = sig
    canon = canonical_signature(d, i, j)
    assert canonical_signature(*canon.astuple()) == canon
    moved = (d * n, i * n, j * n)
    if flip:
        moved = (moved[0], moved[0] - moved[2], moved[0] - moved[1])
    assert canonical_signature(*moved) == canon


def test_case_signatures():
    assert case_signature(CASE_C1, 3).astuple() == (4, 1, 3)
    assert case_signature(CASE_C2, 4).astuple() == (20, 5, 17)
    assert case_signature(CASE_C3, 3).astuple() == (6, 2, 5)
    with pytest.raises(SignatureError):
        case_signature(CASE_C2, 3)
    with pytest.raises(SignatureError):
        case_signature(CASE_C3, 4)


# -- exponent matrix and expansion ----------------------------------------------

def test_exponent_matrix_frozen_values():
    assert exponent_matrix(Signature(3, 1, 2), 2) == [
        [0, 2, 4, 6], [1, 3, 5, 7], [2, 4, 6, 8], [3, 5, 7, 9]]
    assert exponent_matrix(Signature(4, 1, 3), 3) == [
        [0, 3, 9, 12], [1, 4, 10, 13], [3, 6, 12, 15], [4, 7, 13, 16]]


@settings(max_examples=60, deadline=None)
@given(sig=raw_signatures(), q=st.sampled_from([2, 3, 4]))
def test_exponent_matrix_corners(sig, q):
    E = exponent_matrix(Signature(*sig), q)
    assert E[0][0] == 0
    assert E[3][3] == (q + 1) * sig[0]


def test_expansion_groups_colliding_cells():
    # q=2, (3,1,2): cells (0,1) and (2,0) share exponent 2
    f = gf.gfq2(2)
    B = random_mat(f, 4, 4, random.Random(3))
    coeffs = expand_form(Signature(3, 1, 2), 2, B)
    expected = f.add(B.data[0][1], B.data[2][0])
    assert coeffs.get(2, 0) == expected


def test_identity_form_is_not_zero():
    f = gf.gfq2(3)
    assert not is_identically_zero(Signature(4, 1, 3), 3, Mat.identity(f, 4))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_case1_hermitian_rep_vanishes(q):
    B = case_target(CASE_C1, q)
    assert is_identically_zero(case_signature(CASE_C1, q), q, B)


@pytest.mark.parametrize("q", [2, 3])
def test_expansion_agrees_with_point_evaluation(q):
    """Vanishing at more projective points than the degree is equivalent to
    vanishing identically, so evaluation over a large enough field is an
    exact independent oracle."""
    sig = case_signature(CASE_C1, q)
    deg = (q + 1) * sig.d
    ext = 2
    while gf.gf_ext(q, ext).order + 1 <= deg:
        ext += 1
    big = gf.gf_ext(q, ext)
    rng = random.Random(17)
    f2 = gf.gfq2(q)
    emb = gf.make_embedding(f2, big)
    for trial in range(12):
        B = random_mat(f2, 4, 4, rng)
        Bb = B.lift_to(emb.dst)
        vanishes = all(evaluate_form(sig, q, Bb, s, t) == 0
                       for s, t in projective_line(big))
        assert vanishes == is_identically_zero(sig, q, B)


# -- curves and containment -------------------------------------------------------

def test_on_surface_symbolic():
    q = 3
    surf = fermat_surface(q)
    F = twisted_congruence_solve(surf.gram, case_target(CASE_C1, q), q)
    curve = CurveSpec(q, case_signature(CASE_C1, q), F)
    assert on_surface(curve, surf)
    ident = CurveSpec(q, Signature(4, 1, 3), Mat.identity(surf.gram.field, 4))
    assert not on_surface(ident, surf)


def test_on_surface_scale_invariance():
    q = 3
    surf = fermat_surface(q)
    F = twisted_congruence_solve(surf.gram, case_target(CASE_C1, q), q)
    fld = F.field
    for c in (2, 5):
        scaled = CurveSpec(q, case_signature(CASE_C1, q), scale(F, c % fld.order or 2))
        assert on_surface(scaled, surf)
    surf_scaled = fermat_surface(q)
    surf_scaled.gram = scale(surf_scaled.gram, 2)
    curve = CurveSpec(q, case_signature(CASE_C1, q), F)
    assert on_surface(curve, surf_scaled)


def test_curve_json_roundtrip():
    q = 2
    surf = fermat_surface(q)
    F = twisted_congruence_solve(surf.gram, case_target(CASE_C1, q), q)
    curve = CurveSpec(q, case_signature(CASE_C1, q), F)
    doc = curve.to_json()
    back = curve_from_json(doc)
    assert back.sig == curve.sig and back.frame == curve.frame


# -- defining equations, Jacobians, scans ------------------------------------------

def test_parametrized_points_satisfy_equations():
    for case, q in ((CASE_C1, 2), (CASE_C1, 3), (CASE_C2, 2), (CASE_C2, 4),
                    (CASE_C3, 3), (CASE_C3, 5)):
        fld = gf.gfq2(q)
        sig = case_signature(case, q)
        eqs = defining_equations(case, q)
        curve = CurveSpec(q, sig, Mat.identity(fld, 4))
        for s, t in projective_line(fld):
            pt = curve_point(curve, s, t)
            assert all(eval_equation(eq, pt, fld) == 0 for eq in eqs)


def test_single_equation_jacobian_entry():
    f = gf.gf_ext(3, 2)
    eq = {(0, 1, 1, 0): 1, (1, 0, 0, 1): -1}   # x1 x2 - x0 x3
    J = jacobian_matrix([eq], (1, 0, 0, 0), f)
    assert J.data == [[0, 0, 0, f.neg(1)]]


def test_jacobian_rank_paper_points():
    f81 = gf.gf_ext(3, 2)
    assert jacobian_rank(defining_equations(CASE_C3, 3), (0, 0, 0, 1), f81) == 1
    assert jacobian_rank(defining_equations(CASE_C1, 3), (1, 0, 0, 0), f81) == 2
    f256 = gf.gf_ext(4, 2)
    assert jacobian_rank(defining_equations(CASE_C2, 4), (0, 0, 0, 1), f256) == 1
    with pytest.raises(MatError):
        jacobian_rank(defining_equations(CASE_C1, 3), (0, 0, 0, 0), f81)


def test_jacobian_rank_q2_endpoints():
    # the q=2 standard degree-6 curve is rank-deficient at (1,0,0,0), and
    # regular at (0,0,0,1) where the q >= 3 members are deficient
    f16 = gf.gf_ext(2, 2)
    eqs = defining_equations(CASE_C2, 2)
    assert jacobian_rank(eqs, (1, 0, 0, 0), f16) == 1
    assert jacobian_rank(eqs, (0, 0, 0, 1), f16) == 2


def test_normalize_point():
    f = gf.gfq2(3)
    assert normalize_point(f, (0, 2, 1, 0)) == (0, 1, f.mul(f.inv(2), 1), 0)
    with pytest.raises(MatError):
        normalize_point(f, (0, 0, 0, 0))


@pytest.mark.parametrize("q", [2, 3])
def test_smoothness_scan_c1_clean(q):
    rep = smoothness_scan(CASE_C1, q, gf.gf_ext(q, 2))
    assert rep.containment_ok
    assert rep.singular == []
    assert rep.points_scanned == gf.gf_ext(q, 2).order + 1


def test_smoothness_scan_c3_q3():
    rep = smoothness_scan(CASE_C3, 3, gf.gf_ext(3, 2))
    assert rep.containment_ok
    assert [pt for pt, _ in rep.singular] == [(0, 0, 0, 1), (1, 0, 0, 0)]
    assert all(rank == 1 for _, rank in rep.singular)


def test_smoothness_scan_c2_q2_singular_at_one_zero():
    rep = smoothness_scan(CASE_C2, 2, gf.gf_ext(2, 2))
    assert rep.containment_ok
    assert [pt for pt, _ in rep.singular] == [(1, 0, 0, 0)]
    assert rep.singular[0][1] == 1


def test_smoothness_scan_field_validation():
    with pytest.raises(MatError):
        smoothness_scan(CASE_C1, 3, gf.make_field(3, 3))  # no GF(9) inside


# -- smoothness from the Jacobian minors against the P^1 walk ----------------------

@pytest.mark.parametrize("case,q", [(CASE_C1, q) for q in (2, 3, 4, 5, 7, 8)]
                         + [(CASE_C2, q) for q in (2, 4, 8)]
                         + [(CASE_C3, q) for q in (3, 5, 7)])
def test_smoothness_scan_matches_walk(case, q):
    fld = gf.gf_ext(q, 2)
    assert (smoothness_scan(case, q, fld).to_json()
            == smoothness_walk(case, q, fld).to_json())


@pytest.mark.parametrize("case,qs", [
    (CASE_C1, [q for q in range(2, 28) if is_prime_power(q)]),
    (CASE_C2, [2, 4, 8, 16, 32]),
    (CASE_C3, [q for q in range(3, 28, 2) if is_prime_power(q)]),
])
def test_standard_minor_gcd_is_constant(case, qs):
    """Off s = 0 and t = 0 the minors of the standard systems have no
    common root anywhere, so their verdict holds over every extension."""
    for q in qs:
        p, _ = gf.prime_power_split(q)
        minors = jacobian_minors(defining_equations(case, q),
                                 case_signature(case, q), p)
        assert len(minor_gcd(minors, p)) == 1, (case, q)


def _product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


CUBIC = Signature(3, 1, 2)          # the twisted cubic (s^3, s^2 t, s t^2, t^3)
X2X3 = {(0, 0, 1, 1): 1}
# x0^2 + x1^2 and x1^3 - x1 x0^2 + x0^3 are irreducible over GF(3); on the
# cubic they are s^6 (1 + x^2) and s^9 (x^3 - x + 1) with x = t/s
SUM_OF_SQUARES = {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1}
ARTIN_SCHREIER = {(0, 3, 0, 0): 1, (2, 1, 0, 0): -1, (3, 0, 0, 0): 1}


@pytest.mark.parametrize("factor,degree,m,roots", [
    (SUM_OF_SQUARES, 2, 4, 2),   # roots +-i lie in GF(9) inside GF(81)
    (ARTIN_SCHREIER, 3, 3, 3),   # the three roots lie in GF(27)
    (ARTIN_SCHREIER, 3, 2, 0),   # ... and none in GF(9): no point to report
])
def test_planted_rank_drop_off_the_axes(factor, degree, m, roots):
    """The gradient of factor^2 vanishes where factor does, so the rank
    drops at (1 : r) for every root r of the factor in the field, besides
    the two axis points (1 : 0) and (0 : 1)."""
    eqs = [_product(factor, factor), X2X3]
    fld = gf.make_field(3, m)
    assert len(minor_gcd(jacobian_minors(eqs, CUBIC, 3), 3)) - 1 == degree
    got = decide_smoothness(eqs, CUBIC, fld)
    assert got == walk_smoothness(eqs, CUBIC, fld)
    axes = {(0, 0, 0, 1), (1, 0, 0, 0)}
    assert axes <= {pt for pt, _ in got[1]}
    assert len(got[1]) == len(axes) + roots


def test_planted_equation_off_the_curve():
    """x0 x3 - x1^2 pulls back to s^3 t^3 - s^4 t^2, which vanishes only at
    t = 0, t = s and s = 0."""
    eqs = [{(1, 0, 0, 1): 1, (0, 2, 0, 0): -1}, X2X3]
    fld = gf.make_field(3, 2)
    got = decide_smoothness(eqs, CUBIC, fld)
    assert got == walk_smoothness(eqs, CUBIC, fld)
    assert got[0] is False


@pytest.mark.parametrize("eq,m,vanishes", [
    # s t (s^3 - t^3): zero at every point of P^1(GF(4)), not of P^1(GF(16))
    ({(0, 1, 0, 0): 1, (0, 0, 1, 0): -1}, 2, True),
    ({(0, 1, 0, 0): 1, (0, 0, 1, 0): -1}, 4, False),
    # t^10 - s^6 t^4 is zero at every (1 : x) over GF(4), but not at (0 : 1)
    ({(0, 0, 0, 2): 1, (1, 0, 1, 0): -1}, 2, False),
    # s^10 - s^4 t^6 is zero at every (1 : x), x != 0, but not at (1 : 0)
    ({(2, 0, 0, 0): 1, (0, 1, 0, 1): -1}, 2, False),
])
def test_planted_equation_vanishing_on_field_points_only(eq, m, vanishes):
    """Forms on (s^5, s^4 t, s t^4, t^5) that are nonzero but vanish on
    many field points.  One equation has no 2x2 minors, so every point has
    rank at most 1."""
    sig = Signature(5, 1, 4)
    fld = gf.make_field(2, m)
    got = decide_smoothness([eq], sig, fld)
    assert got == walk_smoothness([eq], sig, fld)
    assert got[0] is vanishes
    assert len(got[1]) == fld.order + 1
