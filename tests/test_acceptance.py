"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Three sub-claims are marked strict-xfail because the exhaustive computations
refute them; each has a green companion pinning the computed truth, and the
classifier/stabilizer reports surface the same findings through the CLI's
match flags.  Everything else runs at its stated tolerance, exactly.
"""

import json
import random
import time

import pytest

from hermitia import gf
from hermitia.cli import main as cli_main
from hermitia.matff import Mat, fermat_surface, hermitian_decompose, twisted_gram
from hermitia.tetra import (CASE_C1, CASE_C2, CASE_C3, CurveSpec, Signature,
                            canonical_signature, case_signature,
                            is_identically_zero, on_surface, smoothness_scan)
from hermitia.classify import enumerate_admissible
from hermitia.orbit import (act, aut_order, build_curve, count_Td,
                            case_target, embed_qprime, inflate_case1,
                            pairwise_equivalence, proportional,
                            q2_lambda_member, stab_order, stabilizer_search,
                            sympow)
from matrices import mat_from_ints, random_hermitian_invertible, random_mat
from oracles import evaluate_form, projective_line


def _report(n, label, t0):
    print(f"criterion {n} ({label}): PASS ({time.time() - t0:.2f}s)")


# -- criterion 1: count reproduction ------------------------------------------------

def test_criterion_01_count_reproduction(capsys):
    t0 = time.time()
    expected = {
        3: {"c1": 18144, "c3": 1866240},
        4: {"c1": 249600, "c2": 15667200},
        5: {"c1": 1890000, "c3": 468000000},
        2: {"c1": "infinite", "c2": "infinite"},
    }
    for q, want in expected.items():
        code = cli_main(["count", "--q", str(q)])
        doc = json.loads(capsys.readouterr().out)
        got = {e["case"]: e["count"] for e in doc["cases"]}
        assert got == want, (q, got)
        assert code == 0
    assert time.time() - t0 < 1.0
    _report(1, "count reproduction", t0)


# -- criterion 2: orbit-stabilizer consistency ---------------------------------------

def test_criterion_02_orbit_stabilizer_consistency():
    t0 = time.time()
    for q in (3, 4, 5, 7, 8, 9, 11, 13):
        cases = [CASE_C1] + ([CASE_C2] if q % 2 == 0 else [CASE_C3])
        for case in cases:
            assert aut_order(q) % stab_order(case, q) == 0
            assert aut_order(q) // stab_order(case, q) == count_Td(case, q)
    assert time.time() - t0 < 1.0
    _report(2, "orbit-stabilizer consistency", t0)


# -- criterion 3: classification rediscovery ------------------------------------------

def _canon_set(sigs):
    return {canonical_signature(*s) for s in sigs}


def test_criterion_03_classification_q3_and_q4():
    t0 = time.time()
    rep3 = enumerate_admissible(3, 12)
    assert _canon_set(s.astuple() for s in rep3.signatures()) == \
        _canon_set([(4, 1, 3), (6, 2, 5)])
    assert [e.case for e in rep3.admissible] == ["I", "III"]
    rep4 = enumerate_admissible(4, 21)
    assert _canon_set(s.astuple() for s in rep4.signatures()) == \
        _canon_set([(5, 1, 4), (20, 5, 17)])
    assert [e.case for e in rep4.admissible] == ["I", "II"]
    # q >= 3 forced zeros: the degree-(q+1) spaces have dim 4, the others dim 2
    assert [e.dim for e in rep3.admissible] == [4, 2]
    assert [e.dim for e in rep4.admissible] == [4, 2]
    assert time.time() - t0 < 300
    _report(3, "classification rediscovery (q=3, q=4)", t0)


@pytest.mark.xfail(
    strict=True,
    reason="the exhaustive q=2 scan also finds the degree-4 signature "
           "(4,1,3), which admits an invertible vanishing form; the scan "
           "therefore cannot equal the two-element set")
def test_criterion_03_classification_q2_two_family_claim():
    rep = enumerate_admissible(2, 12)
    assert _canon_set(s.astuple() for s in rep.signatures()) == \
        _canon_set([(3, 1, 2), (6, 3, 5)])


def test_criterion_03_classification_q2_computed_truth():
    t0 = time.time()
    rep = enumerate_admissible(2, 12)
    assert _canon_set(s.astuple() for s in rep.signatures()) == \
        _canon_set([(3, 1, 2), (4, 1, 3), (6, 3, 5)])
    extra = rep.admissible[1]
    assert extra.sig.astuple() == (4, 1, 3) and extra.case == "unexpected"
    # the surplus family is real: invertible witness, vanishing form, and a
    # concrete degree-4 curve on the Fermat cubic built from it
    B = extra.witness
    assert B.det() != 0
    assert is_identically_zero(Signature(4, 1, 3), 2, B)
    q = 2
    surf = fermat_surface(q)
    from hermitia.orbit import twisted_congruence_solve
    F = twisted_congruence_solve(surf.gram, B.lift_to(gf.gfq2(2)), q)
    curve = CurveSpec(q, Signature(4, 1, 3), F)
    assert curve.nonplanar and on_surface(curve, surf)
    assert time.time() - t0 < 300
    _report(3, "classification q=2 computed truth (extra degree-4 family)", t0)


# -- criterion 4: decomposition round-trip ---------------------------------------------

def test_criterion_04_decomposition_roundtrip():
    t0 = time.time()
    for q in (2, 3, 4, 5, 7):
        I = Mat.identity(gf.gfq2(q), 4)
        for seed in range(200):
            A = random_hermitian_invertible(q, 4, seed)
            B = hermitian_decompose(A, q)
            assert twisted_gram(B, I, q) == A
    assert time.time() - t0 < 10.0
    _report(4, "decomposition round-trip (5 x 200 matrices)", t0)


# -- criterion 5: curve construction and containment ------------------------------------

def test_criterion_05_construction_and_containment():
    t0 = time.time()
    for case, qs in ((CASE_C1, (2, 3, 4, 5)), (CASE_C2, (2, 4)),
                     (CASE_C3, (3, 5))):
        for q in qs:
            surf = fermat_surface(q)
            curve = build_curve(case, q, surf)
            assert curve.nonplanar
            assert on_surface(curve, surf)
    # the four-term cancellation of the Hermitian degree-(q+1) representative
    for q in (2, 3, 4, 5):
        B = case_target(CASE_C1, q)
        assert is_identically_zero(case_signature(CASE_C1, q), q, B)
    assert time.time() - t0 < 60
    _report(5, "curve construction + containment", t0)


# -- criterion 6: smoothness and singularity ---------------------------------------------

def test_criterion_06_smoothness_scans():
    t0 = time.time()
    for q in (2, 3, 4):
        rep = smoothness_scan(CASE_C1, q, gf.gf_ext(q, 2))
        assert rep.containment_ok and rep.singular == []
    for case, q in ((CASE_C2, 4), (CASE_C3, 3)):
        rep = smoothness_scan(case, q, gf.gf_ext(q, 2))
        assert rep.containment_ok
        ranks = dict(rep.singular)
        assert ranks.get((0, 0, 0, 1)) == 1
    assert time.time() - t0 < 60
    _report(6, "smoothness/singularity scans", t0)


@pytest.mark.xfail(
    strict=True,
    reason="for q=2 the degree-6 model has Jacobian rank 2 at (0:0:0:1); its "
           "rank-deficient point sits at (1:0:0:0) instead")
def test_criterion_06_c2_q2_origin_claim():
    rep = smoothness_scan(CASE_C2, 2, gf.gf_ext(2, 2))
    assert (0, 0, 0, 1) in dict(rep.singular)


def test_criterion_06_c2_q2_computed_truth():
    t0 = time.time()
    rep = smoothness_scan(CASE_C2, 2, gf.gf_ext(2, 2))
    assert rep.containment_ok
    assert rep.singular == [((1, 0, 0, 0), 1)]
    _report(6, "q=2 degree-6 singular point is (1:0:0:0)", t0)


# -- criterion 7: stabilizer orders --------------------------------------------------------

def test_criterion_07_stabilizer_c2_q4():
    t0 = time.time()
    rep = stabilizer_search(CASE_C2, 4, samples=10 ** 4)
    assert rep.order == 65 == rep.predicted_order
    assert rep.cyclic
    assert rep.nondiagonal_hits == 0
    assert time.time() - t0 < 600
    _report(7, "stabilizer scan (c2, q=4): 65 elements, cyclic", t0)


@pytest.mark.xfail(
    strict=True,
    reason="the exhaustive diagonal scan over GF(3^6) finds 14 = (q^3+1)/2 "
           "projective elements, not the (q^3+1)/4 = 7 the closed-form order "
           "predicts for q = 3 mod 4; see the order-2 witness test")
def test_criterion_07_stabilizer_c3_q3_order_seven_claim():
    rep = stabilizer_search(CASE_C3, 3, samples=0)
    assert rep.order == 7


def test_criterion_07_stabilizer_c3_q3_computed_truth():
    t0 = time.time()
    rep = stabilizer_search(CASE_C3, 3, samples=10 ** 4)
    assert rep.order == 14
    assert rep.cyclic
    assert rep.nondiagonal_hits == 0
    # the surplus is witnessed by an order-2 element that fixes the form
    fld = rep.field
    g = Mat(fld, [[fld.neg(1), 0], [0, 1]])
    big = embed_qprime(
        mat_from_ints(gf.gfq2(3), [[0, 1, 0, 0], [0, 0, 0, 1],
                                   [0, 0, -1, 0], [-1, 0, 0, 0]]),
        CASE_C3, 3).lift_to(fld)
    assert proportional(act(big, g), big) == 1
    assert time.time() - t0 < 600
    _report(7, "stabilizer scan (c3, q=3): 14 elements, cyclic", t0)


# -- criterion 8: q=2 infinite-family evidence ------------------------------------------------

def test_criterion_08_lambda_family_inequivalent():
    t0 = time.time()
    fld16 = gf.make_field(2, 4)
    forms = [embed_qprime(inflate_case1(q2_lambda_member(lam)), CASE_C1, 2)
             for lam in range(4)]
    verdicts = pairwise_equivalence(forms, fld16)
    assert all(v is None for v in verdicts.values())
    assert time.time() - t0 < 600
    _report(8, "lambda family pairwise inequivalent over GL2(GF(16))", t0)


def _c2_form(b2, fld):
    B = Mat(fld, [[0, 1, 0, b2], [0, 0, 0, 1], [0, 0, 1, 0], [1, b2, 0, 0]])
    return embed_qprime(B, CASE_C2, 2)


def test_criterion_08_cube_root_structure():
    t0 = time.time()
    fld4 = gf.gfq2(2)
    fld16 = gf.make_field(2, 4)
    fld64 = gf.make_field(2, 6)
    # non-cube ratio: exhaustively inequivalent over GL2(GF(16))
    gen16 = fld16.exp_gen(1)
    assert fld16.pow(gen16, 5) != 1       # not a cube in GF(16)*
    verd = pairwise_equivalence([_c2_form(1, fld4).lift_to(fld16),
                                 _c2_form(gen16, fld16)], fld16)
    assert all(v is None for v in verd.values())
    # cube-root ratio: equivalent, by an explicit diagonal witness; the
    # witness ratio has order 9 and only exists from GF(64) on, so the
    # GL2(GF(16)) scan is empty for this pair as well
    scan16 = pairwise_equivalence([_c2_form(1, fld4).lift_to(fld16),
                                   _c2_form(fld4.element([0, 1]), fld4).lift_to(fld16)],
                                  fld16)
    assert all(v is None for v in scan16.values())
    lam9 = fld64.exp_gen((fld64.order - 1) // 9)
    omega = fld64.pow(lam9, 3)
    assert fld64.pow(omega, 3) == 1 and omega != 1
    witness = Mat(fld64, [[lam9, 0], [0, 1]])
    moved = act(_c2_form(1, fld4).lift_to(fld64), witness)
    assert proportional(moved, _c2_form(omega, fld64)) is not None
    assert time.time() - t0 < 600
    _report(8, "cube-root ratio equivalent (witness over GF(64)), "
               "non-cube ratio inequivalent over GL2(GF(16))", t0)


# -- criterion 9: property suites ------------------------------------------------------------

def test_criterion_09_property_suites():
    t0 = time.time()
    rng = random.Random(2026)

    # field axioms on randomized triples in every constructed field
    for q in (2, 3, 4, 5):
        f = gf.gfq2(q)
        for _ in range(60):
            x, y, z = (rng.randrange(f.order) for _ in range(3))
            assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
            assert f.add(x, f.add(y, z)) == f.add(f.add(x, y), z)
            if x:
                assert f.mul(x, f.inv(x)) == 1
        # frobenius involution on GF(q^2)
        for x in f.elements():
            assert f.pow(f.pow(x, q), q) == x

    # sympow homomorphism and act action laws
    f9 = gf.gfq2(3)
    for d in (3, 6, 13):
        g, h = random_mat(f9, 2, 2, rng), random_mat(f9, 2, 2, rng)
        assert sympow(g.mul(h), d) == sympow(g, d).mul(sympow(h, d))
    bf = embed_qprime(mat_from_ints(f9, [[0, 1, 0, 0], [0, 0, 0, 1],
                                         [0, 0, -1, 0], [-1, 0, 0, 0]]),
                      CASE_C3, 3)
    for _ in range(4):
        g, h = random_mat(f9, 2, 2, rng), random_mat(f9, 2, 2, rng)
        if g.det() and h.det():
            assert act(act(bf, g), h).cells == act(bf, g.mul(h)).cells

    # symbolic vanishing agrees with dense evaluation over GF(q^4)
    for q in (2, 3):
        sig = case_signature(CASE_C1, q)
        assert gf.gf_ext(q, 2).order + 1 > (q + 1) * sig.d
        big = gf.gf_ext(q, 2)
        emb = gf.make_embedding(gf.gfq2(q), big)
        for _ in range(8):
            B = random_mat(gf.gfq2(q), 4, 4, rng)
            dense = all(evaluate_form(sig, q, B.lift_to(emb.dst), s, t) == 0
                        for s, t in projective_line(big))
            assert dense == is_identically_zero(sig, q, B)

    # canonical signature idempotence and identification invariance
    for _ in range(120):
        d = rng.randrange(3, 30)
        i = rng.randrange(1, d - 1)
        j = rng.randrange(i + 1, d)
        canon = canonical_signature(d, i, j)
        assert canonical_signature(*canon.astuple()) == canon
        n = rng.randrange(1, 4)
        assert canonical_signature(d * n, i * n, j * n) == canon
        assert canonical_signature(d, d - j, d - i) == canon
    assert time.time() - t0 < 60
    _report(9, "property suites", t0)
