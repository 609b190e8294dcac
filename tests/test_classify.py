import hashlib
import itertools
import json
import random
import time
import tracemalloc
from collections import Counter
from itertools import accumulate

import pytest

from hermitia import classify, gf
from hermitia.tetra import (CASE_C1, CASE_C2, CASE_C3, Signature,
                            canonical_signature, expand_form,
                            is_identically_zero)
from hermitia.classify import (ClassifyError, canonical_signature_count,
                               case_shape_basis, case_shape_check,
                               enumerate_admissible, exists_invertible,
                               expected_cases, predicted_signatures,
                               solution_space)
from matrices import mat_from_ints
from oracles import (canonical_signatures_upto, collision_signatures,
                     exhaustive_reports)


def test_solution_space_dims():
    sp = solution_space(Signature(3, 1, 2), 2)
    assert sp.dim == 6
    sp = solution_space(Signature(4, 1, 3), 3)
    assert sp.dim == 4
    assert (0, 2) in sp.forced_zero and (1, 2) in sp.forced_zero
    sp = solution_space(Signature(5, 1, 3), 3)
    assert sp.dim == 1


def test_solution_space_dim_formula():
    # dim = 16 - number of exponent classes
    for sig, q in ((Signature(3, 1, 2), 2), (Signature(4, 1, 3), 3),
                   (Signature(7, 2, 3), 3), (Signature(6, 1, 3), 2)):
        sp = solution_space(sig, q)
        classes = len(sp.forced_zero) + len(sp.groups)
        assert sp.dim == 16 - classes


@pytest.mark.parametrize("sig,q", [
    (Signature(3, 1, 2), 2), (Signature(6, 1, 3), 2), (Signature(4, 1, 3), 3),
    (Signature(5, 1, 3), 3), (Signature(6, 2, 5), 3), (Signature(20, 5, 17), 4),
])
def test_solution_space_combinations_vanish(sig, q):
    """Random combinations over GF(q^2) and GF(q^4) lie in the space and
    pull back to the zero form."""
    sp = solution_space(sig, q)
    rng = random.Random(sig.d * q)
    for fld in (gf.gfq2(q), gf.gf_ext(q, 2)):
        for _ in range(10):
            B = sp.combination([rng.randrange(fld.order) for _ in range(sp.dim)],
                               fld)
            assert is_identically_zero(sp.sig, sp.q, B)
            assert expand_form(sig, q, B) == {}


def test_exists_invertible_cases():
    verdict = exists_invertible(solution_space(Signature(3, 1, 2), 2))
    assert verdict.invertible
    assert verdict.witness.det() != 0
    assert is_identically_zero(Signature(3, 1, 2), 2, verdict.witness)

    verdict = exists_invertible(solution_space(Signature(5, 1, 3), 3))
    assert not verdict.invertible

    # a dim-0 space
    sp = solution_space(Signature(7, 2, 3), 3)
    if sp.dim == 0:
        v = exists_invertible(sp)
        assert not v.invertible and v.method == "empty-space"


def test_grid_stage_does_not_list_the_quartic_field():
    """At q = 64 the c1 signature (q+1, 1, q) has dim 4 and reaches the
    grid over GF(q^4) = GF(2^24); five grid points must not cost a list of
    all 2^24 elements."""
    space = solution_space(Signature(65, 1, 64), 64)
    tracemalloc.start()
    try:
        verdict = exists_invertible(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.method == "witness-gfq4"
    assert peak < 50 * 2 ** 20


def test_case_shape_check():
    f9 = gf.gfq2(3)
    M1 = mat_from_ints(f9, [[0, 1, 0, 0], [0, 0, 0, 1],
                            [-1, 0, 0, 0], [0, 0, -1, 0]])
    assert case_shape_check(M1, CASE_C1, 3)
    f16 = gf.gfq2(4)
    M2 = mat_from_ints(f16, [[0, 1, 0, 0], [0, 0, 0, 1],
                             [0, 0, -1, 0], [-1, 0, 0, 0]])
    assert case_shape_check(M2, CASE_C2, 4)
    bad = mat_from_ints(f9, [[0, 0, 0, 1], [0, 0, 0, 1],
                             [0, 0, -1, 0], [0, 0, -1, 0]])
    assert not case_shape_check(bad, CASE_C1, 3)      # (a11, a21) = (0, 0)
    dep = mat_from_ints(f9, [[0, 1, 0, 1], [0, 1, 0, 1],
                             [-1, 0, -1, 0], [-1, 0, -1, 0]])
    assert not case_shape_check(dep, CASE_C1, 3)      # rows dependent
    # q >= 3 forbids the middle column of the first two rows
    mid = mat_from_ints(f9, [[0, 1, 1, 0], [0, 0, 0, 1],
                             [-1, -1, 0, 0], [0, 0, -1, 0]])
    assert not case_shape_check(mid, CASE_C1, 3)
    assert case_shape_check(mat_from_ints(gf.gfq2(2),
                                          [[0, 1, 1, 0], [0, 0, 0, 1],
                                           [1, 1, 0, 0], [0, 0, 1, 0]]),
                            CASE_C1, 2)


def test_case_shape_basis_members_vanish():
    for case, q in ((CASE_C1, 2), (CASE_C1, 3), (CASE_C2, 2), (CASE_C2, 4),
                    (CASE_C3, 3), (CASE_C3, 5)):
        sig = expected_cases(q)
        basis = case_shape_basis(case, q)
        from hermitia.tetra import case_signature
        label = case_signature(case, q)
        for b in basis:
            assert is_identically_zero(label, q, b)


def test_enumerate_admissible_q3():
    rep = enumerate_admissible(3, 12)
    assert [e.sig.astuple() for e in rep.admissible] == [(4, 1, 3), (6, 1, 4)]
    assert [e.case for e in rep.admissible] == ["I", "III"]
    assert [e.case_sig.astuple() for e in rep.admissible] == [(4, 1, 3), (6, 2, 5)]
    assert rep.matches_prediction
    for e in rep.admissible:
        assert e.witness.det() != 0
        sp = solution_space(e.sig, 3)
        assert is_identically_zero(sp.sig, sp.q,
                                   e.witness.lift_to(e.witness.field))


def test_enumerate_admissible_q2_finds_extra_degree4_family():
    """The honest q=2 scan: besides the expected degree-3 and degree-6
    families there is a genuine degree-4 family, flagged as unexpected."""
    rep = enumerate_admissible(2, 12)
    sigs = [e.sig.astuple() for e in rep.admissible]
    assert sigs == [(3, 1, 2), (4, 1, 3), (6, 1, 3)]
    assert not rep.matches_prediction
    extra = rep.admissible[1]
    assert extra.case == "unexpected"
    assert extra.dim == 3
    assert extra.witness.det() != 0
    assert is_identically_zero(Signature(4, 1, 3), 2, extra.witness)


def test_enumerate_admissible_monotone_in_d_max():
    small = {e.sig for e in enumerate_admissible(2, 8).admissible}
    large = {e.sig for e in enumerate_admissible(2, 12).admissible}
    assert small <= large


def test_predicted_signatures():
    assert [s.astuple() for s in predicted_signatures(3, 12)] == [(4, 1, 3), (6, 1, 4)]
    assert [s.astuple() for s in predicted_signatures(2, 5)] == [(3, 1, 2)]


def test_enumerate_validates_inputs():
    with pytest.raises(gf.FieldError, match="q=6 is not a prime power"):
        enumerate_admissible(6, 10)
    with pytest.raises(ClassifyError):
        enumerate_admissible(3, 2)



def test_canonical_predicate_matches_canonical_signature_fixed_points():
    """The gcd-and-flip predicate against canonical_signature itself, over
    every triple with d <= 60."""
    fixed = [Signature(d, i, j) for d in range(3, 61) for i in range(1, d - 1)
             for j in range(i + 1, d)
             if canonical_signature(d, i, j) == Signature(d, i, j)]
    assert len(fixed) == 14713
    assert list(canonical_signatures_upto(60)) == fixed


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_collision_signatures_are_the_nonzero_spaces(q):
    """The lemma in enumerate_admissible: over every canonical signature
    with d <= 60, the solution space is nonzero exactly at the signatures
    collision_signatures yields, in the same order."""
    nonzero = [sig for sig in canonical_signatures_upto(60)
               if solution_space(sig, q).dim > 0]
    assert list(collision_signatures(q, 60)) == nonzero


def _normal_polynomials():
    """(x, normal) for the 30 planes x = q*y: each entry of the normal
    x - q*y on (j, d, i) as coefficients (c0, c1) of c0 + c1*q."""
    return [(x, tuple((a, -b) for a, b in zip(x, y)))
            for x, y in itertools.permutations(classify._DIFFERENCES, 2)]


def _poly_cross(u, v):
    """The cross product of two vectors of degree-1 polynomials in q, each
    entry as coefficients (c0, c1, c2)."""
    def times(f, g):
        return (f[0] * g[0], f[0] * g[1] + f[1] * g[0], f[1] * g[1])

    def minus(f, g):
        return tuple(a - b for a, b in zip(f, g))
    return (minus(times(u[1], v[2]), times(u[2], v[1])),
            minus(times(u[2], v[0]), times(u[0], v[2])),
            minus(times(u[0], v[1]), times(u[1], v[0])))


def test_collision_planes_coincide_only_at_q2_with_the_same_x():
    """Step 3 of the lemma in enumerate_admissible, symbolically: no cross
    product of two of the 30 plane normals is identically zero, and every
    coefficient is at most 2 in size, so none vanishes at q >= 3; checked
    at q = 3 too.  At q = 2 exactly 4 cross products vanish, each joining
    two planes with the same x."""
    planes = _normal_polynomials()
    assert len(planes) == 30
    pairs = list(itertools.combinations(planes, 2))
    assert len(pairs) == 435
    zero_at = {2: [], 3: []}
    for (x1, n1), (x2, n2) in pairs:
        line = _poly_cross(n1, n2)
        coefficients = [c for entry in line for c in entry]
        assert any(coefficients)
        assert max(map(abs, coefficients)) <= 2
        for q in zero_at:
            if not any(c0 + c1 * q + c2 * q * q for c0, c1, c2 in line):
                zero_at[q].append((x1, x2))
    assert zero_at[3] == []
    assert len(zero_at[2]) == 4
    assert all(x1 == x2 for x1, x2 in zero_at[2])


def test_crossing_points_are_a_fixed_list():
    """The list does not depend on d_max: 18 points at q = 2, 41 at q = 3
    and 46 at every q from 4 to 64, none past d = (q + 1)^2, which is at
    most the default d_max (3q(q + 1) + 1)/2 for every q >= 2."""
    for q in range(2, 65):
        points = classify.collision_signatures(q, 10 ** 9)
        assert len(points) == {2: 18, 3: 41}.get(q, 46)
        assert max(sig.d for sig in points) <= (q + 1) ** 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_crossing_points_are_the_walk_less_zero_rows(q):
    """Every crossing point is a signature the walk over (d, i) yields, and
    every signature only the walk yields has a zero row or a zero column."""
    walked = list(collision_signatures(q, 200))
    points = classify.collision_signatures(q, 200)
    assert set(points) <= set(walked)
    assert points == sorted(points)
    for sig in set(walked) - set(points):
        method = exists_invertible(solution_space(sig, q)).method
        assert method in ("zero-row", "zero-column"), sig


def test_enumerate_admissible_q3_to_degree_2000_pinned():
    """Recorded once from the walk, which built 2,668,779 solution spaces in
    about 31 s; the crossing points are 41."""
    t0 = time.perf_counter()
    rep = enumerate_admissible(3, 2000)
    assert time.perf_counter() - t0 < 1
    assert rep.stats == {"signatures_scanned": 554388574, "admissible": 2}
    assert [e.sig.astuple() for e in rep.admissible] == [(4, 1, 3), (6, 1, 4)]
    assert rep.matches_prediction


def test_canonical_signature_count_matches_the_triple_loop():
    per_degree = Counter(sig.d for sig in canonical_signatures_upto(150))
    looped = list(accumulate(per_degree[d] for d in range(3, 151)))
    assert [canonical_signature_count(d) for d in range(3, 151)] == looped
    assert canonical_signature_count(108) == 86530


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_enumerate_admissible_matches_the_per_signature_loop(q):
    rep = enumerate_admissible(q)
    assert rep.to_json() == exhaustive_reports(q, rep.d_max)[rep.d_max].to_json()


@pytest.mark.parametrize("q", [2, 3])
def test_enumerate_admissible_matches_the_loop_at_every_d_max(q):
    for d_max, oracle in exhaustive_reports(q, 40).items():
        assert enumerate_admissible(q, d_max).to_json() == oracle.to_json()


def test_enumerate_admissible_q13_pinned():
    """Recorded once from oracles.exhaustive_reports(13, 273), which takes
    about 14 s: 1,407,393 solution spaces against the 46 visited here."""
    rep = enumerate_admissible(13)
    assert rep.stats == {"signatures_scanned": 1407393, "admissible": 2}
    assert [(e.sig.astuple(), e.case, e.dim,
             e.case_sig.astuple()) for e in rep.admissible] == [
        ((14, 1, 13), "I", 4, (14, 1, 13)), ((91, 6, 84), "III", 2, (91, 7, 85))]
    assert rep.matches_prediction
    text = json.dumps(rep.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "dbe4c0918e4f5a97d964c8f417d87fe89d1afb8b46a5de332d2e46540d97b163")
