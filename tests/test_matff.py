import itertools
import random

import pytest

from hermitia import gf
from hermitia.matff import (Mat, MatError, SurfaceSpec, fermat_surface,
                            hermitian_decompose, is_hermitian, twisted_gram)
from matrices import (mat_from_ints, random_hermitian_invertible,
                      random_hermitian_isotropic, random_invertible,
                      random_mat)
from oracles import hermitian_decompose_rank_filter


def naive_det(M):
    """Permutation-expansion determinant, an independent oracle."""
    f = M.field
    n = M.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):       # count inversions for the sign
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for r, c in enumerate(perm):
            prod = f.mul(prod, M.data[r][c])
        total = f.add(total, prod if sign > 0 else f.neg(prod))
    return total


@pytest.mark.parametrize("seed", range(8))
def test_det_rank_inverse_against_cofactor_oracle(seed):
    f = gf.gfq2(3)
    M = random_mat(f, 4, 4, random.Random(seed))
    d = M.det()
    assert d == naive_det(M)
    if d:
        assert M.rank() == 4
        assert M.mul(M.inverse()) == Mat.identity(f, 4)
    else:
        assert M.rank() < 4


def test_det_refuses_more_than_four_rows():
    with pytest.raises(MatError):
        Mat.identity(gf.gfq2(3), 5).det()


def test_identity_det_and_signed_permutation_rank():
    f = gf.gfq2(3)
    assert Mat.identity(f, 4).det() == 1
    M1 = mat_from_ints(f, [[0, 1, 0, 0], [0, 0, 0, 1],
                           [-1, 0, 0, 0], [0, 0, -1, 0]])
    assert M1.rank() == 4


def test_transpose_product_law():
    f = gf.gfq2(3)
    rng = random.Random(4)
    A, B = random_mat(f, 4, 4, rng), random_mat(f, 4, 4, rng)
    assert A.mul(B).transpose() == B.transpose().mul(A.transpose())


def test_singular_inverse_raises():
    f = gf.gfq2(2)
    with pytest.raises(MatError):
        Mat.zeros(f, 3, 3).inverse()


def test_shape_mismatch():
    f = gf.gfq2(2)
    with pytest.raises(MatError):
        Mat.identity(f, 3).mul(Mat.identity(f, 4))


def test_is_hermitian():
    f9 = gf.gfq2(3)
    assert is_hermitian(Mat.identity(f9, 4), 3)
    u = f9.element([0, 1])
    assert not is_hermitian(Mat.diagonal(f9, [u, 1, 1, 1]), 3)  # u^3 != u
    M2 = mat_from_ints(f9, [[0, 1, 0, 0], [0, 0, 0, 1],
                            [0, 0, -1, 0], [-1, 0, 0, 0]])
    assert not is_hermitian(M2, 3)


def test_entrywise_frobenius():
    f9 = gf.gfq2(3)
    u = f9.element([0, 1])
    M = Mat(f9, [[u, 1], [0, f9.add(u, 1)]])
    Mq = M.powq(3)
    assert Mq.data[0][0] == f9.neg(u)
    assert Mq.data[0][1] == 1


def test_decompose_identity_and_diagonal():
    f9 = gf.gfq2(3)
    I = Mat.identity(f9, 4)
    B = hermitian_decompose(I, 3)
    assert twisted_gram(B, I, 3) == I
    A = mat_from_ints(f9, [[2, 0, 0, 0], [0, 1, 0, 0],
                           [0, 0, 1, 0], [0, 0, 0, 1]])
    B = hermitian_decompose(A, 3)
    assert twisted_gram(B, I, 3) == A
    assert f9.pow(B.data[0][0], 4) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_decompose_random_roundtrips(q):
    for seed in range(20):
        A = random_hermitian_invertible(q, 4, seed)
        B = hermitian_decompose(A, q)
        assert twisted_gram(B, Mat.identity(A.field, 4), q) == A


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_decompose_matches_rank_filter_oracle(q):
    """Dropping the pivot's own basis index gives the same B as projecting
    every basis vector and rank-filtering them, also when every basis vector
    is isotropic and each pivot is some v_a + c v_b."""
    rng = random.Random(q)
    cases = [random_hermitian_invertible(q, n, seed)
             for n in (2, 3, 4) for seed in range(4)]
    cases += [random_hermitian_isotropic(q, n, rng)
              for n in (2, 3, 4) for _ in range(6)]
    for A in cases:
        assert hermitian_decompose(A, q) == hermitian_decompose_rank_filter(A, q)


def test_decompose_rejects_bad_input():
    f9 = gf.gfq2(3)
    u = f9.element([0, 1])
    with pytest.raises(MatError):
        hermitian_decompose(Mat.diagonal(f9, [u, 1, 1, 1]), 3)
    with pytest.raises(MatError):
        hermitian_decompose(Mat.zeros(f9, 4, 4), 3)


def test_form_values_land_in_subfield_exhaustive_q2():
    q = 2
    A = random_hermitian_invertible(q, 4, seed=5)
    f = A.field
    for vec in itertools.product(f.elements(), repeat=4):
        if not any(vec):
            continue
        h = 0
        for i, xi in enumerate(vec):
            for j, yj in enumerate(vec):
                h = f.add(h, f.mul(f.mul(xi, A.data[i][j]), f.pow(yj, q)))
        assert f.in_subfield(h, q)


def test_form_values_land_in_subfield_sampled_q3():
    q = 3
    A = random_hermitian_invertible(q, 4, seed=6)
    f = A.field
    rng = random.Random(0)
    for _ in range(300):
        vec = [rng.randrange(f.order) for _ in range(4)]
        h = 0
        for i, xi in enumerate(vec):
            for j, yj in enumerate(vec):
                h = f.add(h, f.mul(f.mul(xi, A.data[i][j]), f.pow(yj, q)))
        assert f.in_subfield(h, q)


def test_random_matrices_are_seed_deterministic():
    f = gf.gfq2(3)
    assert random_invertible(f, 4, 42) == random_invertible(f, 4, 42)
    assert random_hermitian_invertible(3, 4, 7) == random_hermitian_invertible(3, 4, 7)
    A = random_hermitian_invertible(5, 4, 1)
    assert A.det() != 0 and is_hermitian(A, 5)


def test_surface_spec_properties():
    surf = fermat_surface(3)
    assert surf.smooth and surf.hermitian
    f9 = gf.gfq2(3)
    sing = SurfaceSpec(3, Mat.zeros(f9, 4, 4))
    assert not sing.smooth


def test_matrix_json_roundtrip():
    f = gf.gfq2(3)
    M = random_mat(f, 4, 4, random.Random(3))
    doc = M.to_json()
    assert doc["rows"] == 4 and len(doc["entries"]) == 16
    assert Mat.from_json(doc) == M


@pytest.mark.parametrize("rows,cols", [(4, True), (4.0, 4), (None, 4),
                                       (3, 0), (-4, -4), (0, 0)])
def test_matrix_json_shape_is_two_positive_integers(rows, cols):
    """rows and cols are checked before rows * cols is taken: with cols = 0
    or two negatives the entry count alone would let any rows through."""
    doc = {**fermat_surface(3).gram.to_json(), "rows": rows, "cols": cols}
    with pytest.raises(MatError, match="is not two positive integers"):
        Mat.from_json(doc)
