"""Matrices the tests build: integer literals and seeded random matrices.

No command of the package needs these, so they live with the tests.
"""

import random

from hermitia import gf
from hermitia.gf import Field
from hermitia.matff import Mat, is_hermitian, twisted_gram


def mat_from_ints(field: Field, rows) -> Mat:
    """Build a matrix from integer literals; negatives map through field.neg."""
    out = []
    for row in rows:
        orow = []
        for v in row:
            orow.append(field.neg((-v) % field.p) if v < 0 else v % field.p)
        out.append(orow)
    return Mat(field, out)


def random_mat(field: Field, rows: int, cols: int, rng: random.Random) -> Mat:
    return Mat(field, [[rng.randrange(field.order) for _ in range(cols)]
                       for _ in range(rows)])


def random_invertible(field: Field, n: int, seed: int) -> Mat:
    rng = random.Random(seed)
    while True:
        m = random_mat(field, n, n, rng)
        if m.det() != 0:
            return m


def random_hermitian_invertible(q: int, n: int, seed: int) -> Mat:
    """t(C) C^(q) for a seeded random invertible C over GF(q^2); always
    Hermitian and invertible."""
    field = gf.gfq2(q)
    C = random_invertible(field, n, seed)
    A = twisted_gram(C, Mat.identity(field, n), q)
    assert is_hermitian(A, q)
    return A


def random_hermitian_isotropic(q: int, n: int, rng: random.Random) -> Mat:
    """An invertible Hermitian n x n matrix over GF(q^2) with zero diagonal,
    so every basis vector is isotropic: random entries above the diagonal,
    their conjugates below, redrawn until the determinant is nonzero."""
    field = gf.gfq2(q)
    while True:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = rng.randrange(field.order)
                a[j][i] = field.pow(a[i][j], q)
        A = Mat(field, a)
        if A.det():
            return A
