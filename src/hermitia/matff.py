"""Dense exact linear algebra over finite fields, plus the constructive
splitting of an invertible Hermitian matrix A into t(B) B^(q).

Matrices are small (4x4 up to ~21x21) and exact: det is division-free
Laplace expansion and covers n <= 4 only, rank and inverse share one
Gauss-Jordan elimination; no floating point anywhere.
"""

from __future__ import annotations

from . import gf
from .gf import Field


class MatError(ValueError):
    pass


class Mat:
    """Row-major matrix over a single Field; entries are packed ints."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data):
        self.field = field
        self.data = [list(r) for r in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise MatError("ragged rows")

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, [[0] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, field: Field, entries) -> "Mat":
        entries = list(entries)
        n = len(entries)
        m = cls.zeros(field, n, n)
        for i, e in enumerate(entries):
            m.data[i][i] = e
        return m

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((id(self.field), tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.data)
        return f"Mat({self.field}, [{body}])"

    def key(self):
        return tuple(tuple(r) for r in self.data)

    # -- arithmetic ------------------------------------------------------------

    def mul(self, other: "Mat") -> "Mat":
        if self.field is not other.field:
            raise MatError("field mismatch")
        if self.cols != other.rows:
            raise MatError("shape mismatch")
        f = self.field
        fmul, fadd = f.mul, f.add
        bt = list(zip(*other.data))
        out = []
        for row in self.data:
            orow = []
            for col in bt:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = fadd(acc, fmul(a, b))
                orow.append(acc)
            out.append(orow)
        return Mat(f, out)

    def transpose(self) -> "Mat":
        return Mat(self.field, list(zip(*self.data)))

    def powq(self, q: int) -> "Mat":
        """Entrywise x -> x^q (the matrix A^(q))."""
        f = self.field
        return Mat(f, [[f.pow(a, q) for a in r] for r in self.data])

    # -- determinant, rank, inverse ----------------------------------------------

    def det(self) -> int:
        if self.rows != self.cols:
            raise MatError("det of non-square matrix")
        n = self.rows
        if n > 4:
            raise MatError(f"det covers n <= 4, got {n}x{n}")
        return self._det_laplace(list(range(n)), list(range(n)))

    def _det_laplace(self, rows, cols) -> int:
        # division-free cofactor expansion, fine for n <= 4
        f = self.field
        if len(rows) == 1:
            return self.data[rows[0]][cols[0]]
        total = 0
        r0 = rows[0]
        sub_rows = rows[1:]
        for k, c in enumerate(cols):
            a = self.data[r0][c]
            if not a:
                continue
            minor = self._det_laplace(sub_rows, cols[:k] + cols[k + 1:])
            term = f.mul(a, minor)
            total = f.add(total, term if k % 2 == 0 else f.neg(term))
        return total

    def rank(self) -> int:
        return _row_reduce(self.field, [row[:] for row in self.data], self.cols)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.det() != 0

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise MatError("inverse of non-square matrix")
        n = self.rows
        a = [row[:] + [1 if i == j else 0 for j in range(n)]
             for i, row in enumerate(self.data)]
        if _row_reduce(self.field, a, n) < n:
            raise MatError("matrix is singular")
        return Mat(self.field, [r[n:] for r in a])

    # -- field changes --------------------------------------------------------------

    def lift_to(self, field: Field) -> "Mat":
        if field is self.field:
            return self
        emb = gf.make_embedding(self.field, field)
        return Mat(field, [[emb(x) for x in r] for r in self.data])

    # -- JSON ------------------------------------------------------------------------

    def to_json(self) -> dict:
        f = self.field
        return {"field": gf.field_to_json(f), "rows": self.rows, "cols": self.cols,
                "entries": [f.coeffs(x) for row in self.data for x in row]}

    @classmethod
    def from_json(cls, obj) -> "Mat":
        field = gf.field_from_json(obj["field"])
        rows, cols = obj["rows"], obj["cols"]
        if not all(gf.is_integer(n) and n > 0 for n in (rows, cols)):
            raise MatError(f"shape {rows!r} x {cols!r} is not two positive integers")
        flat = [field.element(c) for c in obj["entries"]]
        if len(flat) != rows * cols:
            raise MatError("entry count does not match shape")
        return cls(field, [flat[r * cols:(r + 1) * cols] for r in range(rows)])


def _row_reduce(f: Field, a, cols: int) -> int:
    """Gauss-Jordan elimination of the rows a, in place, on their first cols
    columns; returns the number of pivots, the rank of that block.  At full
    rank the block ends as the identity, so [A | I] becomes [I | A^-1]."""
    inv, mul, sub = f.inv, f.mul, f.sub
    row = 0
    for col in range(cols):
        if row == len(a):
            break
        piv = next((r for r in range(row, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        s = inv(a[row][col])
        top = a[row] = [mul(s, x) for x in a[row]]
        for r, other in enumerate(a):
            c = other[col]
            if c and r != row:
                a[r] = [sub(x, mul(c, y)) for x, y in zip(other, top)]
        row += 1
    return row


# ---------------------------------------------------------------------------
# twisted congruence and Hermitian structure
# ---------------------------------------------------------------------------

def twisted_gram(F: Mat, A: Mat, q: int) -> Mat:
    """t(F) A F^(q), the form matrix of the pullback along F."""
    if F.field is not A.field:
        raise MatError("field mismatch (lift first)")
    return F.transpose().mul(A).mul(F.powq(q))


def is_hermitian(A: Mat, q: int) -> bool:
    """Whether t(A) = A^(q).  A must be square over an extension of GF(q)."""
    if A.rows != A.cols:
        return False
    p, _ = gf.prime_power_split(q)
    if A.field.p != p:
        raise MatError("characteristic mismatch")
    f = A.field
    return all(A.data[j][i] == f.pow(A.data[i][j], q)
               for i in range(A.rows) for j in range(A.cols))


def _form_value(A: Mat, x, y, q: int) -> int:
    # h(x, y) = t(x) A y^(q)
    f = A.field
    acc = 0
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = A.data[i]
        s = 0
        for j, yj in enumerate(y):
            if yj and row[j]:
                s = f.add(s, f.mul(row[j], f.pow(yj, q)))
        acc = f.add(acc, f.mul(xi, s))
    return acc


def hermitian_decompose(A: Mat, q: int) -> Mat:
    """B over GF(q^2) with t(B) B^(q) = A, for invertible Hermitian A.

    Sesquilinear Gram-Schmidt: pick an anisotropic vector (basis vectors
    v_k first, then v_a + c v_b for a < b and c != 0 in packed order;
    nondegeneracy guarantees one), project the basis onto its orthogonal
    complement, recurse to a diagonal form with entries in GF(q)*, then
    scale by norm-equation solutions.

    Lemma: the projections of the basis satisfy exactly one linear
    relation, proj(v_a) = 0 for the pivot v_a, or proj(v_a) + c proj(v_b)
    = 0 for the pivot v_a + c v_b.  (A relation sum c_k proj(v_k) = 0 puts
    sum c_k v_k in the pivot's span, and the basis is independent.)  So
    dropping the projection of v_a, respectively v_b, leaves a basis of
    the complement, the same one an in-order rank filter would keep.
    """
    n = A.rows
    f = A.field
    if not is_hermitian(A, q):
        raise MatError("matrix is not Hermitian for this q")
    if A.det() == 0:
        raise MatError("matrix is singular")

    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ortho = []
    while basis:
        pivot, drop = next(((v, k) for v, k in _pivot_candidates(f, basis)
                            if _form_value(A, v, v, q)), (None, None))
        if pivot is None:
            raise MatError("no anisotropic vector found (degenerate form)")
        d = _form_value(A, pivot, pivot, q)
        ortho.append((pivot, d))
        d_inv = f.inv(d)
        projected = []
        for k, v in enumerate(basis):
            if k != drop:
                c = f.mul(_form_value(A, v, pivot, q), d_inv)
                projected.append([f.sub(x, f.mul(c, y)) for x, y in zip(v, pivot)])
        basis = projected

    P = Mat(f, list(zip(*[v for v, _ in ortho])))  # columns are the new basis
    diag = [d for _, d in ortho]
    lam = [gf.solve_norm(f, d, q) for d in diag]
    B = Mat.diagonal(f, lam).mul(P.inverse())
    check = twisted_gram(B, Mat.identity(f, n), q)
    if check != A:
        raise MatError("internal: decomposition round trip failed")
    return B


def _pivot_candidates(f: Field, basis):
    """(vector, index of the basis vector its projection drops) in search
    order: each v_k with k, then v_a + c v_b with b."""
    for k, v in enumerate(basis):
        yield v, k
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            for c in range(1, f.order):
                yield [f.add(x, f.mul(c, y)) for x, y in zip(basis[a], basis[b])], b


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

class SurfaceSpec:
    """A degree-(q+1) surface x -> t(x) A x^(q) = 0 given by its 4x4 Gram
    matrix over GF(q^2).  Smoothness and the Hermitian property are derived,
    never stored."""

    def __init__(self, q: int, gram: Mat):
        if gram.rows != 4 or gram.cols != 4:
            raise MatError("surface Gram matrix must be 4x4")
        self.q = q
        self.gram = gram

    @property
    def smooth(self) -> bool:
        return self.gram.det() != 0

    @property
    def hermitian(self) -> bool:
        return is_hermitian(self.gram, self.q)


def fermat_surface(q: int) -> SurfaceSpec:
    """The surface with identity Gram matrix."""
    return SurfaceSpec(q, Mat.identity(gf.gfq2(q), 4))
