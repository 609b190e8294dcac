import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hermitia import gf
from hermitia.gf import FieldError, make_field, make_embedding, solve_norm


FIELDS = [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (5, 2), (7, 2)]


def field_and_elems(draw, n):
    p, m = draw(st.sampled_from(FIELDS))
    f = make_field(p, m)
    xs = [draw(st.integers(min_value=0, max_value=f.order - 1)) for _ in range(n)]
    return f, xs


def test_default_moduli_are_the_documented_ones():
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(3, 1).modulus == (0, 1)
    # first monic degree-4 irreducible in lex coefficient order is x^4+x^3+1
    assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        make_field(2, 2, (1, 0, 1))   # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(FieldError):
        make_field(4, 1)              # composite characteristic
    with pytest.raises(FieldError):
        make_field(2, 2, (1, 1))      # wrong degree


def test_gf4_arithmetic():
    f = make_field(2, 2)
    w = f.element([0, 1])
    assert f.mul(w, w) == f.element([1, 1])
    assert f.inv(w) == f.element([1, 1])
    assert f.mul(w, f.inv(w)) == 1


def test_gf9_arithmetic():
    f = make_field(3, 2)
    u = f.element([0, 1])
    assert f.mul(u, u) == 2                      # u^2 = -1
    assert f.pow(u, f.p) == f.neg(u)             # u^3 = -u
    assert f.pow(f.pow(u, f.p), f.p) == u


def test_division_by_zero():
    f = make_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_field_axioms(data):
    f, (x, y, z) = field_and_elems(data.draw, 3)
    assert f.add(x, f.add(y, z)) == f.add(f.add(x, y), z)
    assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.add(x, f.neg(x)) == 0
    assert f.sub(x, y) == f.add(x, f.neg(y))
    if x:
        assert f.mul(x, f.inv(x)) == 1
        assert f.pow(x, -1) == f.inv(x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_frobenius_is_an_automorphism(data):
    f, (x, y) = field_and_elems(data.draw, 2)
    fx, fy = f.pow(x, f.p), f.pow(y, f.p)
    assert f.pow(f.add(x, y), f.p) == f.add(fx, fy)
    assert f.pow(f.mul(x, y), f.p) == f.mul(fx, fy)
    # p^m-th power is the identity
    assert f.pow(x, f.order) == x


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_norm_lands_in_subfield_and_solves(q):
    f2 = gf.gfq2(q)
    for x in f2.elements():
        assert f2.in_subfield(f2.pow(x, q + 1), q)
    # exhaustive: every nonzero subfield element is a norm value
    for a in f2.elements():
        if a and f2.in_subfield(a, q):
            x = solve_norm(f2, a, q)
            assert f2.pow(x, q + 1) == a


def test_solve_norm_examples():
    f4 = gf.gfq2(2)
    assert solve_norm(f4, 1, 2) == 1          # first nonzero element works
    f9 = gf.gfq2(3)
    sols = [x for x in f9.elements() if f9.pow(x, 4) == 2]
    assert len(sols) == 4
    assert solve_norm(f9, 2, 3) == min(sols)
    u = f9.element([0, 1])
    with pytest.raises(FieldError):
        solve_norm(f9, u, 3)                  # not in GF(3)
    with pytest.raises(FieldError):
        solve_norm(f9, 0, 3)


def test_enumeration_is_complete_and_deterministic():
    f = make_field(3, 2)
    elems = list(f.elements())
    assert elems == list(range(9))
    assert sum(1 for x in elems if x and f.mul(x, f.inv(x)) == 1) == 8


def test_embedding_gf4_in_gf16():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    emb = make_embedding(f4, f16)
    w = f4.element([0, 1])
    img = emb(w)
    assert f16.pow(img, 3) == 1 and img != 1  # multiplicative order 3
    assert emb(1) == 1
    assert emb(f4.mul(w, w)) == f16.mul(img, img)


@settings(max_examples=40, deadline=None)
@given(x=st.integers(0, 8), y=st.integers(0, 8))
def test_embedding_is_ring_hom(x, y):
    f9 = make_field(3, 2)
    f81 = make_field(3, 4)
    emb = make_embedding(f9, f81)
    assert emb(f9.add(x, y)) == f81.add(emb(x), emb(y))
    assert emb(f9.mul(x, y)) == f81.mul(emb(x), emb(y))


def test_embedding_requires_compatible_degrees():
    with pytest.raises(FieldError):
        make_embedding(make_field(2, 2), make_field(2, 3))
    with pytest.raises(FieldError):
        make_embedding(make_field(2, 2), make_field(3, 2))


def test_embedding_injective_on_small_field():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    emb = make_embedding(f4, f16)
    images = {emb(x) for x in f4.elements()}
    assert len(images) == 4


def test_power_roots():
    f9 = make_field(3, 2)
    assert f9.power_roots(2, 4) == sorted(x for x in f9.elements()
                                          if f9.pow(x, 4) == 2)
    assert f9.power_roots(0, 4) == [0]


def test_dlog_roundtrip():
    f = make_field(5, 2)
    g = f.generator()
    for e in (0, 1, 7, 23):
        assert f.dlog(f.pow(g, e)) == e % (f.order - 1)


def test_element_json_roundtrip():
    f = make_field(3, 2)
    x = f.element([2, 1])
    doc = gf.element_to_json(f, x)
    assert doc == {"p": 3, "m": 2, "modulus": [1, 0, 1], "coeffs": [2, 1]}
    f2, x2 = gf.element_from_json(doc)
    assert f2 is f and x2 == x


def test_prime_power_split():
    assert gf.prime_power_split(8) == (2, 3)
    assert gf.prime_power_split(9) == (3, 2)
    assert gf.prime_power_split(13) == (13, 1)
    assert not gf.is_prime_power(6)
    assert not gf.is_prime_power(1)


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 4), (3, 4), (7, 2)])
def test_untabled_arithmetic_matches_tables(p, m, monkeypatch):
    """Fields above TABLE_LIMIT use the coefficient arithmetic and the
    baby-step giant-step dlog; they must agree with the table path on every
    element."""
    tabled = make_field(p, m)
    assert tabled.has_tables
    monkeypatch.setattr(gf, "TABLE_LIMIT", 0)
    raw = gf.Field(p, m, tabled.modulus)
    assert not raw.has_tables
    n = tabled.order - 1
    for f in (tabled, raw):
        assert f.pow(0, 0) == 1
        for zero_division in (lambda: f.pow(0, -1), lambda: f.inv(0),
                              lambda: f.div(1, 0), lambda: f.dlog(0)):
            with pytest.raises(ZeroDivisionError):
                zero_division()
    for x in tabled.elements():
        assert raw.neg(x) == tabled.neg(x)
        for y in tabled.elements():
            assert raw.mul(x, y) == tabled.mul(x, y)
            assert raw.add(x, y) == tabled.add(x, y)
            assert raw.sub(x, y) == tabled.sub(x, y)
            if p == 2:
                assert raw.sub(x, y) == raw.add(x, y)
        for e in (0, 1, 2, p, n - 1, n, n + 3):
            assert raw.pow(x, e) == tabled.pow(x, e)
        if x:
            assert raw.inv(x) == tabled.inv(x)
            assert raw.pow(x, -3) == tabled.pow(x, -3)
            assert raw.dlog(x) == tabled.dlog(x)
            assert raw.exp_gen(raw.dlog(x)) == x
            assert raw.power_roots(x, 3) == tabled.power_roots(x, 3)


def _poly_product(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p,m", [(2, 4), (2, 6), (3, 4)])
def test_irreducibility_matches_product_oracle(p, m):
    """A monic polynomial is reducible exactly when it is a product of two
    monic polynomials of lower degree."""
    def monic(deg):
        return [tuple(c) + (1,) for c in itertools.product(range(p), repeat=deg)]
    reducible = {_poly_product(a, b, p)
                 for k in range(1, m // 2 + 1)
                 for a in monic(k) for b in monic(m - k)}
    for f in monic(m):
        assert gf.is_irreducible(f, p) == (f not in reducible)
