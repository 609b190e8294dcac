import itertools
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hermitia import gf, poly
from hermitia.gf import FieldError, make_field, make_embedding, solve_norm
from oracles import (_poly_product, is_prime_power,
                     prime_power_split_by_trial_division, stepped_tables)


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


def _default_modulus_by_full_walk(p, m):
    """The first monic irreducible over every non-leading coefficient tuple
    in lexicographic order, constant term 0 included."""
    if m == 1:
        return (0, 1)
    for coeffs in itertools.product(range(p), repeat=m):
        if gf.is_irreducible(coeffs + (1,), p):
            return coeffs + (1,)


def test_default_modulus_matches_the_full_walk():
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 9):
            if p ** m <= 10 ** 7:
                assert (gf.default_modulus(p, m)
                        == _default_modulus_by_full_walk(p, m)), (p, m)


def _default_modulus_by_product_walk(p, m):
    """The walk default_modulus once made: itertools.product over the
    non-leading coefficients, constant term from 1, which turns every
    range into a tuple first."""
    if m == 1:
        return (0, 1)
    for coeffs in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        if gf.is_irreducible(coeffs + (1,), p):
            return coeffs + (1,)


def test_lazy_modulus_walk_equals_the_product_walk():
    """The counted walk visits the candidates in the product's order, so it
    returns the same modulus for every p^m <= 3^7 and every 2^m <= 2^12;
    over p = 10^18 + 3, where the product walk runs out of memory, it takes
    x^2 + 1 at once (p = 3 mod 4)."""
    for p in filter(gf.is_prime, range(2, 2188)):
        for m in range(1, 13):
            if p ** m > max(3 ** 7, 2 ** 12 if p == 2 else 0):
                break
            assert (gf.default_modulus.__wrapped__(p, m)
                    == _default_modulus_by_product_walk(p, m)), (p, m)
    assert gf.default_modulus.__wrapped__(10 ** 18 + 3, 2) == (1, 0, 1)


def test_factorize_covers_every_field_below_10_to_the_12():
    """The 10^6 trial divisors are 2 and the odd numbers up to 1999999:
    the largest prime below 10^12 and the square of 1999993 are within the
    budget, the square of the next prime, 2000003, is not."""
    assert gf._factorize(999999999989) == [999999999989]
    assert gf._factorize(1999993 ** 2) == [1999993]
    assert gf._factorize(2 ** 40 - 1) == [3, 5, 11, 17, 31, 41, 61681]
    with pytest.raises(gf.SearchExhausted,
                       match="^factoring 4000012000009 needs more than "
                             "1000000 trial divisors$"):
        gf._factorize(2000003 ** 2)


def test_default_modulus_skips_constant_term_zero(monkeypatch):
    calls = []
    real = gf.is_irreducible

    def counting(modulus, p):
        calls.append(modulus)
        return real(modulus, p)

    monkeypatch.setattr(gf, "is_irreducible", counting)
    modulus = gf.default_modulus.__wrapped__(2, 24)
    assert real(modulus, 2) and modulus[0] == 1
    assert len(calls) < 1000


_MULTIPLICATIVE = ("mul", "div", "inv", "pow", "dlog", "exp_gen")


def _has_tables(f) -> bool:
    """Whether table lookups shadow the field's multiplicative methods."""
    bound = {name for name in _MULTIPLICATIVE if name in vars(f)}
    assert bound in (set(), set(_MULTIPLICATIVE)), bound
    return bool(bound)


@pytest.mark.parametrize("p,m", [(3, 6), (5, 6), (7, 4), (13, 4), (2, 12)])
def test_tables_match_coefficient_fill(p, m):
    """A field above 257 elements binds no tables: its multiplicative
    methods are the coefficient ones, and exp_gen and the baby-step
    giant-step dlog agree with the generator's powers stepped one
    coefficient multiplication at a time, at every 997th power and the
    last."""
    f = make_field(p, m)
    assert f.order > 257 and not _has_tables(f)
    g = f.exp_gen(1)
    v = 1
    for i in range(f.order - 1):
        if i % 997 == 0 or i == f.order - 2:
            assert f.exp_gen(i) == v and f.dlog(v) == i
        v = gf.Field.mul(f, v, g)
    assert v == 1


@pytest.mark.parametrize("p,m", [(2, m) for m in (*range(1, 13), 18)]
                         + [(3, 1), (3, 7), (5, 5), (7, 4), (13, 2)])
def test_tables_equal_the_stepped_reference(p, m):
    """A field of at most 257 elements has exp and log tables equal to the
    tables built one coefficient multiplication per power; a larger field
    has none, and its exp_gen and dlog agree with those tables at 64
    seeded powers."""
    f = make_field(p, m)
    exp, log = stepped_tables(f)
    assert _has_tables(f) == (f.order <= 257)
    if f.order <= 257:
        ks = range(f.order - 1)
    else:
        ks = random.Random(f.order).sample(range(f.order - 1), 64)
    assert [f.exp_gen(k) for k in ks] == [exp[k] for k in ks]
    assert [f.dlog(exp[k]) for k in ks] == [log[exp[k]] for k in ks]


@pytest.mark.parametrize("p,m", [(2, 18), (7, 6)])
def test_large_tables_cost_at_most_16_bytes_per_element(p, m):
    """Tables for fields above 257 elements once cost 8 bytes per element
    as 4-byte C arrays, and 77 as lists of ints.  Such a field now builds
    none: making it binds no lookups and peaks far under 16 bytes per
    element, under 64 KB in all."""
    modulus = gf.default_modulus(p, m)
    tracemalloc.start()
    try:
        f = gf.Field(p, m, modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not _has_tables(f)
    assert peak <= 16 * f.order and peak < 1 << 16, peak


@pytest.mark.parametrize("p,m,tables", [
    (3, 1, "tabled"), (3, 2, "tabled"), (13, 2, "tabled"),
    (3, 7, "untabled"), (5, 5, "untabled"), (7, 4, "untabled")])
def test_odd_addition_acts_digit_by_digit(p, m, tables):
    """Tables serve only the multiplicative group, and only fields of at
    most 257 elements have them: with them or without, add, sub and neg
    of an odd-characteristic field are the coefficient methods, acting on
    the digits of Field.coeffs one at a time mod p."""
    f = gf.Field(p, m, gf.default_modulus(p, m))
    assert _has_tables(f) == (tables == "tabled")
    assert (f.add.__func__, f.sub.__func__, f.neg.__func__) == (
        gf.Field.add, gf.Field.sub, gf.Field.neg)
    xs = random.Random(p ** m).sample(range(f.order), min(f.order, 40))
    for x in xs:
        cx = f.coeffs(x)
        assert f.coeffs(f.neg(x)) == [-a % p for a in cx]
        for y in xs:
            pairs = list(zip(cx, f.coeffs(y)))
            assert f.coeffs(f.add(x, y)) == [(a + b) % p for a, b in pairs]
            assert f.coeffs(f.sub(x, y)) == [(a - b) % p for a, b in pairs]


@pytest.mark.parametrize("m", [1, 4, 12])
def test_characteristic_two_adds_by_xor(m):
    """Every field of characteristic 2 adds by XOR, tabled (GF(2), GF(16))
    or not (GF(4096))."""
    f = make_field(2, m)
    assert _has_tables(f) == (f.order <= 257)
    assert (f.add, f.sub, f.neg) == (operator.xor, operator.xor, operator.pos)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        make_field(2, 2, (1, 0, 1))   # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(FieldError):
        make_field(4, 1)              # composite characteristic
    with pytest.raises(FieldError):
        make_field(2, 2, (1, 1))      # wrong degree


def test_booleans_are_not_coefficients():
    """JSON true/false load as bool, an int subclass; neither an element nor
    a modulus takes them."""
    f4 = make_field(2, 2)
    with pytest.raises(FieldError):
        f4.element([True, False])
    with pytest.raises(FieldError):
        make_field(3, 2, (True, 0, True))
    assert f4.element([1, 0]) == 1


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
    g = f.exp_gen(1)
    for e in (0, 1, 7, 23):
        assert f.dlog(f.pow(g, e)) == e % (f.order - 1)


def test_prime_power_split():
    assert gf.prime_power_split(8) == (2, 3)
    assert gf.prime_power_split(9) == (3, 2)
    assert gf.prime_power_split(13) == (13, 1)
    assert not is_prime_power(6)
    assert not is_prime_power(1)


def _split(split, q):
    try:
        return split(q)
    except FieldError:
        return None


def test_prime_power_split_matches_trial_division():
    for q in range(-1, 2 * 10 ** 4):
        expected = _split(prime_power_split_by_trial_division, q)
        assert _split(gf.prime_power_split, q) == expected, q
        assert gf.is_prime(q) == (expected == (q, 1)), q


def test_primality_is_exact_past_trial_division_reach():
    assert gf.is_prime(10 ** 18 + 3)
    assert gf.prime_power_split((10 ** 9 + 7) ** 2) == (10 ** 9 + 7, 2)
    assert not is_prime_power((10 ** 9 + 7) * (10 ** 9 + 9))
    # strong pseudoprime to every prime base up to 37; base 41 refutes it
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not gf.is_prime(318665857834031151167461)
    # past 3.3e24 trial division decides, and a prime power splits by roots
    assert not gf.is_prime(43 * 47 ** 14)
    assert gf.prime_power_split(47 ** 15) == (47, 15)


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 4), (3, 4), (7, 2)])
def test_untabled_arithmetic_matches_tables(p, m):
    """The coefficient methods and the baby-step giant-step dlog, which
    every field above 257 elements uses, agree with the table lookups of a
    field of at most 257 elements on every element.  The untabled side is
    an uninterned copy of the field's state without its lookups."""
    tabled = make_field(p, m)
    raw = object.__new__(gf.Field)
    vars(raw).update((k, v) for k, v in vars(tabled).items()
                     if k not in _MULTIPLICATIVE)
    assert _has_tables(tabled) and not _has_tables(raw)
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


def test_table_mul_is_one_lookup_equal_to_coefficient_mul():
    """A field of at most 257 elements multiplies by one lookup in exp
    doubled with a zero tail, log[0] sent past both copies: on every pair
    of every such field, zero factors included, that equals the
    coefficient mul."""
    for q in filter(is_prime_power, range(2, 258)):
        f = make_field(*gf.prime_power_split(q))
        for x in range(q):
            assert ([f.mul(x, y) for y in range(q)]
                    == [gf.Field.mul(f, x, y) for y in range(q)]), (q, x)


def _mulmod_packed(f, x, y):
    """x y in f through poly.mulmod on the coefficient lists."""
    rem = poly.mulmod(f.coeffs(x), f.coeffs(y), f.modulus, f.p)
    return f.element(rem)


@pytest.mark.parametrize("p,m", [
    (3, 6), (5, 6), (7, 6), (13, 2), (17, 2), (19, 6), (3, 7), (263, 1),
    (65537, 1), (10 ** 9 + 7, 1)])
def test_odd_mul_by_kronecker_substitution_matches_mulmod(p, m):
    """The coefficient mul of odd characteristic packs digits into slots of
    one integer, multiplies once and folds the high slots back; it equals
    the polynomial product mod f on 1,000 seeded pairs and on zero
    factors, in extension fields and in prime fields above 257 elements."""
    f = make_field(p, m)
    rng = random.Random(f.order)
    top = f.order - 1
    pairs = [(rng.randrange(f.order), rng.randrange(f.order))
             for _ in range(1000)]
    pairs += [(0, 0), (0, top), (top, 0), (top, top), (1, top)]
    for x, y in pairs:
        assert gf.Field.mul(f, x, y) == _mulmod_packed(f, x, y), (x, y)


@pytest.mark.parametrize("p,m", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5)])
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
