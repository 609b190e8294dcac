import ast
import random
from pathlib import Path

import pytest

import hermitia
from hermitia import poly
from hermitia.gf import make_embedding, make_field
from oracles import _poly_product

ROOT_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (3, 3),
               (3, 4), (5, 2)]


def _value(c, x, field):
    """c(x) as a sum of c_k x^k with field.pow, independent of Horner."""
    acc = 0
    for k, a in enumerate(c):
        acc = field.add(acc, field.mul(a, field.pow(x, k)))
    return acc


def _minimal_polynomial(r, field):
    """The product of x - s over the conjugates s = r^(p^i) of r; its
    coefficients lie in GF(p)."""
    conjugates = {r}
    s = field.pow(r, field.p)
    while s != r:
        conjugates.add(s)
        s = field.pow(s, field.p)
    c = [1]
    for s in conjugates:          # c <- c * (x - s)
        c = [field.sub(a, field.mul(s, b))
             for a, b in zip([0] + c, c + [0])]
    assert all(a < field.p for a in c)
    return tuple(c)


def _random_poly(rng, p, degree):
    return tuple(rng.randrange(p) for _ in range(degree)) + (rng.randrange(1, p),)


@pytest.mark.parametrize("p,m", ROOT_FIELDS)
def test_roots_in_matches_evaluation_at_every_element(p, m):
    f = make_field(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(12):
        planted = [rng.randrange(f.order) for _ in range(rng.randrange(3))]
        g = _random_poly(rng, p, rng.randrange(4))
        for r in planted:
            g = _poly_product(g, _minimal_polynomial(r, f), p)
        roots = poly.roots_in(g, f)
        assert roots == [x for x in f.elements() if not _value(g, x, f)]
        assert set(planted) <= set(roots)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
def test_roots_in_zero_and_constant_polynomials(p, m):
    f = make_field(p, m)
    assert poly.roots_in((), f) == list(f.elements())
    assert poly.roots_in((0, 0), f) == list(f.elements())
    for c in range(1, p):
        assert poly.roots_in((c,), f) == []
        assert poly.roots_in((c, 0), f) == []


def test_roots_in_skips_roots_outside_the_field():
    """x^3 + x + 1 is irreducible over GF(2), so its roots lie in GF(8) and
    in no field GF(2^m) with 3 not dividing m."""
    g = (1, 1, 0, 1)
    assert poly.roots_in(g, make_field(2, 4)) == []
    assert len(poly.roots_in(g, make_field(2, 6))) == 3


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gcd_recovers_a_planted_common_factor(p):
    """gcd(c u, c v) for u, v products of linear factors with disjoint roots
    is c up to a unit: it divides both and c divides it."""
    rng = random.Random(p)
    for _ in range(30):
        c = _random_poly(rng, p, rng.randrange(1, 5))
        roots = rng.sample(range(p), min(p, 4))
        cut = rng.randrange(len(roots) + 1)
        u, v = (1,), (1,)
        for r in roots[:cut]:
            u = _poly_product(u, (-r % p, 1), p)
        for r in roots[cut:]:
            v = _poly_product(v, (-r % p, 1), p)
        a, b = _poly_product(c, u, p), _poly_product(v, c, p)
        g = poly.gcd(a, b, p)
        assert len(g) == len(c)
        assert poly.rem(a, g, p) == poly.rem(b, g, p) == ()
        assert poly.rem(g, c, p) == ()
    assert poly.gcd((), (), p) == ()
    assert poly.gcd((0, 1), (), p) == (0, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_powmod_matches_repeated_mulmod(p):
    rng = random.Random(p)
    for _ in range(20):
        mod = _random_poly(rng, p, rng.randrange(1, 6))
        a = tuple(rng.randrange(p) for _ in range(rng.randrange(8)))
        acc = poly.rem((1,), mod, p)
        for e in range(25):
            assert poly.powmod(a, e, mod, p) == acc, (a, e, mod)
            acc = poly.mulmod(acc, a, mod, p)


@pytest.mark.parametrize("src,dst", [((2, 2), (2, 4)), ((2, 2), (2, 6)),
                                     ((3, 2), (3, 4)), ((5, 1), (5, 2)),
                                     ((2, 4), (2, 12))])
def test_evaluate_gives_the_embedding_images(src, dst):
    """emb(x) is x's coefficients evaluated at the image of the generator,
    and that image is a root of src's modulus."""
    fs, fd = make_field(*src), make_field(*dst)
    emb = make_embedding(fs, fd)
    img = emb.image_of_generator
    assert poly.evaluate(fs.modulus, img, fd) == 0
    for x in fs.elements():
        c = fs.coeffs(x)
        assert poly.evaluate(c, img, fd) == _value(c, img, fd) == emb(x)


def test_gcd_xn_minus_x_counts_the_linear_factors():
    """Over GF(p), gcd(g, x^p - x) is the product of g's distinct linear
    factors."""
    p = 5
    g = (1,)
    for r in (1, 1, 3):
        g = _poly_product(g, (-r % p, 1), p)
    g = _poly_product(g, (2, 0, 1), p)         # x^2 + 2 has no root mod 5
    h = poly.gcd_xn_minus_x(g, p, p)
    assert len(h) == 3
    assert poly.rem(_poly_product((4, 1), (2, 1), p), h, p) == ()


# -- module boundaries ----------------------------------------------------------

def _dotted(node):
    """"a.b.c" for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _private_reads(path: Path):
    """(line, text) for every underscore name a module reads from another
    hermitia module: `from .m import _x`, `from . import _m` and `m._x`
    with m bound to a hermitia module, directly or as hermitia.m."""
    tree = ast.parse(path.read_text())
    modules, out = set(), []

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("hermitia")):
            for alias in node.names:
                if private(alias.name):
                    out.append((node.lineno,
                                f"from {node.module} import {alias.name}"))
                if node.module in (None, "hermitia"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("hermitia"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            base = _dotted(node.value) or ""
            if base in modules or base.split(".")[0] == "hermitia":
                out.append((node.lineno, f"{base}.{node.attr}"))
    return sorted(out)


def test_no_module_reads_another_modules_private_names():
    package = Path(hermitia.__file__).resolve().parent
    reads = {path.name: _private_reads(path)
             for path in sorted(package.glob("*.py"))}
    assert "poly.py" in reads
    assert {name: r for name, r in reads.items() if r} == {}


def test_private_read_detector_sees_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import gf, poly\nfrom .gf import _factorize\n"
                    "import hermitia.orbit\nimport hermitia.matff as mf\n"
                    "x = gf._poly_gcd\ny = poly.gcd\nz = gf.__name__\n"
                    "w = hermitia.orbit._xgcd\nv = mf._form_value\n"
                    "u = self._gen\n")
    assert [text for _, text in _private_reads(path)] == [
        "from gf import _factorize", "gf._poly_gcd", "hermitia.orbit._xgcd",
        "mf._form_value"]
