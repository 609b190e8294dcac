"""Polynomials in one variable over GF(p).

A polynomial is a tuple of ints in [0, p), lowest degree first, with no
trailing zeros; () is the zero polynomial.  The functions accept any
sequence of ints and return trimmed tuples.  gf builds and tests its
moduli on them, and tetra finds the singular parameters of a curve as the
roots of a gcd.
"""

from __future__ import annotations


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def rem(a, mod, p):
    """a modulo the nonzero polynomial mod over GF(p)."""
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            f = (c * inv_lead) % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - f * mod[j]) % p
    return trim(a[:dm])


def mulmod(a, b, mod, p):
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return rem(prod, mod, p)


def powmod(a, e, mod, p):
    """a^e modulo mod over GF(p), for e >= 0."""
    result = (1,)
    base = rem(a, mod, p) if len(a) >= len(mod) else trim(a)
    while e:
        if e & 1:
            result = mulmod(result, base, mod, p)
        base = mulmod(base, base, mod, p)
        e >>= 1
    return result


def gcd(a, b, p):
    """A greatest common divisor of a and b over GF(p), not made monic;
    () when both are zero."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, rem(a, b, p)
    return a


def gcd_xn_minus_x(g, n, p):
    """gcd(g, x^n - x) over GF(p) for nonzero g, through x^n mod g.  With
    n = p^k it is the part of g that splits into distinct linear factors
    over GF(p^k)."""
    r = list(powmod((0, 1), n, g, p)) + [0, 0]
    r[1] = (r[1] - 1) % p
    return gcd(g, r, p)


def evaluate(c, x, field):
    """c(x) by Horner's rule, for coefficients c in GF(p) (ints below p are
    the prime subfield's packed elements) and x in an extension field."""
    add, mul = field.add, field.mul
    acc = 0
    for a in reversed(c):
        acc = add(mul(acc, x), a)
    return acc


def roots_in(g, field):
    """The roots in the field of g over GF(p), in packed order: every
    element for the zero polynomial, and otherwise the elements where
    h = gcd(g, x^order - x) vanishes, none when h is constant."""
    g = trim(g)
    if not g:
        return list(field.elements())
    h = gcd_xn_minus_x(g, field.order, field.p)
    if len(h) == 1:
        return []
    return [r for r in field.elements() if not evaluate(h, r, field)]
