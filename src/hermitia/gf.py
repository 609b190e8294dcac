"""Exact arithmetic in finite field towers GF(p) <= GF(q) <= GF(q^2) <= GF(q^(2m)).

Elements are plain ints: the element with polynomial-basis coefficients
(c0, c1, ..., c_{m-1}) over GF(p) is packed as c0 + c1*p + ... + c_{m-1}*p^(m-1).
This keeps hot loops (exhaustive scans, matrix products) cheap and makes every
field element hashable and orderable for free.  The packed order 0, 1, 2, ...
is the fixed enumeration order used everywhere a "first" or "smallest" element
is promised.

A Field with at most TABLE_LIMIT elements builds exp/log tables (and Zech
logarithms for odd p) when it is made, so addition, multiplication,
inversion, powering and discrete logs are table lookups for every field
small enough to matter at desk scale; larger fields compute on polynomial
coefficients and take discrete logs by baby-step giant-step.  Fields are
interned by (p, m, modulus): two calls to make_field with the same data
return the same object, and elements of distinct Field objects must never
be mixed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

TABLE_LIMIT = 1 << 20  # build exp/log/Zech tables up to this field size


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power_split(q: int):
    """Return (p, n) with q = p^n, or raise if q is not a prime power >= 2."""
    if q < 2:
        raise FieldError(f"q={q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            n = 0
            m = q
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                raise FieldError(f"q={q} is not a prime power")
            return p, n
        p += 1
    return q, 1  # q itself is prime


def is_prime_power(q: int) -> bool:
    try:
        prime_power_split(q)
        return True
    except FieldError:
        return False


def _factorize(n: int):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients as tuples low-to-high
# ---------------------------------------------------------------------------

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mulmod(a, b, mod, p):
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_divmod_rem(prod, mod, p)


def _poly_divmod_rem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            f = (c * inv_lead) % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - f * mod[j]) % p
    return _poly_trim(a[:dm])


def _poly_powmod(a, e, mod, p):
    result = (1,)
    base = _poly_divmod_rem(list(a), mod, p) if len(a) >= len(mod) else _poly_trim(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod_rem(a, b, p)
    return a


def is_irreducible(modulus, p: int) -> bool:
    """Deterministic irreducibility test over GF(p) for a monic polynomial."""
    mod = _poly_trim(modulus)
    m = len(mod) - 1
    if m < 1 or mod[-1] != 1:
        return False
    if m == 1:
        return True
    if mod[0] == 0:
        return False  # divisible by x
    if sum(mod) % p == 0:
        return False  # root at 1
    x = (0, 1)
    # x^(p^m) == x mod f, and x^(p^(m/r)) - x coprime to f for prime r | m
    xp = _poly_powmod(x, p ** m, mod, p)
    if xp != _poly_trim(x):
        return False
    for r in set(_factorize(m)):
        xe = _poly_powmod(x, p ** (m // r), mod, p)
        diff = list(xe) + [0] * (2 - len(xe))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(diff, mod, p)
        if len(g) - 1 >= 1:
            return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, m: int):
    """First monic irreducible of degree m over GF(p), non-leading coefficients
    ordered lexicographically (constant term compared first)."""
    if m == 1:
        return (0, 1)
    from itertools import product
    for coeffs in product(range(p), repeat=m):
        cand = tuple(coeffs) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible of degree {m} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class Field:
    """GF(p^m) with an explicit monic irreducible modulus.

    Elements are packed ints in [0, p^m).  Do not construct directly, use
    make_field so instances are interned.

    The methods below compute on polynomial coefficients and need no tables.
    A field with at most TABLE_LIMIT elements builds its tables once, at
    construction, and shadows the arithmetic with table lookups bound as
    instance attributes.
    """

    def __init__(self, p: int, m: int, modulus):
        self.p = p
        self.m = m
        self.modulus = tuple(modulus)
        self.order = p ** m
        if p == 2:
            self._mod_mask = sum(c << i for i, c in enumerate(self.modulus))
            self.add = self.sub = operator.xor
            self.neg = operator.pos  # -x = x; pos returns the int unchanged
        # x generates the multiplicative group iff x^(n/f) != 1 for every
        # prime f dividing n; the first such x in packed order is canonical
        n = self.order - 1
        cofactors = [n // f for f in _factorize(n)]
        self._gen = next(x for x in range(1, self.order)
                         if all(self.pow(x, c) != 1 for c in cofactors))
        self.has_tables = self.order <= TABLE_LIMIT
        if self.has_tables:
            self._bind_tables()

    def _bind_tables(self):
        """Build exp/log tables (and Zech logarithms for odd p) and bind
        table-lookup arithmetic over the coefficient methods."""
        n = self.order - 1
        exp = [0] * n   # exp[i] = g^i
        log = [0] * self.order
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v = self.mul(v, self._gen)

        def mul(x, y):
            return exp[(log[x] + log[y]) % n] if x and y else 0

        def div(x, y):
            if not y:
                raise ZeroDivisionError("division by zero")
            return exp[(log[x] - log[y]) % n] if x else 0

        def inv(x):
            if not x:
                raise ZeroDivisionError("zero has no inverse")
            return exp[-log[x] % n]

        def pow(x, e):
            if x:
                return exp[log[x] * e % n]
            if e < 0:
                raise ZeroDivisionError("zero has no inverse")
            return 0 if e else 1

        def dlog(x):
            if not x:
                raise ZeroDivisionError("log of zero")
            return log[x]

        def exp_gen(e):
            return exp[e % n]

        self.mul, self.div, self.inv, self.pow = mul, div, inv, pow
        self.dlog, self.exp_gen = dlog, exp_gen
        if self.p == 2:
            return
        p = self.p
        half = n // 2  # g^half = -1
        zech = [0] * n  # zech[k] = log(1 + g^k); -1 where 1 + g^k = 0
        for k, v in enumerate(exp):
            c = v % p
            t = v - c + (c + 1) % p
            zech[k] = log[t] if t else -1

        def add(x, y):
            if not x:
                return y
            if not y:
                return x
            a = log[x]
            z = zech[(log[y] - a) % n]
            return exp[(a + z) % n] if z >= 0 else 0

        def sub(x, y):
            if not y:
                return x
            b = log[y] + half
            if not x:
                return exp[b % n]
            a = log[x]
            z = zech[(b - a) % n]
            return exp[(a + z) % n] if z >= 0 else 0

        def neg(x):
            return exp[(log[x] + half) % n] if x else 0

        self.add, self.sub, self.neg = add, sub, neg

    # -- representation helpers ------------------------------------------------

    def coeffs(self, x: int):
        """Polynomial-basis coefficients of x, low to high, length m."""
        out = []
        for _ in range(self.m):
            x, r = divmod(x, self.p)
            out.append(r)
        return out

    def element(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise FieldError(f"{len(coeffs)} coefficients for an element of {self}")
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + (c % self.p)
        return v

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    # -- arithmetic without tables ----------------------------------------------

    def add(self, x: int, y: int) -> int:
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.m):
            x, a = divmod(x, p)
            y, b = divmod(y, p)
            out += (a + b) % p * mult
            mult *= p
        return out

    def neg(self, x: int) -> int:
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.m):
            x, a = divmod(x, p)
            out += -a % p * mult
            mult *= p
        return out

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        p = self.p
        if p == 2:
            mask = self._mod_mask
            top = 1 << self.m
            r = 0
            while y:
                if y & 1:
                    r ^= x
                y >>= 1
                x <<= 1
                if x & top:
                    x ^= mask
            return r
        rem = _poly_mulmod(self.coeffs(x), self.coeffs(y), self.modulus, p)
        v = 0
        for c in reversed(rem):
            v = v * p + c
        return v

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.pow(x, -1)

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ZeroDivisionError("zero has no inverse")
            return 0 if e else 1
        e %= self.order - 1  # x^(order-1) = 1, so this also handles e < 0
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def dlog(self, x: int) -> int:
        """Discrete log base the canonical generator (baby-step giant-step)."""
        if x == 0:
            raise ZeroDivisionError("log of zero")
        n = self.order - 1
        s = math.isqrt(n) + 1
        baby = {}
        v = 1
        for j in range(s):
            baby.setdefault(v, j)
            v = self.mul(v, self._gen)
        step = self.inv(v)  # g^(-s)
        cur = x
        for i in range(s + 1):
            if cur in baby:
                return (i * s + baby[cur]) % n
            cur = self.mul(cur, step)
        raise FieldError("dlog failed")  # unreachable

    def exp_gen(self, e: int) -> int:
        """Generator raised to e."""
        return self.pow(self._gen, e)

    # -- derived ------------------------------------------------------------------

    def generator(self) -> int:
        """Smallest (in packed order) generator of the multiplicative group."""
        return self._gen

    def in_subfield(self, x: int, suborder: int) -> bool:
        """Whether x lies in the subfield with `suborder` elements."""
        return self.pow(x, suborder) == x

    def power_roots(self, w: int, k: int):
        """All x with x^k = w, sorted in packed order."""
        if w == 0:
            return [0]
        n = self.order - 1
        lw = self.dlog(w)
        d = math.gcd(k, n)
        if lw % d:
            return []
        nd = n // d
        base = (lw // d) * pow(k // d, -1, nd) % nd
        return sorted(self.exp_gen(base + t * nd) for t in range(d))


@lru_cache(maxsize=None)
def _field_cache(p: int, m: int, modulus) -> Field:
    return Field(p, m, modulus)


def make_field(p: int, m: int = 1, modulus=None) -> Field:
    """Validated, interned GF(p^m).  Omitting the modulus picks the first
    monic irreducible in lexicographic coefficient order, so runs are
    reproducible."""
    if not is_prime(p):
        raise FieldError(f"p={p} is not prime")
    if m < 1:
        raise FieldError(f"extension degree m={m} must be >= 1")
    if modulus is None:
        modulus = default_modulus(p, m)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree m")
        if not is_irreducible(modulus, p):
            raise FieldError(f"modulus {list(modulus)} is reducible over GF({p})")
    return _field_cache(p, m, modulus)


def gfq2(q: int) -> Field:
    """The quadratic extension GF(q^2) that hosts conjugation x -> x^q."""
    p, n = prime_power_split(q)
    return make_field(p, 2 * n)


def gf_ext(q: int, m: int) -> Field:
    """GF(q^(2m)), the degree-m extension of GF(q^2)."""
    p, n = prime_power_split(q)
    return make_field(p, 2 * n * m)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Embedding:
    """Ring-homomorphic inclusion of src into dst, determined by a root of
    src.modulus in dst (the smallest such root in packed order)."""
    src: Field
    dst: Field
    image_of_generator: int

    def __call__(self, x: int) -> int:
        dst = self.dst
        img = self.image_of_generator
        out = 0
        for c in reversed(self.src.coeffs(x)):
            out = dst.add(dst.mul(out, img), c)
        return out


@lru_cache(maxsize=None)
def _embedding_cache(src_key, dst_key) -> Embedding:
    src = _field_cache(*src_key)
    dst = _field_cache(*dst_key)
    # roots of src.modulus lie in the unique subfield of size src.order;
    # its nonzero part is the index-(dst*/src*) power subgroup
    if src.m == 1:
        return Embedding(src, dst, 0 if src.modulus == (0, 1) else dst.neg(src.modulus[0]))
    idx = (dst.order - 1) // (src.order - 1)
    candidates = sorted(dst.exp_gen(t * idx) for t in range(src.order - 1))
    for r in candidates:
        acc = 0
        for c in reversed(src.modulus):
            acc = dst.add(dst.mul(acc, r), c)
        if acc == 0:
            return Embedding(src, dst, r)
    raise FieldError("no root of src modulus found in dst")  # impossible


def make_embedding(src: Field, dst: Field) -> Embedding:
    if src.p != dst.p or dst.m % src.m:
        raise FieldError(f"{src} does not embed in {dst}")
    return _embedding_cache((src.p, src.m, src.modulus), (dst.p, dst.m, dst.modulus))


# ---------------------------------------------------------------------------
# norm equation
# ---------------------------------------------------------------------------

def solve_norm(field2: Field, a: int, q: int = None) -> int:
    """Smallest x in GF(q^2) with x^(q+1) = a, for nonzero a in the GF(q)
    subfield.  The norm map onto GF(q) is surjective, so x always exists."""
    if q is None:
        if field2.m % 2:
            raise FieldError("field has no index-2 subfield")
        q = field2.p ** (field2.m // 2)
    if a == 0:
        raise FieldError("norm equation needs a nonzero target")
    if not field2.in_subfield(a, q):
        raise FieldError("target lies outside the GF(q) subfield")
    roots = field2.power_roots(a, q + 1)
    if not roots:
        raise FieldError("norm equation unsolvable")  # cannot happen over GF(q^2)
    return roots[0]


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def field_to_json(field: Field) -> dict:
    return {"p": field.p, "m": field.m, "modulus": list(field.modulus)}


def field_from_json(obj) -> Field:
    return make_field(obj["p"], obj["m"], tuple(obj["modulus"]))


def element_to_json(field: Field, x: int) -> dict:
    out = field_to_json(field)
    out["coeffs"] = field.coeffs(x)
    return out


def element_from_json(obj):
    field = field_from_json(obj)
    return field, field.element(obj["coeffs"])
