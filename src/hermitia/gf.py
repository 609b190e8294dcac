"""Exact arithmetic in finite field towers GF(p) <= GF(q) <= GF(q^2) <= GF(q^(2m)).

Elements are plain ints: the element with polynomial-basis coefficients
(c0, c1, ..., c_{m-1}) over GF(p) is packed as c0 + c1*p + ... + c_{m-1}*p^(m-1).
This keeps hot loops (exhaustive scans, matrix products) cheap and makes every
field element hashable and orderable for free.  The packed order 0, 1, 2, ...
is the fixed enumeration order used everywhere a "first" or "smallest" element
is promised.

One rule decides tables.  A field of at most 257 elements steps exp/log
tables for its multiplicative group when it is made, one coefficient
multiplication per power, at most 256 of them: every entry is one of
CPython's shared small ints, so the tables cost under a millisecond and no
memory per entry.  Every larger field computes on polynomial coefficients
(for odd p by Kronecker substitution, one integer product per mul) and
takes discrete logs by baby-step giant-step, and no command builds a
table for it: the one walk over such a field's elements left, the p = 3
three-cycle scan over GF(3^6), runs untabled.  Addition is digit
arithmetic in every field: XOR of packed ints for p = 2, and for odd p the
coefficient add/sub/neg, digit by digit mod p.  Fields are interned by
(p, m, modulus): two calls to make_field with the same data return the
same object, and elements of distinct Field objects must never be mixed.
prime_power_split is the one rule for whether q is a prime power: integer
roots and a Miller-Rabin test that is exact below 3.3e24, so no q below
that bound costs a trial division.  At and above it, and for a field's
group order, trial division decides within a budget of 10^6 divisors, and
a number past it (such as the prime 2^89 - 1) is refused with
SearchExhausted.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from . import poly

class FieldError(ValueError):
    pass


class SearchExhausted(RuntimeError):
    """An existence search ran out of its extension or work budget."""


def is_integer(c) -> bool:
    """An int and not a bool: JSON true/false load as bool, an int subclass."""
    return isinstance(c, int) and not isinstance(c, bool)


def is_prime(n: int) -> bool:
    """Exact primality.  Below 3317044064679887385961981 (about 3.3e24),
    Miller-Rabin with the prime bases 2 to 41 decides it: no composite
    there passes all thirteen bases (Sorenson and Webster, Math. Comp. 86,
    2017).  At and above that bound, _factorize decides it, within its
    budget of trial divisors."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    if n >= 3317044064679887385961981:
        return _factorize(n) == [n]
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(q: int, k: int) -> int:
    """floor(q^(1/k)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // k)  # 2^ceil(bits / k) > q^(1/k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power_split(q: int):
    """Return (p, n) with q = p^n, or raise if q is not a prime power >= 2.

    If q = p^n with p prime, no k > n makes q a k-th power, so the first
    k, counted down from floor(log2 q), whose integer k-th root r has
    r^k = q and r prime gives (p, n)."""
    if q < 2:
        raise FieldError(f"q={q} is not a prime power")
    for k in range(q.bit_length() - 1, 0, -1):
        r = _integer_root(q, k)
        if r ** k == q and is_prime(r):
            return r, k
    raise FieldError(f"q={q} is not a prime power")


_TRIAL_DIVISION_BUDGET = 10 ** 6   # most trial divisors one factorization tries


def _factorize(n: int):
    """The distinct prime factors of n, by trial division.  A factor left
    above the square of the last of _TRIAL_DIVISION_BUDGET divisors (about
    4e12) is refused with SearchExhausted, not searched for hours."""
    out = []
    f, tried, n0 = 2, 0, n
    while f * f <= n:
        if tried == _TRIAL_DIVISION_BUDGET:
            raise SearchExhausted(f"factoring {n0} needs more than "
                                  f"{_TRIAL_DIVISION_BUDGET} trial divisors")
        tried += 1
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_irreducible(modulus, p: int) -> bool:
    """Deterministic irreducibility test over GF(p) for a monic polynomial:
    f of degree m divides x^(p^m) - x and is coprime to x^(p^(m/r)) - x
    for every prime r dividing m."""
    mod = poly.trim(modulus)
    m = len(mod) - 1
    if m < 1 or mod[-1] != 1:
        return False
    if m == 1:
        return True
    if mod[0] == 0:
        return False  # divisible by x
    if sum(mod) % p == 0:
        return False  # root at 1
    if poly.gcd_xn_minus_x(mod, p ** m, p) != mod:
        return False
    return all(len(poly.gcd_xn_minus_x(mod, p ** (m // r), p)) == 1
               for r in set(_factorize(m)))


@lru_cache(maxsize=None)
def default_modulus(p: int, m: int):
    """First monic irreducible of degree m over GF(p), non-leading coefficients
    ordered lexicographically (constant term compared first).  For m > 1 a
    constant term 0 makes the candidate divisible by x, so the walk starts
    the constant term at 1."""
    if m == 1:
        return (0, 1)
    # t = c0 p^(m-1) + c1 p^(m-2) + ... + c_{m-1} counts the candidates in
    # that order, lazily: range(p) is never materialized, however large p is
    span = p ** (m - 1)
    for t in range(span, p * span):
        cand = [0] * m + [1]
        for k in range(m - 1, 0, -1):
            t, cand[k] = divmod(t, p)
        cand[0] = t
        if is_irreducible(cand, p):
            return tuple(cand)
    raise FieldError(f"no irreducible of degree {m} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class Field:
    """GF(p^m) with an explicit monic irreducible modulus.

    Elements are packed ints in [0, p^m).  Do not construct directly, use
    make_field so instances are interned.

    The methods below compute on polynomial coefficients and need no tables.
    A field of at most 257 elements shadows the multiplicative ones (mul,
    div, inv, pow, dlog, exp_gen) with table lookups bound as instance
    attributes at construction (see the module docstring); a larger field
    keeps them.  Addition is never tabled: p = 2 binds XOR at construction,
    and odd p keeps the coefficient add/sub/neg below.
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
        else:
            # Kronecker slots: a product coefficient is below m p^2, and a
            # low slot plus its folded-in high slots below 2 m p^2
            self._slot = (2 * m * p * p).bit_length()
            self._fold = self._fold_rows()
        # x generates the multiplicative group iff x^(n/f) != 1 for every
        # prime f dividing n; the first such x in packed order is canonical
        n = self.order - 1
        try:
            cofactors = [n // f for f in _factorize(n)]
        except SearchExhausted as exc:
            raise SearchExhausted(f"{self} refused: {exc}") from None
        self._gen = next(x for x in range(1, self.order)
                         if all(self.pow(x, c) != 1 for c in cofactors))
        if self.order <= 257:
            self._bind_tables()

    def _bind_tables(self):
        """Step exp[i] = g^i one coefficient multiplication at a time, fill
        log, and bind table lookups for the multiplicative group over the
        coefficient methods; addition stays digit arithmetic."""
        n = self.order - 1
        exp = [1]
        for _ in range(n - 1):
            exp.append(self.mul(exp[-1], self._gen))
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i

        # log2[0] = 2n sends any product with a zero factor past both
        # copies of exp, into the zero tail: no branch and no modulo
        exp2 = exp + exp + [0] * (2 * n + 1)
        log2 = log[:]
        log2[0] = 2 * n

        def mul(x, y):
            return exp2[log2[x] + log2[y]]

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
        if not all(is_integer(c) for c in coeffs):
            raise FieldError(f"element coefficients {coeffs} are not all integers")
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
        # Kronecker substitution: digits into w-bit slots, one integer
        # product, the slots of x^(m+k) folded back as x^(m+k) mod f
        m, w = self.m, self._slot
        mask = (1 << w) - 1
        xs = ys = 0
        for shift in range(0, m * w, w):
            x, a = divmod(x, p)
            y, b = divmod(y, p)
            xs |= a << shift
            ys |= b << shift
        prod = xs * ys
        low, high = prod & ((1 << m * w) - 1), prod >> m * w
        for row in self._fold:
            low += (high & mask) % p * row
            high >>= w
        v, place = 0, 1
        for _ in range(m):
            v += (low & mask) % p * place
            low >>= w
            place *= p
        return v

    def _fold_rows(self):
        """x^(m+k) mod the modulus for k = 0..m-2, each packed into
        self._slot-bit slots, low coefficient first."""
        p, m, w = self.p, self.m, self._slot
        top = [-c % p for c in self.modulus[:m]]  # x^m
        row, rows = top, []
        for _ in range(m - 1):
            rows.append(sum(c << w * i for i, c in enumerate(row)))
            carry = row[-1]
            row = [(lo + carry * t) % p for lo, t in zip([0] + row[:-1], top)]
        return tuple(rows)

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
        if not all(is_integer(c) for c in modulus):
            raise FieldError(f"modulus {list(modulus)} has a non-integer coefficient")
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

class Embedding:
    """Ring-homomorphic inclusion of src into dst, determined by a root of
    src.modulus in dst (the smallest such root in packed order)."""

    def __init__(self, src: Field, dst: Field, image_of_generator: int):
        self.src = src
        self.dst = dst
        self.image_of_generator = image_of_generator

    def __call__(self, x: int) -> int:
        return poly.evaluate(self.src.coeffs(x), self.image_of_generator,
                             self.dst)


@lru_cache(maxsize=None)
def _embedding_cache(src_key, dst_key) -> Embedding:
    src = _field_cache(*src_key)
    dst = _field_cache(*dst_key)
    # roots of src.modulus lie in the unique subfield of size src.order;
    # its nonzero part is the index-(dst*/src*) power subgroup, stepped by
    # one multiplication per element (untabled, exp_gen is a full pow)
    if src.m == 1:
        return Embedding(src, dst, 0 if src.modulus == (0, 1) else dst.neg(src.modulus[0]))
    step = dst.exp_gen((dst.order - 1) // (src.order - 1))
    candidates = [1]
    for _ in range(src.order - 2):
        candidates.append(dst.mul(candidates[-1], step))
    candidates.sort()
    for r in candidates:
        if not poly.evaluate(src.modulus, r, dst):
            return Embedding(src, dst, r)
    raise FieldError("no root of src modulus found in dst")  # impossible


def make_embedding(src: Field, dst: Field) -> Embedding:
    if src.p != dst.p or dst.m % src.m:
        raise FieldError(f"{src} does not embed in {dst}")
    return _embedding_cache((src.p, src.m, src.modulus), (dst.p, dst.m, dst.modulus))


# ---------------------------------------------------------------------------
# norm equation
# ---------------------------------------------------------------------------

def solve_norm(field2: Field, a: int, q: int) -> int:
    """Smallest x in GF(q^2) with x^(q+1) = a, for nonzero a in the GF(q)
    subfield.  The norm map onto GF(q) is surjective, so x always exists."""
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
