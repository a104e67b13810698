"""Exact scalar and polynomial arithmetic over Q and prime fields GF(p).

Scalars are plain ``fractions.Fraction`` values over Q, plain ``int`` values
over Z, and :class:`GFElement` residues over GF(p).  Every compound object
(polynomial, binary form, matrix) carries a domain object -- ``QQ``, ``ZZ``
or ``GF(p)`` -- that knows how to coerce raw inputs; arithmetic between
objects of different domains is rejected.

No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Union


class DomainError(ValueError):
    """Operands belong to different (or unsupported) coefficient domains."""


class VerificationError(AssertionError):
    """A result failed the exact re-check of its defining identity.

    Raised explicitly (never through ``assert``), so the checks also run
    under ``python -O``.  Any occurrence is a bug in the library."""


# Miller-Rabin with the first twelve prime bases decides primality exactly
# below this bound (Sorenson & Webster 2015); larger moduli are refused.
_MAX_MODULUS = 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= p < _MAX_MODULUS."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class GFElement:
    """A residue modulo a prime p.  Arithmetic never leaves the modulus."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _check(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise DomainError(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return GFElement(self.p, other)
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return GFElement(self.p, self.v * pow(o.v, -1, self.p))

    def __rtruediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __pow__(self, e: int):
        return GFElement(self.p, pow(self.v, e, self.p))

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class RationalField:
    """The rationals Q, with values represented as ``fractions.Fraction``."""

    is_field = True
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise DomainError(f"cannot coerce {x!r} into Q")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def contains(self, x) -> bool:
        return isinstance(x, (Fraction, int))

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class IntegerRing:
    """The integers Z (a Euclidean domain, not a field)."""

    is_field = False
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        raise DomainError(f"cannot coerce {x!r} into Z")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def contains(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)

    def __repr__(self):
        return "Z"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


class PrimeField:
    """The prime field GF(p).  Instances are interned by modulus."""

    _instances: dict = {}
    is_field = True

    def __new__(cls, p: int):
        inst = cls._instances.get(p)
        if inst is None:
            if p >= _MAX_MODULUS:
                raise DomainError(
                    f"modulus {p} exceeds the supported limit {_MAX_MODULUS}")
            if not _is_prime(p):
                raise DomainError(f"modulus {p} is not prime")
            inst = super().__new__(cls)
            inst.p = p
            cls._instances[p] = inst
        return inst

    @property
    def characteristic(self):
        return self.p

    def coerce(self, x):
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise DomainError(f"GF({x.p}) element in GF({self.p})")
            return x
        if isinstance(x, int):
            return GFElement(self.p, x)
        raise DomainError(f"cannot coerce {x!r} into GF({self.p})")

    @property
    def zero(self):
        return GFElement(self.p, 0)

    @property
    def one(self):
        return GFElement(self.p, 1)

    def contains(self, x) -> bool:
        return (isinstance(x, GFElement) and x.p == self.p) or isinstance(x, int)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()
ZZ = IntegerRing()


def GF(p: int) -> PrimeField:
    """Return the prime field GF(p) (checked prime, interned)."""
    return PrimeField(p)


Domain = Union[RationalField, IntegerRing, PrimeField]


def scalar_is_zero(x) -> bool:
    return not x


def scalar_key(x):
    """Total order key for scalars of one domain (used for determinism only)."""
    if isinstance(x, GFElement):
        return x.v
    return x


# ---------------------------------------------------------------------------
# Dense univariate polynomials


class Poly:
    """Dense univariate polynomial, coefficients stored low-to-high degree.

    The zero polynomial has an empty coefficient tuple and degree -1 (the
    degree sentinel).  The leading coefficient is always nonzero otherwise.
    """

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain, coeffs: Iterable = ()):
        cs = [domain.coerce(c) for c in coeffs]
        while cs and scalar_is_zero(cs[-1]):
            cs.pop()
        self.domain = domain
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, domain, coeffs: tuple) -> "Poly":
        # internal fast path: coeffs already coerced and trailing-zero free
        obj = object.__new__(cls)
        obj.domain = domain
        obj.coeffs = coeffs
        return obj

    @staticmethod
    def _trim(cs: list) -> tuple:
        while cs and scalar_is_zero(cs[-1]):
            cs.pop()
        return tuple(cs)

    # -- constructors

    @classmethod
    def zero(cls, domain) -> "Poly":
        return cls(domain, ())

    @classmethod
    def one(cls, domain) -> "Poly":
        return cls(domain, (domain.one,))

    @classmethod
    def constant(cls, domain, c) -> "Poly":
        return cls(domain, (c,))

    @classmethod
    def x(cls, domain) -> "Poly":
        return cls(domain, (domain.zero, domain.one))

    @classmethod
    def linear(cls, domain, root) -> "Poly":
        """The monic linear polynomial x - root."""
        return cls(domain, (-domain.coerce(root), domain.one))

    # -- basic queries

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.domain.zero

    def _check(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.domain != self.domain:
                raise DomainError(f"{self.domain} vs {other.domain}")
            return other
        if self.domain.contains(other) or isinstance(other, int):
            return Poly.constant(self.domain, other)
        return None

    # -- ring operations

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly._raw(self.domain, Poly._trim(out))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        out = [self.coeff(k) - o.coeff(k) for k in range(n)]
        return Poly._raw(self.domain, Poly._trim(out))

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Poly._raw(self.domain, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly._raw(self.domain, ())
        # the product of nonzero leads is nonzero (integral domains only)
        out = [self.domain.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if scalar_is_zero(a):
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly._raw(self.domain, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        r = Poly.one(self.domain)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __divmod__(self, other):
        """Euclidean division; the divisor's leading coefficient must be a unit."""
        o = self._check(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if not self.domain.is_field and not _int_is_unit(o.leading(), self.domain):
            raise DomainError("division over Z requires a unit leading coefficient")
        lead_inv = self.domain.one / o.leading() if self.domain.is_field else (
            self.domain.one if o.leading() == 1 else -self.domain.one)
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(o.coeffs)
        if dq < 0:
            return Poly.zero(self.domain), self
        quo = [self.domain.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + o.degree]
            if scalar_is_zero(c):
                continue
            q = c * lead_inv
            quo[k] = q
            for j, b in enumerate(o.coeffs):
                rem[k + j] = rem[k + j] - q * b
        return (Poly._raw(self.domain, Poly._trim(quo)),
                Poly._raw(self.domain, Poly._trim(rem)))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        """Divide, asserting the remainder vanishes."""
        o = self._check(other)
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.domain.is_field or _int_is_unit(o.leading(), self.domain):
            q, r = divmod(self, o)
            if not r.is_zero():
                raise ArithmeticError("inexact polynomial division")
            return q
        # Over Z: divide via Q and check integrality.
        fq = Poly(QQ, self.coeffs)
        oq = Poly(QQ, o.coeffs)
        q, r = divmod(fq, oq)
        if not r.is_zero() or any(c.denominator != 1 for c in q.coeffs):
            raise ArithmeticError("inexact polynomial division over Z")
        return Poly(self.domain, (c.numerator for c in q.coeffs))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.domain == other.domain and self.coeffs == other.coeffs
        if other is None:
            return False
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.domain, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- calculus and evaluation

    def derivative(self) -> "Poly":
        if len(self.coeffs) <= 1:
            return Poly.zero(self.domain)
        return Poly(self.domain,
                    (k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def __call__(self, x):
        x = self.domain.coerce(x)
        acc = self.domain.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading()
        if lc == self.domain.one:
            return self
        if self.domain.is_field:
            return Poly._raw(self.domain, tuple(c / lc for c in self.coeffs))
        # over Z: normalize sign only
        if lc < 0:
            return Poly._raw(self.domain, tuple(-c for c in self.coeffs))
        return self

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly(self.domain, (self.domain.zero,) * k + self.coeffs)

    def sort_key(self):
        """Deterministic order: degree first, then coefficients high-to-low.

        Coefficients compare negated so that x - a precedes x - b exactly
        when a < b, giving factor lists the natural ascending-root order.
        """
        return (self.degree, tuple(scalar_key(-c) for c in reversed(self.coeffs)))

    def render(self, var: str = "x", compact: bool = False) -> str:
        return _render_poly(self, var, compact)

    def __repr__(self):
        return f"Poly({self.domain}, {self.render()})"


def _int_is_unit(c, domain) -> bool:
    return isinstance(domain, IntegerRing) and c in (1, -1)


def _render_poly(f: Poly, var: str, compact: bool) -> str:
    if f.is_zero():
        return "0"
    signed = isinstance(f.domain, (RationalField, IntegerRing))
    parts = []
    for k in range(f.degree, -1, -1):
        c = f.coeff(k)
        if scalar_is_zero(c):
            continue
        neg = signed and c < 0
        mag = -c if neg else c
        if k == 0:
            body = str(mag)
        else:
            xk = var if k == 1 else f"{var}^{k}"
            body = xk if mag == f.domain.one else f"{mag}{xk}" if compact else f"{mag}*{xk}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            op = "-" if neg else "+"
            parts.append(f"{op}{body}" if compact else f" {op} {body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# gcd, square-free decomposition, factorization


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor over a field; gcd(0, 0) = 0."""
    if f.domain != g.domain:
        raise DomainError(f"{f.domain} vs {g.domain}")
    if not f.domain.is_field:
        raise DomainError("poly_gcd requires a field domain")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_extended_gcd(f: Poly, g: Poly):
    """Return (d, s, t) with s*f + t*g = d monic."""
    dom = f.domain
    r0, r1 = f, g
    s0, s1 = Poly.one(dom), Poly.zero(dom)
    t0, t1 = Poly.zero(dom), Poly.one(dom)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc = r0.leading()
    inv = dom.one / lc
    return (
        Poly(dom, (c * inv for c in r0.coeffs)),
        Poly(dom, (c * inv for c in s0.coeffs)),
        Poly(dom, (c * inv for c in t0.coeffs)),
    )


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f."""
    return math.prod((g for g, _ in squarefree_decompose(f)),
                     start=Poly.one(f.domain))


def squarefree_decompose(f: Poly):
    """Write monic(f) as a product of pairwise-coprime square-free parts.

    Returns [(g, m), ...] with prod g^m = monic(f), each g square-free and
    monic, the g pairwise coprime, sorted by multiplicity m.  Handles
    characteristic p via the p-th-root recursion.
    """
    if f.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    if not f.domain.is_field:
        raise DomainError("squarefree_decompose requires a field domain")
    f = f.monic()
    if f.degree <= 0:
        return []
    acc: dict = {}
    _squarefree_accumulate(f, 1, acc)
    return sorted(acc.items(), key=lambda t: (t[1], t[0].sort_key()))


def _squarefree_accumulate(f: Poly, scale: int, acc: dict) -> None:
    # gcd-quotient chain; in characteristic p the factors whose multiplicity
    # is divisible by p survive in the residual, which is a p-th power.
    p = f.domain.characteristic
    fp = f.derivative()
    if fp.is_zero():
        _squarefree_accumulate(_pth_root(f), scale * p, acc)
        return
    g = poly_gcd(f, fp)
    w = f.exact_div(g)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        z = w.exact_div(y)
        if z.degree > 0:
            acc[z] = i * scale
        w = y
        g = g.exact_div(y)
        i += 1
    if g.degree > 0:
        _squarefree_accumulate(_pth_root(g), scale * p, acc)


def _pth_root(f: Poly) -> Poly:
    """p-th root of a polynomial in GF(p)[x] whose derivative vanishes."""
    p = f.domain.characteristic
    if p == 0:
        raise ArithmeticError("p-th root requested in characteristic 0")
    cs = []
    for k in range(0, f.degree + 1, p):
        cs.append(f.coeff(k))  # c^(1/p) = c in the prime field
    return Poly(f.domain, cs)


@dataclass(frozen=True)
class FactorTerm:
    """One factor of a factorization: base^exponent, with base monic and
    irreducible over the polynomial's field."""

    base: Poly
    exponent: int


def factor(f: Poly):
    """Factor f into monic irreducibles over GF(p) or Q.

    Returns a list of FactorTerm sorted by (degree, coefficients) then
    exponent.  The product of base^exponent times the leading coefficient of
    f equals f.
    """
    if f.is_zero():
        raise ValueError("factorization of the zero polynomial")
    dom = f.domain
    if isinstance(dom, PrimeField):
        terms = _factor_gfp(f)
    elif isinstance(dom, RationalField):
        terms = _factor_q(f)
    else:
        raise DomainError(f"cannot factor over {dom}")
    terms.sort(key=lambda t: (t.base.sort_key(), t.exponent))
    return terms


def _factor_gfp(f: Poly):
    return [FactorTerm(h, mult) for g, mult in squarefree_decompose(f)
            for h in _split_gfp(_distinct_degree(g))]


def _distinct_degree(f: Poly):
    """Pairs (g, d) for a monic square-free f over GF(p): g is the product
    of the irreducible factors of f of degree d, for each d that occurs."""
    dom = f.domain
    x = Poly.x(dom)
    out = []
    rest, xq, d = f, x, 0    # xq = x^(p^d) mod rest
    while rest.degree >= 2 * (d + 1):
        d += 1
        xq = _pow_mod(xq, dom.characteristic, rest)
        g = poly_gcd(rest, xq - x)
        if g.degree > 0:
            out.append((g, d))
            rest = rest.exact_div(g)
            xq = xq % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _split_gfp(parts):
    """The monic irreducible factors from distinct-degree parts (g, d), by
    equal-degree splitting (Cantor & Zassenhaus)."""
    rng = random.Random(0)   # any draw gives the same (unique) factors
    return [h for g, d in parts for h in _equal_degree_split(g, d, rng)]


def _equal_degree_split(f: Poly, d: int, rng):
    """Monic factors of a monic square-free f whose irreducible factors all
    have degree d; a random a splits f by gcd(f, a^((p^d - 1)/2) - 1), or by
    the trace a + a^2 + ... + a^(2^(d - 1)) when p = 2."""
    if f.degree == d:
        return [f]
    dom = f.domain
    p = dom.characteristic
    while True:
        a = Poly(dom, [rng.randrange(p) for _ in range(f.degree)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = (t * t) % f
                b = b + t
        else:
            b = _pow_mod(a, (p ** d - 1) // 2, f) - 1
        g = poly_gcd(f, b)
        if 0 < g.degree < f.degree:
            return (_equal_degree_split(g, d, rng)
                    + _equal_degree_split(f.exact_div(g), d, rng))


def _pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    r = Poly.one(base.domain)
    b = base % mod
    while e:
        if e & 1:
            r = (r * b) % mod
        b = (b * b) % mod
        e >>= 1
    return r


def _factor_q(f: Poly):
    return [FactorTerm(Poly(QQ, h.coeffs).monic(), mult)
            for g, mult in squarefree_decompose(f)
            for h in _factor_z(_primitive_int_poly(g)[0])]


def _factor_z(g: Poly):
    """Irreducible factors over Z of a primitive square-free g with lc > 0
    (Zassenhaus): split g modulo a good prime p, Hensel-lift the factors to
    a modulus beyond twice the Mignotte bound, recombine subsets.

    Good primes (p not dividing lc, g mod p square-free) are tried in
    increasing order; of the first three, the one giving the fewest factors
    is used, and a single factor modulo any of them proves g irreducible."""
    n = g.degree
    best, count = None, n
    p = tried = 0
    while count > 1 and tried < 3:
        p += 1
        if not _is_prime(p) or g.leading() % p == 0:
            continue
        gp = Poly(PrimeField(p), g.coeffs).monic()
        if poly_gcd(gp, gp.derivative()).degree > 0:
            continue
        tried += 1
        parts = _distinct_degree(gp)
        k = sum(h.degree // d for h, d in parts)
        if best is None or k < count:
            best, count = parts, k
    if count == 1:
        return [g]
    bound = ((math.isqrt(n + 1) + 1) * 2 ** n * g.leading()
             * max(abs(c) for c in g.coeffs))
    m = p = best[0][0].domain.characteristic
    while m <= 2 * bound:
        m *= p
    return _recombine(g, _hensel_lift(g, _split_gfp(best), m), m)


def _hensel_lift(g: Poly, factors, m: int):
    """Lift monic f_i over GF(p) with g = lc(g) prod f_i (mod p) to monic
    integer u_i with g = lc(g) prod u_i (mod m), m a power of p."""
    dom = factors[0].domain
    p = dom.characteristic
    lc_inv = pow(g.leading(), -1, m)
    target = [c * lc_inv % m for c in g.coeffs]
    full = math.prod(factors, start=Poly.one(dom))
    # s_i = (prod_{j != i} f_j)^(-1) mod f_i, so sum_i s_i prod_{j != i} f_j = 1
    inverses = [poly_extended_gcd(full.exact_div(f) % f, f)[1] for f in factors]
    lifted = [Poly(ZZ, (c.v for c in f.coeffs)) for f in factors]
    q = p
    while q < m:
        prod = math.prod(lifted, start=Poly.one(ZZ))
        err = Poly(dom, [(t - c) % (q * p) // q
                         for t, c in zip(target, prod.coeffs)])
        lifted = [u + Poly(ZZ, (q * c.v for c in (err * s % f).coeffs))
                  for u, s, f in zip(lifted, inverses, factors)]
        q *= p
    return lifted


def _recombine(g: Poly, lifted, m: int):
    """The factors of g over Z: the primitive parts of lc * (product of a
    subset of the lifted factors), taken in the symmetric range mod m, that
    divide g exactly; smallest subsets first."""
    out = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), s):
            cand = math.prod((lifted[i] for i in subset),
                             start=Poly.constant(ZZ, g.leading()))
            cs = [c % m - m if c % m > m // 2 else c % m for c in cand.coeffs]
            h = Poly(ZZ, (c // math.gcd(*cs) for c in cs))
            try:
                q = g.exact_div(h)
            except ArithmeticError:
                continue
            out.append(h)
            g = q
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            s += 1
    return out + [g]


def _primitive_int_poly(f: Poly):
    """Scale a rational polynomial to a primitive integer polynomial.

    Returns (g, s) with g = s * f, g primitive over Z with positive leading
    coefficient.
    """
    if f.is_zero():
        return Poly.zero(ZZ), Fraction(1)
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in f.coeffs]
    content = 0
    for v in ints:
        content = math.gcd(content, abs(v))
    ints = [v // content for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
        sign = -1
    else:
        sign = 1
    scale = Fraction(sign * den, content)
    return Poly(ZZ, ints), scale


def rational_roots(f: Poly):
    """All rational roots of f with multiplicities, ascending: the linear
    terms of ``factor(f)``."""
    if f.is_zero():
        raise ValueError("rational roots of the zero polynomial")
    if not isinstance(f.domain, RationalField):
        raise DomainError("rational_roots requires a polynomial over Q")
    return _split_linear(factor(f))[0]


def _split_linear(terms):
    """Split factor terms over Q into their rational roots, as ascending
    (root, exponent) pairs, and the monic product of their nonlinear bases
    (each taken once)."""
    roots = [(-t.base.coeff(0), t.exponent) for t in terms if t.base.degree == 1]
    rest = math.prod((t.base for t in terms if t.base.degree > 1),
                     start=Poly.one(QQ))
    return roots, rest


# ---------------------------------------------------------------------------
# Sturm chains and real root isolation (over Q)


def _sturm_chain(f: Poly):
    """Sturm chain of a square-free f, with positive-scalar scaling
    (pseudo-remainders with content stripping) to limit coefficient growth."""
    chain = [f]
    if f.degree >= 1:
        chain.append(_strip_content(f.derivative()))
    while chain[-1].degree >= 1:
        rem = -(chain[-2] % chain[-1])
        if rem.is_zero():
            break
        chain.append(_strip_content(rem))
    return chain


def _strip_content(f: Poly) -> Poly:
    # divide by the positive content; keeps the sign of every value
    if f.is_zero():
        return f
    g, s = _primitive_int_poly(f)
    sign = 1 if s > 0 else -1
    return Poly(QQ, (sign * c for c in g.coeffs))


def _sign_at(f: Poly, x) -> int:
    if x == "-inf":
        if f.is_zero():
            return 0
        lc = f.leading()
        s = 1 if lc > 0 else -1
        return s if f.degree % 2 == 0 else -s
    if x == "+inf":
        if f.is_zero():
            return 0
        return 1 if f.leading() > 0 else -1
    v = f(x)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _variations(chain, x) -> int:
    signs = [s for s in (_sign_at(f, x) for f in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _chain_count(chain, lo=None, hi=None) -> int:
    """Distinct real roots in (lo, hi] counted against a prebuilt Sturm
    chain; ``None`` bounds mean -infinity / +infinity."""
    return (_variations(chain, "-inf" if lo is None else lo)
            - _variations(chain, "+inf" if hi is None else hi))


def sturm_count(f: Poly, lo=None, hi=None) -> int:
    """Number of distinct real roots of f in the half-open interval (lo, hi].

    ``None`` bounds mean -infinity / +infinity respectively.  Multiplicities
    are ignored (the square-free part is taken internally).
    """
    if f.is_zero():
        raise ValueError("root counting on the zero polynomial")
    if not isinstance(f.domain, RationalField):
        raise DomainError("sturm_count requires a polynomial over Q")
    if f.degree == 0:
        return 0
    lo = None if lo is None else Fraction(lo)
    hi = None if hi is None else Fraction(hi)
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError("empty interval")
    return _chain_count(_sturm_chain(squarefree_part(f)), lo, hi)


@dataclass(frozen=True)
class RootInterval:
    """A rational interval certified to contain exactly one distinct real root.

    ``lo == hi`` marks an exactly-known rational root.
    """

    lo: Fraction
    hi: Fraction

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


def root_bound(f: Poly) -> Fraction:
    """Cauchy bound: all real roots lie in [-B, B]."""
    lc = abs(f.leading())
    m = max((abs(c) for c in f.coeffs[:-1]), default=Fraction(0))
    return Fraction(1) + m / lc


def isolate_real_roots(f: Poly):
    """Disjoint rational intervals, one per distinct real root of f.

    Rational roots come back as point intervals; irrational roots as open
    bisection intervals (lo, hi] with a Sturm count of one, pairwise disjoint
    and sorted.
    """
    if f.is_zero():
        raise ValueError("root isolation of the zero polynomial")
    if not isinstance(f.domain, RationalField):
        raise DomainError("isolate_real_roots requires a polynomial over Q")
    roots, rest = _split_linear(factor(f))
    rats = [r for r, _ in roots]
    out = [RootInterval(r, r) for r in rats]
    if rest.degree >= 1:
        out.extend(_isolate(rest, _sturm_chain(rest), rats))
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    for a, b in zip(out, out[1:]):
        if a.hi >= b.lo:
            raise VerificationError("root intervals overlap")
    return out


def _isolate(rest: Poly, chain, blocked):
    """Sorted disjoint isolating intervals of the real roots of a square-free
    ``rest`` with Sturm chain ``chain``, each shrunk to avoid the rationals
    in ``blocked``."""
    bound = root_bound(rest)
    work = [(-bound, bound, _chain_count(chain, -bound, bound))]
    found = []
    while work:
        lo, hi, cnt = work.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        left = _chain_count(chain, lo, mid)
        work.append((lo, mid, left))
        work.append((mid, hi, cnt - left))
    # shrink until intervals avoid the blocked points and one another
    refined = []
    prev_hi = None
    for lo, hi in sorted(found):
        while (any(lo <= r <= hi for r in blocked)
               or (prev_hi is not None and lo <= prev_hi)):
            mid = (lo + hi) / 2
            if _chain_count(chain, lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        refined.append(RootInterval(lo, hi))
        prev_hi = hi
    return refined


# ---------------------------------------------------------------------------
# Homogeneous binary forms and projective points


@dataclass(frozen=True)
class HomogeneousPoint:
    """A point (a : b) of the projective line, canonically normalized.

    b is the field one when b != 0; otherwise the point is (1 : 0), the point
    at infinity.  Equality of normalized pairs is projective equality.  The
    point keeps its field, which takes no part in equality.
    """

    a: object
    b: object
    domain: object = field(compare=False, repr=False)

    @classmethod
    def of(cls, domain, a, b) -> "HomogeneousPoint":
        a = domain.coerce(a)
        b = domain.coerce(b)
        if scalar_is_zero(a) and scalar_is_zero(b):
            raise ValueError("(0 : 0) is not a projective point")
        if not scalar_is_zero(b):
            return cls(a / b, domain.one, domain)
        return cls.infinity(domain)

    @classmethod
    def infinity(cls, domain) -> "HomogeneousPoint":
        return cls(domain.one, domain.zero, domain)

    @property
    def is_infinity(self) -> bool:
        return scalar_is_zero(self.b)

    def sort_key(self):
        return (1, 0) if self.is_infinity else (0, scalar_key(self.a))

    def render(self) -> str:
        return f"({self.a}:{self.b})"


class BinaryForm:
    """Homogeneous bivariate form of fixed degree d in (u, v).

    Coefficients are stored for the monomials u^k v^(d-k), k = 0..d.  The
    identically zero form of degree d is allowed (all coefficients zero).
    """

    __slots__ = ("domain", "d", "coeffs")

    def __init__(self, domain, d: int, coeffs: Iterable):
        cs = tuple(domain.coerce(c) for c in coeffs)
        if len(cs) != d + 1:
            raise ValueError(f"degree-{d} form needs {d + 1} coefficients")
        self.domain = domain
        self.d = d
        self.coeffs = cs

    @classmethod
    def zero(cls, domain, d: int) -> "BinaryForm":
        return cls(domain, d, (domain.zero,) * (d + 1))

    @classmethod
    def linear_power(cls, domain, a, b, e: int) -> "BinaryForm":
        """(a*u + b*v)^e."""
        a = domain.coerce(a)
        b = domain.coerce(b)
        return cls(domain, e, [domain.coerce(math.comb(e, k)) * a**k * b ** (e - k)
                               for k in range(e + 1)])

    def is_zero(self) -> bool:
        return all(scalar_is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return (self.domain == other.domain and self.d == other.d
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.domain, self.d, self.coeffs))

    def __neg__(self):
        return BinaryForm(self.domain, self.d, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            if other.domain != self.domain:
                raise DomainError("mixed-domain binary forms")
            out = [self.domain.zero] * (self.d + other.d + 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return BinaryForm(self.domain, self.d + other.d, out)
        c = self.domain.coerce(other)
        return BinaryForm(self.domain, self.d, (c * x for x in self.coeffs))

    __rmul__ = __mul__

    def evaluate(self, u, v):
        u = self.domain.coerce(u)
        v = self.domain.coerce(v)
        acc = self.domain.zero
        for k, c in enumerate(self.coeffs):
            acc = acc + c * u**k * v ** (self.d - k)
        return acc

    def factor_linear(self):
        """Split off the content at infinity and factor the finite part.

        Returns (constant, [(HomogeneousPoint or Poly, exponent), ...]):
        every linear factor b*u - a*v appears as its root point (a : b); any
        irreducible factor of degree >= 2 of the dehomogenization is kept as
        a Poly.  Raises on the zero form.
        """
        if self.is_zero():
            raise ValueError("cannot factor the identically zero form")
        top = max(k for k, c in enumerate(self.coeffs) if not scalar_is_zero(c))
        inf_mult = self.d - top
        f = Poly(self.domain, self.coeffs[: top + 1])
        out = []
        if inf_mult:
            out.append((HomogeneousPoint.infinity(self.domain), inf_mult))
        out.extend(_homogeneous_divisors(factor(f)))
        out.sort(key=_divisor_key)
        return f.leading(), out

    def render(self, u: str = "u", v: str = "v") -> str:
        if self.is_zero():
            return "0"
        parts = []
        signed = isinstance(self.domain, (RationalField, IntegerRing))
        for k in range(self.d, -1, -1):
            c = self.coeffs[k]
            if scalar_is_zero(c):
                continue
            neg = signed and c < 0
            mag = -c if neg else c
            mons = []
            if k:
                mons.append(u if k == 1 else f"{u}^{k}")
            if self.d - k:
                mons.append(v if self.d - k == 1 else f"{v}^{self.d - k}")
            body = "".join(mons) if mons else str(mag)
            if mons and mag != self.domain.one:
                body = f"{mag}{body}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __repr__(self):
        return f"BinaryForm({self.domain}, {self.render()})"


def _homogeneous_divisors(terms):
    """Factor terms as homogeneous divisors: a linear base x - c becomes the
    point (c : 1), a base of degree >= 2 is kept as it is."""
    return [(HomogeneousPoint.of(t.base.domain, -t.base.coeff(0), t.base.domain.one)
             if t.base.degree == 1 else t.base, t.exponent) for t in terms]


def _divisor_key(item):
    """Order of homogeneous divisors: finite points, then polynomial bases,
    then the point (1 : 0); larger exponents first within one base."""
    base, e = item
    if not isinstance(base, HomogeneousPoint):
        return (1, base.sort_key(), -e)
    return (2 if base.is_infinity else 0, base.sort_key(), -e)
