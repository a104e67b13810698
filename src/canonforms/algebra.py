"""Exact scalar and polynomial arithmetic over Q and prime fields GF(p).

Scalars are plain ``fractions.Fraction`` values over Q, plain ``int`` values
over Z, and :class:`GFElement` residues over GF(p).  Every compound object
(polynomial, binary form, matrix) carries a domain object -- ``QQ``, ``ZZ``
or ``GF(p)`` -- that knows how to coerce raw inputs; arithmetic between
objects of different domains is rejected.

gcd, square-free decomposition, factorization and Sturm chains run on one
kernel of coefficient lists of Python ints, low to high degree: residues in
[0, p) over GF(p) (``_gfp_*``), integer polynomials over Z (``_zx_*``).  A
polynomial over Q enters as its primitive integer multiple; ``_lift`` and
``_drop`` convert once at each public entry and exit.

No floating point is used anywhere.
"""

from __future__ import annotations

import functools
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
        if not self.domain.is_field and o.leading() not in (1, -1):
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


def _lift(f: Poly) -> list:
    """The kernel list of f: its residues over GF(p); over Q, the primitive
    integer polynomial that is a positive multiple of f."""
    if isinstance(f.domain, PrimeField):
        return [c.v for c in f.coeffs]
    den = math.lcm(*(c.denominator for c in f.coeffs))
    return _zx_primitive([c.numerator * (den // c.denominator) for c in f.coeffs])


def _drop(dom, h: list) -> Poly:
    """The monic polynomial over dom of a nonzero kernel list h."""
    if isinstance(dom, PrimeField):
        return Poly._raw(dom, tuple(GFElement(dom.p, c) for c in h))
    return Poly._raw(dom, tuple(Fraction(c, h[-1]) for c in h))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor over a field; gcd(0, 0) = 0."""
    if f.domain != g.domain:
        raise DomainError(f"{f.domain} vs {g.domain}")
    if not f.domain.is_field:
        raise DomainError("poly_gcd requires a field domain")
    a, b, dom = _lift(f), _lift(g), f.domain
    h = _gfp_gcd(a, b, dom.p) if isinstance(dom, PrimeField) else _zx_gcd(a, b)
    return _drop(dom, h) if h else Poly.zero(dom)


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
    return sorted(((_drop(f.domain, g), m) for g, m in _squarefree_parts(f)),
                  key=lambda t: (t[1], t[0].sort_key()))


def _squarefree_parts(f: Poly):
    """[(g, m)] of a nonzero f over GF(p) or Q, as kernel lists."""
    a = _lift(f)
    if len(a) < 2:
        return []
    if isinstance(f.domain, PrimeField):
        return _gfp_squarefree(_gfp_monic(a, f.domain.p), f.domain.p)
    return _zx_squarefree(a)


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
        def split(g):
            return _gfp_split(_gfp_distinct_degree(g, dom.p), dom.p)
    elif isinstance(dom, RationalField):
        split = _zx_factor
    else:
        raise DomainError(f"cannot factor over {dom}")
    return sorted((FactorTerm(_drop(dom, h), m) for g, m in _squarefree_parts(f)
                   for h in split(g)), key=lambda t: (t.base.sort_key(), t.exponent))


# ---------------------------------------------------------------------------
# The coefficient-list kernel: no list has a trailing zero, and [] is zero.


def _zx_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _zx_add(a: list, b: list, s: int = 1) -> list:
    """a + s b."""
    out = a + [0] * (len(b) - len(a))
    for k, c in enumerate(b):
        out[k] += s * c
    return _zx_trim(out)


def _zx_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zx_deriv(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def _zx_primitive(a: list) -> list:
    """a divided by its (positive) content."""
    c = math.gcd(*a)
    return a if c <= 1 else [x // c for x in a]


def _zx_prem(a: list, b: list) -> list:
    """A positive multiple of the remainder of a modulo a nonzero b in Q[x]."""
    db, lb = len(b) - 1, b[-1]
    r = a[:]
    while len(r) > db:
        c, k = r[-1], len(r) - 1 - db
        if c % lb:
            r = [x * abs(lb) for x in r]
            c = c if lb > 0 else -c
        else:
            c //= lb
        for j in range(db):
            r[k + j] -= c * b[j]
        r.pop()
        _zx_trim(r)
    return r


def _zx_gcd(a: list, b: list) -> list:
    """Primitive gcd with a positive leading coefficient over Z, by the
    primitive pseudo-remainder sequence; gcd(0, 0) = 0."""
    a, b = _zx_primitive(a), _zx_primitive(b)
    while b:
        a, b = b, _zx_primitive(_zx_prem(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def _zx_divide(a: list, b: list):
    """The quotient a / b over Z when a nonzero b divides a, else None."""
    if a and b[0] and a[0] % b[0]:    # b(0) divides a(0) when b divides a
        return None
    db, lb = len(b) - 1, b[-1]
    r = a[:]
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + db], lb)
        if rem:
            return None
        q[k] = c
        for j in range(db):
            r[k + j] -= c * b[j]
    return None if any(r[:db]) else q


def _zx_squarefree(f: list):
    """Yun's square-free decomposition of a nonconstant f over Z: [(g, m)]
    with prod g^m = f up to a constant, the g primitive, square-free,
    pairwise coprime and of positive leading coefficient."""
    d1 = _zx_deriv(f)
    g = _zx_gcd(f, d1)
    b, c = _zx_divide(f, g), _zx_divide(d1, g)
    out, m = [], 1
    while len(b) > 1:
        d = _zx_add(c, _zx_deriv(b), -1)
        a = _zx_gcd(b, d)
        if len(a) > 1:
            out.append((a, m))
        b, c, m = _zx_divide(b, a), _zx_divide(d, a), m + 1
    return out


def _gfp_reduce(a: list, p: int) -> list:
    return _zx_trim([c % p for c in a])


def _gfp_mul(a: list, b: list, p: int) -> list:
    return [c % p for c in _zx_mul(a, b)]   # the leading product is a unit


def _gfp_divmod(a: list, b: list, p: int):
    """(q, r) with a = q b + r and deg r < deg b over GF(p); b nonzero."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = a[:]
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] % p * inv % p
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    return q, _gfp_reduce(r[:db], p)


def _gfp_monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p) if a else 1
    return a if inv == 1 else [c * inv % p for c in a]


def _gfp_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd over GF(p); gcd(0, 0) = 0."""
    while b:
        a, b = b, _gfp_divmod(a, b, p)[1]
    return _gfp_monic(a, p)


def _gfp_invmod(a: list, m: list, p: int) -> list:
    """The inverse of a modulo m over GF(p), for a coprime to m."""
    r0, r1, s0, s1 = m, a, [], [1]      # r_i = s_i a (mod m)
    while r1:
        q, r = _gfp_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _gfp_reduce(_zx_add(s0, _gfp_mul(q, s1, p), -1), p)
    return [c * pow(r0[0], -1, p) % p for c in s0]


def _gfp_powmod(a: list, e: int, m: list, p: int) -> list:
    """a^e modulo m over GF(p)."""
    r, b = [1], _gfp_divmod(a, m, p)[1]
    while e:
        if e & 1:
            r = _gfp_divmod(_gfp_mul(r, b, p), m, p)[1]
        e >>= 1
        if e:
            b = _gfp_divmod(_gfp_mul(b, b, p), m, p)[1]
    return r


def _gfp_squarefree(f: list, p: int):
    """[(g, m)] with prod g^m = f for a monic nonconstant f over GF(p), by a
    gcd-quotient chain; the factors whose multiplicity p divides survive in
    the residual, a p-th power, whose p-th root (every p-th coefficient, as
    c^p = c in GF(p)) is decomposed in turn."""
    fp = _gfp_reduce(_zx_deriv(f), p)
    if not fp:
        return [(h, m * p) for h, m in _gfp_squarefree(f[::p], p)]
    g = _gfp_gcd(f, fp, p)
    w, out, i = _gfp_divmod(f, g, p)[0], [], 1
    while len(w) > 1:
        y = _gfp_gcd(w, g, p)
        z = _gfp_divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        w, g, i = y, _gfp_divmod(g, y, p)[0], i + 1
    if len(g) > 1:
        out += [(h, m * p) for h, m in _gfp_squarefree(g[::p], p)]
    return out


def _gfp_distinct_degree(f: list, p: int):
    """Pairs (g, d) for a monic square-free f over GF(p): g is the product
    of the irreducible factors of f of degree d, for each d that occurs."""
    out = []
    rest, xq, d = f, [0, 1], 0    # xq = x^(p^d) mod rest
    while len(rest) > 2 * (d + 1):
        d += 1
        xq = _gfp_powmod(xq, p, rest, p)
        g = _gfp_gcd(rest, _gfp_reduce(_zx_add(xq, [0, -1]), p), p)
        if len(g) > 1:
            out.append((g, d))
            rest = _gfp_divmod(rest, g, p)[0]
            xq = _gfp_divmod(xq, rest, p)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _gfp_split(parts, p: int):
    """The monic irreducible factors from distinct-degree parts (g, d), by
    equal-degree splitting (Cantor & Zassenhaus): a random a splits a part
    by gcd(g, a^((p^d - 1)/2) - 1), or by the trace a + a^2 + ... +
    a^(2^(d - 1)) when p = 2."""
    rng = random.Random(0)   # any draw gives the same (unique) factors

    def split(f, d):
        n = len(f) - 1
        if n == d:
            return [f]
        while True:
            a = _gfp_reduce([rng.randrange(p) for _ in range(n)], p)
            if p == 2:
                b = t = a
                for _ in range(d - 1):
                    t = _gfp_divmod(_gfp_mul(t, t, p), f, p)[1]
                    b = _gfp_reduce(_zx_add(b, t), p)
            else:
                b = _gfp_reduce(_zx_add(_gfp_powmod(a, (p ** d - 1) // 2, f, p), [-1]), p)
            g = _gfp_gcd(f, b, p)
            if 1 < len(g) < len(f):
                return split(g, d) + split(_gfp_divmod(f, g, p)[0], d)

    return [h for g, d in parts for h in split(g, d)]


def _zx_factor(g: list):
    """Irreducible factors over Z of a primitive square-free g with lc > 0
    (Zassenhaus): split g modulo the good prime p (p does not divide lc, g
    mod p is square-free) with the fewest factors among the first three, or
    stop at one factor, which proves g irreducible; Hensel-lift the factors
    beyond twice the Mignotte bound and recombine subsets."""
    n = len(g) - 1
    best, count = None, n
    p = tried = 0
    while count > 1 and tried < 3:
        p += 1
        if not _is_prime(p) or g[-1] % p == 0:
            continue
        gp = _gfp_monic(_gfp_reduce(g, p), p)
        if len(_gfp_gcd(gp, _gfp_reduce(_zx_deriv(gp), p), p)) > 1:
            continue
        tried += 1
        parts = _gfp_distinct_degree(gp, p)
        k = sum((len(h) - 1) // d for h, d in parts)
        if best is None or k < count:
            best, count, prime = parts, k, p
    if count == 1:
        return [g]
    bound = (math.isqrt(n + 1) + 1) * 2 ** n * g[-1] * max(abs(c) for c in g)
    m = prime
    while m <= 2 * bound:
        m *= prime
    return _zx_recombine(g, _zx_hensel_lift(g, _gfp_split(best, prime), prime, m), m)


def _zx_hensel_lift(g: list, factors, p: int, m: int):
    """Lift monic irreducible f_i over GF(p) with g = lc(g) prod f_i (mod p)
    to monic integer u_i with g = lc(g) prod u_i (mod m), m a power of p."""
    lc_inv = pow(g[-1], -1, m)
    target = [c * lc_inv % m for c in g]
    full = functools.reduce(lambda a, b: _gfp_mul(a, b, p), factors)
    # s_i = (prod_{j != i} f_j)^(-1) mod f_i, so sum_i s_i prod_{j != i} f_j = 1
    inverses = [_gfp_invmod(_gfp_divmod(full, f, p)[0], f, p) for f in factors]
    lifted, q = factors, p
    while q < m:
        prod = [1]
        for u in lifted:
            prod = [c % (q * p) for c in _zx_mul(prod, u)]
        err = _gfp_reduce([(t - c) % (q * p) // q for t, c in zip(target, prod)], p)
        lifted = [_zx_add(u, _gfp_divmod(_gfp_mul(err, s, p), f, p)[1], q)
                  for u, s, f in zip(lifted, inverses, factors)]
        q *= p
    return lifted


def _zx_recombine(g: list, lifted, m: int):
    """The factors of g over Z: the primitive parts of lc * (product of a
    subset of the lifted factors), taken in the symmetric range mod m, that
    divide g exactly; smallest subsets first."""
    out, s = [], 1
    while 2 * s <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), s):
            cand = [g[-1]]
            for i in subset:
                cand = [c % m for c in _zx_mul(cand, lifted[i])]
            h = _zx_primitive([c - m if c > m // 2 else c for c in cand])
            q = _zx_divide(g, h)
            if q is not None:
                out.append(h)
                g = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return out + [g]


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
    """Sturm chain of a square-free f as integer coefficient lists: each
    member is a positive multiple of the classical one (f, f', then negated
    remainders), so every sign, and every count below, is kept."""
    chain = [_lift(f)]
    chain.append(_zx_primitive(_zx_deriv(chain[0])))
    while len(chain[-1]) >= 2:
        chain.append(_zx_primitive([-c for c in _zx_prem(chain[-2], chain[-1])]))
    return chain


def _variations(chain, a: int, b: int) -> int:
    """Sign changes along an integer Sturm chain at the point (a : b), b >= 0:
    the sign of a member f there is that of sum f_k a^k b^(deg f - k), so
    (1 : 0) and (-1 : 0) stand for +infinity and -infinity."""
    signs = []
    for f in chain:
        v, bk = 0, 1
        for c in reversed(f):
            v, bk = v * a + c * bk, bk * b
        if v:
            signs.append(v > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _chain_count(chain, lo=None, hi=None) -> int:
    """Distinct real roots in (lo, hi] counted against a prebuilt Sturm
    chain; ``None`` bounds mean -infinity / +infinity."""
    lo = (-1, 0) if lo is None else (lo.numerator, lo.denominator)
    hi = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    return _variations(chain, *lo) - _variations(chain, *hi)


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
