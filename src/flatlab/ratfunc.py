"""Univariate polynomials and rational functions over an exact field.

Rational functions are kept in canonical form: numerator and denominator
coprime, denominator monic and nonzero.  The module also provides the
expression parser/printer, complete factorization over finite fields
(squarefree split, distinct-degree split, Cantor-Zassenhaus equal-degree
split from a fixed seed), Moebius conjugation, and reduction of a map
over Q modulo a prime with good-prime detection.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import (
    BadPrime,
    DivisionByZero,
    FieldMismatch,
    NotMobius,
    NotPrime,
    ParseError,
    ZeroPolynomial,
)
from .exactnum import (
    Field,
    FFElem,
    _KronSubtrees,
    _from_digits,
    _gf_add,
    _gf_deriv,
    _gf_divmod,
    _gf_gcd,
    _gf_mul,
    _gf_trim,
    _power,
    _prime_factors,
    field_create,
    is_prime,
)


class Poly:
    """Dense univariate polynomial; coefficients constant term first, no
    trailing zero.

    Over F_p, coeffs holds int residues in range(p), and the arithmetic
    works on them directly: sums, products, division, derivative, gcd and
    composition through exactnum's _gf_* layer.  Over Q and F_{p^k},
    coeffs holds field elements.  coeff and lc return field elements over
    every field.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        if field.k == 1 and field.p:
            p = field.p
            cs = [c % p if isinstance(c, int) else field.elem(c).coeffs[0] for c in coeffs]
        else:
            cs = [field.elem(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, field, coeffs):
        # trusted path: a list already in the field's representation
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        obj = object.__new__(cls)
        obj.field = field
        obj.coeffs = tuple(coeffs)
        return obj

    @property
    def _over_prime_field(self):
        return self.field.k == 1 and self.field.p != 0

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def gen(cls, field):
        """The polynomial t."""
        return cls(field, (0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            c = self.coeffs[i]
            return FFElem(self.field, (c,)) if self._over_prime_field else c
        return self.field.zero

    def lc(self):
        return self.coeff(len(self.coeffs) - 1)

    def _check(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction, FFElem)):
            return Poly.constant(self.field, self.field.elem(other))
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if self._over_prime_field:
            return Poly._make(self.field, _gf_add(a, b, self.field.p))
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly._make(self.field, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if self._over_prime_field:
            return Poly._make(self.field, _gf_mul(a, b, self.field.p))
        zero = self.field.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return Poly._make(self.field, out)

    __rmul__ = __mul__

    def scale(self, c):
        if self._over_prime_field:
            p = self.field.p
            c = c % p if isinstance(c, int) else self.field.elem(c).coeffs[0]
            return Poly._make(self.field, [a * c % p for a in self.coeffs])
        c = self.field.elem(c)
        return Poly._make(self.field, [a * c for a in self.coeffs])

    def __divmod__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        if self._over_prime_field:
            quo, rem = _gf_divmod(self.coeffs, o.coeffs, field.p)
            return Poly._make(field, quo), Poly._make(field, rem)
        rem = list(self.coeffs)
        db = o.degree
        if self.degree < db:
            return Poly.zero(field), self
        inv = field.one / o.lc()
        quo = [field.zero] * (self.degree - db + 1)
        for i in range(self.degree - db, -1, -1):
            c = rem[i + db]
            if c:
                c = c * inv
                quo[i] = c
                for j, bj in enumerate(o.coeffs):
                    rem[i + j] = rem[i + j] - c * bj
        return Poly._make(field, quo), Poly._make(field, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take nonnegative int exponents")
        if self.degree < 1:  # a constant: one power of it, with 0^0 = 1
            c = self.coeffs[0] if self.coeffs else 0
            return Poly(self.field, (pow(c, e, self.field.p) if self._over_prime_field else c ** e,))
        return _power(self, e, Poly.one(self.field), Poly.__mul__)

    def _lc_inverse(self):
        """1 / lc(self) as a coefficient (over F_p an int residue, so no
        FFElem is built), or None when self is monic; self is nonzero."""
        c = self.coeffs[-1]
        if self._over_prime_field:
            return None if c == 1 else pow(c, -1, self.field.p)
        return None if c == self.field.one else self.field.one / c

    def monic(self):
        inv = self._lc_inverse() if self.coeffs else None
        return self if inv is None else self.scale(inv)

    def derivative(self):
        if self._over_prime_field:
            return Poly._make(self.field, _gf_deriv(self.coeffs, self.field.p))
        out = [self.coeffs[i] * i for i in range(1, len(self.coeffs))]
        return Poly._make(self.field, out)

    def eval(self, a):
        return self.field.elem(_from_digits(reversed(self.coeffs), self.field.elem(a)))

    def lift_to(self, ext):
        """Lift a prime-field polynomial into an extension field."""
        if ext == self.field:
            return self
        if not self._over_prime_field or ext.p != self.field.p:
            raise FieldMismatch(f"cannot lift a polynomial over {self.field} into {ext}")
        return Poly(ext, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self} over {self.field})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd (zero if both arguments are zero).  Over Q it is the
    modular _int_gcd, since Euclid on Fractions grows their coefficients
    exponentially in the degree."""
    if a._over_prime_field:
        return Poly._make(a.field, _gf_gcd(a.coeffs, b.coeffs, a.field.p))
    if a.field.is_rationals and not (a.is_zero or b.is_zero):
        return Poly(a.field, _int_gcd(_integer_primitive(a.coeffs), _integer_primitive(b.coeffs))[0]).monic()
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _integer_primitive(coeffs):
    """The primitive integer multiple, by a positive factor, of a list of
    rationals that are not all zero."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (lcm // c.denominator) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _gcd_primes():
    """Primes below 2^61, from the Mersenne prime 2^61 - 1 down."""
    yield 2 ** 61 - 1
    for n in range(2 ** 61 - 3, 0, -2):
        if is_prime(n):
            yield n


def _factor_bound(a):
    """Mignotte's bound: every coefficient of every factor over Z of the
    int list a is at most sqrt(n + 1) 2^n max |a_i|, n = deg a."""
    return (math.isqrt(len(a)) + 1) * 2 ** (len(a) - 1) * max(map(abs, a))


def _int_quotient(a, h, bound):
    """a / h for int lists, or None when h does not divide a over Z or a
    quotient coefficient passes bound."""
    n = len(h) - 1
    if len(a) <= n:
        return None
    a, lc = list(a), h[-1]
    quo = [0] * (len(a) - n)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(a[i + n], lc)
        if r or abs(c) > bound:
            return None
        quo[i] = c
        if c:
            for j in range(n):
                a[i + j] -= c * h[j]
    return None if any(a[:n]) else quo


def _int_gcd(a, b):
    """(h, a / h, b / h) for h the gcd over Q of two nonzero primitive int
    lists, as a primitive int list (constant first) with a positive leading
    coefficient; the cofactors are exact over Z by Gauss's lemma.

    Modular (von zur Gathen and Gerhard, *Modern Computer Algebra*, 6.7).
    At a prime p dividing neither leading coefficient the gcd over Q
    reduces to a divisor of the gcd mod p, so a gcd of degree 0 mod p
    proves the gcd over Q is 1: coprime inputs cost one gcd mod one prime.
    Otherwise the gcds mod primes of the least degree seen, scaled to the
    leading coefficient c = gcd(lc a, lc b), are joined by the Chinese
    remainder theorem.  Once the modulus passes 2 c times Mignotte's bound,
    or the joined coefficients stop changing, the primitive part h is
    tried: h is the gcd when it divides a and b, since it then divides the
    gcd and its degree is at least the gcd's, and the trial divisions give
    the cofactors.  Trial division stops at Mignotte's bound, so every step
    is bounded.
    """
    c = math.gcd(a[-1], b[-1])
    joined = None
    for p in _gcd_primes():
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        g = _gf_gcd([x % p for x in a], [x % p for x in b], p)
        if len(g) == 1:
            return [1], a, b
        if joined is None or len(g) < len(joined):
            modulus, joined = 1, [0] * len(g)  # every earlier prime was unlucky
            bound_a, bound_b = _factor_bound(a), _factor_bound(b)
            limit = 2 * c * min(bound_a, bound_b)
        elif len(g) > len(joined):
            continue  # an unlucky prime
        inv, product = pow(modulus, -1, p), modulus * p
        new = []
        for x, y in zip(joined, g):  # symmetric residues mod the product
            z = (x + modulus * ((c * y - x) * inv % p)) % product
            new.append(z - product if 2 * z > product else z)
        stable, joined, modulus = new == joined, new, product
        if stable or modulus > limit:
            content = math.gcd(*joined)
            h = [x // content for x in joined]
            if h[-1] < 0:
                h = [-x for x in h]
            qa, qb = _int_quotient(a, h, bound_a), _int_quotient(b, h, bound_b)
            if qa is not None and qb is not None:
                return h, qa, qb


def root_multiplicity(f: Poly, a) -> int:
    """Multiplicity of the root a in f (0 if not a root); f != 0."""
    if f.is_zero:
        raise ZeroPolynomial("root multiplicity of the zero polynomial")
    lin = Poly(f.field, (-f.field.elem(a), 1))
    m = 0
    while True:
        q, r = divmod(f, lin)
        if not r.is_zero:
            return m
        m += 1
        f = q


# ----------------------------------------------------------------------
# Rational functions
# ----------------------------------------------------------------------

def _lowest_terms(num, den):
    """num / g and den / g for g = gcd(num, den).  Over Q they are the
    cofactors of the primitive integer lists that _int_gcd returns, den's
    made monic; num's then has leading coefficient lc(num) / lc(den), since
    a common factor leaves that ratio.  Dividing on Fractions would cost a
    Fraction product per step."""
    field = num.field
    if not field.is_rationals:
        g = poly_gcd(num, den)
        return (num // g, den // g) if g.degree > 0 else (num, den)
    h, a, b = _int_gcd(_integer_primitive(num.coeffs), _integer_primitive(den.coeffs))
    if len(h) == 1:
        return num, den
    c = num.lc() / den.lc() / a[-1]
    n, d = c.numerator, c.denominator
    return Poly._make(field, [Fraction(x * n, d) for x in a]), Poly._make(field, [Fraction(x, b[-1]) for x in b])


class RatFunc:
    """Rational function in canonical form: gcd(num, den) = 1, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            raise TypeError("RatFunc expects Poly arguments")
        if den is None:
            den = Poly.one(num.field)
        if num.field != den.field:
            raise FieldMismatch(f"{num.field} vs {den.field}")
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        if num.is_zero:
            den = Poly.one(num.field)
        else:
            if den.degree > 0:  # a constant den has gcd 1 with num
                num, den = _lowest_terms(num, den)
            inv = den._lc_inverse()
            if inv is not None:
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_const(cls, field, c):
        return cls(Poly.constant(field, c))

    @classmethod
    def gen(cls, field):
        """The identity map t."""
        return cls(Poly.gen(field))

    @property
    def field(self):
        return self.num.field

    @property
    def degree(self):
        """Degree as a self-map of P^1 (0 for constants)."""
        return max(self.num.degree, self.den.degree, 0)

    @property
    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree <= 0

    @property
    def is_zero(self):
        return self.num.is_zero

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant")
        return self.num.coeff(0)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction, FFElem)):
            return RatFunc.from_const(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("division by the zero function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    @classmethod
    def _coprime(cls, num, den):
        # trusted path: num and den coprime, den monic (den = 1 when num = 0)
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.reciprocal() ** (-e)
        # powers of coprime polynomials are coprime: no gcd
        return RatFunc._coprime(self.num ** e, self.den ** e)

    def reciprocal(self):
        """den / num: still coprime, so only made monic, with no gcd."""
        if self.is_zero:
            raise DivisionByZero("reciprocal of the zero function")
        inv, num, den = self.num._lc_inverse(), self.den, self.num
        return RatFunc._coprime(num, den) if inv is None else RatFunc._coprime(num.scale(inv), den.scale(inv))

    def wronskian(self):
        """The Wronskian P'Q - PQ' of self = P/Q: self' = W / Q^2."""
        n, d = self.num, self.den
        return n.derivative() * d - n * d.derivative()

    def derivative(self):
        """Quotient-rule derivative, canonical form."""
        return RatFunc(self.wronskian(), self.den * self.den)

    def compose(self, inner):
        """self after inner; clears denominators by homogenized
        substitution (_Substitution)."""
        o = self._coerce(inner)
        if o is None:
            raise TypeError("compose expects a rational function")
        m = max(self.num.degree, self.den.degree, 0)
        h = _Substitution(o)
        den = h.hom(self.den, m)
        if den.is_zero:
            raise DivisionByZero("composition evaluates to the constant infinity")
        return RatFunc(h.hom(self.num, m), den)

    def conjugate(self, phi):
        """phi o self o phi^{-1} for a Moebius map phi = (a t + b)/(c t + d)."""
        o = self._coerce(phi)
        if o is None or o.degree != 1:
            raise NotMobius("conjugation requires a degree-1 map")
        a, b = o.num.coeff(1), o.num.coeff(0)
        c, d = o.den.coeff(1), o.den.coeff(0)
        phi_inv = RatFunc(Poly(self.field, (-b, d)), Poly(self.field, (a, -c)))
        return o.compose(self.compose(phi_inv))

    def lift_to(self, ext):
        return RatFunc(self.num.lift_to(ext), self.den.lift_to(ext))

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return format_ratfunc(self)

    def __repr__(self):
        return f"RatFunc({self} over {self.field})"


class _Substitution:
    """Homogenized substitution along inner = P/Q: hom(f, m) = Q^m f(P/Q)
    for deg f <= m, by splitting f in halves (von zur Gathen and Gerhard,
    *Modern Computer Algebra*).  For the n coefficients of
    g = g_lo + t^h g_hi with h = n // 2,

        Q^(n-1) g(P/Q) = Q^(n-h) [Q^(h-1) g_lo(P/Q)] + P^h [Q^(n-h-1) g_hi(P/Q)],

    so each of the log2 n levels is one pass of products over the whole
    result.  powers memoizes the few powers of P and Q the halves need.
    Over F_p a subtree of at most exactnum._KronSubtrees.span coefficients
    is one packed integer of unreduced coefficients, reduced mod p once,
    where its value turns into a Poly (_as_poly).
    """

    __slots__ = ("field", "powers")

    def __init__(self, inner):
        self.field = inner.field
        self.powers = {"P": {1: inner.num}, "Q": {1: inner.den}}

    def _power(self, base, e):
        """P^e or Q^e (base "P" or "Q") for e >= 1, from two memoized halves."""
        memo = self.powers[base]
        if e not in memo:
            memo[e] = _times(self._power(base, e // 2), self._power(base, e - e // 2))
        return memo[e]

    def hom(self, f, m):
        """Q^m f(P/Q) for a polynomial f of degree at most m."""
        field, kron = self.field, None
        if field.k == 1 and field.p:
            kron = _KronSubtrees(field.p, self.powers["P"][1].coeffs, self.powers["Q"][1].coeffs,
                                 lambda base, e: self._power(base, e).coeffs)
        return self._as_poly(self._half(f.coeffs, 0, m + 1, kron), kron)

    def _half(self, c, lo, n, kron):
        """Q^(n-1) g(P/Q) for g = sum of c[lo + i] t^i over i < n: a Poly,
        or kron's packed integer when n is at most its span."""
        packed = kron is not None and n <= kron.span
        part = c[lo:lo + n]
        if not any(part):
            return 0 if packed else Poly.zero(self.field)
        if n == 1:
            return part[0] if packed else Poly._make(self.field, list(part))
        h = n // 2
        g_lo, g_hi = self._half(c, lo, h, kron), self._half(c, lo + h, n - h, kron)
        if packed:
            return kron.join(g_lo, g_hi, n, h)
        return self._times_power(g_lo, "Q", n - h, kron) + self._times_power(g_hi, "P", h, kron)

    def _as_poly(self, g, kron):
        """A value of _half as a Poly: a packed one is reduced mod p."""
        return g if isinstance(g, Poly) else Poly._make(self.field, kron.residues(g))

    def _times_power(self, g, base, e, kron):
        """The value g of _half times base^e, building no power when g is zero."""
        g = self._as_poly(g, kron)
        return g if g.is_zero else _times(g, self._power(base, e))


def _times(a, b):
    """a * b, as a scale when either is a constant: no product by a constant."""
    if a.degree > 0 and b.degree > 0:
        return a * b
    if a.degree > 0:
        a, b = b, a
    if a.coeffs == (1,):  # Q = 1 for a polynomial inner map
        return b
    return b.scale(a.coeffs[0]) if a.coeffs else a


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

def _coeff_str(c):
    s = str(c)
    if "+" in s or "*" in s or " " in s:
        return f"({s})"
    return s


def format_poly(f: Poly, var: str = "t") -> str:
    if f.is_zero:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if not c:
            continue
        neg = isinstance(c, Fraction) and c < 0
        mag = -c if neg else c
        if i == 0:
            body = _coeff_str(mag)
        else:
            v = var if i == 1 else f"{var}^{i}"
            one = f.field.one
            body = v if mag == one else f"{_coeff_str(mag)}*{v}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def _is_atom(f: Poly) -> bool:
    # single-term polynomial: safe to print unparenthesized inside a quotient
    return sum(1 for c in f.coeffs if c) <= 1


def format_ratfunc(f: RatFunc, var: str = "t") -> str:
    num, den = f.num, f.den
    ns = format_poly(num, var)
    if den.degree == 0:
        return ns
    if not _is_atom(num) or ns.startswith("-"):
        ns = f"({ns})"
    ds = format_poly(den, var)
    if not _is_atom(den):
        ds = f"({ds})"
    return f"{ns}/{ds}"


# ----------------------------------------------------------------------
# Parsing.  Grammar:
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' unsigned-integer)?
#   base   := variable | integer | '(' expr ')'
# Whitespace is insignificant; 't' and 'x' both name the variable; rational
# literals a/b come out of the '/' rule with the same value.
# ----------------------------------------------------------------------

_VAR_NAMES = ("t", "x")
_DIGITS = frozenset("0123456789")  # str.isdigit also takes '²' and '٣'


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError(f"integer literal of {j - i} digits is too long", i) from None
            i = j
        elif ch in _VAR_NAMES:
            tokens.append(("var", ch, i))
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# A numerator or denominator the parser builds has degree at most this; the
# weight-(p - 1) form a sweep prints has degree at most 2 (p - 1).
MAX_PARSE_DEGREE = 100_000
# Over Q a product the parser builds has at most about this many bits: its
# length times a bound on the bit length of its coefficients.  (t+1)^1000,
# about 10^6 bits, is in bound; 2^9999999999 and (t+1)^60000 are not.
MAX_PARSE_BITS = 2 ** 21


class _Parser:
    """Recursive descent to a pair (num, den) of int coefficient lists,
    constant term first, no trailing zeros.  Literals are unsigned ints, so
    over F_{p^k} the coefficients lie in the prime subfield, reduced mod p
    by exactnum's _gf_* layer.  parse canonicalizes once, at the end (von
    zur Gathen and Gerhard, *Modern Computer Algebra*); an operand whose den
    is not constant is put in lowest terms first, so that no input grows
    past its canonical size, as ((t+1)/(t+1))^e or t*(t+1)/(t+1)*... would.
    A shift or a product past MAX_PARSE_DEGREE, or over Q a product past
    MAX_PARSE_BITS, is a ParseError, raised before its list is built; a
    power is built by products, so each of them is checked.
    """

    def __init__(self, text, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.p = field.p  # 0 over Q: plain ints

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def add(self, a, b):
        if self.p:
            return _gf_add(a, b, self.p)
        return _gf_trim([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)])

    def neg(self, a):
        return [-c % self.p for c in a] if self.p else [-c for c in a]

    def mul(self, a, b, pos):
        if a == [1] or b == [1]:
            return b if a == [1] else a
        _check_degree(len(a) + len(b) - 2, pos)
        if not self.p:
            _check_bits(a, b, pos)
        return _gf_mul(a, b, self.p)

    def operand(self, num, den):
        """num/den in lowest terms if den is not constant."""
        if len(den) < 2:
            return num, den
        p = self.p
        if p:
            g = _gf_gcd(num, den, p)
            return _gf_divmod(num, g, p)[0], _gf_divmod(den, g, p)[0]
        return _primitive_integer_pair(RatFunc(Poly(self.field, num), Poly(self.field, den)))

    def parse(self):
        num, den = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return RatFunc(Poly(self.field, num), Poly(self.field, den))

    def expr(self):
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        num, den = self.term()
        if negate:
            num = self.neg(num)
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            (num, den), (rnum, rden) = self.operand(num, den), self.operand(*self.term())
            if op == "-":
                rnum = self.neg(rnum)
            if den == rden:
                num = self.add(num, rnum)
            else:
                num, den = self.add(self.mul(num, rden, pos), self.mul(rnum, den, pos)), self.mul(den, rden, pos)
        return num, den

    def term(self):
        num, den = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            (num, den), (rnum, rden) = self.operand(num, den), self.operand(*self.factor())
            if op == "/":
                if not rnum:
                    raise DivisionByZero(f"zero denominator at position {pos}")
                rnum, rden = rden, rnum
            num, den = self.mul(num, rnum, pos), self.mul(den, rden, pos)
        return num, den

    def factor(self):
        value = self.base()
        if self.peek()[0] == "^":
            self.take()
            tok = self.peek()
            if tok[0] != "int":
                raise ParseError("exponent must be an unsigned integer", tok[2])
            self.take()
            e, pos = tok[1], tok[2]
            if value == ([0, 1], [1]):  # a power of the variable is a shift
                _check_degree(e, pos)
                return [0] * e + [1], [1]
            value = tuple(_power(c, e, [1], lambda a, b: self.mul(a, b, pos)) for c in self.operand(*value))
        return value

    def base(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return _gf_trim([tok[1] % self.p if self.p else tok[1]]), [1]
        if tok[0] == "var":
            self.take()
            return [0, 1], [1]
        if tok[0] == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def _check_degree(degree, pos):
    if degree > MAX_PARSE_DEGREE:
        raise ParseError(f"degree {degree} is past the parser's bound of {MAX_PARSE_DEGREE}", pos)


def _check_bits(a, b, pos):
    """Raise if the product of the int lists a and b over Z may pass
    MAX_PARSE_BITS: a coefficient of it is at most min(len a, len b)
    max|a_i| max|b_j|."""
    height = (max(map(abs, a), default=0).bit_length() + max(map(abs, b), default=0).bit_length()
              + min(len(a), len(b)).bit_length())
    bits = (len(a) + len(b) - 1) * height
    if bits > MAX_PARSE_BITS:
        raise ParseError(f"a product of about {bits} bits is past the parser's bound of {MAX_PARSE_BITS}", pos)


def parse_ratfunc(text: str, field: Field) -> RatFunc:
    """Parse an expression string into a canonical RatFunc over field.

    Raises ParseError (with position) on malformed or too deeply nested
    input, on a degree past MAX_PARSE_DEGREE, or over Q on a product past
    MAX_PARSE_BITS, and DivisionByZero if the denominator is the zero
    polynomial.
    """
    parser = _Parser(text, field)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


# ----------------------------------------------------------------------
# Factorization over finite fields
# ----------------------------------------------------------------------

def _poly_powmod(base, e, mod):
    return _power(base % mod, e, Poly.one(base.field), lambda a, b: a * b % mod)


def _poly_pth_root(f):
    """Write f = g^p (valid whenever f' = 0 over a finite field)."""
    p = f.field.p
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(f.coeff(i).pth_root())
    for i in range(f.degree + 1):
        if i % p and f.coeff(i):
            raise ZeroPolynomial("p-th root of a polynomial not in F[t^p]")
    return Poly(f.field, out)


def poly_key(f: Poly):
    """Deterministic sort key for polynomials over one finite field."""
    return (f.degree, tuple(f.coeff(i).coeffs for i in range(f.degree + 1)))


def _edf(f, d, rng):
    """Split a monic product of degree-d irreducibles (Cantor-Zassenhaus)."""
    if f.degree == d:
        return [f]
    field = f.field
    q = field.order
    while True:
        r = Poly(field, [field.elem_from_index(rng.randrange(q)) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        if q % 2:
            s = _poly_powmod(r, (q ** d - 1) // 2, f) - Poly.one(field)
        else:
            # characteristic 2: additive trace map
            s = r
            t = r
            for _ in range(d * field.k - 1):
                t = (t * t) % f
                s = s + t
        g = poly_gcd(f, s)
        if 0 < g.degree < f.degree:
            return _edf(g, d, rng) + _edf(f // g, d, rng)


def _factor_squarefree(f, rng):
    """Irreducible factors of a monic squarefree f (distinct-degree split)."""
    irrs = []
    field = f.field
    q = field.order
    x = Poly.gen(field)
    h = x % f
    g = f
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            irrs.append(g)
            break
        h = _poly_powmod(h, q, g)
        sub = poly_gcd(g, h - x)
        if sub.degree > 0:
            irrs.extend(_edf(sub, d, rng))
            g = g // sub
            h = h % g
    return irrs


def _factor_into(f, out, rng, scale=1):
    """Record {irreducible: multiplicity * scale} of a monic f in out by the
    square-free split (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 14): step i splits off w / gcd(w, c), the irreducibles of multiplicity
    i for p not dividing i; the rest stays in c, a p-th power (f if f' = 0)."""
    c = poly_gcd(f, f.derivative())
    w, i = f // c, 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        for g in _factor_squarefree(w // y, rng):
            out[g] = i * scale
        w, c, i = y, c // y, i + 1
    if c.degree > 0:
        _factor_into(_poly_pth_root(c), out, rng, scale * f.field.p)


def poly_factor(f: Poly):
    """Complete factorization over a finite field.

    Returns [(monic irreducible, multiplicity), ...] sorted by (degree,
    coefficients); f equals lc(f) times the product.  Randomized splitting
    draws from random.Random(0), so every call makes the same draws.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.field.is_rationals:
        raise FieldMismatch("factorization is only supported over finite fields")
    rng = random.Random(0)
    out = {}
    _factor_into(f.monic(), out, rng)
    return sorted(out.items(), key=lambda item: poly_key(item[0]))


def poly_is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test over the coefficient field F_q."""
    if f.field.is_rationals:
        raise FieldMismatch("irreducibility test is over finite fields")
    n = f.degree
    if n < 1:
        return False
    q = f.field.order
    x = Poly.gen(f.field)
    if not (_poly_powmod(x, q ** n, f) - x % f).is_zero:
        return False
    for ell in _prime_factors(n):
        g = _poly_powmod(x, q ** (n // ell), f) - x % f
        if poly_gcd(f, g).degree != 0:
            return False
    return True


def poly_roots(f: Poly):
    """Roots of f in its own (finite) coefficient field, with multiplicity.

    Read off the linear factors of poly_factor(f).  Returns [(root,
    multiplicity), ...] sorted by the root's coefficient tuple.
    """
    roots = [(-g.coeff(0), m) for g, m in poly_factor(f) if g.degree == 1]
    roots.sort(key=lambda item: item[0].coeffs)
    return roots


def rational_roots(f: Poly):
    """Rational roots with multiplicity of a nonzero polynomial over Q.

    Past the root 0, the roots are those of the squarefree part s, taken as
    a primitive integer polynomial (content 1: 2 + 4t is taken as 1 + 2t).  At a prime p not dividing its leading
    coefficient s_n where every root of s mod p is simple, each rational
    root u/w (u | s_0, w | s_n) is the Hensel lift of its residue, and
    s_n u/w is an integer of absolute value at most |s_0 s_n|; so lifting
    past 2 |s_0 s_n| recovers it exactly.  Each candidate is confirmed with
    root_multiplicity.  The cost is polynomial in the coefficients' bit
    length, since fewer than log2 |s_n disc(s)| primes are skipped.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if not f.field.is_rationals:
        raise FieldMismatch("rational_roots works over Q")
    out = []
    v = root_multiplicity(f, 0)
    if v:
        out.append((Fraction(0), v))
        t = Poly.gen(f.field)
        f = f // t ** v
    if f.degree < 1:
        return out
    s = _integer_primitive((f // poly_gcd(f, f.derivative())).coeffs)
    ds = [i * c for i, c in enumerate(s)][1:]
    for p in itertools.count(2):
        if is_prime(p) and s[-1] % p:
            residues = poly_roots(Poly(field_create(p), s))
            if all(m == 1 for _, m in residues):
                break
    for r, _ in residues:
        r, mod = r.coeffs[0], p
        while mod <= 2 * abs(s[0] * s[-1]):
            mod *= mod  # Newton step: a simple root mod m lifts to one mod m^2
            r = (r - _from_digits(reversed(s), r) * pow(_from_digits(reversed(ds), r), -1, mod)) % mod
        z = s[-1] * r % mod
        cand = Fraction(z - mod if 2 * z > mod else z, s[-1])
        m = root_multiplicity(f, cand)
        if m:
            out.append((cand, m))
    return sorted(out)


# ----------------------------------------------------------------------
# Reduction of a map over Q modulo a prime
# ----------------------------------------------------------------------

def _primitive_integer_pair(sigma):
    """(P, Q) integer coefficient lists with joint content 1; Q's leading
    coefficient is positive, because sigma's denominator is monic."""
    n = len(sigma.num.coeffs)
    both = _integer_primitive(sigma.num.coeffs + sigma.den.coeffs)
    return both[:n], both[n:]


def reduce_mod_p(sigma: RatFunc, p: int) -> RatFunc:
    """Reduce a map over Q modulo p, or raise BadPrime with the reason.

    Writes sigma = P/Q with integer coefficients, the pair (P, Q) primitive,
    and rejects p when: p is 2 or 3; p <= deg sigma; Q vanishes identically
    mod p (so P would need p in its denominators); the degree drops; or P
    and Q share a factor mod p (resultant = 0 mod p).
    """
    if not sigma.field.is_rationals:
        raise FieldMismatch("reduce_mod_p expects a map over Q")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p in (2, 3):
        raise BadPrime(p, "p in {2, 3} is excluded")
    d = sigma.degree
    if p <= d:
        raise BadPrime(p, f"p <= deg sigma = {d} (wild ramification possible)")
    np_, dp = _primitive_integer_pair(sigma)
    if all(c % p == 0 for c in dp):
        raise BadPrime(p, "denominator vanishes mod p (coefficient denominators divisible by p)")
    Fp = field_create(p)
    nbar = Poly(Fp, [c % p for c in np_])
    dbar = Poly(Fp, [c % p for c in dp])
    if max(nbar.degree, dbar.degree) < max(len(np_), len(dp)) - 1:
        raise BadPrime(p, "degree drops mod p")
    if poly_gcd(nbar, dbar).degree > 0:
        raise BadPrime(p, "numerator and denominator share a factor mod p (resultant = 0)")
    c = Fp.one / dbar.lc()
    return RatFunc._coprime(nbar.scale(c), dbar.scale(c))
