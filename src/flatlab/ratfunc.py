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
    _gf_add,
    _gf_deriv,
    _gf_divmod,
    _gf_gcd,
    _gf_mul,
    _hom_eval,
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
        if self._over_prime_field:
            p = self.field.p
            return Poly._make(self.field, [-c % p for c in self.coeffs])
        return Poly._make(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if self._over_prime_field:
            return Poly._make(self.field, _gf_mul(a, b, self.field.p))
        if not a or not b:
            return Poly.zero(self.field)
        zero = self.field.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return Poly._make(self.field, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.field.elem(c)
        if self._over_prime_field:
            p, c = self.field.p, c.coeffs[0]
            return Poly._make(self.field, [a * c % p for a in self.coeffs])
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
        return _power(self, e, Poly.one(self.field), Poly.__mul__)

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.field.one / self.lc())

    def derivative(self):
        if self._over_prime_field:
            return Poly._make(self.field, _gf_deriv(self.coeffs, self.field.p))
        out = [self.coeffs[i] * i for i in range(1, len(self.coeffs))]
        return Poly._make(self.field, out)

    def eval(self, a):
        a = self.field.elem(a)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

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
    """Monic gcd (zero if both arguments are zero)."""
    if a._over_prime_field:
        return Poly._make(a.field, _gf_gcd(a.coeffs, b.coeffs, a.field.p))
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


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
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lc = den.lc()
            if lc != den.field.one:
                inv = den.field.one / lc
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
        if self.is_zero:
            raise DivisionByZero("reciprocal of the zero function")
        return RatFunc(self.den, self.num)

    def derivative(self):
        """Quotient-rule derivative, canonical form."""
        n, d = self.num, self.den
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    def compose(self, inner):
        """self after inner; clears denominators by Horner homogenization
        (_Horner)."""
        o = self._coerce(inner)
        if o is None:
            raise TypeError("compose expects a rational function")
        m = max(self.num.degree, self.den.degree, 0)
        h = _Horner(o, m)
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
        if ext == self.field:
            return self
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


class _Horner:
    """Homogenized substitution along inner = P/Q: hom(f, m) = Q^m f(P/Q)
    for deg f <= m <= top, by Horner in P over precomputed powers of Q.
    Over F_p the loop is exactnum._hom_eval on the coefficient residues.
    """

    __slots__ = ("P", "qpow")

    def __init__(self, inner, top):
        self.P, Q = inner.num, inner.den
        self.qpow = [Poly.one(inner.field)]
        for _ in range(top):  # Q = 1 for a polynomial inner map: no products
            self.qpow.append(self.qpow[-1] * Q if Q.degree else Q)

    def hom(self, f, m):
        """Q^m f(P/Q) for a polynomial f of degree at most m."""
        P = self.P
        if P._over_prime_field:
            qpow = [q.coeffs for q in self.qpow[:m + 1]]
            return Poly._make(P.field, _hom_eval(f.coeffs, P.coeffs, qpow, P.field.p))
        acc = Poly.zero(P.field)
        for i in range(m, -1, -1):
            acc = acc * P + self.qpow[m - i].scale(f.coeff(i))
        return acc


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

def _coeff_str(c, wrap=False):
    s = str(c)
    if wrap and ("+" in s or "*" in s or " " in s):
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
            body = _coeff_str(mag, wrap=True)
        else:
            v = var if i == 1 else f"{var}^{i}"
            one = f.field.one
            body = v if mag == one else f"{_coeff_str(mag, wrap=True)}*{v}"
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


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
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


class _Parser:
    def __init__(self, text, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    raise DivisionByZero(f"zero denominator at position {pos}")
                value = value / rhs
        return value

    def factor(self):
        value = self.base()
        if self.peek()[0] == "^":
            self.take()
            tok = self.peek()
            if tok[0] != "int":
                raise ParseError("exponent must be an unsigned integer", tok[2])
            self.take()
            value = value ** tok[1]
        return value

    def base(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return RatFunc.from_const(self.field, tok[1])
        if tok[0] == "var":
            self.take()
            return RatFunc.gen(self.field)
        if tok[0] == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def parse_ratfunc(text: str, field: Field) -> RatFunc:
    """Parse an expression string into a canonical RatFunc over field.

    Raises ParseError (with position) on malformed input and DivisionByZero
    if the denominator is the zero polynomial.
    """
    return _Parser(text, field).parse()


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


def _factor_into(f, out, rng):
    # f monic; accumulates {irreducible: multiplicity} into out
    if f.degree <= 0:
        return
    p = f.field.p
    fp = f.derivative()
    if fp.is_zero:
        sub = {}
        _factor_into(_poly_pth_root(f), sub, rng)
        for g, m in sub.items():
            out[g] = out.get(g, 0) + m * p
        return
    sf = f // poly_gcd(f, fp)
    removed = Poly.one(f.field)
    for g in _factor_squarefree(sf, rng):
        m = 0
        work = f
        while True:
            quo, rem = divmod(work, g)
            if not rem.is_zero:
                break
            m += 1
            work = quo
        out[g] = out.get(g, 0) + m
        removed = removed * g ** m
    rest = f // removed
    if rest.degree > 0:
        _factor_into(rest, out, rng)


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
    a primitive integer polynomial.  At a prime p not dividing its leading
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
    s, _ = _primitive_integer_pair(RatFunc(f // poly_gcd(f, f.derivative())))
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
            r = (r - _eval_mod(s, r, mod) * pow(_eval_mod(ds, r, mod), -1, mod)) % mod
        z = s[-1] * r % mod
        cand = Fraction(z - mod if 2 * z > mod else z, s[-1])
        m = root_multiplicity(f, cand)
        if m:
            out.append((cand, m))
    return sorted(out)


def _eval_mod(a, x, mod):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % mod
    return acc


# ----------------------------------------------------------------------
# Reduction of a map over Q modulo a prime
# ----------------------------------------------------------------------

def _primitive_integer_pair(sigma):
    """(P, Q) integer coefficient lists with joint content 1, Q lc > 0."""
    L = 1
    for c in list(sigma.num.coeffs) + list(sigma.den.coeffs):
        L = L * c.denominator // math.gcd(L, c.denominator)
    np_ = [int(c * L) for c in sigma.num.coeffs]
    dp = [int(c * L) for c in sigma.den.coeffs]
    g = 0
    for c in np_ + dp:
        g = math.gcd(g, c)
    np_ = [c // g for c in np_]
    dp = [c // g for c in dp]
    if dp[-1] < 0:
        np_ = [-c for c in np_]
        dp = [-c for c in dp]
    return np_, dp


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
    return RatFunc(nbar, dbar)
