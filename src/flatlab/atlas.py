"""Constructors for the flat families and their closed-form certificates.

Power maps t^(+-d) carry the form (dt/t)^w with lambda = (+-d)^w, and
Chebyshev maps +-Cheb_d carry (dt)^w / (t^2-4)^(w/2) with lambda = d^w,
where w = p - 1 over F_p (so lambda = 1: the forms are invariant) and
w = 1, resp. 2, over Q (the least weight of a semi-invariant form).
Lattes maps (the order-2 quotient of multiplication by m on a short
Weierstrass curve, built from x-only division polynomials) carry the
weight-2 form (dx)^2 / (x^3 + a x + b), semi-invariant with lambda = m^2.
Every certificate is re-verified by exact pullback at construction time;
a mismatch raises instead of warning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadCharacteristic, BadPrime, IdentityCheckFailed, SingularCurve
from .exactnum import Field, rationals
from .forms import TupleForm, invariance_check
from .ratfunc import Poly, RatFunc


@dataclass(frozen=True)
class FlatCertificate:
    """A flat map together with a verified (semi-)invariant form."""

    family: str
    sigma: RatFunc
    form: TupleForm
    lam: object


def _certify(family, sigma, form, lam):
    res = invariance_check(sigma, form)
    if res.lam is None or res.lam != lam:
        raise IdentityCheckFailed(f"{family} certificate failed: got {res.lam}, want {lam}")
    return FlatCertificate(family, sigma, form, lam)


def power_map(d: int, field: Field) -> FlatCertificate:
    """sigma = t^d (d <= -2 means 1/t^|d|), with its certificate.

    Over F_p (p not dividing d) the form is (dt/t)^(p-1), invariant; over
    Q it is dt/t, semi-invariant with lambda = d.
    """
    if abs(d) < 2:
        raise ValueError("power maps need |d| >= 2")
    if field.p and d % field.p == 0:
        raise BadPrime(field.p, f"p divides d = {d}")
    w = field.p - 1 if field.p else 1
    sigma = RatFunc.gen(field) ** d  # d < 0 goes through t.reciprocal()
    form = TupleForm(RatFunc(Poly.one(field), Poly.gen(field) ** w), w)
    return _certify("power", sigma, form, field.elem(d) ** w)


def _cheb_recurrence(d: int, field: Field) -> Poly:
    # Cheb_0 = 2, Cheb_1 = t, Cheb_{k+1} = t Cheb_k - Cheb_{k-1}
    t = Poly.gen(field)
    prev, cur = Poly.constant(field, 2), t
    for _ in range(d - 1):
        prev, cur = cur, t * cur - prev
    return cur


def _check_cheb_identity(cheb: Poly, d: int):
    # Cheb_d(t + 1/t) = t^d + t^(-d), checked symbolically over the field
    field = cheb.field
    t = Poly.gen(field)
    lhs = RatFunc(cheb).compose(RatFunc(t * t + 1, t))  # t + 1/t
    rhs = RatFunc(t ** (2 * d) + 1, t ** d)
    if lhs != rhs:
        raise IdentityCheckFailed(f"Cheb_{d} does not satisfy its defining identity")


def chebyshev_poly(d: int, sign: int = 1, field: Field | None = None) -> FlatCertificate:
    """The degree-d Chebyshev map +-Cheb_d, normalized by
    Cheb_d(t + 1/t) = t^d + t^(-d), with its certificate.

    Over F_p (p odd, p not dividing d) the form is
    (dt)^(p-1) / (t^2-4)^((p-1)/2), invariant; over Q (field None or the
    rationals) it is (dt)^2 / (t^2-4), semi-invariant with lambda = d^2.
    The defining identity is always re-checked symbolically.
    """
    if d < 2:
        raise ValueError("chebyshev_poly needs d >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if field is None:
        field = rationals()
    if field.p == 2:
        raise BadPrime(2, "Chebyshev certificates need an odd prime")
    if field.p and d % field.p == 0:
        raise BadPrime(field.p, f"p divides d = {d}")
    cheb = _cheb_recurrence(d, field)
    _check_cheb_identity(cheb, d)
    signed = cheb if sign == 1 else -cheb
    w = field.p - 1 if field.p else 2
    t = Poly.gen(field)
    form = TupleForm(RatFunc(Poly.one(field), (t * t - 4) ** (w // 2)), w)
    return _certify("chebyshev", RatFunc(signed), form, field.elem(d) ** w)


# ----------------------------------------------------------------------
# Elliptic curves, division polynomials, Lattes maps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticCurve:
    """Short Weierstrass curve y^2 = x^3 + a x + b over a field."""

    field: Field
    a: object
    b: object

    def __post_init__(self):
        a = self.field.elem(self.a)
        b = self.field.elem(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (4 * a * a * a + 27 * b * b):
            raise SingularCurve(f"4a^3 + 27b^2 = 0 for a={a}, b={b}")

    def rhs_poly(self):
        return Poly(self.field, (self.b, self.a, 0, 1))


def ec_mul_x(E: EllipticCurve, m: int) -> RatFunc:
    """x-coordinate of multiplication by m: xi_m(x(P)) = x(mP), degree m^2.

    Built from x-only division polynomials (Washington, "Elliptic Curves:
    Number Theory and Cryptography", 2nd ed., section 3.2).  Writing
    psi_n = f_n for odd n and psi_n = 2y f_n for even n, with
    F = (2y)^2 = 4 (x^3 + a x + b), the recurrences need no y and no
    division:

        f_0 = 0, f_1 = f_2 = 1, f_3 = 3x^4 + 6a x^2 + 12b x - a^2,
        f_4 = 2x^6 + 10a x^4 + 40b x^3 - 10a^2 x^2 - 8ab x - 2a^3 - 16b^2,
        f_{2j+1} = F^2 f_{j+2} f_j^3 - f_{j-1} f_{j+1}^3    (j even),
        f_{2j+1} = f_{j+2} f_j^3 - F^2 f_{j-1} f_{j+1}^3    (j odd),
        f_{2j} = f_j (f_{j+2} f_{j-1}^2 - f_{j-2} f_{j+1}^2),

    and xi_m = x - psi_{m-1} psi_{m+1} / psi_m^2 becomes
    (x f_m^2 - F f_{m-1} f_{m+1}) / f_m^2 for odd m and
    (x F f_m^2 - f_{m-1} f_{m+1}) / (F f_m^2) for even m.
    Requires characteristic 0 or p > 2 m^2.
    """
    if m < 2:
        raise ValueError("ec_mul_x needs m >= 2")
    field = E.field
    if field.p and field.p <= 2 * m * m:
        raise BadCharacteristic(f"need p > 2 m^2 = {2 * m * m}, got p = {field.p}")
    a, b = E.a, E.b
    F = Poly(field, (4 * b, 4 * a, 0, 4))
    F2 = F * F
    memo = {
        0: Poly.zero(field),
        1: Poly.one(field),
        2: Poly.one(field),
        3: Poly(field, (-(a * a), 12 * b, 6 * a, 0, 3)),
        4: Poly(field, (-2 * a * a * a - 16 * b * b, -8 * a * b, -10 * a * a, 40 * b, 10 * a, 0, 2)),
    }

    def f(n):
        if n not in memo:
            j, odd = divmod(n, 2)
            if not odd:
                memo[n] = f(j) * (f(j + 2) * f(j - 1) ** 2 - f(j - 2) * f(j + 1) ** 2)
            elif j % 2:
                memo[n] = f(j + 2) * f(j) ** 3 - F2 * f(j - 1) * f(j + 1) ** 3
            else:
                memo[n] = F2 * f(j + 2) * f(j) ** 3 - f(j - 1) * f(j + 1) ** 3
        return memo[n]

    product = f(m - 1) * f(m + 1)
    if m % 2:
        den, product = f(m) ** 2, F * product
    else:
        den = F * f(m) ** 2
    xi = RatFunc(Poly.gen(field) * den - product, den)
    if xi.degree != m * m:
        raise RuntimeError(f"multiplication map degree {xi.degree} != m^2 (internal)")
    return xi


def lattes_map(E: EllipticCurve, m: int) -> FlatCertificate:
    """The order-2 Lattes map: x(P) -> x(mP) on P^1 = E/(y -> -y).

    Certificate: omega = (dx)^2 / (x^3 + a x + b) of weight 2 with
    lambda = m^2, from [m]^* omega_E = m omega_E and omega_E^2 = pi^* omega.
    """
    sigma = ec_mul_x(E, m)
    field = E.field
    form = TupleForm(RatFunc(Poly.one(field), E.rhs_poly()), 2)
    lam = field.elem(m) * field.elem(m)
    return _certify("lattes", sigma, form, lam)
