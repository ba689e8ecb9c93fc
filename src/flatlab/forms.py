"""Tuple differential forms f(t) (dt)^nu on P^1: pullback, local orders,
invariance and semi-invariance certification, weight reduction, and the
search for invariant forms mod p, decided by one invariance check at the
weight the orbifold predicts.

A form is invariant for sigma when f(sigma(t)) (sigma'(t))^nu = f(t),
i.e. the pullback fixes it; semi-invariant when the pullback scales it by
a nonzero constant lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadWeight, FieldMismatch, Inseparable, NotSemiInvariant
from .exactnum import mat_kernel
from .dynamics import postcritical_graph
from .orbifold import MU_INFINITY, orbifold_data
from .ratfunc import Poly, RatFunc, _Substitution, _poly_pth_root, root_multiplicity


@dataclass(frozen=True)
class TupleForm:
    """f(t) (dt)^weight with f a rational function and weight a nonzero int."""

    func: RatFunc
    weight: int

    def __post_init__(self):
        if not isinstance(self.weight, int) or self.weight == 0:
            raise ValueError("form weight must be a nonzero integer")

    @property
    def field(self):
        return self.func.field

    @property
    def is_zero(self):
        return self.func.is_zero

    def __str__(self):
        return f"({self.func}) (dt)^{self.weight}"


def form_power(omega: TupleForm, n: int) -> TupleForm:
    """The n-th multiplicative power: f^n (dt)^(n*weight)."""
    if n == 0 or not isinstance(n, int):
        raise ValueError("power must be a nonzero integer")
    return TupleForm(omega.func ** n, omega.weight * n)


def form_mul(a: TupleForm, b: TupleForm) -> TupleForm:
    """Product of forms: coefficient functions multiply, weights add."""
    return TupleForm(a.func * b.func, a.weight + b.weight)


def _pullback_sides(sigma: RatFunc, omega: TupleForm):
    """(A, B) with sigma^* omega = (A/B) (dt)^weight; no gcd is taken.

    With sigma = P/Q, f = N/D, W = P'Q - PQ' and Xhat = Q^(deg X) X(P/Q),
    f(sigma) = Nhat Q^(deg D) / (Dhat Q^(deg N)) and sigma' = W/Q^2, so
    A = Nhat Q^(deg D) W^w and B = Dhat Q^(deg N + 2w) up to the common
    power of Q, which is cancelled; W^(-w) goes into B when w < 0.
    """
    if sigma.field != omega.field:
        raise FieldMismatch(f"{sigma.field} vs {omega.field}")
    if sigma.is_constant:
        raise ValueError("pullback along a constant map")
    Q = sigma.den
    wron = sigma.wronskian()
    if wron.is_zero:
        raise Inseparable("pullback along an inseparable map")
    N, D, w = omega.func.num, omega.func.den, omega.weight
    h = _Substitution(sigma)
    A = h.hom(N, N.degree)
    B = h.hom(D, D.degree)
    shift = D.degree - N.degree - 2 * w
    if shift > 0:
        A = A * Q ** shift
    elif shift < 0:
        B = B * Q ** -shift
    if w > 0:
        A = A * wron ** w
    else:
        B = B * wron ** -w
    return A, B


def form_pullback(sigma: RatFunc, omega: TupleForm) -> TupleForm:
    """sigma^* omega = f(sigma(t)) (sigma'(t))^weight (dt)^weight."""
    A, B = _pullback_sides(sigma, omega)
    return TupleForm(RatFunc(A, B), omega.weight)


def form_ord(omega: TupleForm, pt) -> int:
    """Order of vanishing of omega at a point of P^1 (None at infinity).

    At finite A this is the multiplicity of A in the numerator minus the
    multiplicity in the denominator of f; at infinity the coordinate change
    s = 1/t contributes -2*weight on top of the order of f.
    """
    f = omega.func
    if f.is_zero:
        raise ValueError("order of the zero form")
    if pt is None:
        return (f.den.degree - f.num.degree) - 2 * omega.weight
    return root_multiplicity(f.num, pt) - root_multiplicity(f.den, pt)


@dataclass(frozen=True)
class InvarianceResult:
    """Outcome of an invariance check; lam is None when not semi-invariant."""

    invariant: bool
    lam: object

    @property
    def semi_invariant(self):
        return self.lam is not None


def invariance_check(sigma: RatFunc, omega: TupleForm) -> InvarianceResult:
    """Decide sigma^* omega = lambda * omega by one exact comparison.

    With sigma^* omega = (A/B) (dt)^weight from _pullback_sides and
    f = N/D, semi-invariance is A D = lambda B N: lambda is the ratio of
    the leading coefficients, and the check compares the two products
    coefficient by coefficient.  Invariance is lambda = 1.  No gcd and no
    point sampling.
    """
    if omega.is_zero:
        raise ValueError("invariance of the zero form")
    A, B = _pullback_sides(sigma, omega)
    f = omega.func
    lam = _ratio(A * f.den, B * f.num)
    return InvarianceResult(invariant=(lam == omega.field.one), lam=lam)


def _ratio(a, b):
    """The constant lam with a = lam b, or None when a is not a constant
    multiple of b (a, b nonzero polynomials)."""
    lam = a.lc() / b.lc()
    return lam if a == b.scale(lam) else None


def weight_reduce(sigma: RatFunc, omega: TupleForm, lam) -> TupleForm:
    """Turn a semi-invariant form into one of positive weight prime to p.

    Re-verifies the certificate (sigma^* omega = lam * omega), flips the
    sign of a negative weight by inverting f, then while p divides the
    weight: if df = 0, replaces f by its p-th root at weight/p; otherwise
    returns the invariant weight-1 form (f'/f) dt.
    """
    lam = sigma.field.elem(lam)
    res = invariance_check(sigma, omega)
    if res.lam is None or res.lam != lam:
        raise NotSemiInvariant("certificate failed re-verification")
    f, nu = omega.func, omega.weight
    if nu < 0:
        f, nu = f.reciprocal(), -nu
    p = sigma.field.p
    if p:
        while nu % p == 0:
            df = f.derivative()
            if df.is_zero:
                f = RatFunc(_poly_pth_root(f.num), _poly_pth_root(f.den))
                nu //= p
            else:
                f, nu = df / f, 1
    out = TupleForm(f, nu)
    if invariance_check(sigma, out).lam is None:
        raise NotSemiInvariant("reduced form is not semi-invariant (internal)")
    return out


# ----------------------------------------------------------------------
# Search for invariant forms
# ----------------------------------------------------------------------

def _pole_cap(mu, weight):
    """Largest pole order an invariant form of this weight can have at a
    point of orbifold weight mu: ord >= -weight (1 - 1/mu)."""
    return weight if mu == MU_INFINITY else weight - -(-weight // mu)


def invariant_search(sigma: RatFunc, weight: int, orbifold=None):
    """Invariant forms of the given positive weight: [] or one form.

    The orbifold (computed when omitted) bounds the poles: an invariant
    omega = f (dt)^weight has ord_A(omega) >= -weight (1 - 1/mu(A)) at every
    point A of P^1, infinity included.  No invariant form is lost: when
    sigma(B) = A with local degree e, ord_B(sigma^* omega) = e ord_A(omega)
    + weight (e - 1), so ord + weight is multiplied by e at each backward
    step; a backward chain from A reaches a point off the divisor of omega,
    where ord + weight = weight, through a ramification product E dividing
    mu(A), so ord_A(omega) + weight = weight / E >= weight / mu(A) (and a
    pole above the weight would spread to infinitely many points).

    An invariant form forces a parabolic orbifold (weight reduction plus
    the genus dichotomy), so the search returns [] unless chi = 0.  At
    chi = 0 the pole caps, summed over the postcritical points, come to
    at most weight (2 - chi) = 2 weight, while the divisor of a weight-w
    form has degree -2w; so the caps must be met exactly.  That happens
    only when every finite mu divides w, that is when nu, the lcm of the
    finite mu (1 when there are none), divides w, and then the only
    candidate is c/h_w with h_w the product over finite postcritical
    Frobenius classes of the minimal polynomial to the power of its cap
    (w - w/mu, or w when mu = inf).  The caps scale with w, so
    h_w = h_nu^(w/nu).  With m = w/nu and omega_nu = (1/h_nu) (dt)^nu,
    sigma^*(omega_nu^m) = (sigma^* omega_nu)^m, so the candidate is
    invariant exactly when sigma^* omega_nu = lambda omega_nu with
    lambda^m = 1.  Nothing is missed when the check at weight nu finds no
    lambda: if omega_nu^m is invariant, the ratio of sigma^* omega_nu to
    omega_nu lies in F_p(t) and has m-th power 1, so it is a constant.
    Hence one invariance_check at weight nu decides every weight.

    Two invariant forms of one weight differ by an invariant function,
    which is constant, so at most one form comes back: 1/h_w (numerator
    monic), rechecked with invariance_check.
    """
    field = sigma.field
    if field.is_rationals or field.k != 1:
        raise ValueError("invariant_search expects a map over a prime field F_p")
    if not isinstance(weight, int) or weight < 1:
        raise BadWeight("weight must be a positive integer")
    p = field.p
    if weight % p == 0:
        raise BadWeight(f"weight {weight} is divisible by p = {p}; reduce the weight first")
    if sigma.degree < 2:
        raise ValueError("search needs degree >= 2")
    if orbifold is None:
        orbifold = orbifold_data(postcritical_graph(sigma))
    if orbifold.chi != 0:
        return []
    nu = math.lcm(*(mu for mu in orbifold.mu.values() if mu != MU_INFINITY))
    if weight % nu:
        return []
    h_nu = Poly.one(field)
    for minpoly, _, mu in orbifold.classes():
        if minpoly is not None:
            h_nu = h_nu * Poly(field, minpoly) ** _pole_cap(mu, nu)
    lam = invariance_check(sigma, _inverse_form(h_nu, nu)).lam
    if lam is None or lam ** (weight // nu) != field.one:
        return []
    form = _inverse_form(h_nu ** (weight // nu), weight)
    if not invariance_check(sigma, form).invariant:
        raise RuntimeError("search produced a non-invariant form (internal)")
    return [form]


def _inverse_form(h, weight):
    """(1/h) (dt)^weight for a monic polynomial h."""
    return TupleForm(RatFunc(Poly.one(h.field), h), weight)


def _solve(sigma, weight, h_int, deg_g):
    """Invariant forms g/h (dt)^weight with h = h_int and deg g <= deg_g,
    where deg_g >= deg h - 2 weight: a linear search over every numerator
    the bounds allow, kept as the tests' oracle for invariant_search (with
    the orbifold's pole caps or wider ones).

    The invariance equation f(sigma) (sigma')^weight = f with f = g/h
    becomes, after clearing denominators, a linear system in the
    coefficients of g, solved exactly with mat_kernel.
    """
    field = sigma.field
    h = Poly(field, h_int)
    P, Q = sigma.num, sigma.den
    W = sigma.wronskian()

    # LHS column i: P^i Q^(deg_g - i) W^weight h ; RHS: t^i Hhat Q^(deg_g + 2 weight - deg_h)
    hhat = _Substitution(sigma).hom(h, h.degree)
    rhs_base = (hhat * Q ** (deg_g + 2 * weight - h.degree)).coeffs
    qt = [W ** weight * h]
    for _ in range(deg_g):
        qt.append(qt[-1] * Q)
    ppow = [Poly.one(field)]
    for _ in range(deg_g):
        ppow.append(ppow[-1] * P)
    cols = [(ppow[i] * qt[deg_g - i]).coeffs for i in range(deg_g + 1)]
    nrows = max(max(len(lhs), len(rhs_base) + i) for i, lhs in enumerate(cols))
    matrix = [[0] * (deg_g + 1) for _ in range(nrows)]
    for i, lhs in enumerate(cols):
        for r, c in enumerate(lhs):
            matrix[r][i] = c
        for r, c in enumerate(rhs_base):
            matrix[r + i][i] -= c

    kernel = mat_kernel(matrix, field)
    if len(kernel) > 1:
        raise RuntimeError("invariant forms of one weight span more than a line (internal)")
    forms = []
    for vec in kernel:
        f = RatFunc(Poly(field, vec), h)
        form = TupleForm(f / RatFunc.from_const(field, f.num.lc()), weight)
        if not invariance_check(sigma, form).invariant:
            raise RuntimeError("search produced a non-invariant form (internal)")
        forms.append(form)
    return forms

