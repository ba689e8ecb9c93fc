"""Tuple differential forms f(t) (dt)^nu on P^1: pullback, local orders,
invariance and semi-invariance certification, weight reduction, and the
linear-algebra search for invariant forms mod p.

A form is invariant for sigma when f(sigma(t)) (sigma'(t))^nu = f(t),
i.e. the pullback fixes it; semi-invariant when the pullback scales it by
a nonzero constant lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadWeight, FieldMismatch, Inseparable, NotSemiInvariant
from .exactnum import _gf_add, _gf_mul, _gf_sub, _gf_trim, mat_kernel
from .dynamics import INFINITY, P1Point, postcritical_graph
from .orbifold import MU_INFINITY, orbifold_data
from .ratfunc import Poly, RatFunc, _poly_pth_root, root_multiplicity


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


def form_pullback(sigma: RatFunc, omega: TupleForm) -> TupleForm:
    """sigma^* omega = f(sigma(t)) (sigma'(t))^weight (dt)^weight."""
    if sigma.field != omega.field:
        raise FieldMismatch(f"{sigma.field} vs {omega.field}")
    if sigma.is_constant:
        raise ValueError("pullback along a constant map")
    der = sigma.derivative()
    if der.is_zero:
        raise Inseparable("pullback along an inseparable map")
    return TupleForm(omega.func.compose(sigma) * der ** omega.weight, omega.weight)


def form_ord(omega: TupleForm, pt: P1Point) -> int:
    """Order of vanishing of omega at a point of P^1.

    At finite A this is the multiplicity of A in the numerator minus the
    multiplicity in the denominator of f; at infinity the coordinate change
    s = 1/t contributes -2*weight on top of the order of f.
    """
    f = omega.func
    if f.is_zero:
        raise ValueError("order of the zero form")
    if pt.is_infinity:
        return (f.den.degree - f.num.degree) - 2 * omega.weight
    a = pt.value
    return root_multiplicity(f.num, a) - root_multiplicity(f.den, a)


@dataclass(frozen=True)
class InvarianceResult:
    """Outcome of an invariance check; lam is None when not semi-invariant."""

    invariant: bool
    lam: object

    @property
    def semi_invariant(self):
        return self.lam is not None


def invariance_check(sigma: RatFunc, omega: TupleForm) -> InvarianceResult:
    """Decide sigma^* omega = lambda * omega by exact division.

    The quotient (sigma^* omega)/omega is computed as a rational function;
    semi-invariance holds exactly when it is a nonzero constant, and
    invariance when that constant is 1.  No point sampling.
    """
    if omega.is_zero:
        raise ValueError("invariance of the zero form")
    pulled = form_pullback(sigma, omega)
    quot = pulled.func / omega.func
    if quot.is_constant:
        lam = quot.constant_value()
        return InvarianceResult(invariant=(lam == omega.field.one), lam=lam)
    return InvarianceResult(invariant=False, lam=None)


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
# Linear search for invariant forms
# ----------------------------------------------------------------------

def _pole_cap(mu, weight):
    """Largest pole order an invariant form of this weight can have at a
    point of orbifold weight mu: ord >= -weight (1 - 1/mu)."""
    return weight if mu == MU_INFINITY else weight - -(-weight // mu)


def _pole_orbits(orbifold, p):
    """Finite postcritical points grouped into Frobenius orbits.

    Returns [(minimal polynomial over F_p as int tuple, [mu of each point])],
    sorted by polynomial; the postcritical set of a map with prime-field
    coefficients is Frobenius-stable, so orbits never leave it.
    """
    mu_of = dict(orbifold.postcritical)
    seen = set()
    orbits = []
    for pt, _ in orbifold.postcritical:
        if pt.is_infinity or pt in seen:
            continue
        orbit = [pt]
        seen.add(pt)
        nxt = P1Point(pt.value ** p)
        while nxt != pt:
            if nxt not in mu_of:
                raise RuntimeError("postcritical set is not Frobenius-stable")
            orbit.append(nxt)
            seen.add(nxt)
            nxt = P1Point(nxt.value ** p)
        orbits.append((pt.value.min_poly(), [mu_of[q] for q in orbit]))
    orbits.sort(key=lambda item: (len(item[0]), item[0]))
    return orbits


def invariant_search(sigma: RatFunc, weight: int, orbifold=None):
    """Invariant forms of the given positive weight: [] or one form.

    The bounds come from the orbifold (computed when omitted): an invariant
    omega = f (dt)^weight has ord_A(omega) >= -weight (1 - 1/mu(A)) at every
    point A of P^1, infinity included.  No invariant form is lost: when
    sigma(B) = A with local degree e, ord_B(sigma^* omega) = e ord_A(omega)
    + weight (e - 1), so ord + weight is multiplied by e at each backward
    step; a backward chain from A reaches a point off the divisor of omega,
    where ord + weight = weight, through a ramification product E dividing
    mu(A), so ord_A(omega) + weight = weight / E >= weight / mu(A) (and a
    pole above the weight would spread to infinitely many points).  Hence
    f = g/h with h the product over finite postcritical Frobenius orbits of
    the minimal polynomial to the power weight - ceil(weight/mu) (weight
    when mu = inf), and deg g <= deg h - 2 weight + cap(inf), the same cap
    at infinity (0 when infinity is not postcritical).

    Returns [] when that numerator bound is negative.  Two invariant forms
    of one weight differ by an invariant function, which is constant, so
    at most one form comes back: canonicalized (numerator monic) and
    rechecked with invariance_check.
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
    h_int = [1]
    for minpoly, mus in _pole_orbits(orbifold, p):
        for _ in range(min(_pole_cap(m, weight) for m in mus)):
            h_int = _gf_mul(h_int, list(minpoly), p)
    cap_inf = _pole_cap(dict(orbifold.postcritical).get(INFINITY, 1), weight)
    deg_g = len(h_int) - 1 - 2 * weight + cap_inf
    if deg_g < 0:
        return []
    return _solve(sigma, weight, h_int, deg_g)


def _solve(sigma, weight, h_int, deg_g):
    """Invariant forms g/h (dt)^weight with h = h_int and deg g <= deg_g,
    where deg_g >= deg h - 2 weight.

    The invariance equation f(sigma) (sigma')^weight = f with f = g/h
    becomes, after clearing denominators, a linear system in the
    coefficients of g, solved exactly with mat_kernel.
    """
    field = sigma.field
    p = field.p
    deg_h = len(h_int) - 1
    P = [c.coeffs[0] for c in sigma.num.coeffs]
    Q = [c.coeffs[0] for c in sigma.den.coeffs]
    W = _gf_sub(_gf_mul(_gf_deriv(P, p), Q, p), _gf_mul(P, _gf_deriv(Q, p), p), p)

    # LHS column i: P^i Q^(deg_g - i) W^weight h ; RHS: t^i Hhat Q^(deg_g + 2 weight - deg_h)
    hhat = _hom_eval(h_int, P, Q, deg_h, p)
    rhs_base = _gf_mul(hhat, _gf_pow_int(Q, deg_g + 2 * weight - deg_h, p), p)
    t_base = _gf_mul(_gf_pow_int(W, weight, p), h_int, p)
    qt = [t_base]
    for _ in range(deg_g):
        qt.append(_gf_mul(qt[-1], Q, p))
    ppow = [[1]]
    for _ in range(deg_g):
        ppow.append(_gf_mul(ppow[-1], P, p))
    cols = []
    nrows = 0
    for i in range(deg_g + 1):
        lhs = _gf_mul(ppow[i], qt[deg_g - i], p)
        cols.append(lhs)
        nrows = max(nrows, len(lhs), len(rhs_base) + i)
    matrix = [[0] * (deg_g + 1) for _ in range(nrows)]
    for i, lhs in enumerate(cols):
        for r, c in enumerate(lhs):
            matrix[r][i] = c
        for r, c in enumerate(rhs_base):
            matrix[r + i][i] = (matrix[r + i][i] - c) % p

    kernel = mat_kernel(matrix, field)
    if len(kernel) > 1:
        raise RuntimeError("invariant forms of one weight span more than a line (internal)")
    forms = []
    for vec in kernel:
        f = RatFunc(Poly(field, vec), Poly(field, h_int))
        form = TupleForm(f / RatFunc.from_const(field, f.num.lc()), weight)
        if not invariance_check(sigma, form).invariant:
            raise RuntimeError("search produced a non-invariant form (internal)")
        forms.append(form)
    return forms


def _gf_deriv(a, p):
    return _gf_trim([(a[i] * i) % p for i in range(1, len(a))])


def _gf_pow_int(a, e, p):
    result = [1]
    base = a
    while e:
        if e & 1:
            result = _gf_mul(result, base, p)
        base = _gf_mul(base, base, p)
        e >>= 1
    return result


def _hom_eval(f, P, Q, deg, p):
    """sum f[i] P^i Q^(deg - i) by Horner in P with Q powers."""
    acc = []
    qpow = [[1]]
    for _ in range(deg):
        qpow.append(_gf_mul(qpow[-1], Q, p))
    for i in range(deg, -1, -1):
        acc = _gf_mul(acc, P, p)
        if i < len(f) and f[i]:
            acc = _gf_add(acc, [(c * f[i]) % p for c in qpow[deg - i]], p)
    return acc
