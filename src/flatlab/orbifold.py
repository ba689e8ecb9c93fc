"""Orbifold data of a rational map: the weight function mu, the exact Euler
characteristic, parabolic-signature detection, and the genus of the cyclic
cover attached to a form.

mu(A) is the lcm of the ramification indices of all backward chains into A.
On the finite forward-orbit graph this becomes a scan: any chain acquires
ramification only at critical points, and from its first critical visit on
it coincides with the forward orbit of that critical point; so mu(A) is the
lcm, over critical vertices C reaching A, of the weight products along the
walk C -> A, and is infinite exactly when A lies on a cycle through a
critical vertex (the walk can absorb the ramified loop arbitrarily often).
The brute-force preimage-chain oracle in the test suite guards this
reformulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadWeight, FieldMismatch, WeightDivisibleByP
from .dynamics import OrbitGraph, point_key
from .ratfunc import poly_factor

MU_INFINITY = math.inf

# every signature a chi = 0 orbifold can have, with the flat family it hints at
PARABOLIC_SIGNATURES = {
    (MU_INFINITY, MU_INFINITY): "power-like",
    (2, 2, MU_INFINITY): "chebyshev-like",
    (2, 2, 2, 2): "lattes-like",
    (3, 3, 3): "lattes-like",
    (2, 4, 4): "lattes-like",
    (2, 3, 6): "lattes-like",
}


def mu_lcm(a, b):
    if a == MU_INFINITY or b == MU_INFINITY:
        return MU_INFINITY
    return math.lcm(a, b)


def mu_compute(graph: OrbitGraph) -> dict:
    """mu value for every vertex of the orbit graph (1 off the marked set)."""
    mu = {v: 1 for v in graph.vertices}
    for crit in graph.critical:
        path = [crit.point]
        pos = {crit.point: 0}
        while True:
            nxt = graph.edges[path[-1]]
            if nxt in pos:
                cycle_start = pos[nxt]
                break
            pos[nxt] = len(path)
            path.append(nxt)
        prefix = [1]
        for v in path:
            prefix.append(prefix[-1] * graph.weights[v])
        cycle = set(path[cycle_start:])
        ramified_cycle = any(graph.weights[v] > 1 for v in cycle)
        for i in range(1, len(path)):
            contrib = MU_INFINITY if (path[i] in cycle and ramified_cycle) else prefix[i]
            mu[path[i]] = mu_lcm(mu[path[i]], contrib)
        if cycle_start == 0:
            # the walk first returns to its own start after one full loop
            contrib = MU_INFINITY if ramified_cycle else prefix[-1]
            mu[path[0]] = mu_lcm(mu[path[0]], contrib)
    for v in graph.vertices:
        in_post = v in graph.postcritical
        if in_post != (mu[v] > 1):
            raise RuntimeError("mu does not mark the postcritical set (internal)")
    return mu


@dataclass(frozen=True)
class OrbifoldData:
    """Postcritical points with their mu values and the exact chi."""

    postcritical: tuple  # ((P1Point, mu), ...) sorted by point
    chi: Fraction


def euler_char(mu_map: dict, postcritical) -> Fraction:
    """chi = 2 - sum over the postcritical set of (1 - 1/mu), exactly."""
    chi = Fraction(2)
    for pt in postcritical:
        m = mu_map[pt]
        inv = Fraction(0) if m == MU_INFINITY else Fraction(1, m)
        chi -= 1 - inv
    return chi


def orbifold_data(graph: OrbitGraph, mu_map: dict | None = None) -> OrbifoldData:
    if mu_map is None:
        mu_map = mu_compute(graph)
    post = sorted(graph.postcritical, key=point_key)
    chi = euler_char(mu_map, post)
    return OrbifoldData(postcritical=tuple((pt, mu_map[pt]) for pt in post), chi=chi)


@dataclass(frozen=True)
class SignatureResult:
    signature: tuple
    parabolic: bool


def parabolic_signature(data: OrbifoldData) -> SignatureResult:
    """The multiset of mu values, sorted finite-ascending with inf last,
    and whether the orbifold is parabolic (chi = 0)."""
    sig = tuple(sorted((m for _, m in data.postcritical), key=lambda m: (m == MU_INFINITY, m)))
    parabolic = data.chi == 0
    if parabolic and sig not in PARABOLIC_SIGNATURES:
        raise RuntimeError(f"chi = 0 with impossible signature {sig} (internal)")
    return SignatureResult(signature=sig, parabolic=parabolic)


@dataclass(frozen=True)
class KummerCover:
    cover_degree: int
    genus: int


def kummer_genus(omega) -> KummerCover:
    """Degree and genus of the cyclic cover of P^1 given by adjoining
    f^(1/weight) for a TupleForm omega = f (dt)^weight.

    The divisor of f is read off the factorizations of numerator and
    denominator (conjugate points share one order, so only factor degrees
    matter) plus the order deg den - deg num at infinity.  Constants are
    treated as having roots of every order, so the cover degree is
    weight / gcd(weight, gcd of all orders); ramification over a point of
    order n is n / gcd(n, order), and the genus follows from
    Riemann-Hurwitz over P^1.
    """
    nu = omega.weight
    if nu < 1:
        raise BadWeight("kummer_genus needs a positive weight")
    field = omega.field
    if field.is_rationals:
        raise FieldMismatch("kummer_genus works over finite fields")
    if nu % field.p == 0:
        raise WeightDivisibleByP(f"weight {nu} divisible by p = {field.p}")
    if omega.is_zero:
        raise ValueError("kummer_genus of the zero form")
    f = omega.func
    orders = []  # (number of points, common order)
    for g, m in poly_factor(f.num):
        orders.append((g.degree, m))
    for g, m in poly_factor(f.den):
        orders.append((g.degree, -m))
    ord_inf = f.den.degree - f.num.degree
    if ord_inf:
        orders.append((1, ord_inf))
    g0 = 0
    for _, o in orders:
        g0 = math.gcd(g0, o)
    estar = math.gcd(nu, g0)
    n = nu // estar
    ram = 0
    for count, o in orders:
        ram += count * (n - math.gcd(n, o // estar))
    two_g_minus_2 = -2 * n + ram
    if two_g_minus_2 % 2:
        raise RuntimeError("odd Riemann-Hurwitz total (internal)")
    genus = (two_g_minus_2 + 2) // 2
    if genus < 0:
        raise RuntimeError("negative genus (internal)")
    return KummerCover(cover_degree=n, genus=genus)
