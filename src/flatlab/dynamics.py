"""Points of P^1, projective evaluation, ramification indices, the critical
locus, and the forward orbit graph of the critical points.

P^1 over a field k is identified with k plus a single point at infinity.
The critical locus is located by factoring the Wronskian numerator
W = P'Q - PQ' and collecting its roots inside one extension F_{p^k}
(k = lcm of the irreducible factor degrees); forward orbits stay inside
that extension because the map has prime-field coefficients.

Every ramification index in the pipeline is read off the Wronskian by one
rule, _critical_data: e(A) = 1 + ord_A(W) at a finite point and
e(inf) = 2 deg - 1 - deg W, exact for tame maps (char 0 or p > deg).  The
critical data therefore hold every ramified point, so orbit-graph weights
are e at a critical point and 1 elsewhere.  ram_index computes e
independently, by Moebius moves; it stays public and serves as the test
oracle for the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadCharacteristic, Inseparable, OrbitBoundExceeded, WildRamification
from .exactnum import FFElem, field_create
from .ratfunc import Poly, RatFunc, _primitive_integer_pair, poly_factor, poly_roots, valuation_at_zero


class P1Point:
    """A field element or the point at infinity (value None)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    @property
    def is_infinity(self):
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, P1Point):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("P1", self.value))

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def __repr__(self):
        return f"P1Point({self})"


INFINITY = P1Point(None)


def point_key(pt: P1Point):
    """Deterministic sort key; infinity sorts last."""
    if pt.is_infinity:
        return (1, ())
    v = pt.value
    if isinstance(v, FFElem):
        return (0, v.coeffs)
    return (0, (v,))


@dataclass(frozen=True)
class CriticalDatum:
    point: P1Point
    e: int


def p1_eval(sigma: RatFunc, pt: P1Point) -> P1Point:
    """Evaluate a non-constant map at a point of P^1 (total on P^1)."""
    if pt.is_infinity:
        dn, dd = sigma.num.degree, sigma.den.degree
        if dn > dd:
            return INFINITY
        if dn < dd:
            return P1Point(sigma.field.zero)
        return P1Point(sigma.num.lc() / sigma.den.lc())
    nv = sigma.num.eval(pt.value)
    dv = sigma.den.eval(pt.value)
    if not dv:
        return INFINITY
    return P1Point(nv / dv)


def ram_index(sigma: RatFunc, pt: P1Point) -> int:
    """Ramification index e of sigma at pt: the valuation at pt of the
    pulled-back local parameter at sigma(pt).

    Computed by explicit Moebius moves (t -> 1/t for infinity, otherwise a
    translation, plus target inversion/translation), never by degree
    formulas.  Raises Inseparable if the derivative vanishes identically
    and WildRamification if the characteristic divides e.
    """
    if sigma.is_constant:
        raise ValueError("ramification index of a constant map")
    if sigma.derivative().is_zero:
        raise Inseparable("the map has identically zero derivative")
    field = sigma.field
    target = p1_eval(sigma, pt)
    t = RatFunc.gen(field)
    if pt.is_infinity:
        work = sigma.compose(t.reciprocal())
    elif pt.value:
        work = sigma.compose(RatFunc(Poly(field, (pt.value, 1))))
    else:
        work = sigma
    if target.is_infinity:
        g = work.reciprocal()
    else:
        g = work - target.value
    e = valuation_at_zero(g.num)
    if e < 1:
        raise RuntimeError("moved point is not a zero")  # internal guard
    p = field.p
    if p and e % p == 0:
        raise WildRamification(f"e = {e} divisible by the characteristic {p}")
    return e


def _critical_data(d, wron, roots):
    """Critical data of a degree-d map sigma = P/Q from its Wronskian.

    wron is W = P'Q - PQ' and roots lists (A, m) for each finite root A of
    W with its multiplicity m.  The rule is e(A) = 1 + ord_A(W) at a finite
    root and e(inf) = 2d - 1 - deg W, a datum only when deg W < 2d - 2.  It
    is exact for tame maps (char 0 or p > d, so p never divides e):
    - at a finite A with sigma(A) finite, W = Q^2 sigma' and
      ord_A sigma' = e - 1;
    - at a pole A, W = -P^2 (Q/P)' and ord_A (Q/P)' = e - 1;
    - at infinity, Riemann-Hurwitz gives sum(e - 1) = 2d - 2 over P^1, and
      deg W is the finite part of that sum.
    So the Riemann-Hurwitz total holds by construction; the tests check
    each e against ram_index instead.  Returns [CriticalDatum...] sorted by
    point.
    """
    data = [CriticalDatum(P1Point(a), m + 1) for a, m in roots]
    data.sort(key=lambda c: point_key(c.point))
    if wron.degree < 2 * d - 2:
        data.append(CriticalDatum(INFINITY, 2 * d - 1 - wron.degree))
    return data


def critical_locus(sigma: RatFunc):
    """All critical points of sigma over F_p inside one extension.

    Returns (extension field, [CriticalDatum...]) sorted by point.  Each root
    of an irreducible factor g^m of the Wronskian W is a root of W of
    multiplicity m, and _critical_data reads e = m + 1 there and
    e(inf) = 2 deg - 1 - deg W.  ram_index, kept public, is the tests'
    independent oracle for these indices.
    """
    field = sigma.field
    if field.is_rationals or field.k != 1:
        raise ValueError("critical_locus expects a map over a prime field F_p")
    d = sigma.degree
    if d < 2:
        raise ValueError("critical_locus needs degree >= 2")
    if field.p <= d:
        raise BadCharacteristic(f"p = {field.p} <= deg sigma = {d}")
    n, q = sigma.num, sigma.den
    wron = n.derivative() * q - n * q.derivative()
    if wron.is_zero:
        raise Inseparable("identically zero derivative")  # unreachable for p > d
    factors = poly_factor(wron)
    k = 1
    for g, _ in factors:
        k = math.lcm(k, g.degree)
    ext = field_create(field.p, k) if k > 1 else field
    roots = [(root, m) for g, m in factors for root, _ in poly_roots(g.lift_to(ext))]
    return ext, _critical_data(d, wron, roots)


@dataclass(frozen=True)
class OrbitGraph:
    """Forward orbits of the critical points as a weighted functional graph.

    vertices: critical points and all their forward images, sorted;
    edges: vertex -> sigma(vertex); weights: vertex -> ramification index,
    which is e at a critical point and 1 elsewhere (the critical data hold
    every ramified point, by Riemann-Hurwitz); postcritical: vertices
    reachable by at least one edge from a critical vertex.  sigma and field
    are the lifted map and its extension field.
    """

    sigma: RatFunc
    field: object
    vertices: tuple
    edges: dict
    weights: dict
    critical: tuple
    postcritical: frozenset


def _escape_bits(sigma):
    """Bit length past which a point of P^1(Q) is not preperiodic under sigma.

    For sigma = F/G, coprime integer forms of degree d with coefficients at
    most H, the Sylvester cofactors and Hadamard's bound give
    h(sigma(P)) >= d h(P) - log c with c = 2d (d+1)^d H^(2d-1).  So past
    h(P) = log c / (d - 1) the height grows strictly along the orbit of P.
    """
    num, den = _primitive_integer_pair(sigma)
    d = sigma.degree
    c = 2 * d * (d + 1) ** d * max(map(abs, num + den)) ** (2 * d - 1)
    return -(-c.bit_length() // (d - 1)) + 1


def _orbit_graph(sigma: RatFunc, crits, max_steps=None, max_bits=None) -> OrbitGraph:
    """The orbit graph of sigma from its complete critical data crits.

    Over Q, a critical orbit that adds more than max_steps vertices, or
    passes the escape height of max_bits bits (numerator or denominator),
    raises OrbitBoundExceeded.  Orbits in P^1(F_q) always close.
    """
    edges = {}
    for c in crits:
        v = c.point
        steps = 0
        while v not in edges:
            steps += 1
            if max_steps is not None and steps > max_steps:
                raise OrbitBoundExceeded(f"a critical orbit does not close within {max_steps} steps")
            nxt = p1_eval(sigma, v)
            if max_bits is not None and not nxt.is_infinity:
                size = max(abs(nxt.value.numerator), nxt.value.denominator)
                if size.bit_length() > max_bits:
                    raise OrbitBoundExceeded(
                        f"a critical orbit never closes: it passes the escape height of {max_bits} bits"
                    )
            edges[v] = nxt
            v = nxt
    e_at = {c.point: c.e for c in crits}
    postcritical = set()
    for c in crits:
        v = edges[c.point]
        while v not in postcritical:
            postcritical.add(v)
            v = edges[v]
    return OrbitGraph(
        sigma=sigma,
        field=sigma.field,
        vertices=tuple(sorted(edges, key=point_key)),
        edges=edges,
        weights={v: e_at.get(v, 1) for v in edges},
        critical=tuple(crits),
        postcritical=frozenset(postcritical),
    )


def postcritical_graph(sigma: RatFunc) -> OrbitGraph:
    """Critical points plus their forward orbits, weights, and marks."""
    ext, crits = critical_locus(sigma)
    return _orbit_graph(sigma.lift_to(ext), crits)
