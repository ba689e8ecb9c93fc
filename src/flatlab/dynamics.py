"""Points of P^1, projective evaluation, ramification indices, the critical
locus, and the forward orbit graph of the critical points.

P^1 over a field k is identified with k plus a single point at infinity.
The critical locus is located by factoring the Wronskian numerator
W = P'Q - PQ' and collecting its roots inside one extension F_{p^k}
(k = lcm of the irreducible factor degrees); forward orbits stay inside
that extension because the map has prime-field coefficients.

For the same reason the Frobenius x -> x^p commutes with the map: it maps
orbits to orbits and keeps every ramification index, so mu is constant on
a Frobenius class.  The orbit graph therefore holds one vertex per class,
its point_key-least point packed into one int, and the walk evaluates the
map on residue lists; a point is decoded only where it is printed or its
minimal polynomial is needed.

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
from .exactnum import (
    FFElem,
    _GFMatrix,
    _from_digits,
    _gf_divmod,
    _gf_inv_mod,
    _gf_mul,
    _gf_pow_mod,
    _gf_trim,
    _kron_pack,
    _kron_unpack,
    _slot_bytes,
    _to_digits,
    field_create,
)
from .ratfunc import Poly, RatFunc, _primitive_integer_pair, poly_factor, poly_roots, root_multiplicity


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
    e = root_multiplicity(g.num, 0)
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
    """Forward orbits of the critical points as a weighted functional graph
    with one vertex per Frobenius class.

    sigma has coefficients in F_p, so the Frobenius x -> x^p commutes with
    it: it maps orbits to orbits and keeps every ramification index, and
    hence mu.  A vertex is the point_key-least point of its class, as a
    vertex_key: a packed int over F_{p^k}, the P1Point itself over Q (where
    every class is one point).

    vertices: the classes of the critical points and of all their forward
    images, sorted; edges: vertex -> class of sigma(vertex); weights: the
    ramification index at each critical class, 1 off them (the critical
    data hold every ramified point, by Riemann-Hurwitz); critical: the
    critical classes, sorted; sizes: the class size where it is below the
    extension degree k (infinity and points of proper subfields).  sigma
    and field are the lifted map and its extension field.
    """

    sigma: RatFunc
    field: object
    vertices: tuple
    edges: dict
    weights: dict
    critical: tuple
    sizes: dict

    @property
    def postcritical(self) -> frozenset:
        """The vertices reachable by at least one edge from a critical
        vertex: every vertex lies on a critical orbit, so these are the
        edge targets."""
        return frozenset(self.edges.values())

    def point(self, v) -> P1Point:
        return vertex_point(self.field, v)

    def size(self, v) -> int:
        return self.sizes.get(v, self.field.k)


def vertex_key(field, pt: P1Point):
    """The orbit-graph key of a point.  Over F_{p^k} it is one int: the
    residues c_0, ..., c_{k-1} of the value as base-p digits with c_0
    leading, so that int order is point_key order, and p^k at infinity.
    Over Q it is the P1Point."""
    if field.is_rationals:
        return pt
    if pt.is_infinity:
        return field.order
    return _from_digits(pt.value.coeffs, field.p)


def vertex_point(field, v) -> P1Point:
    """The point an orbit-graph key stands for (the inverse of vertex_key)."""
    if field.is_rationals:
        return v
    if v == field.order:
        return INFINITY
    return P1Point(FFElem(field, tuple(_to_digits(v, field.p, field.k))))


def frobenius_class(field, v):
    """The points of the Frobenius class of vertex v, sorted by point_key."""
    pt = vertex_point(field, v)
    if pt.is_infinity or field.k == 1:
        return [pt]
    out = [pt]
    nxt = pt.value ** field.p
    while nxt != pt.value:
        out.append(P1Point(nxt))
        nxt = nxt ** field.p
    return sorted(out, key=point_key)


def _class_min_poly(field, v):
    """The minimal polynomial over F_p of the finite Frobenius class of
    vertex v, as an int tuple, constant first, monic: the product of x - c
    over the points c of the class."""
    h = Poly.one(field)
    for pt in frobenius_class(field, v):
        h = h * Poly(field, (-pt.value, 1))
    coeffs = [h.coeff(i).coeffs for i in range(h.degree + 1)]
    if any(any(c[1:]) for c in coeffs):
        raise RuntimeError("minimal polynomial not over F_p")  # internal guard
    return tuple(c[0] for c in coeffs)


class _ResidueWalk:
    """sigma on P^1(F_{p^k}) as vertex keys, for the orbit walk.

    No FFElem or P1Point is made per point.  sigma's coefficients lie in
    F_p, so sigma(a) is computed by Kronecker substitution: the residues of
    a fill the slots of one integer, Horner's rule gives N(a(x)) and
    D(a(x)) over Z, and one fixed matrix reduces them mod m and p (the
    inverse of D(a) comes from exactnum._gf_inv_mod).  A coefficient of
    N(a(x)) is at most (d + 1)(p - 1)(k (p - 1))^d, so the slots never
    overflow.  F_p itself is F_p[x]/(x).  canon maps a point to its class:
    the Frobenius is F_p-linear, so one stacked matrix of its powers gives
    every conjugate of a point at once.
    """

    sort_key = None

    def __init__(self, sigma):
        field = sigma.field
        p, k = field.p, field.k
        self.p, self.k, self.inf = p, k, field.order
        self.modulus = modulus = list(field.modulus) if k > 1 else [0, 1]
        self.num = [sigma.num.coeff(i).coeffs[0] for i in range(sigma.num.degree + 1)]
        self.den = [sigma.den.coeff(i).coeffs[0] for i in range(sigma.den.degree + 1)]
        if len(self.num) > len(self.den):
            self.at_inf = self.inf
        elif len(self.num) < len(self.den):
            self.at_inf = 0
        else:
            self.at_inf = self.num[-1] * pow(self.den[-1], -1, p) % p * p ** (k - 1)
        # a coefficient of N(a(x)) over Z is at most
        # (d + 1)(p - 1)(k (p - 1))^d; there are d (k - 1) + 1 of them
        d = max(len(self.num), len(self.den)) - 1
        self.width = d * (k - 1) + 1  # >= 2k - 1, the length of a product
        self.size = _slot_bytes((d + 1) * (p - 1) * (k * (p - 1)) ** d)
        xj = [[1]]  # x^j mod m
        for _ in range(self.width - 1):
            xj.append(_gf_divmod([0] + xj[-1], modulus, p)[1])
        rows = [[r[i] if i < len(r) else 0 for r in xj] for i in range(k)]
        # applied to residue lists and to products of two, entries <= k (p - 1)^2
        self.reduce = _GFMatrix(rows, p, k * (p - 1) ** 2)
        if k > 1:
            # x -> x^p is the matrix whose column j is x^(j p) mod m
            gp = _gf_pow_mod([0, 1], p, modulus, p)
            cols = [[1]]
            for _ in range(k - 1):
                cols.append(_gf_divmod(_gf_mul(cols[-1], gp, p), modulus, p)[1])
            frob = [[c[i] if i < len(c) else 0 for c in cols] for i in range(k)]
            power, rows = frob, []
            for _ in range(k - 1):
                rows += power
                power = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*frob)] for row in power]
            self.conjugates = _GFMatrix(rows, p, p - 1)
        self.subfield = p ** (k - 1)  # the keys of the points of F_p are its multiples

    def _evaluate(self, coeffs, a):
        """The residue list of the polynomial coeffs at the point packed in a."""
        p, reduce = self.p, self.reduce
        slots = _kron_unpack(_horner(coeffs, a), self.size, self.width)
        return reduce(reduce.pack([c % p for c in slots]))

    def step(self, v):
        if v == self.inf:
            return self.at_inf
        p, reduce = self.p, self.reduce
        a = _kron_pack(_to_digits(v, p, self.k), self.size)
        den = _gf_trim(self._evaluate(self.den, a))
        if not den:
            return self.inf
        inv = _gf_inv_mod(den, self.modulus, p)
        return _from_digits(reduce(reduce.pack(self._evaluate(self.num, a)) * reduce.pack(inv)), p)

    def canon(self, v):
        """(the least key in the class of v, the class size)."""
        if v == self.inf or v % self.subfield == 0:
            return v, 1
        p, k, conjugates = self.p, self.k, self.conjugates
        conj = conjugates(conjugates.pack(_to_digits(v, p, k)))
        best = v
        for i in range(k - 1):
            n = _from_digits(conj[i * k:(i + 1) * k], p)
            if n == v:
                return best, i + 1
            if n < best:
                best = n
        return best, k


def _horner(coeffs, a):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


class _RationalWalk:
    """sigma on P^1(Q), for the orbit walk: every class is one point, and a
    step that passes the escape height _escape_bits(sigma) raises
    OrbitBoundExceeded, since no orbit through it closes."""

    sort_key = staticmethod(point_key)

    def __init__(self, sigma):
        self.sigma = sigma
        self.max_bits = _escape_bits(sigma)

    def step(self, v):
        nxt = p1_eval(self.sigma, v)
        if not nxt.is_infinity:
            size = max(abs(nxt.value.numerator), nxt.value.denominator)
            if size.bit_length() > self.max_bits:
                raise OrbitBoundExceeded(
                    f"a critical orbit never closes: it passes the escape height of {self.max_bits} bits"
                )
        return nxt

    @staticmethod
    def canon(v):
        return v, 1


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


def _orbit_graph(sigma: RatFunc, crits, walk, max_steps=None) -> OrbitGraph:
    """The orbit graph of sigma from its complete critical data crits,
    walked one Frobenius class at a time: walk is a _ResidueWalk over
    F_{p^k} or a _RationalWalk over Q.

    A critical orbit that adds more than max_steps vertices raises
    OrbitBoundExceeded.  Orbits in P^1(F_q) always close.
    """
    field = sigma.field
    k = field.k
    weights, sizes, edges = {}, {}, {}
    for c in crits:
        v, size = walk.canon(vertex_key(field, c.point))
        weights[v] = c.e
        if size < k:
            sizes[v] = size
    critical = tuple(sorted(weights, key=walk.sort_key))
    for v in critical:
        steps = 0
        while v not in edges:
            steps += 1
            if max_steps is not None and steps > max_steps:
                raise OrbitBoundExceeded(f"a critical orbit does not close within {max_steps} steps")
            nxt, size = walk.canon(walk.step(v))
            if size < k:
                sizes[nxt] = size
            edges[v] = nxt
            v = nxt
    return OrbitGraph(
        sigma=sigma,
        field=field,
        vertices=tuple(sorted(edges, key=walk.sort_key)),
        edges=edges,
        weights=weights,
        critical=critical,
        sizes=sizes,
    )


def postcritical_graph(sigma: RatFunc) -> OrbitGraph:
    """Critical points plus their forward orbits, one vertex per Frobenius
    class, with weights and marks."""
    ext, crits = critical_locus(sigma)
    lifted = sigma.lift_to(ext)
    return _orbit_graph(lifted, crits, _ResidueWalk(lifted))
