"""Points of P^1, projective evaluation, ramification indices, the critical
locus, and the forward orbit graph of the critical points.

A point of P^1 over a field k is an element of k, or None for the point at
infinity; test for infinity with `is None`, since the point 0 is falsy.
The critical locus is the set of roots of the Wronskian W = P'Q - PQ',
taken first in the base field.  Over F_p the irreducible factors of W that
those roots leave have their roots in one extension F_{p^k} (k = lcm of
their degrees): one root of each factor g is found by Cantor-Zassenhaus in
F_p[x, y]/(m, g) on int residue lists, and the others are its Frobenius
conjugates.  Forward orbits stay inside that extension because the map has
prime-field coefficients.  Over Q the critical points must all be rational,
and the orbits are walked with a height bound.

For the same reason the Frobenius x -> x^p commutes with the map: it maps
orbits to orbits and keeps every ramification index, so mu is constant on
a Frobenius class.  The orbit graph therefore holds one vertex per class,
its point_key-least point packed into one int, and the walk evaluates the
map on residue lists.  Only this module decodes a vertex into points:
everywhere else a class is named by its minimal polynomial over F_p
(class_min_poly), which does not depend on how F_{p^k} is modelled.  That
name is one kernel over F_p, the first linear relation among the powers
of the vertex's point, so it lies over F_p by construction.

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
import random
from dataclasses import dataclass

from .errors import (BadCharacteristic, Inseparable, IrrationalCriticalPoints, OrbitBoundExceeded,
                     WildRamification)
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
    _power,
    _slot_bytes,
    _to_digits,
    field_create,
    mat_kernel,
)
from .ratfunc import (Poly, RatFunc, _linear_roots, _primitive_integer_pair, poly_factor, poly_gcd, poly_roots,
                      root_multiplicity)


def point_key(pt):
    """Deterministic sort key; infinity (None) sorts last."""
    if pt is None:
        return (1, ())
    if isinstance(pt, FFElem):
        return (0, pt.coeffs)
    return (0, (pt,))


@dataclass(frozen=True)
class CriticalDatum:
    point: object  # a field element, or None at infinity
    e: int


def p1_eval(sigma: RatFunc, pt):
    """Evaluate a non-constant map at a point of P^1 (total on P^1)."""
    if pt is None:
        dn, dd = sigma.num.degree, sigma.den.degree
        if dn > dd:
            return None
        if dn < dd:
            return sigma.field.zero
        return sigma.num.lc() / sigma.den.lc()
    dv = sigma.den.eval(pt)
    if not dv:
        return None
    return sigma.num.eval(pt) / dv


def ram_index(sigma: RatFunc, pt) -> int:
    """Ramification index e of sigma at pt: the valuation at pt of the
    pulled-back local parameter at sigma(pt).

    Computed by explicit Moebius moves (t -> 1/t for infinity, otherwise a
    translation, plus target inversion/translation), never by degree
    formulas.  Raises Inseparable if the derivative vanishes identically
    and WildRamification if the characteristic divides e.
    """
    if sigma.is_constant:
        raise ValueError("ramification index of a constant map")
    if sigma.wronskian().is_zero:
        raise Inseparable("the map has identically zero derivative")
    field = sigma.field
    target = p1_eval(sigma, pt)
    t = RatFunc.gen(field)
    if pt is None:
        work = sigma.compose(t.reciprocal())
    else:
        work = sigma.compose(RatFunc(Poly(field, (pt, 1))))
    if target is None:
        g = work.reciprocal()
    else:
        g = work - target
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
    data = [CriticalDatum(a, m + 1) for a, m in roots]
    data.sort(key=lambda c: point_key(c.point))
    if wron.degree < 2 * d - 2:
        data.append(CriticalDatum(None, 2 * d - 1 - wron.degree))
    return data


def critical_locus(sigma: RatFunc):
    """All critical points of sigma over Q, or over F_p inside one extension.

    Returns (field, [CriticalDatum...]) sorted by point.  The base-field
    roots of the Wronskian W come first (over F_p, the linear factors of
    the one poly_factor(W)); when they account for deg W, field is Q or
    F_p.  Otherwise Q raises IrrationalCriticalPoints, and each
    factor g^m of W irreducible over F_p of degree e > 1 has its e roots in
    F_{p^k}, k the lcm of those degrees, each a root of W of multiplicity
    m: _extension_roots finds one by Cantor-Zassenhaus on int residues and
    takes its Frobenius conjugates for the rest.  _critical_data reads
    e = m + 1 at a root, e(inf) = 2d - 1 - deg W at infinity; ram_index,
    kept public, is the tests' oracle for them.
    """
    field = sigma.field
    if field.k != 1:
        raise ValueError("critical_locus expects a map over Q or a prime field F_p")
    d = sigma.degree
    if d < 2:
        raise ValueError("critical_locus needs degree >= 2")
    if 0 < field.p <= d:
        raise BadCharacteristic(f"p = {field.p} <= deg sigma = {d}")
    wron = sigma.wronskian()
    if wron.is_zero:
        raise Inseparable("identically zero derivative")  # unreachable for p > d
    if field.is_rationals:
        roots = poly_roots(wron)
        if sum(m for _, m in roots) < wron.degree:
            raise IrrationalCriticalPoints("critical points are not all rational")
        return field, _critical_data(d, wron, roots)
    factors = poly_factor(wron)
    roots = _linear_roots(factors)
    rest = [(g, m) for g, m in factors if g.degree > 1]
    if not rest:
        return field, _critical_data(d, wron, roots)
    ext = field_create(field.p, math.lcm(*(g.degree for g, _ in rest)))
    roots = [(ext.lift(a), m) for a, m in roots]
    for g, m in rest:
        roots += [(a, m) for a in _extension_roots(g, ext)]
    return ext, _critical_data(d, wron, roots)


def _extension_roots(g, ext):
    """The e roots in ext = F_{p^k}, p odd, of a monic irreducible g over
    F_p of degree e dividing k.

    One root is found by Cantor and Zassenhaus (1981) in
    A = F_p[x, y]/(m(x), g(y)) = F_{p^k}[y]/(g), m the modulus of ext: for a
    random r in A, s = r^((p^k - 1)/2) is 0 or +-1 at each root of g, so
    h <- gcd(h, s - 1), from h = g, narrows h until it is linear.  The
    other roots are its Frobenius conjugates a^(p^i).  An element of A is a
    residue list of length k e, block j holding the x-residues of y^j.  A
    product is one 2-D Kronecker product, x-slots 2k - 1 wide in each
    y-block, reduced mod g by the columns y^j mod g and then mod m, block
    by block, through one _GFMatrix.  Its slots hold e k (p - 1)^2 before
    the reduction mod g and (2e - 1)(p - 1) times that after it.
    """
    p, k, e = ext.p, ext.k, g.degree
    by_g = _power_columns([0, 1], 2 * e - 1, list(g.coeffs), p)
    reduce = _reducer(list(ext.modulus), p, 2 * k - 1, (2 * e - 1) * e * k * (p - 1) ** 3)
    shift = 8 * reduce.size * (2 * k - 1)
    mask = (1 << shift) - 1
    pad = [0] * (k - 1)

    def pack(a):
        spread = []
        for j in range(0, k * e, k):
            spread += a[j:j + k] + pad
        return reduce.pack(spread)

    def mul(a, b):
        x = pack(a)
        x *= x if a is b else pack(b)
        blocks = [(x >> j * shift) & mask for j in range(2 * e - 1)]
        out = []
        for row in by_g:
            out += reduce(sum(c * block for c, block in zip(row, blocks) if c))
        return out

    rng = random.Random(0)
    one = [1] + [0] * (k * e - 1)
    h = g.lift_to(ext)
    while h.degree > 1:
        s = _power([rng.randrange(p) for _ in range(k * e)], (ext.order - 1) // 2, one, mul)
        s[0] = (s[0] - 1) % p
        t = poly_gcd(h, Poly(ext, [FFElem(ext, tuple(s[j:j + k])) for j in range(0, k * e, k)]))
        if t.degree > 0:
            h = t
    roots = [-h.coeff(0)]
    for _ in range(e - 1):
        roots.append(roots[-1] ** p)
    return roots


@dataclass(frozen=True)
class OrbitGraph:
    """Forward orbits of the critical points as a weighted functional graph
    with one vertex per Frobenius class.

    sigma has coefficients in F_p, so the Frobenius x -> x^p commutes with
    it: it maps orbits to orbits and keeps every ramification index, and
    hence mu.  A vertex is the point_key-least point of its class, as a
    vertex_key: a packed int over F_{p^k}, the point itself over Q (where
    every class is one point).

    vertices: the classes of the critical points and of all their forward
    images, sorted; edges: vertex -> class of sigma(vertex); weights: the
    ramification index at each critical class, 1 off them (the critical
    data hold every ramified point, by Riemann-Hurwitz); critical: the
    critical classes, sorted; sizes: the class size where it is below the
    extension degree k (infinity and points of proper subfields).  sigma
    is the map over Q or F_p, and field holds its critical points.
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

    def point(self, v):
        return vertex_point(self.field, v)

    def size(self, v) -> int:
        return self.sizes.get(v, self.field.k)


def vertex_key(field, pt):
    """The orbit-graph key of a point.  Over F_{p^k} it is one int: the
    residues c_0, ..., c_{k-1} of the element as base-p digits with c_0
    leading, so that int order is point_key order, and p^k at infinity.
    Over Q it is the point itself, a Fraction or None."""
    if field.is_rationals:
        return pt
    if pt is None:
        return field.order
    return _from_digits(pt.coeffs, field.p)


def vertex_point(field, v):
    """The point an orbit-graph key stands for (the inverse of vertex_key)."""
    if field.is_rationals:
        return v
    if v == field.order:
        return None
    return FFElem(field, tuple(_to_digits(v, field.p, field.k)))


def class_min_poly(field, v):
    """The name of vertex v's Frobenius class over F_p: the minimal
    polynomial of its point a as an int tuple, constant first, monic, or
    None at infinity.  Its coefficients are the first F_p-linear relation
    among 1, a, ..., a^k: mat_kernel's first basis vector belongs to the
    first free column, the degree of a.  It does not depend on the modulus
    of F_{p^k}."""
    if v == field.order:
        return None
    p, k = field.p, field.k
    modulus = list(field.modulus) if k > 1 else [0, 1]
    relation = mat_kernel(_power_columns(_to_digits(v, p, k), k + 1, modulus, p), field_create(p))[0]
    return tuple(_gf_trim([c.coeffs[0] for c in relation]))


class _ResidueWalk:
    """sigma over F_p on P^1(F_{p^k}) as vertex keys, for the orbit walk.

    No FFElem is made per point.  sigma's coefficients lie in
    F_p, so sigma(a) is computed by Kronecker substitution: the residues of
    a fill the slots of one integer, Horner's rule gives N(a(x)) and
    D(a(x)) over Z, and one fixed matrix reduces them mod m and p (the
    inverse of D(a) comes from exactnum._gf_inv_mod).  A coefficient of
    N(a(x)) is at most (d + 1)(p - 1)(k (p - 1))^d, so the slots never
    overflow.  F_p itself is F_p[x]/(x).  sigma(infinity) is p1_eval's,
    lifted into F_{p^k}.  canon maps a point to its class:
    the Frobenius is F_p-linear, so one stacked matrix of its powers gives
    every conjugate of a point at once.
    """

    sort_key = None

    def __init__(self, sigma, field):
        p, k = field.p, field.k
        self.p, self.k, self.inf = p, k, field.order
        self.modulus = modulus = list(field.modulus) if k > 1 else [0, 1]
        self.num, self.den = list(sigma.num.coeffs), list(sigma.den.coeffs)
        at_inf = p1_eval(sigma, None)
        self.at_inf = self.inf if at_inf is None else vertex_key(field, field.lift(at_inf))
        # a coefficient of N(a(x)) over Z is at most
        # (d + 1)(p - 1)(k (p - 1))^d; there are d (k - 1) + 1 of them
        d = max(len(self.num), len(self.den)) - 1
        self.width = d * (k - 1) + 1  # >= 2k - 1, the length of a product
        self.size = _slot_bytes((d + 1) * (p - 1) * (k * (p - 1)) ** d)
        # applied to residue lists and to products of two, entries <= k (p - 1)^2
        self.reduce = _reducer(modulus, p, self.width, k * (p - 1) ** 2)
        if k > 1:
            # block i = 1..k-1 is (x -> x^p)^i: column j is g^j mod m, g = x^(p^i)
            rows, g = [], [0, 1]
            for _ in range(k - 1):
                g = _gf_pow_mod(g, p, modulus, p)
                rows += _power_columns(g, k, modulus, p)
            self.conjugates = _GFMatrix(rows, p, p - 1)
        self.subfield = p ** (k - 1)  # the keys of the points of F_p are its multiples

    def _evaluate(self, coeffs, a):
        """The residue list of the polynomial coeffs at the point packed in a."""
        p, reduce = self.p, self.reduce
        slots = _kron_unpack(_from_digits(reversed(coeffs), a), self.size, self.width)
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


def _power_columns(g, n, modulus, p):
    """The deg(modulus) x n matrix over F_p whose column j is g^j mod modulus."""
    cols = [[1]]
    for _ in range(n - 1):
        cols.append(_gf_divmod(_gf_mul(cols[-1], g, p), modulus, p)[1])
    return [[c[i] if i < len(c) else 0 for c in cols] for i in range(len(modulus) - 1)]


def _reducer(modulus, p, width, bound):
    """The _GFMatrix that reduces a residue list of up to width entries,
    each at most bound, mod modulus: its columns are x^j mod modulus."""
    return _GFMatrix(_power_columns([0, 1], width, modulus, p), p, bound)


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
        if nxt is not None:
            size = max(abs(nxt.numerator), nxt.denominator)
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


def _orbit_graph(sigma: RatFunc, field, crits, walk, max_steps=None) -> OrbitGraph:
    """The orbit graph of sigma from its complete critical data crits over
    field, walked one Frobenius class at a time: walk is a _ResidueWalk
    over F_{p^k} or a _RationalWalk over Q.

    A critical orbit that adds more than max_steps vertices raises
    OrbitBoundExceeded.  Orbits in P^1(F_q) always close.
    """
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
    class, with weights and marks.  Over Q a critical orbit that adds more
    than 64 points, or passes the escape height, raises OrbitBoundExceeded."""
    field, crits = critical_locus(sigma)
    if field.is_rationals:
        return _orbit_graph(sigma, field, crits, _RationalWalk(sigma), max_steps=64)
    return _orbit_graph(sigma, field, crits, _ResidueWalk(sigma, field))
