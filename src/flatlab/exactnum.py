"""Exact number kernels: arbitrary-precision rationals, prime fields F_p,
extensions F_{p^k}, dense F_p polynomials as int residue lists (products by
Kronecker substitution), and exact null spaces of dense matrices.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator).  Finite-field elements are immutable, carry a reference to
their field, and refuse arithmetic with elements of a different field: the
only embedding offered is the explicit ``Field.lift`` of a prime-field
element into an extension.  Extension fields store a monic irreducible
modulus found by a deterministic search, so the same (p, k) always yields
the same field.
"""

from __future__ import annotations

import functools
import sys
from array import array
from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, NotPrime

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Dense polynomials over F_p as plain int lists, constant term first,
# no trailing zeros ([] is the zero polynomial), every coefficient in
# range(p).  This is the one F_p arithmetic path: it backs the modulus
# search, FFElem arithmetic in extensions, and every prime-field Poly, whose
# coefficients are such a list (sums, products, division and gcd; the
# homogenized substitution behind RatFunc.compose, form pullback and the
# invariance check runs on these products).
# ----------------------------------------------------------------------

def _gf_trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _gf_add(a, b, p):
    # entries are in range(p), so only the overlap needs reducing
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _gf_trim(out)


def _gf_sub(a, b, p):
    return _gf_add(a, [-c % p for c in b], p)


# Kronecker substitution needs one operand of at least this length to beat
# the schoolbook loop, whose cost grows with len(a) * len(b) while packing
# costs a few microseconds plus a little per coefficient (crossover between
# 4 and 6 for equal lengths; 2-CPU x86-64 VM, CPython 3.11).
_KRONECKER_MIN_LEN = 6
# Over Z both operands need this length: slots hold twice the coefficients'
# bits, and for coefficients of 300 to 20000 bits the two ways cost about
# the same at 24 x 24 (within 10%), while below 64 bits Kronecker is 2-3
# times faster there; a constant times a list stays one schoolbook pass.
_Z_KRONECKER_MIN_LEN = 24

# array typecodes by item size: slots of 1, 2, 4 or 8 bytes pack in C
_SLOT_CODES = {array(c).itemsize: c for c in "BHILQ"}
_SLOT_SIZES = tuple(sorted(_SLOT_CODES))


def _slot_bytes(bound):
    """Bytes per Kronecker slot that holds every value up to bound: an
    array item size when one is large enough."""
    w = (bound.bit_length() + 7) // 8
    return next((s for s in _SLOT_SIZES if s >= w), w)


def _kron_pack(v, size):
    """The integer with v[i] in slot i of size bytes (entries below 2^(8 size))."""
    code = _SLOT_CODES.get(size)
    if code:
        return int.from_bytes(array(code, v).tobytes(), sys.byteorder)
    return int.from_bytes(b"".join(c.to_bytes(size, sys.byteorder) for c in v), sys.byteorder)


def _kron_unpack(x, size, count):
    """The first count slots of size bytes of a nonnegative integer x."""
    raw = x.to_bytes(size * count, sys.byteorder)
    code = _SLOT_CODES.get(size)
    if code:
        return array(code, raw)
    return [int.from_bytes(raw[i:i + size], sys.byteorder) for i in range(0, len(raw), size)]


def _gf_mul(a, b, p):
    """Product of two residue lists, reduced mod p, or with p = 0 of two
    int lists over Z.

    Kronecker substitution (Harvey 2009, "Faster polynomial multiplication
    via multipoint Kronecker substitution"): each list becomes one integer
    with a coefficient per slot of w bytes, the two integers are multiplied
    once, and the product's slots are read back.  A coefficient of the
    integer product is at most min(len a, len b) (p - 1)^2, so slots that
    hold that bound never carry into each other.  Short operands, and
    products whose slots would need more than 8 bytes (p above about 2^28
    for operands of a few hundred coefficients), take the schoolbook loop.
    Over Z the slots are signed (_z_mul), and both operands must reach
    _Z_KRONECKER_MIN_LEN, so a scalar times a list stays one pass.
    """
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if not p:
        if min(la, lb) >= _Z_KRONECKER_MIN_LEN:
            return _z_mul(a, b)
    elif la >= _KRONECKER_MIN_LEN or lb >= _KRONECKER_MIN_LEN:
        size = _slot_bytes(min(la, lb) * (p - 1) ** 2)
        if size in _SLOT_CODES:
            x = _kron_pack(a, size)
            y = x if a is b else _kron_pack(b, size)
            return _gf_trim([c % p for c in _kron_unpack(x * y, size, la + lb - 1)])
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _gf_trim([c % p for c in out] if p else out)


def _z_mul(a, b):
    """Product over Z of two int lists by Kronecker substitution with
    signed slots of w bytes.  half = 2^(8 w - 1) is above the product's
    coefficient bound min(len a, len b) max|a_i| max|b_j|; each coefficient
    c is packed as c + half and the packed offsets are taken off again, and
    adding them to the product puts each of its coefficients, plus half,
    in range(2 half) in its own slot, so no slot carries."""
    la, lb = len(a), len(b)
    size = _slot_bytes(2 * min(la, lb) * max(map(abs, a)) * max(map(abs, b)))
    half = 1 << (8 * size - 1)
    offset = half.to_bytes(size, sys.byteorder)

    def pack(v):
        return _kron_pack([c + half for c in v], size) - int.from_bytes(offset * len(v), sys.byteorder)

    x = pack(a)
    y = x if a is b else pack(b)
    n = la + lb - 1
    return _gf_trim([c - half for c in _kron_unpack(x * y + int.from_bytes(offset * n, sys.byteorder), size, n)])


class _GFMatrix:
    """A fixed matrix over F_p, applied by one Kronecker product to a vector
    packed as an integer (pack, or arithmetic on packed integers).

    Row i, reversed and padded with n - 1 zeros, fills slots i (2n - 1)
    onward of one integer, so slot i (2n - 1) + n - 1 of its product with
    a packed vector of n entries is the dot product of row i and the
    vector, and no two rows' slots overlap.  Slots hold n (p - 1) bound,
    the largest dot product of a vector with entries up to bound.
    """

    __slots__ = ("p", "n", "size", "packed", "count")

    def __init__(self, rows, p, bound):
        self.p = p
        self.n = n = len(rows[0])
        self.size = _slot_bytes(n * (p - 1) * bound)
        spread = []
        for row in rows:
            spread += list(row[::-1]) + [0] * (n - 1)
        self.packed = _kron_pack(spread, self.size)
        self.count = len(spread)

    def pack(self, v):
        return _kron_pack(v, self.size)

    def __call__(self, x):
        """[row . v mod p for each row] for the vector v packed in x."""
        n, p = self.n, self.p
        return [c % p for c in _kron_unpack(x * self.packed, self.size, self.count)[n - 1::2 * n - 1]]


def _gf_divmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _gf_trim(a)
    inv = pow(b[-1], -1, p)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db] % p
        if c:
            c = c * inv % p
            quo[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _gf_trim(quo), _gf_trim(a[:db])


def _gf_gcd(a, b, p):
    a, b = _gf_trim(list(a)), _gf_trim(list(b))
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _gf_deriv(a, p):
    return _gf_trim([(a[i] * i) % p for i in range(1, len(a))])


def _power(x, e, one, mul):
    """x^e for an int e >= 0 by square-and-multiply under mul, with no
    squaring past the top bit: the one exponentiation loop in flatlab."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def _gf_pow_mod(a, e, m, p):
    return _power(_gf_divmod(a, m, p)[1], e, [1], lambda x, y: _gf_divmod(_gf_mul(x, y, p), m, p)[1])


def _gf_inv_mod(a, m, p):
    """Inverse of a nonzero residue list a modulo m, coprime to it: extended
    Euclid in F_p[x], keeping only the cofactor of a, inlined because the
    orbit walk runs it once per step."""
    r0, r1 = list(m), _gf_trim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        inv = pow(r1[-1], -1, p)
        d = len(r1) - 1
        q = [0] * (len(r0) - d)
        for i in range(len(r0) - 1 - d, -1, -1):
            c = r0[i + d] * inv % p
            q[i] = c
            if c:
                for j in range(d):
                    r0[i + j] = (r0[i + j] - c * r1[j]) % p
        r0 = _gf_trim(r0[:d])
        s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
        for i, c in enumerate(q):
            if c:
                for j, t in enumerate(s1):
                    s[i + j] -= c * t
        r0, r1, s0, s1 = r1, r0, s1, _gf_trim([c % p for c in s])
    if not r1:
        raise DivisionByZero("residue not invertible modulo m")
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _gf_irreducible(f, p):
    """Rabin test: x^(p^k) = x mod f and gcd(x^(p^(k/l)) - x, f) = 1."""
    k = len(f) - 1
    if k < 1:
        return False
    x = [0, 1]
    if _gf_sub(_gf_pow_mod(x, p ** k, f, p), _gf_divmod(x, f, p)[1], p):
        return False
    for ell in _prime_factors(k):
        g = _gf_pow_mod(x, p ** (k // ell), f, p)
        if len(_gf_gcd(_gf_sub(g, x, p), f, p)) != 1:
            return False
    return True


def _from_digits(digits, p):
    """The int with the given base-p digits, the first leading: for the
    residues c_0, ..., c_{k-1} of an F_{p^k} element, int order is the
    lexicographic order of (c_0, ..., c_{k-1}).  It is also the package's
    one scalar Horner loop: sum c_i a^i is _from_digits(reversed(c), a)."""
    n = 0
    for c in digits:
        n = n * p + c
    return n


def _to_digits(n, p, k):
    """The k base-p digits of n, the first leading (inverse of _from_digits)."""
    out = [0] * k
    for i in range(k - 1, -1, -1):
        n, out[i] = divmod(n, p)
    return out


def _find_modulus(p, k):
    # first irreducible monic f = c_0 + c_1 x + ... + x^k in lexicographic
    # order of (c_0, ..., c_{k-1}); reproducible without Conway tables.
    # idx holds c_0 in its leading base-p digit, and the candidates below
    # p^(k-1) have c_0 = 0, so x divides them: the search starts past them
    for idx in range(p ** (k - 1), p ** k):
        f = _to_digits(idx, p, k) + [1]
        if _gf_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible modulus found")  # unreachable


# ----------------------------------------------------------------------
# Fields and elements
# ----------------------------------------------------------------------

class Field:
    """The rationals (p == 0) or F_{p^k} with a stored irreducible modulus.

    Use :func:`rationals` and :func:`field_create` to obtain instances.
    """

    __slots__ = ("p", "k", "modulus")

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.modulus = modulus  # tuple, constant first, monic; None if k == 1

    @property
    def is_rationals(self):
        return self.p == 0

    @property
    def order(self):
        return None if self.p == 0 else self.p ** self.k

    def elem(self, x):
        """Coerce an int, Fraction, or same-field element into this field."""
        if self.p == 0:
            if isinstance(x, FFElem):
                raise FieldMismatch("finite-field element in rational context")
            return Fraction(x)
        if isinstance(x, FFElem):
            if x.field is not self and x.field != self:
                raise FieldMismatch(f"element of {x.field} used in {self}")
            return x
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DivisionByZero(f"denominator of {x} vanishes mod {self.p}")
            n = x.numerator % self.p
            d = pow(x.denominator % self.p, -1, self.p)
            x = n * d
        v = x % self.p
        return FFElem(self, (v,) + (0,) * (self.k - 1))

    @property
    def zero(self):
        return self.elem(0)

    @property
    def one(self):
        return self.elem(1)

    def elem_from_index(self, i):
        """The i-th element (0 <= i < order): c_j is i's base-p digit of weight p^j."""
        return FFElem(self, tuple(reversed(_to_digits(i, self.p, self.k))))

    def elements(self):
        """Iterate all elements of a finite field in a fixed order."""
        for i in range(self.order):
            yield self.elem_from_index(i)

    def lift(self, a):
        """Explicit canonical embedding of a prime-field element into self."""
        if self.p == 0:
            raise FieldMismatch("cannot lift into the rationals")
        if not isinstance(a, FFElem) or a.field.p != self.p or a.field.k != 1:
            raise FieldMismatch("lift expects an element of the prime subfield")
        return FFElem(self, (a.coeffs[0],) + (0,) * (self.k - 1))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.p == 0:
            return "Q"
        if self.k == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.k})"


_RATIONALS = Field(0, 1, None)


def rationals() -> Field:
    """The field of exact rationals."""
    return _RATIONALS


@functools.lru_cache(maxsize=None)
def field_create(p: int, k: int = 1) -> Field:
    """Create F_{p^k}; the modulus for k > 1 is deterministic in (p, k)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    modulus = None if k == 1 else _find_modulus(p, k)
    return Field(p, k, modulus)


class FFElem:
    """Immutable element of F_{p^k}: a residue vector of length k."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FFElem):
            # fields are cached per (p, k): identity settles almost every call
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FFElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FFElem(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.k == 1:
            return FFElem(f, ((self.coeffs[0] * o.coeffs[0]) % f.p,))
        prod = _gf_mul(list(self.coeffs), list(o.coeffs), f.p)
        rem = _gf_divmod(prod, list(f.modulus), f.p)[1]
        return FFElem(f, tuple(rem) + (0,) * (f.k - len(rem)))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        f = self.field
        if f.k == 1:
            return FFElem(f, (pow(self.coeffs[0], -1, f.p),))
        inv = _gf_inv_mod(_gf_trim(list(self.coeffs)), list(f.modulus), f.p)
        return FFElem(f, tuple(inv) + (0,) * (f.k - len(inv)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if not self:
            if e > 0:
                return self
            if e == 0:
                return self.field.one
            raise DivisionByZero("0 to a negative power")
        base = self if e >= 0 else self.inverse()
        return _power(base, abs(e) % (self.field.order - 1), self.field.one, FFElem.__mul__)

    def pth_root(self):
        """The unique b with b^p = self (Frobenius is bijective)."""
        f = self.field
        return self ** (f.p ** (f.k - 1))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __str__(self):
        parts = []
        for i in range(self.field.k - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                v = "g" if i == 1 else f"g^{i}"
                parts.append(v if c == 1 else f"{c}*{v}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in {self.field}>"


# ----------------------------------------------------------------------
# Exact null spaces
# ----------------------------------------------------------------------

def mat_kernel(rows, field):
    """Reduced-echelon basis of the right null space {v : Mv = 0}.

    Deterministic: pivots on the first nonzero entry per column in row
    order (arithmetic is exact, no pivot-magnitude heuristics).  Entries
    may be field elements, plain ints or Fractions; every entry is coerced
    into field, and one elimination serves Q and every F_q.  Raises
    FieldMismatch on ragged, foreign-field or bad-typed input.

    The basis holds one vector per free column, in column order.  The
    vector of free column f is 1 at f, 0 at every other free column and
    past f (a pivot row is zero left of its pivot), so the first vector is
    the first linear relation among the columns, with last coefficient 1;
    dynamics.class_min_poly reads a minimal polynomial off it.
    """
    m = [[_as_elem(e, field) for e in r] for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise FieldMismatch("ragged matrix")
    nrows = len(m)
    zero, one = field.zero, field.one
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = one / m[rank][col]
        prow = m[rank] = [x * inv for x in m[rank]]
        # the pivot row is zero left of col: only its nonzero entries act
        support = [j for j in range(col, ncols) if prow[j]]
        for r in range(nrows):
            row = m[r]
            f = row[col]
            if r != rank and f:
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [zero] * ncols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][free]
        basis.append(v)
    return basis


def _as_elem(e, field):
    if isinstance(e, (int, Fraction, FFElem)):
        return field.elem(e)
    raise FieldMismatch(f"bad matrix entry {e!r}")
