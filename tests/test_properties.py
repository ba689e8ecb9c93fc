"""Property tests: the per-prime classification is a conjugacy invariant
and an iteration invariant.

Conjugating by a Moebius map with integer entries and determinant +-1
commutes with reduction mod every prime, so each prime's goodness, chi,
signature and whether an invariant form exists must not change.  sigma and
sigma o sigma have the same postcritical set and the same orbifold, so chi
and the signature agree at every prime good for both.  Hypothesis runs
derandomized and without a database, so every run draws the same examples.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import lattes_expr

from flatlab import Poly, RatFunc, format_ratfunc, parse_ratfunc, rationals
from flatlab.cli import run_classify

Q = rationals()
PRIMES = (5, 31)


def deterministic(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


coeffs = st.integers(-3, 3)


@st.composite
def maps(draw, max_degree):
    """A map over Q of degree 2..max_degree, or the Lattes map on y^2 = x^3 + x."""
    if draw(st.integers(0, 3)) == 0:
        return parse_ratfunc(lattes_expr(), Q)
    num = Poly(Q, draw(st.lists(coeffs, min_size=1, max_size=max_degree + 1)))
    den = Poly(Q, draw(st.lists(coeffs, min_size=1, max_size=max_degree + 1)))
    assume(not den.is_zero)
    sigma = RatFunc(num, den)
    assume(sigma.degree >= 2)
    return sigma


@st.composite
def unimodular(draw):
    """(a t + b)/(c t + d) with integer entries and a d - b c = +-1, a
    product of shears t -> t + k, t -> t/(k t + 1) and the swap t -> 1/t."""
    a, b, c, d = 1, 0, 0, 1
    steps = st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 2)), min_size=1, max_size=3)
    for kind, k in draw(steps):
        if kind == 0:
            a, b, c, d = a, a * k + b, c, c * k + d
        elif kind == 1:
            a, b, c, d = a + b * k, b, c + d * k, d
        else:
            a, b, c, d = b, a, d, c
    return RatFunc(Poly(Q, [b, a]), Poly(Q, [d, c]))


def _per_prime(report):
    return [(r["p"], r["good"], r.get("chi"), r.get("signature"), bool(r.get("forms_found")))
            for r in report["primes"]]


def _classify(sigma):
    return run_classify(format_ratfunc(sigma), *PRIMES)


@deterministic(max_examples=10)
@given(maps(max_degree=3), unimodular())
def test_conjugation_keeps_the_classification(sigma, phi):
    before, after = _classify(sigma), _classify(sigma.conjugate(phi))
    assert _per_prime(before) == _per_prime(after)
    assert before["verdict"]["label"] == after["verdict"]["label"]


# degree <= 2: a degree-3 map's square has degree 9, and classifying it over
# 5..31 takes 1.5-2.5 s
@deterministic(max_examples=6)
@given(maps(max_degree=2))
def test_iterate_keeps_chi_and_signature(sigma):
    once, twice = _classify(sigma), _classify(sigma.compose(sigma))
    both = [(r1, r2) for r1, r2 in zip(once["primes"], twice["primes"]) if r1["good"] and r2["good"]]
    assert both
    for r1, r2 in both:
        assert (r1["chi"], r1["signature"]) == (r2["chi"], r2["signature"])
