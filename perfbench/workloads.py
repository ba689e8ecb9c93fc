"""Workload corpora, the ops they run, and the checks on each op's output.

Three workloads:

- ``flat-sweep``: ``classify`` one prime at a time over 5..50 on power,
  Chebyshev and Lattes maps (chi = 0 at good primes, so the invariant-form
  search runs);
- ``nonflat-sweep``: the same on named non-flat maps plus affine conjugates
  of four non-flat templates of degree 3..6, drawn from the seed (chi != 0,
  so the search never runs);
- ``certify``: build each family member's certificate with ``atlas`` at
  each prime and check the form and its weight-(p-1) power by pullback.

An op is one (map, prime) for the sweeps, run as
``cli.run_classify(expr, p, p)``, and one (member, prime) for certify.
Every call into flatlab goes through a module attribute at call time, so
the traced run sees the names it patched.
"""

from __future__ import annotations

import random

SWEEP_PRIMES = (5, 50)
TINY_PRIMES = (5, 13)

# (expression or Lattes curve, family); Lattes maps are m = 2 on y^2 = x^3 + a x + b
FLAT_MAPS = (
    ("t^2", "power"),
    ("t^3", "power"),
    ("1/t^2", "power"),
    ("t^2-2", "chebyshev"),
    ("-(t^2-2)", "chebyshev"),
    ("t^3-3*t", "chebyshev"),
    ((1, 0), "lattes"),
    ((0, 1), "lattes"),
    ((-1, 1), "lattes"),
)
NONFLAT_MAPS = ("t^2+1", "t^3+t+1", "(t^2+1)/t", "(t^4+t+1)/(t^2+3)", "t^6+t^5+2*t+3")
# Seeded maps are affine conjugates of these, so their per-prime results and
# costs match the template's whatever the seed.
SEEDED_TEMPLATES = ("(t^3+2)/(t^2+1)", "t^4+t^3+2", "t^5+t^4-1", "t^6+3*t^2+1")

FAMILY_SIGNATURES = {
    "power": ["inf", "inf"],
    "chebyshev": [2, 2, "inf"],
    "lattes": [2, 2, 2, 2],
}

# certify members: (label, kind, params); Lattes params are (a, b, m)
CERTIFY_MEMBERS = (
    tuple((f"power {d}", "power", (d,)) for d in (2, -2, 3, -3))
    + tuple((f"cheb {s * d}", "cheb", (d, s)) for d in (2, 3, 4) for s in (1, -1))
    + tuple(
        (f"lattes {a} {b} {m}", "lattes", (a, b, m))
        for a, b, m in ((1, 0, 2), (0, 1, 2), (-1, 1, 2), (1, 0, 3))
    )
)

WORKLOADS = ("flat-sweep", "nonflat-sweep", "certify")


def primes_in(fl, lo, hi):
    return [p for p in range(lo, hi + 1) if fl.exactnum.is_prime(p)]


def lattes_expr(fl, a, b, m=2):
    curve = fl.atlas.EllipticCurve(fl.exactnum.rationals(), a, b)
    return fl.ratfunc.format_ratfunc(fl.atlas.lattes_map(curve, m).sigma)


def affine_conjugate(fl, expr, sign, shift):
    """phi^-1 o sigma o phi for phi(t) = sign*t + shift, as an expression."""
    Q = fl.exactnum.rationals()
    RatFunc, Poly = fl.ratfunc.RatFunc, fl.ratfunc.Poly
    sigma = fl.ratfunc.parse_ratfunc(expr, Q)
    phi = RatFunc(Poly(Q, (shift, sign)))
    phi_inv = RatFunc(Poly(Q, (-sign * shift, sign)))
    return fl.ratfunc.format_ratfunc(phi_inv.compose(sigma.compose(phi)))


class SweepMap:
    """One map of a sweep workload.  ``ref_key`` names its reference entry:
    the map itself, or the template a seeded conjugate came from."""

    def __init__(self, expr, family, ref_key=None):
        self.expr = expr
        self.family = family
        self.ref_key = ref_key or expr

    @property
    def label(self):
        return self.expr


class CertifyMember:
    def __init__(self, label, kind, params, fields):
        self.label = label
        self.kind = kind
        self.params = params
        self.fields = fields  # prime -> F_p, made at set-up so ops never call field_create

    @property
    def min_prime(self):
        return 2 * self.params[2] ** 2 + 1 if self.kind == "lattes" else 5

    def valid_at(self, p):
        """Whether the certificate exists at p (not a speed filter)."""
        if p < self.min_prime:
            return False
        if self.kind == "lattes":
            a, b, _ = self.params
            return (4 * a ** 3 + 27 * b ** 2) % p != 0
        return True


def seeded_maps(fl, seed):
    rng = random.Random(seed)
    out = []
    for template in SEEDED_TEMPLATES:
        sign = rng.choice((1, -1))
        shift = rng.choice((-2, -1, 1, 2))
        out.append(SweepMap(affine_conjugate(fl, template, sign, shift), "nonflat", ref_key=template))
    return out


def flat_maps(fl):
    return [SweepMap(lattes_expr(fl, *expr) if family == "lattes" else expr, family) for expr, family in FLAT_MAPS]


def reference_maps(fl):
    """The sweep maps reference.json pins: the named maps and the templates."""
    return flat_maps(fl) + [SweepMap(expr, "nonflat") for expr in NONFLAT_MAPS + SEEDED_TEMPLATES]


def build(fl, workload, seed, tiny=False):
    """The workload's units (maps or members) and its primes, in seeded order.

    ``tiny`` keeps two named units plus, for nonflat-sweep, one seeded map,
    over primes 5..13; the smoke test uses it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    primes = primes_in(fl, *(TINY_PRIMES if tiny else SWEEP_PRIMES))
    rng = random.Random(f"order-{seed}")
    if workload == "flat-sweep":
        units = flat_maps(fl)
    elif workload == "nonflat-sweep":
        units = [SweepMap(expr, "nonflat") for expr in NONFLAT_MAPS]
        extra = seeded_maps(fl, seed)
        units = units[:2] + extra[:1] if tiny else units + extra
    else:
        fields = {p: fl.exactnum.field_create(p) for p in primes}
        units = [CertifyMember(label, kind, params, fields) for label, kind, params in CERTIFY_MEMBERS]
    if tiny and workload != "nonflat-sweep":
        units = units[:2]
    rng.shuffle(units)
    return units, primes


def ops_of(units, primes):
    """(unit index, prime) pairs in run order: each unit's primes ascending."""
    out = []
    for i, unit in enumerate(units):
        for p in primes:
            if not isinstance(unit, CertifyMember) or unit.valid_at(p):
                out.append((i, p))
    return out


# ----------------------------------------------------------------------
# The ops.  Each returns raw objects; checking happens outside the timing.
# ----------------------------------------------------------------------

def sweep_op(fl, unit, p):
    return fl.cli.run_classify(unit.expr, p, p)["primes"][0]


def certify_op(fl, unit, p):
    F = unit.fields[p]
    if unit.kind == "power":
        cert = fl.atlas.power_map(unit.params[0], F)
    elif unit.kind == "cheb":
        cert = fl.atlas.chebyshev_poly(unit.params[0], unit.params[1], F)
    else:
        a, b, m = unit.params
        cert = fl.atlas.lattes_map(fl.atlas.EllipticCurve(F, a, b), m)
    res = fl.forms.invariance_check(cert.sigma, cert.form)
    n = (p - 1) // cert.form.weight
    power_res = res
    if n > 1:
        power_res = fl.forms.invariance_check(cert.sigma, fl.forms.form_power(cert.form, n))
    return cert, res, power_res


# ----------------------------------------------------------------------
# Output records and checks
# ----------------------------------------------------------------------

def sweep_record(entry):
    """The fields of a per-prime report the reference pins."""
    return {k: entry[k] for k in ("p", "good", "reason", "chi", "signature", "forms_found") if k in entry}


def certify_record(fl, out):
    cert, res, power_res = out
    return {
        "sigma": fl.ratfunc.format_ratfunc(cert.sigma),
        "lam": str(res.lam),
        "power_invariant": power_res.invariant,
    }


class Checker:
    """Compares op outputs with the reference and rechecks them directly.

    Rechecks are memoized per distinct output, so a second pass over the
    same ops costs nothing extra.
    """

    def __init__(self, fl, reference):
        self.fl = fl
        self.reference = reference
        self._rechecked = {}

    def expected_sweep(self, unit, p):
        return self.reference["sweeps"].get(unit.ref_key, {}).get(str(p))

    def check_sweep(self, unit, p, entry):
        """Return None when the per-prime result is right, else a reason."""
        got = sweep_record(entry)
        want = self.expected_sweep(unit, p)
        if want is not None and got != want:
            return f"differs from reference: got {got}, want {want}"
        # a flat map has chi = 0 and its family's signature at every good
        # prime; a non-flat map may have chi = 0 at some primes
        if got["good"] and unit.family != "nonflat":
            if got["chi"] != "0" or got["signature"] != FAMILY_SIGNATURES[unit.family]:
                return f"{unit.family} map came out with chi {got['chi']}, signature {got['signature']}"
        for item in got.get("forms_found", []):
            if not self._recheck_form(unit.expr, p, item["weight"], item["f"]):
                return f"reported form {item['f']} is not invariant"
        return None

    def _recheck_form(self, expr, p, weight, f):
        key = (expr, p, weight, f)
        if key not in self._rechecked:
            fl = self.fl
            sig_p = fl.ratfunc.reduce_mod_p(fl.ratfunc.parse_ratfunc(expr, fl.exactnum.rationals()), p)
            form = fl.forms.TupleForm(fl.ratfunc.parse_ratfunc(f, sig_p.field), weight)
            self._rechecked[key] = fl.forms.invariance_check(sig_p, form).invariant
        return self._rechecked[key]

    def check_certify(self, unit, p, out):
        got = certify_record(self.fl, out)
        want = self.reference["certify"].get(unit.label, {}).get(str(p))
        if want is not None and got != want:
            return f"differs from reference: got {got}, want {want}"
        lam = 1
        if unit.kind == "lattes":
            lam = unit.params[2] ** 2 % p
        if got["lam"] != str(lam) or not got["power_invariant"]:
            return f"certificate check failed: lambda {got['lam']}, power invariant {got['power_invariant']}"
        return None

    @staticmethod
    def check_label(unit, entries, over_budget):
        """Verdict label of a map from its completed primes, against its family.

        The rule is run_classify's with the default min_good = 8.  A map may
        come out inconclusive only when primes were lost to the budget or
        fewer than 8 were run.
        """
        good = [e for e in entries if e["good"]]
        if any(e["chi"] != "0" for e in good):
            label = "not-flat"
        elif len(good) >= 8:
            label = "flat-candidate"
        else:
            label = "inconclusive"
        want = "not-flat" if unit.family == "nonflat" else "flat-candidate"
        short = over_budget or len(entries) < 8
        ok = label == want or (short and label == "inconclusive")
        return None if ok else f"verdict {label} for a {unit.family} map"
