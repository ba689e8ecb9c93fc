"""Command-line front end.

Subcommands: classify (sweep primes, assemble per-prime orbifold and
invariant-form evidence, emit a verdict), verify (check one form against
one map at one prime), construct (build a flat family member with its
certificate), orbifold (single-prime orbifold report, each postcritical
Frobenius class named by its minimal polynomial over F_p).

Exit codes: 0 flat-candidate, 1 not-flat, 2 inconclusive, 3 usage/parse
error.  Reports are deterministic; timings are opt-in because they would
break byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .errors import BadPrime, DegreeTooSmall, FlatlabError, IrrationalCriticalPoints, OrbitBoundExceeded
from .exactnum import field_create, is_prime, rationals
from .ratfunc import MAX_PARSE_DEGREE, Poly, format_poly, format_ratfunc, parse_ratfunc, reduce_mod_p
from .dynamics import postcritical_graph
from .orbifold import MU_INFINITY, PARABOLIC_SIGNATURES, mu_compute, orbifold_data, parabolic_signature
from .forms import TupleForm, form_pullback, invariance_check, invariant_search
from . import atlas

VERDICT_EXIT = {"flat-candidate": 0, "not-flat": 1, "inconclusive": 2}
USAGE_EXIT = 3


def _mu_json(m):
    return "inf" if m == MU_INFINITY else m


def _signature_json(sig_res):
    # from counts: sig_res.signature would add a tuple as long as the list
    return [_mu_json(m) for m, n in sig_res.counts for _ in range(n)]


def _prime_worker(args):
    """Analyze one prime; pure function of its arguments (safe to fan out).

    A library error or an internal guard failure at one stage is recorded
    for this prime, as "<stage>: <type>: <message>" under "reason", and
    the prime counts as bad, so the sweep goes on.
    """
    sigma, p, want_timings = args
    report = {"p": p, "good": False}
    timings = {}
    stage = "reduce"
    try:
        t0 = time.perf_counter()
        try:
            sig_p = reduce_mod_p(sigma, p)
        except BadPrime as exc:
            report["reason"] = exc.reason
            return report
        timings["reduce_ms"] = round((time.perf_counter() - t0) * 1000, 3)

        stage = "orbifold"
        t0 = time.perf_counter()
        graph = postcritical_graph(sig_p)
        mu = mu_compute(graph)
        data = orbifold_data(graph, mu)
        del graph, mu  # the walk's dicts go before the signature list is built
        sig_res = parabolic_signature(data)
        timings["orbifold_ms"] = round((time.perf_counter() - t0) * 1000, 3)

        stage = "search"
        t0 = time.perf_counter()
        forms = invariant_search(sig_p, p - 1, data)
        forms_found = [{"weight": p - 1, "f": format_ratfunc(form.func)} for form in forms]
        timings["search_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    except (FlatlabError, RuntimeError) as exc:
        report["reason"] = f"{stage}: {type(exc).__name__}: {exc}"
        return report

    report["good"] = True
    report["chi"] = str(data.chi)
    report["signature"] = _signature_json(sig_res)
    report["forms_found"] = forms_found
    if want_timings:
        report["timings"] = timings
    return report


def _orbifold_json(data):
    sig_res = parabolic_signature(data)
    return {"chi": str(data.chi), "signature": _signature_json(sig_res), "parabolic": sig_res.parabolic}


def _char0_report(sigma):
    """Best-effort orbifold over Q: only when the critical points are
    rational and every critical orbit closes (dynamics.postcritical_graph)."""
    try:
        graph = postcritical_graph(sigma)
    except (IrrationalCriticalPoints, OrbitBoundExceeded) as exc:
        return {"supported": False, "reason": str(exc)}
    return {"supported": True, **_orbifold_json(orbifold_data(graph))}


def _parse_map(expr):
    """The map over Q that expr names, of degree at least 2."""
    sigma = parse_ratfunc(expr, rationals())
    if sigma.degree < 2:
        raise DegreeTooSmall(f"degree {sigma.degree} < 2")
    return sigma


def run_classify(expr, prime_min, prime_max, jobs=1, min_good=8, char0=False, timings=False):
    """The classification sweep; returns the full report dict.

    Each good prime is searched at weight p - 1.  At most jobs worker
    processes run, and no more than there are primes or CPUs.
    """
    sigma = _parse_map(expr)
    primes = [p for p in range(max(prime_min, 2), prime_max + 1) if is_prime(p)]
    worker_args = [(sigma, p, timings) for p in primes]
    workers = min(jobs, len(primes), os.cpu_count() or 1) if jobs > 1 else 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            prime_reports = list(pool.map(_prime_worker, worker_args))
    else:
        prime_reports = [_prime_worker(a) for a in worker_args]

    good = [r for r in prime_reports if r["good"]]
    chi_zero = [r for r in good if Fraction(r["chi"]) == 0]
    chi_nonzero = [r for r in good if Fraction(r["chi"]) != 0]
    if chi_nonzero:
        label = "not-flat"
    elif len(good) >= min_good and good:
        label = "flat-candidate"
    else:
        label = "inconclusive"
    hints = []
    if label == "flat-candidate":
        sigs = {tuple(MU_INFINITY if s == "inf" else s for s in r["signature"]) for r in chi_zero}
        hints = sorted({PARABOLIC_SIGNATURES[s] for s in sigs})
    counts = {
        "good": len(good),
        "bad": len(prime_reports) - len(good),
        "chi_zero": len(chi_zero),
        "chi_nonzero": len(chi_nonzero),
        "primes_with_forms": sum(1 for r in good if r.get("forms_found")),
    }
    note = (
        f"finite sweep over primes {prime_min}..{prime_max}: 'flat-candidate' is "
        "evidence, not proof (flatness is only forced by invariant forms at "
        "infinitely many primes); 'not-flat' is rigorous from a single good prime "
        "with chi != 0, up to the finitely many excluded places"
    )
    report = {
        "input": expr,
        "degree": sigma.degree,
        "primes": prime_reports,
        "verdict": {"label": label, "hints": hints, "counts": counts, "note": note},
    }
    if char0:
        report["char0"] = _char0_report(sigma)
    return report


def _render_classify(report, stream):
    print(f"map: {report['input']}   degree: {report['degree']}", file=stream)
    for r in report["primes"]:
        if not r["good"]:
            print(f"  p={r['p']:<3} bad   {r['reason']}", file=stream)
            continue
        sig = "(" + ",".join(str(s) for s in r["signature"]) + ")"
        line = f"  p={r['p']:<3} good  chi={r['chi']:<5} signature {sig}"
        for item in r.get("forms_found", []):
            line += f"   form w{item['weight']}: {item['f']}"
        if "timings" in r:
            line += f"   [{r['timings']}]"
        print(line, file=stream)
    v = report["verdict"]
    hints = f"  hints: {', '.join(v['hints'])}" if v["hints"] else ""
    print(f"verdict: {v['label']}{hints}", file=stream)
    c = v["counts"]
    print(
        f"counts: good={c['good']} bad={c['bad']} chi_zero={c['chi_zero']} "
        f"chi_nonzero={c['chi_nonzero']} primes_with_forms={c['primes_with_forms']}",
        file=stream,
    )
    print(f"note: {v['note']}", file=stream)
    if "char0" in report:
        c0 = report["char0"]
        if c0["supported"]:
            sig = "(" + ",".join(str(s) for s in c0["signature"]) + ")"
            print(f"char 0: chi={c0['chi']} signature {sig}", file=stream)
        else:
            print(f"char 0: unsupported over Q ({c0['reason']})", file=stream)


def cmd_classify(args):
    try:
        pmin, pmax = map(int, args.primes.split(".."))
    except ValueError:
        raise ValueError(f"bad prime range {args.primes!r}; expected MIN..MAX") from None
    if pmin > pmax:
        raise ValueError(f"bad prime range {args.primes!r}; MIN is past MAX")
    if not any(is_prime(p) for p in range(max(pmin, 2), pmax + 1)):
        raise ValueError(f"bad prime range {args.primes!r}; it holds no prime")
    for option, value in (("--jobs", args.jobs), ("--min-good", args.min_good)):
        if value < 1:
            raise ValueError(f"bad {option} {value}; expected at least 1")
    report = run_classify(
        args.expr,
        pmin,
        pmax,
        jobs=args.jobs,
        min_good=args.min_good,
        char0=args.char0,
        timings=args.timings,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _render_classify(report, sys.stdout)
    return VERDICT_EXIT[report["verdict"]["label"]]


def cmd_verify(args):
    sigma = parse_ratfunc(args.expr, rationals())
    sig_p = reduce_mod_p(sigma, args.p)
    field = sig_p.field
    f = parse_ratfunc(args.form, field)
    # the degree bound of a pulled-back side (forms._pullback_sides)
    slope = max(sig_p.wronskian().degree, 2 * sig_p.den.degree)
    degree = sig_p.degree * (f.num.degree + f.den.degree) + abs(args.weight) * slope
    if degree > MAX_PARSE_DEGREE:
        raise ValueError(f"bad --weight {args.weight}; its pullback may reach degree {degree}, "
                         f"past the parser's bound of {MAX_PARSE_DEGREE}")
    omega = TupleForm(f, args.weight)
    res = invariance_check(sig_p, omega)
    if res.invariant:
        verdict = "invariant"
    elif res.semi_invariant:
        verdict = f"semi-invariant lambda = {res.lam}"
    else:
        verdict = "neither"
    if args.lam is not None:
        claimed = field.elem(args.lam)
        match = res.semi_invariant and res.lam == claimed
        verdict += f"; claimed lambda = {args.lam}: {'confirmed' if match else 'refuted'}"
    if args.verbose:
        print(f"sigma mod {args.p}: {format_ratfunc(sig_p)}")
        print(f"pullback: {form_pullback(sig_p, omega)}")
    print(verdict)
    return 0


def cmd_construct(args):
    p = args.p
    if p is not None and args.family != "lattes" and p - 1 > MAX_PARSE_DEGREE:
        raise ValueError(f"bad --p {p}; the weight-{p - 1} form is past the parser's bound of {MAX_PARSE_DEGREE}")
    field = rationals() if p is None else field_create(p)
    out = {"family": args.family}
    if args.family == "power":
        if len(args.params) != 1:
            raise ValueError("construct power needs one argument: d")
        d = int(args.params[0])
        _check_pullback_degree(abs(d) * (p - 1 if p else 1), f"d {d}")
        out.update(_cert_json(atlas.power_map(d, field), var="t", p=p))
    elif args.family == "cheb":
        if len(args.params) != 1:
            raise ValueError("construct cheb needs one argument: d (negative d means -Cheb_|d|)")
        d = int(args.params[0])
        _check_pullback_degree(abs(d) * (p - 1 if p else 2), f"d {d}")
        out.update(_cert_json(atlas.chebyshev_poly(abs(d), -1 if d < 0 else 1, field), var="t", p=p))
    else:  # "lattes"; argparse enforces the choices
        if len(args.params) != 3:
            raise ValueError("construct lattes needs three arguments: a b m")
        a, b = Fraction(args.params[0]), Fraction(args.params[1])
        m = int(args.params[2])
        _check_pullback_degree(m * m, f"m {m}")
        curve = atlas.EllipticCurve(field, field.elem(a), field.elem(b))
        out.update(_cert_json(atlas.lattes_map(curve, m), var="x", p=p))
        out["curve"] = f"y^2 = x^3 + {a}*x + {b}"
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for key, value in out.items():
            print(f"{key}: {value}")
    return 0


def _check_pullback_degree(degree, what):
    """Refuse, before any product is built, a certificate whose check pulls
    a form back to past the parser's degree bound: |d| w for power and
    Chebyshev maps of weight w, and m^2 for Lattes maps."""
    if degree > MAX_PARSE_DEGREE:
        raise ValueError(f"bad {what}; the certificate's pullback may reach degree {degree}, "
                         f"past the parser's bound of {MAX_PARSE_DEGREE}")


def _cert_json(cert, var, p):
    out = {
        "sigma": format_ratfunc(cert.sigma, var),
        "form": format_ratfunc(cert.form.func, var),
        "weight": cert.form.weight,
        "lambda": str(cert.lam),
    }
    if p:
        out["p"] = p
    return out


def cmd_orbifold(args):
    sigma = _parse_map(args.expr)
    sig_p = reduce_mod_p(sigma, args.p)
    data = orbifold_data(postcritical_graph(sig_p))
    out = {
        "input": args.expr,
        "p": args.p,
        "postcritical": [
            {"class": "inf" if h is None else format_poly(Poly(sig_p.field, h)), "points": n, "mu": _mu_json(m)}
            for h, n, m in data.classes()
        ],
        **_orbifold_json(data),
    }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"map: {out['input']}  p={args.p}")
        for item in out["postcritical"]:
            print(f"  mu({item['class']}) = {item['mu']}   points: {item['points']}")
        sig = "(" + ",".join(str(s) for s in out["signature"]) + ")"
        print(f"chi = {out['chi']}   signature {sig}   parabolic: {out['parabolic']}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flatlab",
        description="detect flat rational maps (power / Chebyshev / Lattes) via invariant forms mod p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="sweep primes and classify a map over Q")
    c.add_argument("expr")
    c.add_argument("--primes", default="5..50", help="prime range MIN..MAX (default 5..50)")
    c.add_argument("--jobs", type=int, default=1)
    c.add_argument("--min-good", type=int, default=8, help="good primes needed for flat-candidate")
    c.add_argument("--json", action="store_true")
    c.add_argument("--char0", action="store_true", help="also try the orbifold over Q")
    c.add_argument("--timings", action="store_true", help="include timings (breaks byte determinism)")
    c.set_defaults(func=cmd_classify)

    v = sub.add_parser("verify", help="verify one form against one map at one prime")
    v.add_argument("expr")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--form", required=True)
    v.add_argument("--weight", type=int, required=True)
    v.add_argument("--lambda", dest="lam", type=int, default=None)
    v.add_argument("--verbose", action="store_true")
    v.set_defaults(func=cmd_verify)

    k = sub.add_parser("construct", help="build a flat family member and its certificate")
    k.add_argument("family", choices=["power", "cheb", "lattes"])
    k.add_argument("params", nargs="*")
    k.add_argument("--p", type=int, default=None)
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=cmd_construct)

    o = sub.add_parser("orbifold", help="single-prime orbifold report")
    o.add_argument("expr")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_orbifold)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code else 0
    try:
        return args.func(args)
    except (FlatlabError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
