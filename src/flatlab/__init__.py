"""flatlab: exact-arithmetic detection of flat rational maps on P^1.

Reduce a rational self-map of the projective line modulo primes, compute
its critical / postcritical / orbifold data, search for and certify
invariant differential forms mod p, and classify the map as flat
(power / Chebyshev / Lattes type) or not.
"""

from .exactnum import (
    Field,
    FFElem,
    Rational,
    field_create,
    is_prime,
    mat_kernel,
    rationals,
)
from .ratfunc import (
    Poly,
    RatFunc,
    format_poly,
    format_ratfunc,
    parse_ratfunc,
    poly_factor,
    poly_gcd,
    poly_is_irreducible,
    poly_roots,
    reduce_mod_p,
)
from .dynamics import (
    CriticalDatum,
    OrbitGraph,
    critical_locus,
    p1_eval,
    postcritical_graph,
    ram_index,
)
from .orbifold import (
    KummerCover,
    MU_INFINITY,
    OrbifoldData,
    euler_char,
    kummer_genus,
    mu_compute,
    orbifold_data,
    parabolic_signature,
)
from .forms import (
    InvarianceResult,
    TupleForm,
    form_mul,
    form_ord,
    form_power,
    form_pullback,
    invariance_check,
    invariant_search,
    weight_reduce,
)
from .atlas import EllipticCurve, FlatCertificate, chebyshev_poly, ec_mul_x, lattes_map, power_map

__version__ = "0.1.0"
