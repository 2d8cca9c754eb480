"""Counting semi-integral points of bounded height on the cubic
hypersurface x^3 = (y_1^2 + ... + y_{4k}^2) z, with cross-validating
enumeration, divisor-sum and asymptotic routes."""

from .analytic import (
    EulerFactorInput,
    EulerProductResult,
    constants_report,
    euler_constant,
    euler_product,
    f_poly,
    fp_closed,
    fp_series,
    gp,
    gp_special,
    leading_constant,
    predict,
)
from .arith import (
    CapacityError,
    DomainError,
    Factorization,
    PrimeSet,
    bernoulli,
    divisors_of_cube,
    factorize,
    is_prime,
    mobius,
    primes_up_to,
    vp,
    zeta_real,
)
from .counting import (
    CountRequest,
    RSource,
    count_report,
    indicator_1S,
    iter_points,
    n_mobius,
    n_oracle,
    n_star,
    s_sum,
    t_sum,
)
from .geometry import (
    MultPair,
    SurfacePoint,
    height_le,
    intersection_mults,
    m_point_ok,
    semi_integral_ok,
)
from .reps import (
    r4_jacobi,
    r4k_bruteforce,
    r4k_main_coeff,
    r4k_star,
)

__version__ = "0.1.0"
