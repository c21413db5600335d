"""Series expansions of third Painleve (P-III') transcendents at roots and
poles, an iterative integral-transform scheme with convergence certificates,
and an independent adaptive ODE verifier."""

from .equation import (
    DomainError,
    EquationParams,
    InvalidParametersError,
    P3FormParams,
    PhasePoint,
    RootAnchor,
    SignSwitch,
    VariableMap,
    convert_p3_to_p3prime,
    hamiltonian,
    mu_from_lambda,
    rhs_scalar,
    third_derivative,
)
from .series import (
    AnchorMismatchError,
    DtSeries,
    assemble_lambda,
    init_pair,
    lam6_reference,
    mu_at_root,
    residual_order,
    run_scheme,
    series_eval,
    step_lambda,
    step_mu,
    taylor_at_root,
)
from .poles import (
    LaurentExpansion,
    pole_b5_reference,
    pole_residual_order,
    root_to_pole,
    series_reciprocal_times_t,
)

__version__ = "0.1.0"
