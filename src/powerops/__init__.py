"""Exact verification engine for formal-group power operations over
Z_p[v3]/(v3^2) and mod-p Dyer-Lashof identities at odd primes."""

from .scalar import (
    CoeffV3,
    PAdicScalar,
    PrecisionLossError,
    teichmuller,
    primitive_teichmuller_root,
)
from .series import (
    TruncatedSeries,
    QuotientNormalForm,
    quotient_normalize,
    divide_by_alpha_power,
    lagrange_invert,
)
from .fgl import Logarithm, FormalGroupLaw
from .powerop import (
    PipelineTrace,
    PowerOpResult,
    g_series,
    k_series,
    run_pipeline,
    f_coefficient,
    h_polynomial,
    power_operation_value,
    sigma_dl_coefficient,
)
from .dl import (
    DLAlgebra,
    DLPolynomial,
    RelationSpec,
    verify_relation,
    solve_sigma,
    verify_factorization,
    op_definedness,
    relation_en_threshold,
)
from .mu_homology import (
    SymmetricClass,
    newton_expand,
    kochman_q,
    q_on_product,
    xibar,
    symmetric_evaluate,
    verify_stdl,
    verify_mudl,
)
from .reports import run_suite, run_suites, SUITES

__version__ = "0.1.0"
