"""Interpolation filtering for families of random signal ensembles."""

from .analysis import (
    EpsNet,
    empirical_error,
    ensemble_sq_distance,
    error_upper_bound,
    greedy_eps_net,
    net_radius,
    node_error_decomposition,
    optimal_error,
)
from .baselines import (
    RlsState,
    WienerModel,
    rls_apply,
    rls_init,
    rls_run,
    rls_step,
    wiener_apply,
    wiener_fit,
)
from .bench import (
    ExperimentConfig,
    NoiseSpec,
    RunReport,
    RunRow,
    gen_observations,
    gen_reference_sequence,
    lag_specs,
    run_benchmark,
    write_report,
)
from .exceptions import (
    ConfigError,
    IfltError,
    InvalidInput,
    NotPSD,
    NumericalError,
    ParseError,
)
from .interp import (
    FilterContext,
    FilterModel,
    apply_filter,
    fit,
    load_model,
    save_model,
)
from .linalg import (
    frob_norm_sq,
    pseudo_inverse,
    sym_sqrt,
)
from .ortho import CascadeMap, OrthoResult, cascade_map, cross_cov_residual, orthogonalize
from .signals import (
    Ensemble,
    QOperatorSpec,
    SignalSequence,
    TrainingSet,
    apply_q,
    center,
    energy,
    est_cov,
)

__version__ = "0.1.0"
