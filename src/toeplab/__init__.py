"""Numerical laboratory for Berezin-Toeplitz quantization on T^2 and S^2.

Builds quantization matrices for finite symbol expansions, perturbs them with
scaled complex Gaussian noise, and measures spectral distribution, potential
convergence, bordered-system determinant identities, and symbol-calculus
residuals at finite matrix size.
"""

__version__ = "0.1.0"

from .geometry import (
    PhaseSpace,
    QuadratureGrid,
    RegularityEstimate,
    SymbolSpec,
    estimate_kappa,
    liouville_quadrature,
    make_phase_space,
    scottish_flag_symbol,
    sphere_symbol,
    symbol_from_record,
    symbol_to_record,
    torus_symbol,
)
from .quantize import (
    ToeplitzMatrix,
    bergman_dimension,
    quantize_sphere,
    quantize_symbol,
    quantize_torus,
)
from .randmat import (
    derive_seed,
    noise_window,
    operator_norm,
    sample_ginibre,
    smin_tail_experiment,
)
from .spectra import (
    empirical_cdf_disks,
    weyl_predict,
)
from .potential import (
    log_abs_det,
)
from .grushin import (
    GrushinParams,
    GrushinSystem,
    SingularTriples,
    SplitDiagnostics,
    assemble_grushin,
    b_diagnostics,
    closed_form_inverse,
    grushin_params,
    schur_identity_residual,
    singular_triples,
    small_eigen_count_scan,
)
from .calculus import (
    ResidualCurve,
    chebyshev_surrogate,
    composition_residual,
    functional_calculus_residual,
    norm_bound_check,
    trace_residual,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    acceptance_config,
    preset_config,
    run,
    verify,
)
