"""Energy-stable pseudospectral solver for multi-length-scale
phase-field-crystal gradient flows on quasiperiodic (projected) lattices."""

from .errors import BulkPositivityError, ConfigError, GridMismatchError, NumericalError
from .lattice import (
    IndexGrid,
    OperatorSymbol,
    ProjectionSpec,
    build_grid,
    build_symbol,
    sample_real_space,
)
from .field import (
    PhysicalField,
    SpectralField,
    apply_symbol,
    dump_field,
    enforce_hermitian,
    field_from_coeffs,
    hermitian_violation,
    inner_ap,
    load_field,
    norm_ap,
    pointwise_poly,
    pointwise_poly_mean,
    project_mean,
    to_physical,
    to_spectral,
    zeros_field,
)
from .model import (
    ModelParams,
    bulk_mean,
    energy,
    nprime,
    variational_derivative,
)
from .sav_cn import StepReport, StepperState, cn_step, evolve, init_state, modified_energy
from .sdc import (
    ChebGrid,
    SdcTrajectory,
    block_bytes,
    cheb_nodes,
    correct,
    integration_matrix,
    predict,
    sdc_solve,
)
from .harness import (
    ExperimentConfig,
    build_initial,
    classify_fold,
    dodecagonal_projection,
    parse_config,
    render_field,
    ring_star_modes,
    run_convergence,
    run_evolution,
    run_scales_study,
    serialize_config,
    spectrum_report,
    write_pgm,
)

__version__ = "0.1.0"
