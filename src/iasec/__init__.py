"""Numerical laboratory for interference-alignment precoding with secrecy.

Implements the aligned-beamformer construction on the symbol-extended K-user
Gaussian interference channel, the Gaussian log-det mutual-information engine,
secrecy/randomization rate allocation for the confidential-messages model, and
the ergodic external-eavesdropper machinery, all under deterministic seeding.
"""

__version__ = "0.1.0"

from .model import (
    NetworkRealization,
    PowerConfig,
    SystemDims,
    derive_dims,
    sample_eavesdropper_block,
    sample_network,
    sub_rng,
)
from .alignment import (
    AlignmentError,
    AlignmentSet,
    build_beamformers,
    build_generators,
    check_full_rank,
    numerical_rank,
    stream_power,
    verify_alignment,
)
from .gaussmi import (
    DEFAULT_RHO_GRID,
    MiValue,
    NumericalError,
    SlopeEstimate,
    estimate_slope,
    expectation,
    mi_from_gains,
    mi_schur,
    spectra_table,
)
from .secrecy import (
    confidential_rates,
    decodability_check,
    equivocation_deficit,
    randomization_region_check,
)
from .ergodic import (
    block_network,
    eavesdropper_budget_check,
    ergodic_pass,
    ergodic_rates,
    mi_inequality_audit,
)
