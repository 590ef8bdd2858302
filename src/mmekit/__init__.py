"""Mixed maximally entangled (MME) states of finite multipartite systems:
which mode structures can host them, at what ranks, how to build them,
and how to certify them by decomposition sampling.

Levels and mode labels are 1-based throughout, with mode 1 the most
significant digit of the mixed-radix scalar index.
"""

from .entcore import (
    LStarSet,
    UnsupportedSystemError,
    ent_pure,
    lstar,
    mpsrp_purity,
)
from .linalg import (
    DensityMatrix,
    PureStateVector,
)
from .mme import (
    ExampleSetReport,
    MmeRankReport,
    MmeState,
    compatible,
    construct,
    loose_bound,
    max_mme_rank,
    validate_example_set,
)
from .modes import (
    ModeStructure,
    parse_dims,
    project_level,
    scalar_to_vector,
    vector_to_scalar,
)
from .tgx import (
    LocalUnitarySet,
    MeTgxTuple,
    apply_lu,
    build_tgx_state,
    enumerate_me_tuples,
    is_me_tuple,
)
from .verify import (
    DecompositionSample,
    EntEstimate,
    SpectralState,
    as_spectral,
    comparison_family_spectral,
    decompose,
    haar_unitary,
    min_avg_ent,
    random_lu_set,
    reduction_purity_report,
    u2,
)

__version__ = "0.1.0"

__all__ = [
    "DecompositionSample",
    "DensityMatrix",
    "EntEstimate",
    "ExampleSetReport",
    "LStarSet",
    "LocalUnitarySet",
    "MeTgxTuple",
    "MmeRankReport",
    "MmeState",
    "ModeStructure",
    "PureStateVector",
    "SpectralState",
    "UnsupportedSystemError",
    "apply_lu",
    "as_spectral",
    "build_tgx_state",
    "comparison_family_spectral",
    "compatible",
    "construct",
    "decompose",
    "ent_pure",
    "enumerate_me_tuples",
    "haar_unitary",
    "is_me_tuple",
    "loose_bound",
    "lstar",
    "max_mme_rank",
    "min_avg_ent",
    "mpsrp_purity",
    "parse_dims",
    "project_level",
    "random_lu_set",
    "reduction_purity_report",
    "scalar_to_vector",
    "u2",
    "validate_example_set",
    "vector_to_scalar",
]
