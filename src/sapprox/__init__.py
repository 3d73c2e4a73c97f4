"""sapprox: exact S-arithmetic Diophantine approximation.

S-integer rings with per-place norms, approximation-function collections,
exact adelic volumes, and congruence-constrained solution counting, plus a
seeded experiment harness that checks the counts against the volume
prediction.
"""

__version__ = "0.1.0"

from .sring import (  # noqa: F401
    REAL_PLACE,
    NormProfile,
    PlaceSet,
    SRational,
    SVector,
    congruent_mod,
    enumerate_box,
    norm_at,
    padic_valuation,
)
from .approx import (  # noqa: F401
    ApproxCollection,
    ConstantOne,
    FiniteApproxFunction,
    LogLaw,
    PowerLaw,
    Scaled,
    UserStep,
    diverges,
    inflate,
    integral_diverges,
    psi_one,
)
from .volume import Region, VolumeResult, contains, volume_exact, volume_monte_carlo  # noqa: F401
from .counting import (  # noqa: F401
    CountRequest,
    InsufficientPrecision,
    TruncatedMatrix,
    count_solutions,
    count_solutions_bruteforce,
    dirichlet_solve,
    discrepancy,
    profile_count_bound,
    rescale_congruence,
)
from .sampler import SamplerConfig, deepen, sample_matrix  # noqa: F401
