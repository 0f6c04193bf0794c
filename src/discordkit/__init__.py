"""Numerical toolkit for quantum-correlation measures.

Density-matrix algebra, named and seeded state families, projective
measurement optimization, quantum discord and classical correlation,
entanglement of formation, and tolerance-aware verification suites for the
entropy identities and bounds tying them together.
"""

from .config import OptimizerConfig
from .correlations import (
    CorrelationReport,
    DiscordBoundError,
    OptimizedValue,
    ReDiscordDetail,
    classical_correlation,
    correlation_report,
    discord,
    discord_distance,
    min_conditional_entropy,
    minimize_over_measurements,
    mutual_information,
    re_discord,
    re_discord_detailed,
)
from .entanglement import (
    EnsembleDecomposition,
    EofResult,
    concurrence_2qubit,
    eof_2qubit,
    eof_pure,
    eof_upper,
)
from .measurement import (
    OutcomeEnsemble,
    POVM,
    ProjectiveMeasurement,
    apply_measurement,
    avg_conditional_entropy,
    dephase,
    projective_from_params,
)
from .qstate import (
    InvalidStateError,
    PureStateVector,
    QState,
    Spectrum,
    StateDiagnostics,
    conditional_entropy,
    partial_trace,
    permute_subsystems,
    purify,
    purity,
    spectrum,
    state_from_json,
    state_to_json,
    tensor,
    validate,
    von_neumann_entropy,
)
from .states import (
    StateFamilySpec,
    classical_quantum,
    example3_state,
    haar_random_pure,
    random_mixed,
    werner_2qubit_example4,
    werner_qudit,
)
from .verify import BoundCheck, SuiteReport, run_suite

__version__ = "0.1.0"
