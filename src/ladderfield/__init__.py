"""Gaussian field numerics on ladder graphs.

Chain complexes with exact integer boundary operators, self-consistent
operator/source pairs, closed-form ladder spectra and their Lorentzian
continuation, restricted Gaussian partition functions with quadrature
and Monte Carlo oracles, two-source interference phases, and
momentum-space gauge kernels for the continuum checks.
"""

__version__ = "0.1.0"

from .chain_complex import (
    ChainComplex,
    LadderGraph,
    Link,
    ValidationReport,
    boundary_1,
    boundary_2,
    build_chain_complex,
    build_ladder_graph,
    parse_graph,
    serialize_graph,
    validate_complex,
)
from .errors import GaugeObstruction, RowSpaceError, SccViolation
from .gauge_continuum import (
    MINKOWSKI,
    fierz_pauli_apply,
    fierz_pauli_kernel,
    gauge_tensor,
    maxwell_kernel,
    minkowski_square,
    null_residual,
    null_space_dimension,
)
from .partition import (
    PartitionResult,
    brute_force_Z,
    classical_solution,
    euclidean_Z,
    outcome_probability,
    project_source,
)
from .scc import (
    SccReport,
    SccSystem,
    build_operator,
    build_source,
    build_system,
    gradient_link_values,
    null_space_basis,
    verify_scc,
)
from .spectral import (
    Spectrum,
    continue_to_lorentzian,
    ladder_spectrum_closed_form,
    lorentzian_operator,
    numeric_spectrum,
    parity_swap_matrix,
)
from .twinslit import (
    PhaseDecomposition,
    SlitGeometry,
    TrigIdentityReport,
    TwinSlitConfig,
    conditional_amplitude,
    geometry_to_links,
    interference_order,
    interference_phase_difference,
    nrqm_intensity,
    nrqm_maximum_position,
    path_difference,
    path_lengths,
    phase_decomposition,
    phase_exponent,
    split_links,
    trig_lemmas,
    uniform_link_values,
)

__all__ = [name for name in dir() if not name.startswith("_")]
