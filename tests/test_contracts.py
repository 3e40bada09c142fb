"""Input contracts every layer shares: the ladder vertex count, the int64
range of exact arithmetic, and the package's public names."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladderfield
from ladderfield.chain_complex import build_chain_complex, build_ladder_graph, check_n
from ladderfield.errors import SccViolation
from ladderfield.scc import (
    SccSystem,
    build_operator,
    build_source,
    build_system,
    gradient_link_values,
    verify_scc,
)
from ladderfield.spectral import (
    ladder_spectrum_closed_form,
    lorentzian_operator,
    parity_swap_matrix,
)
from ladderfield.twinslit import (
    SlitGeometry,
    TwinSlitConfig,
    geometry_to_links,
    interference_phase_difference,
    phase_decomposition,
    split_links,
    trig_lemmas,
    uniform_link_values,
)

N_ENTRY_POINTS = {
    "check_n": check_n,
    "build_ladder_graph": build_ladder_graph,
    "ladder_spectrum_closed_form": ladder_spectrum_closed_form,
    "trig_lemmas": trig_lemmas,
    "phase_decomposition": lambda n: phase_decomposition(np.zeros(7), n, 1.0, 1.0, 1.0),
    "split_links": lambda n: split_links(np.zeros(7), n),
    "uniform_link_values": lambda n: uniform_link_values(n, 1.0, 1.0),
    "geometry_to_links": lambda n: geometry_to_links(SlitGeometry(10.0, 1000.0, 0.0, 2.0), n),
    "parity_swap_matrix": parity_swap_matrix,
    "TwinSlitConfig": lambda n: TwinSlitConfig(n, 1.0, 0.5, 1.0, 1.0, 1.0),
    "interference_phase_difference": lambda n: interference_phase_difference(
        TwinSlitConfig.calibrated(n, 1.0, 0.5, 1.0, 2.0)
    ),
}


@pytest.mark.parametrize("n", [6.5, 7, 5, 2])
@pytest.mark.parametrize("entry", sorted(N_ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_vertex_count_the_same_way(entry, n):
    message = f"vertex count must be an even integer >= 4, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        N_ENTRY_POINTS[entry](n)


def test_check_n_returns_an_int():
    assert check_n(6.0) == 6 and type(check_n(6.0)) is int


# ---------------------------------------------------------------------------
# exact integer arithmetic never wraps around


def test_verify_scc_refuses_products_past_int64():
    # J wrapped exactly as an unguarded int64 source build would wrap it,
    # so both sides of the identity agree modulo 2**64.
    c = build_chain_complex(4)
    v = np.array([2**62, 0, 0, 0])
    K = build_operator(c, 1, 1)
    system = SccSystem(n=1, alpha=3, beta=1, hbar=1.0, K=K, J=3 * (K @ v), boundary=c.d1)
    with pytest.raises(ValueError, match="overflow int64"):
        verify_scc(system, v)


def test_builders_refuse_products_past_int64():
    c = build_chain_complex(4)
    with pytest.raises(ValueError, match="overflow int64"):
        build_system(c, 1, np.array([-(2**62), 0, -(2**62), 0]), alpha=3)
    with pytest.raises(ValueError, match="overflow int64"):
        gradient_link_values(c, np.array([2**62, 0, 0, 0]))
    with pytest.raises(ValueError, match="overflow int64"):
        build_operator(c, 1, 2**62)
    with pytest.raises(ValueError, match="overflow int64"):
        build_source(c, 1, np.zeros(4, dtype=np.int64), 2**70)


def test_verify_scc_reports_the_unwrapped_residual():
    # both sides are in int64 range, but their difference is not
    c = build_chain_complex(4)
    v = np.array([2**60, 0, 0, 0])
    system = SccSystem(n=1, alpha=1, beta=1, hbar=1.0, K=build_operator(c, 1, 1),
                       J=np.array([-(2**63 - 1), 0, 0, 0]), boundary=c.d1)
    with pytest.raises(SccViolation) as excinfo:
        verify_scc(system, v)
    assert excinfo.value.max_residual == pytest.approx(2**61 + 2**63 - 1, rel=1e-15)


@pytest.mark.parametrize(
    "e, alpha",
    [([1e300, 0, 0, 0], 1e10), ([1e308, 1e308, 1e308, 1e308], 1.0), ([1.0, 0, 0, 0], float("nan"))],
)
def test_build_source_refuses_a_non_finite_source(e, alpha):
    with pytest.raises(ValueError, match="^source alpha \\* d @ e is not finite"):
        build_source(build_chain_complex(4), 1, np.array(e), alpha)


def test_products_just_inside_int64_stay_exact():
    c = build_chain_complex(4)
    J = build_source(c, 1, gradient_link_values(c, np.array([2**62 - 1, 0, 0, 0])), 1)
    assert J[0] == 2 * (2**62 - 1)
    # K's first row sum is 4, so verify_scc's bound is 4 * max|v|
    v = np.array([2**61 - 1, 0, 0, 0])
    system = build_system(c, 1, gradient_link_values(c, v), alpha=1, beta=1)
    assert verify_scc(system, v).exact


@settings(max_examples=60, deadline=None)
@given(
    e=st.lists(st.integers(-(2**62), 2**62), min_size=7, max_size=7),
    alpha=st.integers(-8, 8),
)
def test_integer_source_is_exact_or_refused(e, alpha):
    """build_source never returns a wrapped value, and refuses only past its bound."""
    d = build_chain_complex(6).d1
    exact = [alpha * sum(int(d[i, k]) * e[k] for k in range(7)) for i in range(6)]
    bound = abs(alpha) * 3 * max(abs(x) for x in e)  # row sums of d1 are 2 or 3
    try:
        J = build_source(build_chain_complex(6), 1, np.array(e, dtype=np.int64), alpha)
    except ValueError:
        assert bound >= 2**63
    else:
        assert J.dtype == np.int64 and [int(x) for x in J] == exact


# ---------------------------------------------------------------------------
# couplings are finite numbers

COUPLING_ENTRY_POINTS = {
    "build_operator": lambda beta: build_operator(build_chain_complex(4), 1, beta),
    "build_system": lambda beta: build_system(build_chain_complex(4), 1, np.zeros(4), beta=beta),
    "ladder_spectrum_closed_form": lambda beta: ladder_spectrum_closed_form(6, beta=beta),
    "lorentzian_operator": lambda beta: lorentzian_operator(np.zeros((6, 6), dtype=np.int64), beta),
}


@pytest.mark.parametrize("beta", [float("inf"), -float("inf"), float("nan"), np.float64("inf")])
@pytest.mark.parametrize("entry", sorted(COUPLING_ENTRY_POINTS))
def test_every_entry_point_refuses_a_non_finite_coupling(entry, beta):
    # RuntimeWarning is an error in this suite, so a numpy warning on the way fails too
    message = f"coupling beta must be finite, got {beta!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        COUPLING_ENTRY_POINTS[entry](beta)


# ---------------------------------------------------------------------------
# package surface


def test_public_names_are_pinned():
    assert sorted(ladderfield.__all__) == [
        "ChainComplex", "GaugeObstruction", "LadderGraph", "Link", "MINKOWSKI",
        "PartitionResult", "PhaseDecomposition", "RowSpaceError", "SccReport",
        "SccSystem", "SccViolation", "SlitGeometry", "Spectrum", "TrigIdentityReport",
        "TwinSlitConfig", "ValidationReport", "boundary_1", "boundary_2", "brute_force_Z",
        "build_chain_complex", "build_ladder_graph", "build_operator", "build_source",
        "build_system", "chain_complex", "classical_solution", "conditional_amplitude",
        "continue_to_lorentzian", "errors", "euclidean_Z", "fierz_pauli_apply",
        "fierz_pauli_kernel", "gauge_continuum", "gauge_tensor", "geometry_to_links",
        "gradient_link_values", "interference_order", "interference_phase_difference",
        "ladder_spectrum_closed_form", "lorentzian_operator", "maxwell_kernel",
        "minkowski_square", "nrqm_intensity", "nrqm_maximum_position", "null_residual",
        "null_space_basis", "null_space_dimension", "numeric_spectrum",
        "outcome_probability", "parity_swap_matrix", "parse_graph", "partition",
        "path_difference", "path_lengths", "phase_decomposition", "phase_exponent",
        "project_source", "scc", "serialize_graph", "spectral", "split_links",
        "trig_lemmas", "twinslit", "uniform_link_values", "validate_complex", "verify_scc",
    ]
