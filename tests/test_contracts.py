"""Input contracts every layer shares: the ladder vertex count, the int64
range of exact arithmetic, and the package's public names."""

import ast
import importlib
import inspect
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

import ladderfield
from ladderfield.chain_complex import LadderGraph, build_chain_complex, build_ladder_graph, check_n, parse_graph
from ladderfield.errors import RowSpaceError, SccViolation
from ladderfield.gauge_continuum import (
    fierz_pauli_apply,
    fierz_pauli_kernel,
    gauge_tensor,
    lower_index,
    maxwell_kernel,
    minkowski_square,
    null_residual,
    null_space_dimension,
    output_divergence,
    sym_to_vec,
    vec_to_sym,
)
from ladderfield.partition import (
    brute_force_Z,
    classical_solution,
    euclidean_Z,
    outcome_probability,
    project_source,
)
from ladderfield.scc import (
    SccSystem,
    build_operator,
    build_source,
    build_system,
    gradient_link_values,
    null_space_basis,
    verify_scc,
)
from ladderfield.spectral import (
    continue_to_lorentzian,
    ladder_spectrum_closed_form,
    lorentzian_operator,
    numeric_spectrum,
    parity_swap_matrix,
)
from ladderfield.twinslit import (
    SlitGeometry,
    TwinSlitConfig,
    conditional_amplitude,
    geometry_to_links,
    interference_phase_difference,
    nrqm_intensity,
    nrqm_maximum_position,
    phase_decomposition,
    phase_exponent,
    split_links,
    trig_lemmas,
    uniform_link_values,
)

N_ENTRY_POINTS = {
    "check_n": check_n,
    "build_ladder_graph": build_ladder_graph,
    "LadderGraph": lambda n: LadderGraph(n, (), ()),
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


@pytest.mark.parametrize("n", [6.5, 7, 5, 2, float("inf"), float("-inf"), float("nan")])
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


_OVERFLOW = "source alpha * d @ e is not finite: the inputs overflow the float range"


@pytest.mark.parametrize(
    "e, alpha, message",
    [
        ([1e300, 0, 0, 0], 1e10, _OVERFLOW), ([1e308, 1e308, 1e308, 1e308], 1.0, _OVERFLOW),
        # a NaN alpha was once called an overflow too
        ([1.0, 0, 0, 0], float("nan"), "coupling alpha must be finite, got nan"),
        ([1.0, 0, 0, 0], 10**400, _OVERFLOW),
    ],
    ids=["e0-10000000000.0", "e1-1.0", "e2-nan", "int_alpha_past_the_float_range"],
)
def test_build_source_refuses_a_non_finite_source(e, alpha, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
    "phase_decomposition": lambda beta: phase_decomposition(np.ones(7), 6, 1.0, 1.0, beta),
    "phase_exponent": lambda beta: phase_exponent([1.0], [1.0], 1.0, beta),
}


@pytest.mark.parametrize("beta", [float("inf"), -float("inf"), float("nan"), np.float64("inf")])
@pytest.mark.parametrize("entry", sorted(COUPLING_ENTRY_POINTS))
def test_every_entry_point_refuses_a_non_finite_coupling(entry, beta):
    # RuntimeWarning is an error in this suite, so a numpy warning on the way fails too
    message = f"coupling beta must be finite, got {beta!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        COUPLING_ENTRY_POINTS[entry](beta)


@pytest.mark.parametrize("beta", [1j, np.complex128(1.0), "1", None])
@pytest.mark.parametrize("entry", sorted(COUPLING_ENTRY_POINTS))
def test_every_entry_point_refuses_a_coupling_that_is_not_real(entry, beta):
    # a complex beta was once a TypeError from math.isfinite
    message = f"coupling beta must be a real number, got {beta!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        COUPLING_ENTRY_POINTS[entry](beta)


PHASE_COUPLINGS = {
    "phase_decomposition": lambda alpha=1.0, hbar=1.0, beta=1.0: phase_decomposition(
        np.ones(7), 6, alpha, hbar, beta
    ),
    "phase_exponent": lambda hbar=1.0, beta=1.0: phase_exponent([1.0], [1.0], hbar, beta),
    "interference_phase_difference": lambda alpha=1.0, hbar=1.0, beta=1.0: interference_phase_difference(
        TwinSlitConfig(6, 1.0, 0.5, 1.0, alpha, beta, hbar)
    ),
}


@pytest.mark.parametrize(
    "entry, name",
    [
        ("phase_decomposition", "alpha"), ("phase_decomposition", "hbar"), ("phase_exponent", "hbar"),
        ("interference_phase_difference", "alpha"), ("interference_phase_difference", "beta"),
    ],
)
@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_phase_functions_name_the_non_finite_coupling(entry, name, value):
    message = f"coupling {name} must be finite, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PHASE_COUPLINGS[entry](**{name: value})


@pytest.mark.parametrize("name", ["hbar", "beta"])
@pytest.mark.parametrize("value", [0, 0.0, -0.0])
@pytest.mark.parametrize("entry", sorted(PHASE_COUPLINGS))
def test_phase_functions_refuse_a_zero_divisor(entry, name, value):
    message = f"coupling {name} must be nonzero, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PHASE_COUPLINGS[entry](**{name: value})


def _huge_source_system(scale, beta=1.0):
    c = build_chain_complex(8)
    return build_system(c, 1, gradient_link_values(c, [scale, 0, 0, 0, 0, 0, 0, 0]), beta=beta)


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: phase_decomposition(np.ones(7) * 1e200, 6, 1.0, 1.0, 1.0), "phase decomposition"),
        (lambda: phase_decomposition(np.ones(7), 6, 1e200, 1.0, 1.0), "phase decomposition"),
        (lambda: phase_decomposition(np.ones(7), 6, 1.0, 1e-320, 1e-10), "phase decomposition"),
        (lambda: phase_exponent([1e200], [1.0], 1.0, 1.0), "phase exponent"),
        (lambda: phase_exponent([1.0], [1.0], 1e-320, 1e-10), "phase exponent"),
        (lambda: build_operator(build_chain_complex(4), 1, 1e308), "operator beta * d @ d.T"),
        (lambda: ladder_spectrum_closed_form(6, 1e308), "closed-form spectrum"),
        (lambda: lorentzian_operator(np.eye(4) * 1e308, 1e308), "Lorentzian operator"),
        (lambda: lorentzian_operator(np.eye(4) * 1.7e308, -1e308), "Lorentzian operator"),
        (lambda: project_source(np.full(8, 1e308), ladder_spectrum_closed_form(8)), "source projection"),
        (lambda: project_source(np.full(8, 1e308), replace(ladder_spectrum_closed_form(8))), "source projection"),
        (lambda: project_source(np.full(8, 1e308), numeric_spectrum(build_operator(build_chain_complex(8), 1, 1))),
         "source projection"),
        (lambda: euclidean_Z(_huge_source_system(1e160), ladder_spectrum_closed_form(8)), "Z exponent"),
        (lambda: euclidean_Z(_huge_source_system(1e200), ladder_spectrum_closed_form(8)), "Z exponent"),
        (lambda: classical_solution(_huge_source_system(1e10, beta=1e-300), ladder_spectrum_closed_form(8, 1e-300)),
         "mode sum"),
        (lambda: conditional_amplitude(TwinSlitConfig.calibrated(8, 1.0, 0.5, 1.0, 2.0), 1, 1e200, 4),
         "conditional phase"),
        (lambda: interference_phase_difference(TwinSlitConfig(6, 1e200, 0.5, 1.0, 1.0, 1.0)),
         "interference phase difference"),
    ],
    ids=[
        "large_links", "large_alpha", "divisor_underflow", "exponent_large", "exponent_divisor_underflow",
        "operator_large_beta", "closed_form_large_beta", "lorentzian_large_beta", "lorentzian_large_entry",
        "projection_large_source", "projection_large_source_replaced", "projection_large_source_numeric",
        "z_exponent_source_1e160", "z_exponent_source_1e200", "classical_solution_small_beta",
        "conditional_phase_large_outcome", "interference_large_rung",
    ],
)
def test_phase_functions_refuse_a_phase_past_the_float_range(call, what):
    # finite inputs whose phase overflows, or whose nonzero hbar * beta underflows
    # to zero: a refusal, with neither a numpy warning nor a bare OverflowError
    message = f"{what} is not finite: the inputs overflow the float range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_partition_functions_take_a_source_whose_square_overflows(scale):
    # |J|^2 leaves the float range; the row-space check compares in units near max|J|
    s = ladder_spectrum_closed_form(8)
    system = _huge_source_system(scale)
    Q = classical_solution(system, s)
    assert_allclose(Q, scale * classical_solution(_huge_source_system(1.0), s), rtol=1e-12)
    assert math.isfinite(brute_force_Z(system, s, method="mc", budget=2000).log_magnitude)
    assert outcome_probability(system, s, 1, 0.0) == 0.0  # the mode's mean lies near the scale
    # about the mean, the exponent has no inf - inf: finite at and past the scale, the peak at the mean
    assert all(math.isfinite(outcome_probability(system, s, 1, q)) for q in (scale, 3 * scale))
    a = float(s.eigenvalues[1])
    mean = float(project_source(system.J, s)[1]) / a
    assert_allclose(outcome_probability(system, s, 1, mean), math.sqrt(a / (2 * math.pi)), rtol=1e-12)
    with pytest.raises(RowSpaceError, match="zero mode"):
        euclidean_Z(replace(system, J=np.full(8, scale)), s)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry", [split_links, lambda e, n: phase_decomposition(e, n, 1.0, 1.0, 1.0)],
    ids=["split_links", "phase_decomposition"],
)
def test_link_values_must_be_finite(entry, bad):
    e = np.ones(7)
    e[3] = bad
    with pytest.raises(ValueError, match="^link values must be finite$"):
        entry(e, 6)


_C4 = build_chain_complex(4)

#: Each entry point that reads an array of entries: a call on the array, the name its refusals give
#: it, its shape, and an argument of another shape, or None where no fixed shape is read.  Every
#: momentum is read the same way, and MOMENTUM_ENTRY_POINTS walks those.
ARRAY_ENTRY_POINTS = {
    "build_source": (lambda x: build_source(_C4, 1, x, 1.0), "cell values", (4,), np.ones(5)),
    "gradient_link_values": (lambda x: gradient_link_values(_C4, x), "vertex values", (4,), np.ones(3)),
    "project_source": (
        lambda x: project_source(x, ladder_spectrum_closed_form(4)), "source entries", (4,), np.ones(5)
    ),
    "outcome_probability": (
        lambda q: outcome_probability(build_system(_C4, 1, np.ones(4)), ladder_spectrum_closed_form(4), 1, q),
        "outcome", (), [1.0, 2.0],
    ),
    "conditional_amplitude": (
        lambda q: conditional_amplitude(TwinSlitConfig.calibrated(8, 1.0, 0.5, 1.0, 2.0), 1, q, 4),
        "outcome", (), [1.0, 2.0],
    ),
    "split_links": (lambda x: split_links(x, 6), "link values", (7,), np.ones((7, 1))),
    "phase_exponent": (lambda x: phase_exponent(x, np.ones(4), 1.0, 1.0), "projections", (4,), np.ones((2, 2))),
    "gauge_tensor": (lambda x: gauge_tensor(_K, x), "gauge parameter components", (4,), np.ones(3)),
    "vec_to_sym": (vec_to_sym, "coordinates", (10,), np.ones(9)),
    "null_residual": (lambda x: null_residual(np.eye(4), x), "direction entries", (4,), np.ones((4, 1))),
    # its kernel is read by _kernel, whose shape rules KERNEL_ENTRY_POINTS walks
    "null_space_dimension": (lambda x: null_space_dimension(np.diag(x)), "kernel entries", (4,), None),
}

_ARRAY_CASES = [
    (entry, bad) for entry in sorted(ARRAY_ENTRY_POINTS) for bad in (np.nan, np.inf, -np.inf, "shape", 1j, "text")
    if bad != "shape" or ARRAY_ENTRY_POINTS[entry][3] is not None
]
_NOT_REAL = "must be floats or integers within the int64 range (|x| < 2**63)"


@pytest.mark.parametrize("entry, bad", _ARRAY_CASES, ids=[f"{entry}-{bad}" for entry, bad in _ARRAY_CASES])
def test_every_array_entry_point_names_its_non_finite_entries(entry, bad):
    # one rule, chain_complex.check_array: a NaN source once gave NaN projections, NaN projections an
    # overflow message, and an array outcome a numpy TypeError
    call, what, shape, wrong = ARRAY_ENTRY_POINTS[entry]
    if bad == "shape":
        x, message = wrong, f"{what} have shape {np.shape(wrong)}, expected {shape}"
    elif bad in (1j, "text"):  # a complex array was once cast to float with a ComplexWarning
        x, message = np.full(shape, bad), f"{what} {_NOT_REAL}"
    else:
        x, message = np.ones(shape), f"{what} must be finite"
        x.flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(x)


@pytest.mark.parametrize("big", [2**70, -(2**63) - 1, 2**64])
@pytest.mark.parametrize("entry", ["build_source", "gradient_link_values"])
def test_integer_entry_points_refuse_an_integer_past_int64(entry, big):
    # numpy holds such a list as an object array, on which isfinite raised a TypeError
    call, what, *_ = ARRAY_ENTRY_POINTS[entry]
    message = f"{what} must be floats or integers within the int64 range (|x| < 2**63)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call([big, 0, 0, 0])


MODE_ENTRY_POINTS = {
    "outcome_probability": lambda mode: outcome_probability(
        build_system(_C4, 1, np.ones(4)), ladder_spectrum_closed_form(4), mode, 0.0
    ),
    "conditional_amplitude": lambda mode: conditional_amplitude(
        TwinSlitConfig.calibrated(6, 1.0, 0.5, 1.0, 2.0), 1, 0.0, mode
    ),
}


@pytest.mark.parametrize("mode", [1.5, 1.0, np.float64(2.0), "1", True, False])
@pytest.mark.parametrize("entry", sorted(MODE_ENTRY_POINTS))
def test_mode_entry_points_refuse_a_mode_that_is_not_an_integer(entry, mode):
    pattern = rf"^mode index must be an integer in \[0, \d+\), got {re.escape(repr(mode))}$"
    with pytest.raises(ValueError, match=pattern):
        MODE_ENTRY_POINTS[entry](mode)


SELECTOR_ENTRY_POINTS = {
    "conditional_amplitude": (
        lambda which: conditional_amplitude(TwinSlitConfig.calibrated(8, 1.0, 0.5, 1.0, 2.0), which, 0.0, 4),
        "graph selector must be 1 or 2, got {}",
    ),
    "build_operator": (lambda n: build_operator(_C4, n, 1), "unsupported chain degree {}; expected 1 or 2"),
    "build_source": (lambda n: build_source(_C4, n, np.ones(4), 1), "unsupported chain degree {}; expected 1 or 2"),
    "build_system": (lambda n: build_system(_C4, n, np.ones(4)), "unsupported chain degree {}; expected 1 or 2"),
}


@pytest.mark.parametrize("value", [True, False, 1.0, 2.0, np.float64(1.0), 3, 0])
@pytest.mark.parametrize("entry", sorted(SELECTOR_ENTRY_POINTS))
def test_integer_selectors_refuse_bools_floats_and_other_integers(entry, value):
    # one rule with the mode index: True once selected graph 1 or degree 1, and 2.0 graph 2 or degree 2
    call, message = SELECTOR_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
        call(value)


@pytest.mark.parametrize("lambda_hat", [float("inf"), float("nan"), 1e-200, 1e-154, 1e155, 1e200])
def test_calibration_refuses_couplings_outside_the_float_range(lambda_hat):
    # 1e-154: alpha fits but alpha^2 overflows; 1e155: lambda_hat^2 overflows
    message = f"lambda_hat={lambda_hat} gives a zero or non-finite alpha, beta or alpha^2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TwinSlitConfig.calibrated(8, 1.0, 0.5, 1.0, lambda_hat)


@pytest.mark.parametrize("lambda_hat", [1e-150, 1e150])
def test_calibration_just_inside_the_float_range(lambda_hat):
    cfg = TwinSlitConfig.calibrated(8, 1.0, 0.5, 1.0, lambda_hat)
    assert math.isclose(cfg.alpha**2 / (cfg.hbar * cfg.beta), 2 * math.pi, rel_tol=1e-14)


@pytest.mark.parametrize("hbar, message", [
    (0, "coupling hbar must be nonzero, got 0"), (-0.0, "coupling hbar must be nonzero, got -0.0"),
    (math.inf, "coupling hbar must be finite, got inf"), (math.nan, "coupling hbar must be finite, got nan"),
])
def test_calibration_names_a_bad_hbar(hbar, message):
    # once blamed on lambda_hat: "lambda_hat=2.0 gives a zero or non-finite alpha, beta or alpha^2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TwinSlitConfig.calibrated(8, 1.0, 0.5, 1.0, 2.0, hbar=hbar)


WAVELENGTH_ENTRY_POINTS = {
    "geometry_to_links": lambda lam: geometry_to_links(SlitGeometry(10.0, 1000.0, 1.0, lam), 8),
    "nrqm_intensity": lambda lam: nrqm_intensity(1.0, lam),
    "nrqm_maximum_position": lambda lam: nrqm_maximum_position(10.0, 1000.0, lam, 1),
    "nrqm_maximum_position_order_0": lambda lam: nrqm_maximum_position(10.0, 1000.0, lam, 0),
}


@pytest.mark.parametrize("lam", [0.0, -0.0, -2.0, math.nan, -math.inf, math.inf])
@pytest.mark.parametrize("entry", sorted(WAVELENGTH_ENTRY_POINTS))
def test_wavelength_entry_points_refuse_a_wavelength_that_is_not_positive(entry, lam):
    # a NaN wavelength once gave NaN rung values, a zero one a ZeroDivisionError or -0.0,
    # an infinite one rung values (0.0, 0.0) and a flat intensity of 4.0
    message = f"wavelength must be a positive finite number, got {lam}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WAVELENGTH_ENTRY_POINTS[entry](lam)


@pytest.mark.parametrize("path_diff", [math.nan, math.inf, -math.inf])
def test_nrqm_intensity_refuses_a_path_difference_that_is_not_finite(path_diff):
    with pytest.raises(ValueError, match=f"^{re.escape(f'path difference must be finite, got {path_diff}')}$"):
        nrqm_intensity(path_diff, 2.0)


def test_outcome_probability_refuses_an_outcome_that_is_not_finite():
    for outcome in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^outcome must be finite$"):
            outcome_probability(build_system(_C4, 1, np.ones(4)), ladder_spectrum_closed_form(4), 1, outcome)


def _negative_mode_refusal():
    n = 6  # continued: eigenvalues -2, -1, 0, 1, 1, 3
    c = build_chain_complex(n)
    system = build_system(c, 1, gradient_link_values(c, np.arange(n)))
    outcome_probability(system, continue_to_lorentzian(ladder_spectrum_closed_form(n), n), 0, 0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_graph("# a comment\n\n"), "empty graph description"),
        (lambda: project_source(np.ones(5), ladder_spectrum_closed_form(4)),
         "source entries have shape (5,), expected (4,)"),
        (lambda: gradient_link_values(_C4, np.ones(3)), "vertex values have shape (3,), expected (4,)"),
        (lambda: verify_scc(build_system(_C4, 1, np.ones(4)), np.ones(5)),
         "vertex values have shape (5,), expected (4,)"),
        (lambda: vec_to_sym(np.ones(9)), "coordinates have shape (9,), expected (10,)"),
        (lambda: phase_decomposition(np.ones(7), 6, 1.0, 1.0, 1.0, regime="minkowski"), "unknown regime 'minkowski'"),
        (lambda: TwinSlitConfig.calibrated(8, 1.0, 0.5, 1.0, lambda_hat=0), "lambda_hat must be positive, got 0"),
        (lambda: continue_to_lorentzian(ladder_spectrum_closed_form(6), 8), "spectrum has 6 modes but n_vertices is 8"),
        (_negative_mode_refusal, "non-Gaussian-convergent mode: eigenvalue -2.000000e+00 <= 0"),
        # once a bare "math domain error"
        (lambda: nrqm_intensity(1.0, 1e-320), "NRQM phase is not finite: the inputs overflow the float range"),
        # once a NaN position, and order 1.5 a minimum's position
        (lambda: nrqm_maximum_position(math.nan, 1000.0, 1.0, 1),
         "slit separation and screen distance must be finite, got nan and 1000.0"),
        (lambda: nrqm_maximum_position(10.0, math.inf, 1.0, 1),
         "slit separation and screen distance must be finite, got 10.0 and inf"),
        (lambda: nrqm_maximum_position(1000.0, 1000.0, 1.0, 1.5), "order must be an integer, got 1.5"),
        (lambda: nrqm_maximum_position(1000.0, 1000.0, 1.0, True), "order must be an integer, got True"),
        # once NaN coordinates, then an overflow message twice
        (lambda: sym_to_vec(np.full((4, 4), np.nan)), "tensor entries must be finite"),
        (lambda: output_divergence(_K, np.full(4, np.nan)), "output entries must be finite"),
        (lambda: phase_exponent(np.ones(4), [1.0, np.nan, 1.0, 1.0], 1.0, 1.0), "eigenvalues must be finite"),
    ],
    ids=[
        "parse_graph_no_data_lines", "project_source_wrong_length", "gradient_wrong_length",
        "verify_scc_wrong_length", "vec_to_sym_wrong_shape", "phase_decomposition_unknown_regime",
        "calibration_zero_lambda_hat", "continuation_mismatched_n", "outcome_at_a_negative_continued_mode",
        "nrqm_intensity_phase_past_the_float_range", "nrqm_maximum_position_nan_separation",
        "nrqm_maximum_position_infinite_screen", "nrqm_maximum_position_fractional_order",
        "nrqm_maximum_position_bool_order", "sym_to_vec_nan_tensor", "output_divergence_nan_output",
        "phase_exponent_nan_eigenvalue",
    ],
)
def test_refusals_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_zero_kernel_is_all_null_space():
    assert null_space_dimension(np.zeros((4, 4))) == 4


@pytest.mark.parametrize("d, L", [(math.nan, 1000.0), (10.0, math.inf), (10.0, math.nan)])
def test_geometry_to_links_refuses_non_finite_path_lengths(d, L):
    with pytest.raises(ValueError, match="^path lengths must be finite, got "):
        geometry_to_links(SlitGeometry(d, L, 0.0, 2.0), 8)


# ---------------------------------------------------------------------------
# four-vectors, 4x4 tensors and symmetric matrices

_K = np.array([1.5, 0.3, 0.0, -0.2])

MOMENTUM_ENTRY_POINTS = {
    "minkowski_square": minkowski_square,
    "lower_index": lower_index,
    "maxwell_kernel": maxwell_kernel,
    "fierz_pauli_apply": lambda k: fierz_pauli_apply(k, np.eye(4)),
    "fierz_pauli_kernel": fierz_pauli_kernel,
    "gauge_tensor": lambda k: gauge_tensor(k, _K),
    "output_divergence": lambda k: output_divergence(k, np.eye(4)),
}


@pytest.mark.parametrize(
    "k, message",
    [
        ([np.inf, 0, 0, 0], "momentum components must be finite"),
        ([0, 0, -np.inf, 0], "momentum components must be finite"),
        ([1.0, np.nan, 0, 0], "momentum components must be finite"),
        ([1, 2, 3], "momentum components have shape (3,), expected (4,)"),
        (np.eye(4), "momentum components have shape (4, 4), expected (4,)"),
        (2.0, "momentum components have shape (), expected (4,)"),
    ],
)
@pytest.mark.parametrize("entry", sorted(MOMENTUM_ENTRY_POINTS))
def test_every_momentum_entry_point_refuses_a_bad_four_vector_the_same_way(entry, k, message):
    # RuntimeWarning is an error in this suite, so a numpy warning on the way fails too
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MOMENTUM_ENTRY_POINTS[entry](np.array(k, dtype=float))


_HUGE = np.array([1.0, 0.2, -0.3, 0.5]) * 1e200


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: maxwell_kernel(_HUGE), "Maxwell kernel"),
        (lambda: fierz_pauli_kernel(_HUGE), "Fierz-Pauli kernel"),
        (lambda: fierz_pauli_apply(_HUGE, np.eye(4) * 1e200), "Fierz-Pauli output"),
        (lambda: fierz_pauli_apply(_K, np.eye(4) * 1e308), "Fierz-Pauli output"),
        (lambda: fierz_pauli_apply(_HUGE, np.ones((3, 4, 4))), "Fierz-Pauli output"),
        (lambda: minkowski_square(_HUGE), "Minkowski square"),
        (lambda: gauge_tensor(_HUGE, _HUGE), "gauge tensor"),
        (lambda: output_divergence(_HUGE, np.eye(4) * 1e200), "output divergence"),
        (lambda: null_residual(np.eye(4) * 1e300, np.ones(4) * 1e300), "null residual"),
        (lambda: null_residual(np.diag([0.0, 0, 0, 1]), np.ones(4) * 1e300), "null residual"),
    ],
    ids=[
        "maxwell_kernel", "fierz_pauli_kernel", "fierz_pauli_apply", "apply_large_h", "apply_stack",
        "minkowski_square", "gauge_tensor", "output_divergence", "null_residual", "residual_large_direction",
    ],
)
def test_gauge_kernels_refuse_a_result_past_the_float_range(call, what):
    # finite inputs whose products overflow: a refusal, with no numpy warning on the way
    message = f"{what} is not finite: the inputs overflow the float range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_gauge_tensor_refuses_a_bad_gauge_parameter():
    with pytest.raises(ValueError, match="^gauge parameter components must be finite$"):
        gauge_tensor(_K, [np.inf, 0, 0, 0])
    with pytest.raises(ValueError, match=re.escape("gauge parameter components have shape (3,), expected (4,)")):
        gauge_tensor(_K, [1, 2, 3])


@pytest.mark.parametrize("shape", [(3, 3), (4,), (4, 3), (2, 4, 5), ()])
@pytest.mark.parametrize(
    "entry", [sym_to_vec, lambda h: fierz_pauli_apply(_K, h)], ids=["sym_to_vec", "fierz_pauli_apply"]
)
def test_tensor_entry_points_refuse_a_shape_other_than_4x4(entry, shape):
    message = f"expected a 4x4 tensor or a stack of them, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(np.zeros(shape))


SYMMETRIC_ENTRY_POINTS = {
    "numeric_spectrum": numeric_spectrum,
    "null_space_basis": null_space_basis,
    "fierz_pauli_apply": lambda h: fierz_pauli_apply(_K, h),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(SYMMETRIC_ENTRY_POINTS))
def test_symmetric_entry_points_refuse_non_finite_entries(entry, bad):
    h = np.eye(4)
    h[0, 0] = bad
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        SYMMETRIC_ENTRY_POINTS[entry](h)


@pytest.mark.parametrize("entry", sorted(SYMMETRIC_ENTRY_POINTS))
def test_symmetric_entry_points_refuse_an_asymmetric_matrix(entry):
    h = np.eye(4)
    h[0, 1] = 1e-6
    with pytest.raises(ValueError, match=re.escape("matrix is not symmetric (max asymmetry 1.000e-06)")):
        SYMMETRIC_ENTRY_POINTS[entry](h)


@pytest.mark.parametrize("entry", sorted(SYMMETRIC_ENTRY_POINTS))
def test_symmetric_entry_points_refuse_an_asymmetry_beyond_the_float_range(entry):
    # 1e308 - (-1e308) overflows: the verdict is the refusal, with no numpy warning on the way
    h = np.zeros((4, 4))
    h[0, 1], h[1, 0] = 1e308, -1e308
    with pytest.raises(ValueError, match=re.escape("matrix is not symmetric (max asymmetry inf)")):
        SYMMETRIC_ENTRY_POINTS[entry](h)


SQUARE_ENTRY_POINTS = {
    "numeric_spectrum": numeric_spectrum,
    "null_space_basis": null_space_basis,
    "lorentzian_operator": lorentzian_operator,
}


@pytest.mark.parametrize("shape", [(4, 6), (4,), (2, 4, 4), ()])
@pytest.mark.parametrize("entry", sorted(SQUARE_ENTRY_POINTS))
def test_square_entry_points_refuse_any_other_shape_the_same_way(entry, shape):
    # a (4, 6) matrix was once a numpy broadcast error in lorentzian_operator, and (4,) a 4x4 result
    message = f"expected a square matrix, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SQUARE_ENTRY_POINTS[entry](np.ones(shape))


def test_a_stacked_apply_checks_each_tensor_on_its_own_scale():
    # 1e-9 asymmetry passes next to entries of 1e4, not next to entries of 1
    h = np.stack([np.eye(4) * 1e4, np.eye(4)])
    h[:, 0, 1] += 1e-9
    fierz_pauli_apply(_K, h[:1])
    with pytest.raises(ValueError, match="^matrix is not symmetric"):
        fierz_pauli_apply(_K, h)


KERNEL_ENTRY_POINTS = {
    "null_space_dimension": null_space_dimension,
    "null_residual": lambda kernel: null_residual(kernel, np.ones(4)),
}


@pytest.mark.parametrize(
    "kernel, message",
    [
        (np.full((4, 4), np.nan), "kernel entries must be finite"),
        (np.diag([np.inf, 1.0, 1.0, 1.0]), "kernel entries must be finite"),
        (np.diag([1.0, 1.0, -np.inf, 1.0]), "kernel entries must be finite"),
        (np.ones(4), "expected a 2-D kernel, got shape (4,)"),
        (np.ones((2, 4, 4)), "expected a 2-D kernel, got shape (2, 4, 4)"),
        (2.0, "expected a 2-D kernel, got shape ()"),
    ],
)
@pytest.mark.parametrize("entry", sorted(KERNEL_ENTRY_POINTS))
def test_every_kernel_entry_point_refuses_a_bad_kernel_the_same_way(entry, kernel, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KERNEL_ENTRY_POINTS[entry](kernel)


@pytest.mark.parametrize(
    "kernel, direction, message",
    [
        (np.eye(4), np.ones(3), "direction entries have shape (3,), expected (4,)"),
        (np.eye(10), np.ones(4), "direction entries have shape (4,), expected (10,)"),
        (np.eye(4), np.ones((4, 1)), "direction entries have shape (4, 1), expected (4,)"),
        (np.eye(4), [1.0, np.nan, 0.0, 0.0], "direction entries must be finite"),
        (np.eye(4), [0.0, 0.0, np.inf, 0.0], "direction entries must be finite"),
    ],
)
def test_null_residual_refuses_a_bad_direction(kernel, direction, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        null_residual(kernel, direction)


@pytest.mark.parametrize(
    "kernel_scale, direction_scale", [(1e-200, 1e-200), (1e-320, 1.0), (1.0, 5e-324), (1e-3, 1e-160), (1e100, 1e-300)]
)
def test_null_residual_is_scale_free_down_to_subnormal_entries(kernel_scale, direction_scale):
    # squares of tiny entries underflow to zero; scaling up by a power of two first is exact
    kernel = np.diag([1.0, 2.0, 0.0, 0.0])
    direction = np.array([1.0, 0.0, 1.0, 0.0])
    expected = null_residual(kernel, direction)
    assert expected == pytest.approx(1 / 2**1.5, rel=1e-15)
    assert null_residual(kernel * kernel_scale, direction * direction_scale) == pytest.approx(expected, rel=1e-12)


CAST_ENTRY_POINTS = {
    "numeric_spectrum": (numeric_spectrum, "matrix entries"),
    "null_space_basis": (null_space_basis, "matrix entries"),
    "fierz_pauli_apply": (lambda h: fierz_pauli_apply(_K, h), "matrix entries"),
    "lorentzian_operator": (lorentzian_operator, "matrix entries"),
    "sym_to_vec": (sym_to_vec, "tensor entries"),
    "null_space_dimension": (null_space_dimension, "kernel entries"),
    "null_residual": (lambda kernel: null_residual(kernel, np.ones(4)), "kernel entries"),
    "output_divergence": (lambda out: output_divergence(_K, out), "output entries"),
    "phase_exponent": (lambda a: phase_exponent(np.ones((4, 4)), a, 1.0, 1.0), "eigenvalues"),
}


@pytest.mark.parametrize("bad", [1j, "text"], ids=["complex", "text"])
@pytest.mark.parametrize("entry", sorted(CAST_ENTRY_POINTS))
def test_readers_that_cast_to_float_check_the_entries_first(entry, bad):
    # each once cast first: a ComplexWarning for complex entries, numpy's own ValueError for text
    call, what = CAST_ENTRY_POINTS[entry]
    x = np.eye(4).astype(type(bad))
    x[0, 0] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {_NOT_REAL}')}$"):
        call(x)


@pytest.mark.parametrize("shape", [(3,), (), (3, 4), (10, 4, 4)])
def test_output_divergence_refuses_an_output_without_four_rows(shape):
    message = f"expected an output whose first axis is 4, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        output_divergence(_K, np.ones(shape))


def test_output_divergence_contracts_the_first_axis_at_every_rank():
    out = np.arange(32.0).reshape(4, 4, 2)
    assert output_divergence(_K, out[:, 0, 0]) == float(_K @ out[:, 0, 0])
    assert_allclose(output_divergence(_K, out[:, :, 0]), _K @ out[:, :, 0], rtol=1e-15)
    assert_allclose(output_divergence(_K, out), np.einsum("a,abc->bc", _K, out), rtol=1e-15)


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


def _tolerance_constants():
    """module.NAME -> value for every module-level *_RTOL, *_ATOL and *_TOL the package assigns."""
    found = {}
    for path in sorted(Path(ladderfield.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"ladderfield.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z0-9_]+_(RTOL|ATOL|TOL)", target.id):
                    found[f"{path.stem}.{target.id}"] = getattr(module, target.id)
    return found


def test_the_readme_tolerance_table_lists_every_constant():
    # a tolerance added, deleted or changed without its row shows up here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\s*\| `(\w+\.\w+)` \| ([^|]+?) \|", readme, re.MULTILINE)
    table = {name: float(value) for name, value in rows}
    assert len(table) == len(rows)
    assert table == _tolerance_constants()


def _public_parameters():
    """Parameter names of each public function and class, and of each public method."""
    pinned = {}
    for name in ladderfield.__all__:
        obj = getattr(ladderfield, name)
        # an exception class without its own __init__ (RowSpaceError) has no signature
        if inspect.isfunction(obj) or (inspect.isclass(obj) and "__init__" in vars(obj)):
            pinned[name] = tuple(inspect.signature(obj).parameters)
        if inspect.isclass(obj):
            for attr in vars(obj):
                if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr)):
                    pinned[f"{name}.{attr}"] = tuple(inspect.signature(getattr(obj, attr)).parameters)
    return pinned


def test_public_parameter_names_are_pinned():
    # a knob added or removed shows up here as a test change
    assert _public_parameters() == {
        'ChainComplex': ('d1', 'd2'),
        'ChainComplex.from_graph': ('graph',),
        'GaugeObstruction': ('message', 'mode_index'),
        'LadderGraph': ('n_vertices', 'links', 'plaquettes'),
        'Link': ('tail', 'head', 'kind'),
        'PartitionResult': ('log_magnitude', 'phase', 'restricted_dimension', 'exponent_term', 'error_estimate', 'underresolved'),
        'PhaseDecomposition': ('phi_spatial', 'phi_temporal', 'phi_mixed', 'total', 'regime'),
        'SccReport': ('max_identity_residual', 'source_sum', 'max_constant_mode_residual', 'exact'),
        'SccSystem': ('n', 'alpha', 'beta', 'hbar', 'K', 'J', 'boundary'),
        'SccViolation': ('message', 'max_residual'),
        'SlitGeometry': ('slit_separation', 'screen_distance', 'detector_position', 'wavelength'),
        'SlitGeometry.at': ('self', 'y'),
        'Spectrum': ('eigenvalues', 'eigenvectors', 'parity', 'zero_modes', 'degeneracy_groups', 'beta', 'regime'),
        'Spectrum.eigenpairs': ('self',),
        'TrigIdentityReport': ('n_vertices', 'sine_sum_error', 'cot_square_error', 'composite_error'),
        'TrigIdentityReport.passed': ('self',),
        'TwinSlitConfig': ('n_vertices', 'e_x', 'e_x_alt', 'e_T', 'alpha', 'beta', 'hbar', 'lambda_hat'),
        'TwinSlitConfig.calibrated': ('n_vertices', 'e_x', 'e_x_alt', 'e_T', 'lambda_hat', 'hbar'),
        'ValidationReport': ('checks',),
        'boundary_1': ('graph',),
        'boundary_2': ('graph',),
        'brute_force_Z': ('system', 'spectrum', 'method', 'budget', 'seed'),
        'build_chain_complex': ('n_vertices',),
        'build_ladder_graph': ('n_vertices',),
        'build_operator': ('c', 'n', 'beta'),
        'build_source': ('c', 'n', 'cell_values', 'alpha'),
        'build_system': ('c', 'n', 'cell_values', 'alpha', 'beta', 'hbar'),
        'classical_solution': ('system', 'spectrum', 'row_space_tol'),
        'conditional_amplitude': ('config', 'which', 'outcome', 'mode'),
        'continue_to_lorentzian': ('spectrum', 'n_vertices'),
        'euclidean_Z': ('system', 'spectrum', 'row_space_tol'),
        'fierz_pauli_apply': ('k', 'h'),
        'fierz_pauli_kernel': ('k',),
        'gauge_tensor': ('k', 'eps'),
        'geometry_to_links': ('geometry', 'n_vertices'),
        'gradient_link_values': ('c', 'vertex_values'),
        'interference_order': ('config',),
        'interference_phase_difference': ('config',),
        'ladder_spectrum_closed_form': ('n_vertices', 'beta'),
        'lorentzian_operator': ('K', 'beta'),
        'maxwell_kernel': ('k',),
        'minkowski_square': ('k',),
        'nrqm_intensity': ('path_diff', 'wavelength'),
        'nrqm_maximum_position': ('slit_separation', 'screen_distance', 'wavelength', 'order'),
        'null_residual': ('kernel', 'direction'),
        'null_space_basis': ('K',),
        'null_space_dimension': ('kernel',),
        'numeric_spectrum': ('K',),
        'outcome_probability': ('system', 'spectrum', 'mode', 'outcome', 'row_space_tol'),
        'parity_swap_matrix': ('n_vertices',),
        'parse_graph': ('text',),
        'path_difference': ('geometry',),
        'path_lengths': ('geometry',),
        'phase_decomposition': ('link_values', 'n_vertices', 'alpha', 'hbar', 'beta', 'regime'),
        'phase_exponent': ('projections', 'eigenvalues', 'hbar', 'beta'),
        'project_source': ('J', 'spectrum'),
        'serialize_graph': ('graph',),
        'split_links': ('link_values', 'n_vertices'),
        'trig_lemmas': ('n_vertices',),
        'uniform_link_values': ('n_vertices', 'e_x', 'e_T'),
        'validate_complex': ('c',),
        'verify_scc': ('system', 'vertex_values'),
    }
