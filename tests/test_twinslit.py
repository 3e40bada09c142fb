"""Stationary-phase closed forms versus the mode-sum route for two-slit links.

The closed forms never touch the eigenbasis and the projection route never
touches the trigonometric shortcuts, so agreement below is a genuine
cross-check rather than the same computation twice.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ladderfield import twinslit
from ladderfield._ladder_transform import cosine_block
from ladderfield.chain_complex import build_chain_complex
from ladderfield.errors import GaugeObstruction, RowSpaceError
from ladderfield.partition import ROW_SPACE_RTOL, _row_space_projection, project_source
from ladderfield.scc import build_source, gradient_link_values
from ladderfield.spectral import continue_to_lorentzian, ladder_spectrum_closed_form
from ladderfield.twinslit import (
    MAXIMUM_PHASE_TOL,
    SlitGeometry,
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
    _fringe_sweep,
)


def mode_sum_phase(e, n, alpha, hbar, beta, regime):
    """Independent route: project the source on the eigenbasis and sum."""
    c = build_chain_complex(n)
    J = build_source(c, 1, e, alpha)
    s = ladder_spectrum_closed_form(n, beta=beta)
    if regime == "lorentzian":
        s = continue_to_lorentzian(s, n)
    s = replace(s)  # without its DCT basis: the projection reads the dense eigenvectors
    keep = list(s.nonzero_modes)
    tilde = project_source(J, s)[keep]
    return phase_exponent(tilde, s.eigenvalues[keep] / s.beta, hbar, beta)


def drop_null_components(e, n, regime):
    """Remove the gradient-space image of every continued zero mode."""
    c = build_chain_complex(n)
    s = ladder_spectrum_closed_form(n)
    if regime == "lorentzian":
        s = continue_to_lorentzian(s, n)
    out = np.array(e, dtype=float)
    for k in s.zero_modes:
        g = gradient_link_values(c, s.eigenvectors[:, k])
        g = np.asarray(g, dtype=float)
        if g @ g > 0:
            out -= (g @ out) / (g @ g) * g
    return out


@pytest.mark.parametrize("n", range(6, 42, 2))
@pytest.mark.parametrize("regime", ["euclidean", "lorentzian"])
def test_two_routes_agree_for_random_links(n, regime):
    rng = np.random.default_rng(100 + n)
    alpha, hbar, beta = 1.3, 0.9, 1.7
    for _ in range(3):
        e = rng.normal(size=3 * n // 2 - 2)
        if regime == "lorentzian" and n % 4 == 0:
            e = drop_null_components(e, n, regime)
        total = phase_decomposition(e, n, alpha, hbar, beta, regime=regime).total
        reference = mode_sum_phase(e, n, alpha, hbar, beta, regime)
        assert abs(total - reference) <= 1e-9 * max(1.0, abs(reference))


def dense_phase_parts(e, n, alpha, regime):
    """(phi_spatial, phi_temporal, mixed numerators, mixed denominators) from
    the (N/2)^2 sine and cosine matrices, as the closed form was first written."""
    half = n // 2
    e_left, e_right, e_spatial = split_links(e, n)
    j = np.arange(1, half)
    sines = np.sin(2.0 * np.pi * np.outer(j, j) / n)
    cosines = np.cos(np.outer(j, 2 * np.arange(1, half + 1) - 1) * np.pi / n)
    sign = 1.0 if regime == "euclidean" else -1.0
    phi_spatial = sign * (2.0 * alpha**2 / n) * float(np.sum(e_spatial)) ** 2
    phi_temporal = (2.0 * alpha**2 / n) * float(np.sum((sines @ (e_left + e_right)) ** 2))
    s_j = np.sin(j * np.pi / n)
    numerators = s_j * (sines @ (e_left - e_right)) + cosines @ e_spatial
    return phi_spatial, phi_temporal, numerators, sign + 2.0 * s_j**2


@pytest.mark.parametrize("n", range(4, 401, 2))
def test_phase_decomposition_matches_the_dense_trigonometric_sums(n):
    rng = np.random.default_rng(n)
    alpha, hbar, beta = 1.3, 0.9, 1.7
    for e in (rng.normal(size=3 * n // 2 - 2), uniform_link_values(n, 0.8, 0.3)):
        for regime in ("euclidean", "lorentzian"):
            phi_spatial, phi_temporal, numerators, denominators = dense_phase_parts(e, n, alpha, regime)
            keep = np.ones(numerators.size, dtype=bool)
            if regime == "lorentzian" and n % 4 == 0:
                singular = n // 4 - 1
                # the row-space rule: J's component alpha sqrt(8/N) B_{N/4} on the zero mode against |J|
                J = build_source(build_chain_complex(n), 1, e, alpha)
                if abs(alpha * np.sqrt(8.0 / n) * numerators[singular]) > ROW_SPACE_RTOL * np.linalg.norm(J):
                    with pytest.raises(GaugeObstruction):
                        phase_decomposition(e, n, alpha, hbar, beta, regime=regime)
                    continue
                keep[singular] = False
            phi_mixed = float(np.sum((4.0 * alpha**2 / n) * numerators[keep] ** 2 / denominators[keep]))
            parts = phase_decomposition(e, n, alpha, hbar, beta, regime=regime)
            assert_allclose(parts.phi_spatial, phi_spatial, rtol=1e-12, atol=0)
            assert_allclose(parts.phi_temporal, phi_temporal, rtol=1e-12, atol=0)
            # a uniform configuration's mixed term vanishes exactly: compared on the scale of the links
            scale = 1e-12 * alpha**2 * n * float(np.max(np.abs(e))) ** 2
            assert_allclose(parts.phi_mixed, phi_mixed, rtol=1e-12, atol=scale)
            # the Lorentzian spatial term has the other sign: the total is relative to the parts' sizes
            total = (phi_spatial + phi_temporal + phi_mixed) / (2.0 * hbar * beta)
            size = (abs(phi_spatial) + phi_temporal + abs(phi_mixed)) / (2.0 * hbar * beta)
            assert abs(parts.total - total) <= 1e-12 * size


def test_decomposition_parts_sum_to_total():
    e = np.random.default_rng(2).normal(size=7)
    parts = phase_decomposition(e, 6, 1.1, 1.0, 2.0)
    assert_allclose(
        (parts.phi_spatial + parts.phi_temporal + parts.phi_mixed) / (2 * 1.0 * 2.0),
        parts.total,
        rtol=1e-12,
    )


def test_zero_links_zero_phase():
    parts = phase_decomposition(np.zeros(7), 6, 1.0, 1.0, 1.0)
    assert parts.phi_spatial == parts.phi_temporal == parts.phi_mixed == 0.0
    assert parts.total == 0.0


def test_phase_exponent_rejects_zero_eigenvalue():
    with pytest.raises(ValueError):
        phase_exponent(np.array([1.0]), np.array([0.0]), 1.0, 1.0)


def test_phase_exponent_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        phase_exponent(np.array([1.0, 2.0]), np.array([1.0]), 1.0, 1.0)


@pytest.mark.parametrize("n", [6, 10, 14, 26])
@pytest.mark.parametrize("regime", ["euclidean", "lorentzian"])
def test_uniform_closed_forms(n, regime):
    e_x, e_T, alpha, hbar, beta = 0.8, 0.3, 1.2, 1.1, 0.9
    e = uniform_link_values(n, e_x, e_T)
    parts = phase_decomposition(e, n, alpha, hbar, beta, regime=regime)
    sign = -1.0 if regime == "lorentzian" else 1.0
    assert_allclose(parts.phi_spatial, sign * (n / 2) * alpha**2 * e_x**2, rtol=1e-12)
    assert_allclose(parts.phi_temporal, (n - 2) * alpha**2 * e_T**2, rtol=1e-12)
    # uniform sources never excite the mixing terms
    scale = alpha**2 * n * max(e_x, e_T) ** 2
    assert abs(parts.phi_mixed) <= 1e-12 * scale


def test_uniform_links_layout():
    e = uniform_link_values(8, 0.25, 1.5)
    left, right, rungs = split_links(e, 8)
    assert_allclose(left, 1.5)
    assert_allclose(right, 1.5)
    assert_allclose(rungs, 0.25)
    assert len(left) == len(right) == 3
    assert len(rungs) == 4


def test_split_links_rejects_bad_length():
    with pytest.raises(ValueError):
        split_links(np.zeros(6), 6)


@pytest.mark.parametrize("n", [8, 12, 24, 48])
def test_quarter_mode_obstruction_raised_for_generic_links(n):
    e = np.random.default_rng(n).normal(size=3 * n // 2 - 2)
    with pytest.raises(GaugeObstruction) as excinfo:
        phase_decomposition(e, n, 1.0, 1.0, 1.0, regime="lorentzian")
    assert excinfo.value.mode_index == n // 4


@pytest.mark.parametrize("n", [8, 12, 28, 48])
def test_quarter_mode_obstruction_absent_for_uniform_links(n):
    e = uniform_link_values(n, 0.7, 0.4)
    parts = phase_decomposition(e, n, 1.0, 1.0, 1.0, regime="lorentzian")
    assert math.isfinite(parts.total)


def test_quarter_mode_obstruction_absent_after_deprojection():
    n = 12
    e = np.random.default_rng(1).normal(size=3 * n // 2 - 2)
    cleaned = drop_null_components(e, n, "lorentzian")
    parts = phase_decomposition(cleaned, n, 1.0, 1.0, 1.0, regime="lorentzian")
    assert math.isfinite(parts.total)


@pytest.mark.parametrize("scale", [1e-9, 1e-12])
def test_quarter_mode_obstruction_does_not_shrink_with_the_links(scale):
    # these links put 3.4% of |J| on the j = N/4 zero mode at every scale
    e = scale * np.random.default_rng(16).normal(size=22)
    with pytest.raises(GaugeObstruction) as excinfo:
        phase_decomposition(e, 16, 1.0, 1.0, 1.0, regime="lorentzian")
    assert excinfo.value.mode_index == 4


def test_a_zero_source_is_never_obstructed():
    e = np.random.default_rng(16).normal(size=22)
    assert phase_decomposition(e, 16, 0.0, 1.0, 1.0, regime="lorentzian").total == 0.0


def quarter_mode_links(n):
    """g = d1^T v for the unit continued zero mode v = [x_{N/4}; -x_{N/4}]: the source
    alpha d1 e has the component alpha g.e along v."""
    x = cosine_block(n, np.array([n // 4]))[:, 0]
    return np.asarray(gradient_link_values(build_chain_complex(n), np.concatenate((x, -x))), dtype=float)


@st.composite
def planted_obstructions(draw):
    """(N, seed, r): links whose source has r times the row-space threshold on the j = N/4 mode."""
    n = 4 * draw(st.integers(2, 100))
    low, high = draw(st.sampled_from([(0.5, 0.99), (1.01, 2.0)]))
    r = math.exp(draw(st.floats(math.log(low), math.log(high))))
    return n, draw(st.integers(0, 2**32 - 1)), r


@settings(max_examples=150, deadline=None)
@given(case=planted_obstructions())
@example(case=(4000, 0, 0.99))
@example(case=(4000, 0, 1.01))
def test_the_phase_split_and_the_spectral_route_refuse_alike(case):
    n, seed, r = case
    alpha = 1.3
    rng = np.random.default_rng(seed)
    g = quarter_mode_links(n)
    base = rng.normal(size=g.size)
    base -= (g @ base) / (g @ g) * g  # null-free: its source has no j = N/4 component
    c = build_chain_complex(n)
    component = r * ROW_SPACE_RTOL * np.linalg.norm(build_source(c, 1, base, alpha)) * rng.choice([-1.0, 1.0])
    e = base + component / (alpha * (g @ g)) * g
    J = build_source(c, 1, e, alpha)
    try:
        phase_decomposition(e, n, alpha, 0.9, 1.7, regime="lorentzian")
        split_refuses = False
    except GaugeObstruction as exc:
        split_refuses = exc.mode_index == n // 4
    try:
        _row_space_projection(J, continue_to_lorentzian(ladder_spectrum_closed_form(n), n), ROW_SPACE_RTOL)
        spectral_refuses = False
    except RowSpaceError:
        spectral_refuses = True
    assert split_refuses == spectral_refuses == (r > 1)


def test_the_lorentzian_split_builds_no_complex_and_no_source(monkeypatch):
    # links on both sides of the row-space rule, made before the complex and source functions are taken away
    n, alpha = 16, 1.3
    g = quarter_mode_links(n)
    base = np.random.default_rng(n).normal(size=g.size)
    base -= (g @ base) / (g @ g) * g
    threshold = ROW_SPACE_RTOL * np.linalg.norm(build_source(build_chain_complex(n), 1, base, alpha))
    below, above = (base + r * threshold / (alpha * (g @ g)) * g for r in (0.5, 2.0))

    def refuse(*args, **kwargs):
        raise AssertionError("the phase split built a chain complex or a source")
    monkeypatch.setattr(twinslit, "build_chain_complex", refuse)
    monkeypatch.setattr(twinslit, "build_source", refuse)
    assert math.isfinite(phase_decomposition(below, n, alpha, 0.9, 1.7, regime="lorentzian").total)
    with pytest.raises(GaugeObstruction) as excinfo:
        phase_decomposition(above, n, alpha, 0.9, 1.7, regime="lorentzian")
    assert excinfo.value.mode_index == n // 4


def test_euclidean_regime_never_obstructs():
    n = 16
    e = np.random.default_rng(4).normal(size=3 * n // 2 - 2)
    parts = phase_decomposition(e, n, 1.0, 1.0, 1.0)
    assert math.isfinite(parts.total)


# --- trigonometric identities ------------------------------------------------


def test_sine_sums_small_cases():
    # n=6, j=1: sum over k=1,2 of sin(pi k / 3) = sqrt(3); cot(pi/6) = sqrt(3)
    report = trig_lemmas(6)
    assert report.sine_sum_error <= 1e-12
    direct = sum(math.sin(2 * math.pi * 1 * k / 6) for k in (1, 2))
    assert_allclose(direct, 1 / math.tan(math.pi / 6), rtol=1e-15)


def test_cotangent_square_sum_small_case():
    # m=2: cot^2(pi/8) + cot^2(3 pi/8) = 2*4 - 2 = 6
    direct = (
        1 / math.tan(math.pi / 8) ** 2 + 1 / math.tan(3 * math.pi / 8) ** 2
    )
    assert_allclose(direct, 6.0, rtol=1e-14)
    assert trig_lemmas(8).cot_square_error <= 1e-12


def test_composite_sum_six():
    # direct double sum equals (n-2)/4 * n/2 = 3 for n=6
    total = 0.0
    for j in range(1, 3):
        total += sum(math.sin(2 * math.pi * j * k / 6) for k in (1, 2)) ** 2
    assert_allclose(total, 3.0, rtol=1e-14)
    assert trig_lemmas(6).composite_error <= 1e-12


@pytest.mark.parametrize("n", [6, 8, 30, 100, 200])
def test_trig_identities_across_sizes(n):
    report = trig_lemmas(n)
    assert report.passed()
    assert report.max_error <= 1e-9


@pytest.mark.parametrize("n", [1912, 2000, 8000])
def test_trig_identities_pass_where_the_cot_square_sum_is_large(n):
    # the cot^2 sum reaches about 1.8e6 at N=1912 and 3.2e7 at N=8000; its
    # rounding error there exceeds 1e-9 in absolute terms, about 6e-16 relative
    report = trig_lemmas(n)
    assert report.passed()
    assert report.max_error <= 1e-12


def test_trig_identities_at_a_million_vertices_take_under_a_second():
    # the cot^2 sum is read from the cotangents the sine sums are checked against, with
    # no loop over sizes; the sine sums' own rounding, about 2e-11 here, bounds max_error
    start = time.perf_counter()
    report = trig_lemmas(10**6)
    assert time.perf_counter() - start < 1.0
    assert report.passed()
    assert report.cot_square_error <= 1e-15


# --- conditional amplitudes --------------------------------------------------


def config_six():
    return TwinSlitConfig.calibrated(6, 0.3, 0.4, 0.2, lambda_hat=2.0)


def test_calibration_fixes_coupling_ratio():
    for lam, hbar in ((0.5, 1.0), (3.0, 0.7), (11.0, 2.0)):
        cfg = TwinSlitConfig.calibrated(6, 0.1, 0.2, 0.3, lambda_hat=lam, hbar=hbar)
        assert_allclose(cfg.alpha, 2 * math.pi * hbar / lam, rtol=1e-15)
        assert_allclose(cfg.beta, 2 * math.pi * hbar / lam**2, rtol=1e-15)
        assert_allclose(cfg.alpha**2 / (cfg.hbar * cfg.beta), 2 * math.pi, rtol=1e-15)


@pytest.mark.parametrize("n", [6, 400, 4000])
def test_amplitude_magnitude_from_retained_eigenvalues(n):
    cfg = TwinSlitConfig.calibrated(n, 0.3, 0.4, 0.2, lambda_hat=2.0)
    spectrum = continue_to_lorentzian(
        ladder_spectrum_closed_form(n, beta=cfg.beta), n
    )
    mode = 3
    retained = [i for i in spectrum.nonzero_modes if i != mode]
    expected = 0.5 * math.fsum(
        [math.log(2 * math.pi)] * len(retained)
        + [-math.log(abs(spectrum.eigenvalues[i])) for i in retained]
    )
    log_mag, _ = conditional_amplitude(cfg, 1, 0.5, mode)
    assert_allclose(log_mag, expected, rtol=1e-13)
    # the magnitude does not depend on which graph or outcome
    assert log_mag == conditional_amplitude(cfg, 2, -1.2, mode)[0]


def test_amplitude_phase_quadratic_in_outcome():
    cfg = config_six()
    mode = 3
    a_k = continue_to_lorentzian(
        ladder_spectrum_closed_form(6, beta=cfg.beta), 6
    ).eigenvalues[mode]
    p0 = conditional_amplitude(cfg, 1, 0.0, mode)[1]
    for q in (-1.0, 0.7, 2.0):
        pq = conditional_amplitude(cfg, 1, q, mode)[1]
        drift = (p0 - pq - 0.5 * q * q * a_k) / q  # linear coefficient
        # same linear coefficient at a different outcome
        q2 = 2.0 * q
        pq2 = conditional_amplitude(cfg, 1, q2, mode)[1]
        drift2 = (p0 - pq2 - 0.5 * q2 * q2 * a_k) / q2
        assert_allclose(drift, drift2, atol=1e-12)


def test_phase_difference_is_outcome_independent_for_shared_modes():
    # temporal links agree between the two graphs, so the click-dependent
    # terms cancel and the difference collapses to the spatial closed form
    cfg = config_six()
    mode = 3
    want = interference_phase_difference(cfg)
    for q in (0.0, 0.5, -2.3):
        p1 = conditional_amplitude(cfg, 1, q, mode)[1]
        p2 = conditional_amplitude(cfg, 2, q, mode)[1]
        assert_allclose(p1 - p2, want, rtol=1e-12)


def test_amplitude_rejects_zero_mode_and_bad_selector():
    cfg = config_six()
    with pytest.raises(ValueError):
        conditional_amplitude(cfg, 1, 0.0, 2)  # continued null direction
    with pytest.raises(ValueError):
        conditional_amplitude(cfg, 3, 0.0, 3)
    with pytest.raises(ValueError):
        conditional_amplitude(cfg, 1, 0.0, 99)


@pytest.mark.parametrize("outcome", [math.nan, math.inf, -math.inf])
def test_amplitude_refuses_an_outcome_that_is_not_finite(outcome):
    # by name: the overflow wording is kept for finite inputs
    cfg = TwinSlitConfig.calibrated(8, 1.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError, match="^outcome must be finite$"):
        conditional_amplitude(cfg, 1, outcome, 4)


@pytest.mark.parametrize("e_x", [math.nan, math.inf])
@pytest.mark.parametrize("phase", [interference_phase_difference, interference_order])
def test_interference_refuses_a_rung_value_that_is_not_finite(phase, e_x):
    with pytest.raises(ValueError, match="^rung values must be finite$"):
        phase(TwinSlitConfig(8, e_x, 0.5, 1.0, 1.0, 1.0))


def test_identical_slits_interfere_constructively():
    cfg = TwinSlitConfig.calibrated(10, 0.6, 0.6, 0.2, lambda_hat=1.0)
    assert interference_phase_difference(cfg) == 0.0
    assert interference_order(cfg) == 0.0


def test_interference_order_unit_steps():
    # choose link strengths so the order lands exactly on the first maximum
    n = 8
    e1 = 1.0
    e2 = math.sqrt(e1**2 - 4.0 / n)  # (n/4)(e1^2 - e2^2) = 1
    cfg = TwinSlitConfig.calibrated(n, e1, e2, 0.5, lambda_hat=2.0)
    assert_allclose(interference_order(cfg), 1.0, rtol=1e-12)
    assert_allclose(
        interference_phase_difference(cfg), 2 * math.pi, rtol=1e-12
    )


# --- screen geometry and the wave-mechanics reference ------------------------


def test_path_lengths_on_axis():
    g = SlitGeometry(4.0, 100.0, 0.0, 1.0)
    l1, l2 = path_lengths(g)
    assert l1 == l2
    assert_allclose(l1, math.hypot(100.0, 2.0), rtol=1e-15)
    assert path_difference(g) == 0.0


def test_path_difference_sign_convention():
    # detector above the axis is closer to slit 1 (the upper slit)
    g = SlitGeometry(4.0, 100.0, 7.0, 1.0)
    l1, l2 = path_lengths(g)
    assert l1 < l2
    assert path_difference(g) == l1 - l2


def test_a_geometry_at_another_position_moves_only_the_detector():
    g = SlitGeometry(4.0, 100.0, 7.0, 1.5)
    assert g.at(-3.0) == SlitGeometry(4.0, 100.0, -3.0, 1.5)
    assert g.detector_position == 7.0


def test_geometry_to_links_squares_track_path_lengths():
    g = SlitGeometry(10.0, 500.0, 12.0, 2.0)
    n = 20
    e1, e2 = geometry_to_links(g, n)
    l1, l2 = path_lengths(g)
    assert_allclose(e1**2, 4 * l1 / (n * g.wavelength), rtol=1e-14)
    assert_allclose(e2**2, 4 * l2 / (n * g.wavelength), rtol=1e-14)


def test_graph_order_equals_path_difference_in_wavelengths():
    g = SlitGeometry(8.0, 300.0, -5.5, 0.7)
    n = 12
    e1, e2 = geometry_to_links(g, n)
    cfg = TwinSlitConfig.calibrated(n, e1, e2, 1.0, lambda_hat=g.wavelength)
    assert_allclose(
        interference_order(cfg), path_difference(g) / g.wavelength, rtol=1e-12
    )


def test_nrqm_intensity_extremes():
    assert_allclose(nrqm_intensity(0.0, 2.0), 4.0)
    assert_allclose(nrqm_intensity(1.0, 2.0), 0.0, atol=1e-15)
    assert_allclose(nrqm_intensity(6.0, 2.0), 4.0)
    assert_allclose(nrqm_intensity(0.5, 2.0), 2.0, rtol=1e-15)


def test_nrqm_maximum_positions():
    d, L, lam = 10.0, 1000.0, 1.0
    assert nrqm_maximum_position(d, L, lam, 0) == 0.0
    y1 = nrqm_maximum_position(d, L, lam, 1)
    g = SlitGeometry(d, L, y1, lam)
    assert_allclose(path_difference(g), lam, rtol=1e-12)
    # mirror symmetry
    assert_allclose(nrqm_maximum_position(d, L, lam, -1), -y1, rtol=1e-12)


def test_nrqm_maximum_position_rejects_unreachable_orders():
    with pytest.raises(ValueError):
        nrqm_maximum_position(10.0, 1000.0, 1.0, 25)  # |n lam / 2| > d / 2


# ---------------------------------------------------------------------------
# the fringe sweep against the per-row route through the public functions


def per_row_sweep(n, d, L, lam, ys):
    """Each row through its own SlitGeometry and TwinSlitConfig, refusals included."""
    rows = []
    for y in ys:
        geometry = SlitGeometry(d, L, y, lam)
        e_x, e_x_alt = geometry_to_links(geometry, n)
        config = TwinSlitConfig.calibrated(n, e_x, e_x_alt, e_T=1.0, lambda_hat=lam)
        try:
            dphi = interference_phase_difference(config)
        except ValueError:  # a phase past the float range, which the sweep reports by its row
            raise ValueError(f"phase difference at y={y:.12g} is not finite") from None
        if math.ulp(dphi) > MAXIMUM_PHASE_TOL:
            raise ValueError(
                f"phase difference at y={y:.12g} is {dphi:.12g} rad, too large to resolve a "
                f"maximum: its float spacing exceeds {MAXIMUM_PHASE_TOL:.12g}"
            )
        nearest = round(dphi / (2.0 * math.pi))
        is_max = abs(dphi - 2.0 * math.pi * nearest) <= MAXIMUM_PHASE_TOL
        rows.append((dphi, nearest, is_max, nrqm_intensity(path_difference(geometry), lam)))
    return rows


def outcome(sweep, *args):
    """The rows with each float as its repr (bitwise), or the refusal."""
    try:
        return [tuple(map(repr, row)) for row in sweep(*args)]
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def sweeps(draw):
    n = 2 * draw(st.integers(2, 500_000))
    d, L = draw(st.floats(0.01, 100.0)), draw(st.floats(1.0, 1e4))
    ys = draw(st.lists(st.one_of(st.just(0.0), st.floats(-500.0, 500.0)), min_size=1, max_size=25))
    if draw(st.booleans()):
        lam = 10.0 ** draw(st.floats(-9.0, 1.0))
    else:  # the largest phase near 2**23 rad, where its float spacing reaches MAXIMUM_PHASE_TOL
        path_diff = max(abs(path_difference(SlitGeometry(d, L, y, 1.0))) for y in ys)
        lam = 2.0 * math.pi * path_diff / (2.0**23 * draw(st.floats(0.98, 1.02))) or 1.0
    return n, d, L, lam, ys


@settings(max_examples=300, deadline=None)
@given(case=sweeps())
@example(case=(8, 10.0, 1000.0, 2.0, [-40.0, -20.0, 0.0, 20.0, 40.0]))
@example(case=(8, 10.0, 1000.0, 1e-8, [-1.0, 0.0, 1.0]))  # |phase| just below 2**23
@example(case=(8, 10.0, 1000.0, 5e-9, [0.0, 1.0, -1.0]))  # refused at the second row
def test_fringe_sweep_is_bitwise_the_per_row_route(case):
    assert outcome(_fringe_sweep, *case) == outcome(per_row_sweep, *case)


@pytest.mark.parametrize(
    "d, L, lam, ys",
    [
        (math.nan, 1000.0, math.inf, [0.0]),  # path lengths before the calibration
        (10.0, 1000.0, -2.0, [0.0, 1.0]),  # the wavelength before the calibration
        (10.0, 1000.0, 1e-150, [0.0, 1.0]),  # a finite phase at y=0, none at y=1
        (10.0, 1000.0, 1e-300, [1.0, 2.0]),  # the calibration on the first row
        (10.0, math.inf, 2.0, [0.0]),
    ],
)
def test_fringe_sweep_refuses_in_the_per_row_order(d, L, lam, ys):
    refusal = outcome(per_row_sweep, 8, d, L, lam, ys)
    assert refusal.startswith("ValueError") and outcome(_fringe_sweep, 8, d, L, lam, ys) == refusal
