"""Gaussian sums over vertex configurations, checked against quadrature and
sampling oracles that never see the closed form."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ladderfield.chain_complex import build_chain_complex
from ladderfield.errors import RowSpaceError
from ladderfield.partition import (
    _quadrature_exponent,
    brute_force_Z,
    classical_solution,
    euclidean_Z,
    outcome_probability,
    project_source,
)
from ladderfield.scc import build_system, gradient_link_values
from ladderfield.spectral import continue_to_lorentzian, ladder_spectrum_closed_form


def make_system(n, seed, alpha=1.0, beta=1.0, scale=1.0):
    c = build_chain_complex(n)
    rng = np.random.default_rng(seed)
    v = scale * rng.normal(size=n)
    return build_system(c, 1, gradient_link_values(c, v), alpha=alpha, beta=beta), v


def test_projection_preserves_norm_and_kills_constant_component():
    system, _ = make_system(10, 0)
    s = ladder_spectrum_closed_form(10)
    tilde = project_source(system.J, s)
    assert_allclose(np.linalg.norm(tilde), np.linalg.norm(system.J), rtol=1e-12)
    assert abs(tilde[0]) < 1e-12  # component along the constant mode


def test_sourceless_value_is_pure_volume():
    n = 8
    c = build_chain_complex(n)
    system = build_system(c, 1, np.zeros(3 * n // 2 - 2))
    s = ladder_spectrum_closed_form(n)
    res = euclidean_Z(system, s)
    a = s.eigenvalues[list(s.nonzero_modes)]
    assert_allclose(res.log_magnitude, 0.5 * np.sum(np.log(2 * np.pi / a)), rtol=1e-13)
    assert res.exponent_term == 0.0
    assert res.restricted_dimension == n - 1
    assert res.phase == 0.0


def test_source_term_is_quadratic_in_the_source():
    system, v = make_system(6, 3)
    s = ladder_spectrum_closed_form(6)
    base = euclidean_Z(system, s).exponent_term
    c = build_chain_complex(6)
    doubled = build_system(c, 1, 2 * gradient_link_values(c, v))
    assert_allclose(euclidean_Z(doubled, s).exponent_term, 4 * base, rtol=1e-12)


def test_out_of_row_space_source_raises():
    system, _ = make_system(6, 1)
    s = ladder_spectrum_closed_form(6)
    J = system.J + 0.4 * np.linalg.norm(system.J)
    bad = type(system)(
        n=system.n,
        alpha=system.alpha,
        beta=system.beta,
        hbar=system.hbar,
        K=system.K,
        J=J,
        boundary=system.boundary,
    )
    with pytest.raises(RowSpaceError) as excinfo:
        euclidean_Z(bad, s)
    assert "zero mode" in str(excinfo.value)
    # the guard can be disabled, after which the zero direction is ignored
    res = euclidean_Z(bad, s, row_space_tol=np.inf)
    assert_allclose(res.log_magnitude, euclidean_Z(system, s).log_magnitude, rtol=1e-12)


def test_negative_restricted_eigenvalue_rejected():
    system, _ = make_system(6, 2)
    lor = continue_to_lorentzian(ladder_spectrum_closed_form(6), 6)
    with pytest.raises(ValueError) as excinfo:
        euclidean_Z(system, lor)
    assert "convergent" in str(excinfo.value)


def test_outcome_density_normalizes_and_peaks_at_the_projected_drift():
    system, _ = make_system(8, 7, alpha=1.4, beta=0.9)
    s = ladder_spectrum_closed_form(8, beta=0.9)
    tilde = project_source(system.J, s)
    for mode in (1, 4, 7):
        a = s.eigenvalues[mode]
        grid = np.linspace(-30, 30, 20001)
        dens = np.array([outcome_probability(system, s, mode, q) for q in grid])
        assert_allclose(np.trapezoid(dens, grid), 1.0, atol=1e-9)
        assert_allclose(grid[np.argmax(dens)], tilde[mode] / a, atol=2e-3)
        # closed-form peak height
        top = outcome_probability(system, s, mode, tilde[mode] / a)
        assert_allclose(top, np.sqrt(a / (2 * np.pi)), rtol=1e-12)


def test_outcome_density_without_source_is_centred():
    n = 6
    c = build_chain_complex(n)
    system = build_system(c, 1, np.zeros(3 * n // 2 - 2))
    s = ladder_spectrum_closed_form(n)
    assert_allclose(
        outcome_probability(system, s, 2, 0.0),
        np.sqrt(s.eigenvalues[2] / (2 * np.pi)),
        rtol=1e-13,
    )


def test_outcome_density_rejects_zero_mode():
    system, _ = make_system(6, 4)
    s = ladder_spectrum_closed_form(6)
    with pytest.raises(ValueError):
        outcome_probability(system, s, 0, 0.0)


def test_classical_solution_recovers_centred_vertex_values():
    for n in (6, 10, 24):
        for alpha, beta in ((1.0, 1.0), (2.5, 0.4)):
            system, v = make_system(n, n + 1, alpha=alpha, beta=beta)
            s = ladder_spectrum_closed_form(n, beta=beta)
            q = classical_solution(system, s)
            assert_allclose(q, (alpha / beta) * (v - v.mean()), atol=1e-10)


def test_classical_solution_matches_least_squares():
    system, _ = make_system(12, 9, alpha=1.7, beta=1.1)
    s = ladder_spectrum_closed_form(12, beta=1.1)
    q = classical_solution(system, s)
    lstsq = np.linalg.lstsq(np.asarray(system.K, dtype=float), system.J, rcond=None)[0]
    assert_allclose(q, lstsq, atol=1e-8)
    assert np.abs(system.K @ q - system.J).max() < 1e-10 * max(
        1.0, np.abs(system.J).max()
    )
    assert abs(q.mean()) < 1e-12 * max(1.0, np.abs(q).max())


def test_classical_solution_single_mode_source():
    # a source proportional to one eigenvector inverts to that eigenvector
    # divided by its eigenvalue
    n = 6
    s = ladder_spectrum_closed_form(n)
    c = build_chain_complex(n)
    system, _ = make_system(n, 0)
    mode = 3
    J = s.eigenvalues[mode] * s.eigenvectors[:, mode]
    forced = type(system)(
        n=system.n,
        alpha=1.0,
        beta=1.0,
        hbar=1.0,
        K=system.K,
        J=J,
        boundary=system.boundary,
    )
    assert_allclose(classical_solution(forced, s), s.eigenvectors[:, mode], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_quadrature_oracle_agrees_four_vertices(seed):
    system, _ = make_system(4, seed, alpha=1.2, scale=0.8)
    s = ladder_spectrum_closed_form(4)
    closed = euclidean_Z(system, s)
    oracle = brute_force_Z(system, s, method="quadrature", budget=64**3)
    assert not oracle.underresolved
    assert_allclose(oracle.log_magnitude, closed.log_magnitude, rtol=1e-6)


def test_quadrature_oracle_agrees_six_vertices():
    system, _ = make_system(6, 12, scale=0.7)
    s = ladder_spectrum_closed_form(6)
    closed = euclidean_Z(system, s)
    oracle = brute_force_Z(system, s, method="quadrature", budget=24**5)
    assert_allclose(oracle.log_magnitude, closed.log_magnitude, rtol=1e-6)


def test_quadrature_reports_underresolution_for_tiny_budgets():
    system, _ = make_system(4, 1)
    s = ladder_spectrum_closed_form(4)
    res = brute_force_Z(system, s, method="quadrature", budget=8)
    assert res.underresolved


@pytest.mark.parametrize("budget", [0, -5])
def test_quadrature_refuses_a_budget_below_one(budget):
    system, _ = make_system(4, 0)
    s = ladder_spectrum_closed_form(4)
    with pytest.raises(ValueError, match=f"^quadrature budget must be a positive node count, got {budget}$"):
        brute_force_Z(system, s, method="quadrature", budget=budget)


def _full_grid_exponent(jt, a, nodes):
    """The same Gauss--Hermite rule summed term by term over all nodes**d grid points."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    c = jt * np.sqrt(2.0 / a)
    d = c.size
    log_terms = np.zeros((nodes,) * d)
    for j in range(d):
        shape = [1] * d
        shape[j] = nodes
        log_terms = log_terms + (np.log(w) + c[j] * x).reshape(shape)
    m = log_terms.max()
    return m + np.log(np.sum(np.exp(log_terms - m))) - 0.5 * d * np.log(np.pi)


@pytest.mark.parametrize(
    "jt, a, nodes",
    [
        ([0.7], [1.3], 4),
        ([0.7], [1.3], 31),
        ([0.4, -1.1], [0.5, 2.0], 9),
        ([0.4, -1.1], [0.5, 2.0], 24),
        ([0.3, 0.0, -0.8], [1.0, 3.0, 0.7], 16),
        ([1.5, -0.2, 0.9, -0.6], [0.6, 1.0, 2.0, 4.0], 12),
        ([0.1, 0.2, 0.3, 0.4], [1.0, 1.0, 1.0, 1.0], 5),
        # strong source: grid log-terms span hundreds, so the plain sum
        # depends on its own max shift
        ([40.0, -25.0, 30.0], [0.5, 0.8, 1.5], 20),
    ],
)
def test_factorized_quadrature_is_the_full_tensor_grid_sum(jt, a, nodes):
    jt, a = np.array(jt), np.array(a)
    got = _quadrature_exponent(jt, a, nodes)
    assert_allclose(got, _full_grid_exponent(jt, a, nodes), rtol=1e-12, atol=0)


def test_quadrature_refuses_high_dimension():
    system, _ = make_system(16, 0)
    s = ladder_spectrum_closed_form(16)
    with pytest.raises(ValueError):
        brute_force_Z(system, s, method="quadrature")


def test_unknown_method_rejected():
    system, _ = make_system(4, 0)
    s = ladder_spectrum_closed_form(4)
    with pytest.raises(ValueError):
        brute_force_Z(system, s, method="laplace")


@pytest.mark.parametrize("seed", range(3))
def test_sampling_oracle_within_three_standard_errors(seed):
    system, _ = make_system(10, seed, scale=0.4)
    s = ladder_spectrum_closed_form(10)
    closed = euclidean_Z(system, s)
    oracle = brute_force_Z(system, s, method="montecarlo", budget=10**6, seed=seed)
    assert not oracle.underresolved
    assert oracle.error_estimate is not None
    assert abs(oracle.log_magnitude - closed.log_magnitude) <= 3 * oracle.error_estimate


def test_sampling_oracle_flags_low_effective_sample_size():
    # a strong source makes the importance weights heavy-tailed; the result
    # must admit that instead of pretending to converge
    system, _ = make_system(10, 5, scale=6.0)
    s = ladder_spectrum_closed_form(10)
    res = brute_force_Z(system, s, method="mc", budget=2000, seed=0)
    assert res.underresolved


def test_sampling_method_aliases():
    system, _ = make_system(4, 2, scale=0.5)
    s = ladder_spectrum_closed_form(4)
    a = brute_force_Z(system, s, method="mc", budget=50_000, seed=9)
    b = brute_force_Z(system, s, method="montecarlo", budget=50_000, seed=9)
    assert a.log_magnitude == b.log_magnitude


def test_gauge_direction_does_not_move_observables():
    # adding any multiple of the flat direction to the source leaves every
    # reported quantity unchanged once the row-space guard is relaxed
    system, _ = make_system(8, 3)
    s = ladder_spectrum_closed_form(8)
    shifted = type(system)(
        n=system.n,
        alpha=system.alpha,
        beta=system.beta,
        hbar=system.hbar,
        K=system.K,
        J=system.J + 5.0 * np.full(8, 1 / np.sqrt(8)),
        boundary=system.boundary,
    )
    base = euclidean_Z(system, s)
    moved = euclidean_Z(shifted, s, row_space_tol=np.inf)
    assert_allclose(moved.log_magnitude, base.log_magnitude, rtol=1e-12)
    assert_allclose(moved.exponent_term, base.exponent_term, rtol=1e-12)
    assert_allclose(
        classical_solution(shifted, s, row_space_tol=np.inf),
        classical_solution(system, s),
        atol=1e-12,
    )
    for mode in (1, 5):
        assert_allclose(
            outcome_probability(shifted, s, mode, 0.3, row_space_tol=np.inf),
            outcome_probability(system, s, mode, 0.3),
            rtol=1e-12,
        )
