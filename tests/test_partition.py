"""Gaussian sums over vertex configurations, checked against quadrature and
sampling oracles that never see the closed form."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ladderfield.chain_complex import build_chain_complex
from ladderfield.errors import RowSpaceError
from ladderfield.partition import (
    _MC_BLOCK,
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


ROW_SPACE_ENTRY_POINTS = {
    "euclidean_Z": lambda system, s, **tol: euclidean_Z(system, s, **tol),
    "classical_solution": lambda system, s, **tol: classical_solution(system, s, **tol),
    "outcome_probability": lambda system, s, **tol: outcome_probability(system, s, 1, 0.0, **tol),
}


@pytest.mark.parametrize("tol", [np.nan, -1, -1e-300, -np.inf])
@pytest.mark.parametrize("entry", sorted(ROW_SPACE_ENTRY_POINTS))
def test_a_row_space_tolerance_that_is_nan_or_negative_is_refused(entry, tol):
    # a NaN tolerance once skipped the check, so J = ones(6) gave a log Z of 2.3448; -1 refused
    # even a gradient whose zero-mode component is exactly 0.0
    call = ROW_SPACE_ENTRY_POINTS[entry]
    c, s = build_chain_complex(6), ladder_spectrum_closed_form(6)
    inside = build_system(c, 1, gradient_link_values(c, np.arange(6)))
    outside = replace(inside, J=np.ones(6))
    with pytest.raises(RowSpaceError, match="zero mode"):
        call(outside, s)
    call(outside, s, row_space_tol=np.inf)  # inf still skips the check
    call(inside, s, row_space_tol=0.0)
    message = f"row_space_tol must be a non-negative number or inf, got {tol!r}"
    for system in (inside, outside):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(system, s, row_space_tol=tol)


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


def test_every_route_gives_log_z_zero_at_restricted_dimension_zero():
    # at beta = 0 every mode is a zero mode, and a zero source lies in the (empty) row space
    c = build_chain_complex(6)
    system = build_system(c, 1, np.zeros(7), alpha=1.0, beta=0)
    s = ladder_spectrum_closed_form(6, beta=0)
    routes = [
        euclidean_Z(system, s),
        brute_force_Z(system, s, method="quadrature"),
        brute_force_Z(system, s, method="mc", budget=2_000),
    ]
    for res in routes:
        assert res.restricted_dimension == 0
        assert (res.log_magnitude, res.exponent_term) == (0.0, 0.0)
        assert type(res.exponent_term) is float


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


def _two_array_mc(system, s, budget, seed):
    """The sampling oracle with the draws and the scaled draws in separate arrays."""
    proj = project_source(system.J, s)
    keep = list(s.nonzero_modes)
    jt, a = proj[keep], s.eigenvalues[keep]
    rng = np.random.default_rng(seed)
    log_weights = np.empty(budget)
    for start in range(0, budget, 262_144):
        m = min(262_144, budget - start)
        z = rng.standard_normal((m, a.size))
        q = z / np.sqrt(a)
        log_weights[start : start + m] = np.einsum("ij,j->i", q, jt)
    return log_weights


# 300_000 spans two of the reference's chunks; the named budgets sit at the edges of the
# oracle's block of draws, rows = _MC_BLOCK // d for the n's d = n - 1 retained modes
@pytest.mark.parametrize("budget", [2, 1000, 300_000, "rows - 1", "rows", "rows + 1", "2 * rows"])
@pytest.mark.parametrize("n", [4, 6, 10, 14])
def test_in_place_sampling_is_bitwise_the_two_array_form(n, budget):
    system, _ = make_system(n, n, scale=0.5)
    s = ladder_spectrum_closed_form(n)
    rows = _MC_BLOCK // (n - 1)
    budget = {"rows - 1": rows - 1, "rows": rows, "rows + 1": rows + 1, "2 * rows": 2 * rows}.get(budget, budget)
    for seed in (0, 5):
        log_weights = _two_array_mc(system, s, budget, seed)
        m = float(log_weights.max())
        exponent = m + math.log(float(np.mean(np.exp(log_weights - m))))
        res = brute_force_Z(system, s, method="mc", budget=budget, seed=seed)
        assert res.exponent_term == exponent
        w = np.exp(log_weights - exponent)
        assert res.error_estimate == float(np.std(w) / math.sqrt(budget))
        ess = float(np.sum(w)) ** 2 / float(np.sum(w**2))
        assert res.underresolved == (budget < 1_000 or ess < 1_000)


def test_sampling_oracle_memory_is_a_few_budget_sized_arrays():
    # the weights, one scratch array and np.std's temporary: no (budget, d) array of draws
    system, _ = make_system(14, 14, scale=0.5)
    s = ladder_spectrum_closed_form(14)
    brute_force_Z(system, s, method="mc", budget=2)  # any lazy spectrum field is built untraced
    budget = 10**6
    tracemalloc.start()
    try:
        brute_force_Z(system, s, method="mc", budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * budget


@pytest.mark.parametrize("method", ["quadrature", "mc"])
@pytest.mark.parametrize("budget", [2.5, 1000.0, "100", True, float("inf"), None])
def test_oracles_refuse_a_budget_that_is_no_integer(method, budget):
    system, _ = make_system(4, 0)
    s = ladder_spectrum_closed_form(4)
    with pytest.raises(ValueError, match=f"^{re.escape(f'oracle budget must be an integer, got {budget!r}')}$"):
        brute_force_Z(system, s, method=method, budget=budget)


@pytest.mark.parametrize("budget", [1, 0, -5])
def test_sampling_oracle_refuses_a_budget_below_two(budget):
    system, _ = make_system(4, 0)
    s = ladder_spectrum_closed_form(4)
    with pytest.raises(ValueError, match="^mc oracle needs at least 2 samples$"):
        brute_force_Z(system, s, method="mc", budget=budget)


@pytest.mark.parametrize("method", ["quadrature", "mc"])
@pytest.mark.parametrize("seed", [-1, 1.5, "3", np.float64(2.0), True, False])
def test_oracles_refuse_a_seed_that_is_no_non_negative_integer(method, seed):
    system, _ = make_system(4, 0)
    s = ladder_spectrum_closed_form(4)
    with pytest.raises(ValueError, match=f"^{re.escape(f'seed must be a non-negative integer, got {seed!r}')}$"):
        brute_force_Z(system, s, method=method, budget=2000, seed=seed)


def test_sampling_oracle_takes_numpy_integers_and_a_fresh_seed():
    system, _ = make_system(4, 2, scale=0.5)
    s = ladder_spectrum_closed_form(4)
    plain = brute_force_Z(system, s, method="mc", budget=500, seed=7)
    res = brute_force_Z(system, s, method="mc", budget=np.int64(500), seed=np.uint32(7))
    assert res == plain and type(res.underresolved) is bool
    fresh = brute_force_Z(system, s, method="mc", budget=5000, seed=None)
    assert fresh.restricted_dimension == plain.restricted_dimension


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


# ---------------------------------------------------------------------------
# the DCT route of closed-form spectra against their dense vectors

EPS = np.finfo(float).eps


def _route_cases(n):
    """(system, integer field or None, spectra) for an integer and a float coupling."""
    rng = np.random.default_rng(n)
    c = build_chain_complex(n)
    for alpha, beta, v in ((2, 3, rng.integers(-9, 10, n)), (0.6, 1.7, rng.normal(size=n))):
        system = build_system(c, 1, gradient_link_values(c, v), alpha=alpha, beta=beta)
        s = ladder_spectrum_closed_form(n, beta=beta)
        yield system, v if v.dtype.kind == "i" else None, (s, continue_to_lorentzian(s, n))


def _same_outcome(route, oracle):
    """route() and oracle() both raise the same error type, or both return; returns the pair."""
    try:
        want = oracle()
    except ValueError as exc:
        with pytest.raises(type(exc)):
            route()
        return None
    return route(), want


@pytest.mark.parametrize("n", range(4, 401, 2))
def test_the_transform_route_matches_the_dense_vectors(n):
    """A spectrum without its DCT basis (``replace``) reads its dense vectors:
    the oracle for projection, Z and the classical solution."""
    for system, v, spectra in _route_cases(n):
        J = np.asarray(system.J, dtype=float)
        # the error bound of a length-N float dot product with a unit vector
        bound = n * EPS * float(np.linalg.norm(J))
        for s in spectra:
            dense = replace(s)
            p, want = project_source(J, s), project_source(J, dense)
            assert np.max(np.abs(p - want)) <= bound
            big = np.abs(want) > bound
            assert_array_equal(np.sign(p[big]), np.sign(want[big]))

            pair = _same_outcome(lambda: euclidean_Z(system, s), lambda: euclidean_Z(system, dense))
            if pair is not None:
                got, want = pair
                assert got.restricted_dimension == want.restricted_dimension
                assert_allclose(got.log_magnitude, want.log_magnitude, rtol=1e-12)
                assert_allclose(got.exponent_term, want.exponent_term, rtol=1e-12)

            # with no membership check, so a continued N = 4k spectrum is summed too
            got, want = classical_solution(system, s, np.inf), classical_solution(system, dense, np.inf)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            if v is not None and s.regime == "euclidean":
                # K Q = J solved exactly; the float error is at most eps times K's condition number
                exact = system.alpha / system.beta * (v - v.mean())
                cond = s.eigenvalues[-1] / s.eigenvalues[1]
                assert np.max(np.abs(got - exact)) <= EPS * cond * np.max(np.abs(exact))
