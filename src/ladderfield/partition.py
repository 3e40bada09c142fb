"""Restricted Gaussian partition functions over the nonzero modes.

The operator K of an SccSystem is singular along its gauge directions,
so the Gaussian integral for

    Z = integral dQ exp(-1/2 Q.K.Q + J.Q)

is taken over the span of the nonzero modes only.  Writing a_j for the
nonzero eigenvalues and Jt_j for the source projections, the closed
form is

    log |Z| = 1/2 sum_j log(2 pi / a_j) + sum_j Jt_j^2 / (2 a_j)

valid when every retained a_j is positive.  The source must live in the
row space of K: a component along a zero mode would make the integral
diverge, and the functions here refuse it.

``brute_force_Z`` evaluates the same integral directly, either by
tensor-product Gauss--Hermite quadrature or by importance-sampled Monte
Carlo with a zero-centred Gaussian proposal.  Both are deliberately
independent of the closed form so they can serve as oracles for it.
In mode coordinates the integrand is a product over the retained
modes, so the tensor-product rule is evaluated as a product of
one-dimensional rules; for finite sums that factorization is exact
(Fubini), and the value is the full-grid value at the same nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_complex import _finite, _is_integer, check_array
from .errors import RowSpaceError
from .scc import SccSystem
from .spectral import Spectrum, _nonzero_mask, _project, _synthesize

#: Default relative tolerance for the row-space membership check.
ROW_SPACE_RTOL = 1e-9
_MC_BLOCK = 2**16  #: doubles in the Monte Carlo oracle's one block of draws: 512 KiB, in cache


@dataclass(frozen=True)
class PartitionResult:
    """log-magnitude / phase split of a partition function value.

    ``exponent_term`` is the source-dependent part of log |Z| (the
    quadratic-in-J piece), so the mode-volume part is recoverable as
    ``log_magnitude - exponent_term``.  Oracle evaluations also carry an
    ``error_estimate`` and set ``underresolved`` when the evaluation
    budget was too small to trust the estimate.
    """

    log_magnitude: float
    phase: float
    restricted_dimension: int
    exponent_term: float
    error_estimate: float | None = None
    underresolved: bool = False


def project_source(J, spectrum: Spectrum) -> np.ndarray:
    """Components of J along every eigenvector, in spectrum order."""
    return _row_space_projection(J, spectrum, np.inf)


def _check_mode(spectrum: Spectrum, mode) -> None:
    """ValueError unless ``mode`` is an integer index of a nonzero mode of ``spectrum``."""
    if not _is_integer(mode) or not 0 <= mode < spectrum.n_modes:
        raise ValueError(f"mode index must be an integer in [0, {spectrum.n_modes}), got {mode!r}")
    if mode in spectrum.zero_modes:
        raise ValueError(f"mode {mode} is a zero mode; only a nonzero mode has an outcome")


def _row_space_projection(J, spectrum: Spectrum, row_space_tol: float, signed: bool = True) -> np.ndarray:
    """J's components in spectrum order (``signed`` as in spectral._project); RowSpaceError
    for a zero-mode one above row_space_tol * |J|; ValueError unless row_space_tol >= 0, inf included."""
    if not row_space_tol >= 0:  # NaN too, which would pass every source
        raise ValueError(f"row_space_tol must be a non-negative number or inf, got {row_space_tol!r}")
    J = check_array(J, (spectrum.n_modes,), "source entries", float)
    proj = _project(spectrum, J, signed)
    if spectrum.zero_modes and row_space_tol < np.inf:  # numpy.inf skips the check
        worst = float(np.max(np.abs(proj[list(spectrum.zero_modes)])))
        if _outside_row_space(worst, J, row_space_tol):
            raise RowSpaceError(
                "source violates self-consistency: component "
                f"{worst:.6e} along a zero mode (gauge-volume divergence)"
            )
    return proj


def _outside_row_space(component: float, J: np.ndarray, rtol: float = ROW_SPACE_RTOL) -> bool:
    """The row-space rule: a source is refused when its component along a zero mode exceeds
    ``ROW_SPACE_RTOL`` (``rtol``) times |J|, so a zero source (alpha = 0) never is.  The comparison
    runs in units of a power of two near max|J|: each division is exact, and |J| cannot overflow."""
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(J))))[1] - 1)
    return abs(component) / unit > rtol * max(float(np.linalg.norm(J / unit)), 1e-300 / unit)


def _retained(system: SccSystem, spectrum: Spectrum, row_space_tol: float, signed: bool = True):
    """Projections and eigenvalues over nonzero modes, all of which must be positive: checked first."""
    keep = _nonzero_mask(spectrum)
    a = spectrum.eigenvalues[keep]
    if np.any(a <= 0.0):
        raise ValueError(f"non-Gaussian-convergent mode: retained eigenvalue {float(np.min(a)):.6e} <= 0")
    return _row_space_projection(system.J, spectrum, row_space_tol, signed)[keep], a


def _log_volume(a: np.ndarray) -> float:
    """1/2 sum_j log(2 pi / |a_j|): the Gaussian volume of the modes of eigenvalues a."""
    return float(0.5 * np.sum(np.log(2.0 * np.pi / np.abs(a))))


def _result(a: np.ndarray, exponent: float, error: float | None = None, underresolved: bool = False) -> PartitionResult:
    """The restricted Z over the retained eigenvalues a: their volume plus ``exponent``, zero phase."""
    return PartitionResult(_log_volume(a) + exponent, 0.0, int(a.size), exponent, error, underresolved)


def euclidean_Z(
    system: SccSystem,
    spectrum: Spectrum,
    row_space_tol: float = ROW_SPACE_RTOL,
) -> PartitionResult:
    """Closed-form restricted partition function.

    Every retained eigenvalue must be positive; zero phase by
    construction.  ``row_space_tol`` is relative to |J| (pass
    ``numpy.inf`` to skip the membership check when the caller has
    already projected the source).
    """
    jt, a = _retained(system, spectrum, row_space_tol, signed=False)
    return _result(a, _finite("Z exponent", lambda: float(np.sum(jt**2 / (2.0 * a)))))


def outcome_probability(
    system: SccSystem,
    spectrum: Spectrum,
    mode: int,
    outcome: float,
    row_space_tol: float = ROW_SPACE_RTOL,
) -> float:
    """Gaussian density of one retained mode coordinate at ``outcome``.

    This is the normalized distribution obtained by integrating out all
    other modes: mean Jt_k / a_k, variance 1 / a_k.  ValueError for an
    outcome that is not a finite scalar.
    """
    _check_mode(spectrum, mode)
    q = float(check_array(outcome, (), "outcome", float))
    a = float(spectrum.eigenvalues[mode])
    if a <= 0.0:
        raise ValueError(f"non-Gaussian-convergent mode: eigenvalue {a:.6e} <= 0")
    jt = float(_row_space_projection(system.J, spectrum, row_space_tol)[mode])

    def density():  # about the mean, so a large source and outcome give no inf - inf
        dq = q - jt / a
        return math.sqrt(a / (2.0 * math.pi)) * math.exp(-0.5 * a * dq * dq)
    return _finite("outcome density", density)


def classical_solution(
    system: SccSystem,
    spectrum: Spectrum,
    row_space_tol: float = ROW_SPACE_RTOL,
) -> np.ndarray:
    """Minimum-norm stationary point: sum over nonzero modes of (Jt_j / a_j) v_j.

    Solves K Q = J within the row space, i.e. the pseudoinverse applied
    to the source.
    """
    proj = _row_space_projection(system.J, spectrum, row_space_tol, signed=False)
    keep = _nonzero_mask(spectrum)
    coeffs = np.zeros(spectrum.n_modes)
    coeffs[keep] = _finite("mode sum", lambda: proj[keep] / spectrum.eigenvalues[keep])
    return _synthesize(spectrum, coeffs)


def _log_mean_exp(log_terms: np.ndarray) -> float:
    m = float(np.max(log_terms))
    return m + math.log(float(np.mean(np.exp(log_terms - m))))


def _quadrature_exponent(jt: np.ndarray, a: np.ndarray, nodes: int) -> float:
    """log of the Gauss--Hermite estimate of E[exp(J.Q)] under prod N(0, 1/a_j).

    After substituting Q_j = x sqrt(2 / a_j) each axis becomes a
    standard Hermite integral pi^(-1/2) sum_k w_k exp(c_j x_k).  The
    integrand is a product over axes, so the tensor-grid sum is exactly
    the product of these per-axis sums, and its log is their log sum.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    logw = np.log(w)
    c = jt * np.sqrt(2.0 / a)
    # each axis: log sum_k = log mean_k + log(nodes)
    per_axis = math.log(nodes) - 0.5 * math.log(math.pi)
    return sum((_log_mean_exp(logw + cj * x) + per_axis for cj in c), 0.0)


def brute_force_Z(
    system: SccSystem,
    spectrum: Spectrum,
    method: str = "quadrature",
    budget: int = 200_000,
    seed: int = 0,
) -> PartitionResult:
    """Evaluate the restricted integral directly, as an oracle.

    method='quadrature': tensor-product Gauss--Hermite with roughly
    ``budget`` >= 1 total nodes (budget^(1/d) per axis, 4 to 100), refused
    above six retained dimensions where the tensor grid stops being
    meaningful.  The integrand factorizes over modes, so the grid sum is
    computed exactly as a product of d one-dimensional sums.  The error
    estimate is the change from a half-resolution grid.

    method='mc' (alias 'montecarlo'): ``budget`` >= 2 importance samples
    from the zero-centred mode Gaussian prod N(0, 1/a_j); the estimator
    weight is exp(J.Q).  The proposal is deliberately not centred at
    the stationary point, which would bake the answer being checked
    into the sampler.  The error estimate is one standard error of
    log Z.  The weights are log-normal with log-variance sum(Jt^2/a_j),
    so large sources starve the estimator; the result flags itself
    underresolved when the effective sample size collapses.  The draws
    pass through one fixed block, so memory is O(budget) whatever d is,
    and the seeded result does not depend on the block's size.  The
    seed is a non-negative integer, or None for fresh entropy.  Refusals
    precede the projection, in order: method, budget, seed, the quadrature's
    dimension, a retained eigenvalue <= 0; then the row-space check.
    """
    if method not in ("quadrature", "mc", "montecarlo"):
        raise ValueError(f"unknown method {method!r}; expected 'quadrature' or 'mc'/'montecarlo'")
    if not _is_integer(budget):
        raise ValueError(f"oracle budget must be an integer, got {budget!r}")
    if seed is not None and not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    quadrature = method == "quadrature"
    if quadrature and budget < 1:
        raise ValueError(f"quadrature budget must be a positive node count, got {budget}")
    if not quadrature and budget < 2:
        raise ValueError("mc oracle needs at least 2 samples")
    d = int(np.count_nonzero(_nonzero_mask(spectrum)))  # the retained modes, counted before the projection
    if quadrature and d > 6:
        raise ValueError(f"quadrature oracle limited to 6 retained dimensions, got {d}")
    jt, a = _retained(system, spectrum, ROW_SPACE_RTOL)

    if quadrature:
        # with no retained axis (d = 0) the node count is moot and the exponent is 0
        nodes = min(max(4, int(round(budget ** (1.0 / max(d, 1))))), 100)
        exponent = _quadrature_exponent(jt, a, nodes)
        coarse = _quadrature_exponent(jt, a, max(4, nodes // 2))
        return _result(a, exponent, abs(exponent - coarse), nodes < 16)

    rng = np.random.default_rng(seed)
    # C order keeps the (budget, d) draw's stream, and division is correctly rounded: no bit moves
    rows = _MC_BLOCK // max(d, 1)
    block, scale = np.empty(rows * d), np.tile(np.sqrt(a), rows)
    log_weights = np.empty(budget)
    for start in range(0, budget, rows):
        m = min(rows, budget - start)
        z = rng.standard_normal(out=block[: m * d])
        z /= scale[: m * d]  # the draws become Q
        np.einsum("ij,j->i", z.reshape(m, d), jt, out=log_weights[start : start + m])
    top = float(np.max(log_weights))
    w = log_weights - top  # one scratch array, for exp(log_weights - top) and then w
    exponent = top + math.log(float(np.mean(np.exp(w, out=w))))
    np.exp(np.subtract(log_weights, exponent, out=w), out=w)  # weights relative to their mean
    se_rel = float(np.std(w) / math.sqrt(budget))
    total = float(np.sum(w))
    ess = total**2 / float(np.sum(np.square(w, out=w)))
    return _result(a, exponent, se_rel, bool(budget < 1_000 or ess < 1_000))
