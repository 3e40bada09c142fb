"""Self-consistent operator/source pairs on a chain complex.

Given a boundary operator d of degree n, the quadratic-form kernel is
K = beta * d @ d.T and a source built from cell values e is
J = alpha * d @ e.  When e is itself the gradient of vertex values v
(degree 1: e_link = v_head - v_tail), the pair satisfies the exact
identity

    alpha * K @ v == beta * J

which is what ``verify_scc`` checks -- in integer arithmetic whenever
the inputs allow it.  K always annihilates the constant vector, and
any J produced this way sums to zero (a divergence-free source).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .chain_complex import ChainComplex, _frozen
from .errors import SccViolation
from .spectral import _sign_fix, _symmetric_eigh, _zero_mode_indices


def _exact_route(scalar, x: np.ndarray, matrix: np.ndarray | None = None) -> bool:
    """Whether ``scalar * (matrix @ x)`` (or ``scalar * x``) runs in exact int64.

    It does for an Integral scalar and integer arrays; ValueError when
    |scalar| * max row-L1 of matrix * max|x| reaches 2**63, where int64 could wrap.
    """
    arrays = (x,) if matrix is None else (x, matrix)
    if not isinstance(scalar, Integral) or not all(np.issubdtype(a.dtype, np.integer) for a in arrays):
        return False
    row_l1 = 1 if matrix is None else int(np.abs(matrix).sum(axis=1, dtype=np.uint64).max(initial=0))
    max_x = max(int(x.max(initial=0)), -int(x.min(initial=0)))
    if abs(int(scalar)) * max(row_l1 * max_x, 1) >= 2**63:
        raise ValueError(
            f"integer arithmetic would overflow int64: |{scalar}| * {row_l1} * {max_x} >= 2**63 "
            "(scalar * largest row sum * largest entry)"
        )
    return True


def _select_boundary(c: ChainComplex, n: int) -> np.ndarray:
    if n == 1:
        return c.d1
    if n == 2:
        return c.d2
    raise ValueError(f"unsupported chain degree {n}; expected 1 or 2")


@dataclass(frozen=True)
class SccSystem:
    """Operator K, source J, the couplings that built them, and the boundary used.

    alpha scales the source (units of momentum), beta the operator
    (momentum per length), hbar the action quantum used by phase code.
    """

    n: int
    alpha: float
    beta: float
    hbar: float
    K: np.ndarray
    J: np.ndarray
    boundary: np.ndarray

    @property
    def size(self) -> int:
        return self.K.shape[0]


def build_operator(c: ChainComplex, n: int, beta: float) -> np.ndarray:
    """K = beta * d_n @ d_n.T.  Integer beta keeps the result exact."""
    d = _select_boundary(c, n)
    scalar = int(beta) if _exact_route(beta, d.T, d) else float(beta)
    return _frozen(scalar * (d @ d.T))


def build_source(c: ChainComplex, n: int, cell_values, alpha: float) -> np.ndarray:
    """J = alpha * d_n @ e for cell values e one degree up."""
    d = _select_boundary(c, n)
    e = np.asarray(cell_values)
    if e.shape != (d.shape[1],):
        raise ValueError(
            f"cell values have shape {e.shape}, expected ({d.shape[1]},) for degree {n}"
        )
    if not np.all(np.isfinite(e)):
        raise ValueError("cell values must be finite")
    if _exact_route(alpha, e, d):
        return _frozen(int(alpha) * (d @ e))
    with np.errstate(over="ignore", invalid="ignore"):
        J = float(alpha) * (d @ e.astype(float))
    if not np.all(np.isfinite(J)):
        raise ValueError(f"source alpha * d @ e is not finite for alpha={alpha!r}")
    return _frozen(J)


def build_system(
    c: ChainComplex,
    n: int,
    cell_values,
    alpha: float = 1.0,
    beta: float = 1.0,
    hbar: float = 1.0,
) -> SccSystem:
    """Bundle operator and source built from one complex and one cell assignment."""
    return SccSystem(
        n=n,
        alpha=alpha,
        beta=beta,
        hbar=hbar,
        K=build_operator(c, n, beta),
        J=build_source(c, n, cell_values, alpha),
        boundary=_select_boundary(c, n),
    )


def gradient_link_values(c: ChainComplex, vertex_values) -> np.ndarray:
    """e = d1.T @ v: each link gets head value minus tail value."""
    v = np.asarray(vertex_values)
    if v.shape != (c.d1.shape[0],):
        raise ValueError(f"vertex values have shape {v.shape}, expected ({c.d1.shape[0]},)")
    _exact_route(1, v, c.d1.T)  # raises where an integer gradient could wrap
    return _frozen(c.d1.T @ v)


@dataclass(frozen=True)
class SccReport:
    """Outcome of a successful verify_scc: residuals for the checked identities.

    verify_scc raises on failure, so holding a report means the system
    passed; the fields record how tight the identities actually were.
    """

    max_identity_residual: float
    source_sum: float
    max_constant_mode_residual: float
    exact: bool


def verify_scc(system: SccSystem, vertex_values, tol: float = 1e-12) -> SccReport:
    """Check alpha * K @ v == beta * J plus the two structural side conditions.

    Integer inputs are compared exactly; otherwise the identity residual
    is measured against ``tol`` times the scale of the compared vectors.
    Raises SccViolation if the source was not built from the gradient of
    ``vertex_values``.
    """
    v = np.asarray(vertex_values)
    if v.shape != (system.size,):
        raise ValueError(f"vertex values have shape {v.shape}, expected ({system.size},)")

    J = system.J
    exact = _exact_route(system.alpha, v, system.K) and _exact_route(system.beta, J)
    if not exact:
        v, J = v.astype(float), J.astype(float)

    lhs = system.alpha * (system.K @ v)
    rhs = system.beta * J
    # subtract in float so an exact-route difference cannot wrap in int64
    diff = np.max(np.abs(np.subtract(lhs, rhs, dtype=float))) if lhs.size else 0.0

    max_residual = float(diff)
    if exact:
        violated = bool(np.any(lhs != rhs))
    else:
        scale = max(float(np.max(np.abs(lhs), initial=0.0)), float(np.max(np.abs(rhs), initial=0.0)), 1.0)
        violated = max_residual > tol * scale

    if violated:
        raise SccViolation(
            f"SCC violated: link values are not a vertex gradient (max residual {max_residual:.6e})",
            max_residual=max_residual,
        )

    ones = np.ones(system.size, dtype=system.K.dtype if exact else float)
    const_resid = float(np.max(np.abs(system.K @ ones)))
    return SccReport(
        max_identity_residual=max_residual,
        source_sum=float(np.sum(system.J)),
        max_constant_mode_residual=const_resid,
        exact=exact,
    )


def null_space_basis(K, tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of a symmetric matrix.

    A direction x counts as null when its eigenvalue magnitude is at
    most ``tol`` times the largest eigenvalue magnitude.  Vectors are
    sign-fixed (largest-magnitude component positive) so the basis is
    reproducible.
    """
    vals, vecs = _symmetric_eigh(K)
    basis = _sign_fix(vecs[:, list(_zero_mode_indices(vals, tol))]).T.copy()
    return [_frozen(x) for x in basis]
