"""Self-consistent operator/source pairs on a chain complex.

Given a boundary operator d of degree n, the quadratic-form kernel
K = beta * d @ d.T is summed over the pairs of nonzeros of d, one entry
per pair of cells that share a face (at most 4 per row on the ladder),
and a source built from cell values e is J = alpha * d @ e, also summed
over d's nonzeros.  Neither reads the dense d.  When e is itself the
gradient of vertex values v (degree 1: e_link = v_head - v_tail), the
pair satisfies the exact identity

    alpha * K @ v == beta * J

which is what ``verify_scc`` checks -- in integer arithmetic whenever
the inputs allow it.  K always annihilates the constant vector, and
any J produced this way sums to zero (a divergence-free source).

An SccSystem holds K one way, as those nonzeros, made on their first read:
``size``, ``verify_scc`` and the dense N x N K read them.  The Z, the
classical solution and the oracles read only J, so a system that reaches
only them builds no operator.  A system given a dense K derives its
nonzeros from that K.  On a ladder complex the unit-coupling d @ d.T comes
from the ladder table, so each build only scales its values by beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chain_complex import (
    ChainComplex,
    _exact_route,
    _finite,
    _frozen,
    _is_integer,
    _kept,
    _lazy,
    _Nonzeros,
    _product,
    _ReadOnlyState,
    check_array,
    check_coupling,
    check_square,
)
from .errors import SccViolation
from .spectral import _sign_fix, _symmetric_eigh, _zero_mode_indices

#: Relative residual allowed in the float-route check of alpha * K @ v == beta * J.
SCC_RTOL = 1e-12


def _select_boundary(c: ChainComplex, n: int) -> _Nonzeros:
    if not _is_integer(n) or n not in (1, 2):
        raise ValueError(f"unsupported chain degree {n}; expected 1 or 2")
    return c.nonzeros[n - 1]


@_lazy("boundary", "_nonzeros", K="_nonzeros")
@dataclass(frozen=True, eq=False)
class SccSystem(_ReadOnlyState):
    """Operator K, source J, the couplings that built them, and the boundary used.

    alpha scales the source (units of momentum), beta the operator
    (momentum per length), hbar the action quantum used by phase code; the
    constructor refuses (ValueError) a coupling check_coupling refuses, with
    build_system's messages.  ``K`` takes the dense matrix, or build_system's
    zero-argument builder of its nonzeros; ``boundary`` the dense matrix or a
    zero-argument builder of it.  K's nonzeros, the dense K and the boundary
    are lazy fields; the dense K's builder takes the nonzeros, and a dense K
    given is read into nonzeros by the constructor, by the ChainComplex rule
    (check_finite; bool and unsigned entries held as int64).  ``repr`` leaves
    K and the boundary out, and ``==`` is identity, so neither builds them.
    ``dataclasses.replace`` reads every init field, so it builds the dense K
    and boundary it copies: a copy cannot carry an unbuilt K while ``K``
    reads as an array.  A system for another source comes from build_system
    on the same complex, which builds no operator.
    """

    n: int
    alpha: float
    beta: float
    hbar: float
    K: np.ndarray = field(repr=False)
    J: np.ndarray
    boundary: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("alpha", "beta", "hbar"):
            check_coupling(vars(self)[name], name)
        K = vars(self)["K"]
        if callable(K):
            vars(self).update(_nonzeros=K, K=_Nonzeros.dense)
        else:
            vars(self)["_nonzeros"] = _Nonzeros.of(check_square(np.asarray(K)), "operator entries")

    @property
    def size(self) -> int:
        return self._nonzeros.shape[0]


def _operator(c: ChainComplex, n: int, beta: float) -> _Nonzeros:
    """The nonzeros of K = beta * d_n @ d_n.T; integer beta keeps them exact and gives K its row-L1 bound."""
    d = _select_boundary(c, n)
    exact = _exact_route(check_coupling(beta), d.vals, d)
    if vars(c).get("_ladder"):  # kept per N in int64: its small integers read as the floats a float sum gives
        gram = _kept(c.n_vertices, ("gram", n), lambda: _product(d, d.T, np.int64))
    else:
        gram = _product(d, d.T, np.int64 if exact else float)
    if exact:  # bounded already
        vals = gram.vals * int(beta)
    else:
        vals = _finite("operator beta * d @ d.T", lambda: gram.vals * float(beta))
    K = _Nonzeros(gram.shape, gram.rows, gram.cols, vals, zero=vals.dtype.type(0) * beta)
    if exact:  # what K.max_row_l1 would sum, from the bound a kept gram keeps for every system
        vars(K)["max_row_l1"] = abs(int(beta)) * gram.max_row_l1
    return K


def build_operator(c: ChainComplex, n: int, beta: float) -> np.ndarray:
    """K = beta * d_n @ d_n.T, summed over d_n's nonzeros.  Integer beta keeps the result exact."""
    return _operator(c, n, beta).dense()


def build_source(c: ChainComplex, n: int, cell_values, alpha: float) -> np.ndarray:
    """J = alpha * d_n @ e for cell values e one degree up."""
    d = _select_boundary(c, n)
    e = check_array(cell_values, (d.shape[1],), "cell values")
    if _exact_route(check_coupling(alpha, "alpha"), e, d):
        return _frozen(int(alpha) * d.dot(e))
    return _frozen(_finite("source alpha * d @ e", lambda: float(alpha) * d.dot(e.astype(float))))


def build_system(
    c: ChainComplex,
    n: int,
    cell_values,
    alpha: float = 1.0,
    beta: float = 1.0,
    hbar: float = 1.0,
) -> SccSystem:
    """Bundle operator and source built from one complex and one cell assignment.  The operator's
    nonzeros are made on their first read, which refuses an int64 or float overflow of beta * d @ d.T."""
    return SccSystem(
        n=n,
        alpha=alpha,
        beta=beta,
        hbar=hbar,
        K=partial(_operator, c, n, beta),
        J=build_source(c, n, cell_values, alpha),
        boundary=partial(getattr, c, f"d{n}"),
    )


def gradient_link_values(c: ChainComplex, vertex_values) -> np.ndarray:
    """e = d1.T @ v: each link gets head value minus tail value."""
    d1_t = c.nonzeros[0].T
    v = check_array(vertex_values, (d1_t.shape[1],), "vertex values")
    _exact_route(1, v, d1_t)  # raises where an integer gradient could wrap
    return _frozen(d1_t.dot(v))


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


def verify_scc(system: SccSystem, vertex_values) -> SccReport:
    """Check alpha * K @ v == beta * J plus the two structural side conditions.

    Integer inputs are compared exactly; otherwise the identity residual
    is measured against ``SCC_RTOL`` times the scale of the compared vectors.
    Raises SccViolation if the source was not built from the gradient of
    ``vertex_values``.
    """
    K = system._nonzeros
    v = check_array(vertex_values, (system.size,), "vertex values")
    J = check_array(system.J, (system.size,), "source entries")
    exact = _exact_route(system.alpha, v, K) and _exact_route(system.beta, J)
    if not exact:
        v, J = v.astype(float), J.astype(float)

    lhs = system.alpha * K.dot(v)
    rhs = system.beta * J
    # subtract in float so an exact-route difference cannot wrap in int64
    diff = np.max(np.abs(np.subtract(lhs, rhs, dtype=float))) if lhs.size else 0.0

    max_residual = float(diff)
    if exact:
        violated = bool(np.any(lhs != rhs))
    else:
        scale = max(float(np.max(np.abs(lhs), initial=0.0)), float(np.max(np.abs(rhs), initial=0.0)), 1.0)
        violated = not max_residual <= SCC_RTOL * scale  # a NaN residual fails too

    if violated:
        raise SccViolation(
            f"SCC violated: link values are not a vertex gradient (max residual {max_residual:.6e})",
            max_residual=max_residual,
        )

    ones = np.ones(system.size, dtype=K.dtype if exact else float)
    const_resid = float(np.max(np.abs(K.dot(ones))))
    return SccReport(
        max_identity_residual=max_residual,
        source_sum=float(np.sum(system.J)),
        max_constant_mode_residual=const_resid,
        exact=exact,
    )


def null_space_basis(K) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of a symmetric matrix.

    A direction counts as null when its eigenvalue magnitude is at most
    ``ZERO_MODE_RTOL`` times the largest, the rule behind a Spectrum's
    zero modes.  Vectors are sign-fixed so the basis is reproducible: the
    largest-magnitude component as rounded to float, the first of equal
    floats, is positive.
    """
    vals, vecs = _symmetric_eigh(K)
    basis = _sign_fix(vecs[:, list(_zero_mode_indices(vals))]).T.copy()
    return [_frozen(x) for x in basis]
