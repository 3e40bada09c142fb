"""Spectra of ladder operators: closed form, numeric, and Wick-continued.

For the degree-1 ladder operator K = beta * d1 @ d1.T on N vertices the
whole eigensystem is known in closed form.  Write s_j = sin(j pi / N)
and lam_j = 3 - 2 cos(2 pi j / N) for j = 0 .. N/2 - 1, and let x_j be
the half-vector

    x_0k = sqrt(1/N),   x_jk = sqrt(2/N) cos(j (2k - 1) pi / N)   (j > 0)

for k = 1 .. N/2.  Then [x_j; x_j] is an eigenvector with eigenvalue
beta (lam_j - 1) (rail-swap symmetric) and [x_j; -x_j] one with
eigenvalue beta (lam_j + 1) (antisymmetric).  j = 0 symmetric is the
constant gauge zero mode.

The Lorentzian continuation replaces K by

    K_M = K - 2 beta [[I, -I], [-I, I]]

which leaves symmetric eigenpairs alone and shifts every antisymmetric
eigenvalue down by 4 beta.  When N is a multiple of 4 the antisymmetric
j = N/4 eigenvalue lands exactly on zero, and the continued operator
picks up a second null direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_complex import _frozen, check_n

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

#: Relative threshold below which an eigenvalue counts as zero.
ZERO_MODE_RTOL = 1e-9

#: Relative gap below which neighbouring eigenvalues share a degeneracy group.
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending), eigenvectors (columns), and bookkeeping.

    ``parity`` tags each column 'symmetric' / 'antisymmetric' under the
    rail swap, or None when no parity structure applies.  ``beta`` is
    the coupling the operator was built with, so unit-coupling shape
    eigenvalues are ``eigenvalues / beta``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parity: tuple[str | None, ...]
    zero_modes: tuple[int, ...]
    degeneracy_groups: tuple[tuple[int, ...], ...]
    beta: float = 1.0
    regime: str = "euclidean"

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def nonzero_modes(self) -> tuple[int, ...]:
        zero = set(self.zero_modes)
        return tuple(i for i in range(self.n_modes) if i not in zero)

    @property
    def is_singular(self) -> bool:
        """More null directions than the single gauge mode."""
        return len(self.zero_modes) > 1

    def eigenpairs(self):
        for i in range(self.n_modes):
            yield self.eigenvalues[i], self.eigenvectors[:, i]


def _zero_mode_indices(vals: np.ndarray, rtol: float) -> tuple[int, ...]:
    top = np.max(np.abs(vals), initial=0.0)
    if top == 0.0:
        return tuple(range(vals.size))
    return tuple(int(i) for i in np.flatnonzero(np.abs(vals) <= rtol * top))


def _degeneracy_groups(vals: np.ndarray, rtol: float) -> tuple[tuple[int, ...], ...]:
    scale = max(np.max(np.abs(vals), initial=0.0), 1.0)
    groups: list[list[int]] = []
    for i in range(vals.size):
        if groups and abs(vals[i] - vals[groups[-1][-1]]) <= rtol * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def _sign_fix(vecs: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's largest-magnitude entry is positive.

    Callers pass a fresh copy; copying here too costs one N x N matrix of peak memory.
    """
    for i in range(vecs.shape[1]):
        pivot = int(np.argmax(np.abs(vecs[:, i])))
        if vecs[pivot, i] < 0:
            vecs[:, i] = -vecs[:, i]
    return vecs


def _symmetric_eigh(K) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigensolve of a square symmetric matrix; ValueError otherwise."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    asym = np.max(np.abs(K - K.T), initial=0.0)
    if asym > 1e-12 * max(np.max(np.abs(K), initial=0.0), 1.0):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return np.linalg.eigh(K)


def _assemble(vals, vecs, parity, beta, regime, zero_tol: float = ZERO_MODE_RTOL) -> Spectrum:
    order = np.argsort(vals, kind="stable")
    vals = np.asarray(vals, dtype=float)[order]
    vecs = np.asarray(vecs, dtype=float)[:, order]
    parity = tuple(parity[i] for i in order)
    return Spectrum(
        eigenvalues=_frozen(vals),
        eigenvectors=_frozen(_sign_fix(vecs)),
        parity=parity,
        zero_modes=_zero_mode_indices(vals, zero_tol),
        degeneracy_groups=_degeneracy_groups(vals, DEGENERACY_RTOL),
        beta=float(beta),
        regime=regime,
    )


def ladder_spectrum_closed_form(n_vertices: int, beta: float = 1.0) -> Spectrum:
    """The exact eigensystem of the degree-1 ladder operator.

    Eigenvalues are beta (lam_j -+ 1) as in the module docstring;
    eigenvectors come out orthonormal by construction.
    """
    n = check_n(n_vertices)
    half = n // 2
    j = np.arange(half)
    lam = 3.0 - 2.0 * np.cos(2.0 * np.pi * j / n)
    vals = np.empty(n)
    vals[0::2] = beta * (lam - 1.0)
    vals[1::2] = beta * (lam + 1.0)

    # column j of x is the half-vector x_j; mode j fills columns 2j and 2j + 1
    vecs = np.empty((n, n))
    x = vecs[:half, 0::2]
    np.multiply(np.sqrt(2.0 / n), np.cos(np.outer(2 * j + 1, j) * np.pi / n), out=x)
    x[:, 0] = np.sqrt(1.0 / n)
    vecs[half:, 0::2] = x
    vecs[:half, 1::2] = x
    np.negative(x, out=vecs[half:, 1::2])
    return _assemble(vals, vecs, [SYMMETRIC, ANTISYMMETRIC] * half, beta, "euclidean")


def parity_swap_matrix(n_vertices: int) -> np.ndarray:
    """Permutation matrix exchanging the two rails."""
    half = check_n(n_vertices) // 2
    eye = np.eye(half)
    zero = np.zeros((half, half))
    return _frozen(np.block([[zero, eye], [eye, zero]]))


def lorentzian_operator(K: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """K_M = K - 2 beta [[I, -I], [-I, I]] for a ladder-sized operator (even, >= 4)."""
    K = np.asarray(K)
    n = K.shape[0]
    swap = parity_swap_matrix(n)
    if np.issubdtype(K.dtype, np.integer) and float(beta).is_integer():
        block = np.eye(n, dtype=K.dtype) - swap.astype(K.dtype)
        return _frozen(K - 2 * int(beta) * block)
    return _frozen(K - 2.0 * float(beta) * (np.eye(n) - swap))


def numeric_spectrum(K, zero_tol: float = ZERO_MODE_RTOL) -> Spectrum:
    """Eigensystem of an arbitrary symmetric matrix, with the same bookkeeping.

    Uses a dense symmetric eigensolver, then post-processes: when the
    size is a ladder size (even, >= 4) and the matrix commutes with the
    rail swap, each degenerate subspace is rotated into definite-parity
    vectors so the tags match the closed form.  Raises on non-symmetric
    input.
    """
    K = np.asarray(K, dtype=float)
    vals, vecs = _symmetric_eigh(K)
    n = K.shape[0]

    parity: list[str | None] = [None] * n
    if n >= 4 and n % 2 == 0:
        swap = parity_swap_matrix(n)
        if np.allclose(swap @ K @ swap, K, rtol=0.0, atol=1e-12 * max(np.max(np.abs(K)), 1.0)):
            groups = _degeneracy_groups(vals, DEGENERACY_RTOL)
            for group in groups:
                idx = list(group)
                V = vecs[:, idx]
                # The swap restricted to an eigenspace is an involution;
                # its +-1 eigenvectors are the definite-parity modes.
                w, R = np.linalg.eigh(V.T @ swap @ V)
                vecs[:, idx] = V @ R
                for pos, wi in zip(idx, w):
                    if abs(wi - 1.0) < 1e-6:
                        parity[pos] = SYMMETRIC
                    elif abs(wi + 1.0) < 1e-6:
                        parity[pos] = ANTISYMMETRIC

    return _assemble(vals, vecs, parity, 1.0, "euclidean", zero_tol)


def continue_to_lorentzian(spectrum: Spectrum, n_vertices: int) -> Spectrum:
    """Continue a ladder spectrum: antisymmetric eigenvalues drop by 4 beta.

    Requires every mode to carry a parity tag.  Zero modes and
    degeneracy groups are recomputed for the shifted eigenvalues; for
    N divisible by 4 the antisymmetric mode at j = N/4 becomes a second
    null direction and the result reports itself singular.
    """
    if any(p is None for p in spectrum.parity):
        raise ValueError("cannot continue a spectrum without parity tags on every mode")
    if spectrum.n_modes != n_vertices:
        raise ValueError(
            f"spectrum has {spectrum.n_modes} modes but n_vertices is {n_vertices}"
        )
    shift = np.array(
        [4.0 * spectrum.beta if p == ANTISYMMETRIC else 0.0 for p in spectrum.parity]
    )
    vals = spectrum.eigenvalues - shift
    return _assemble(vals, spectrum.eigenvectors, list(spectrum.parity), spectrum.beta, "lorentzian")
