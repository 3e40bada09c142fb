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

from dataclasses import dataclass, field
from functools import partial
from numbers import Integral

import numpy as np

from .chain_complex import (
    _BuiltOnFirstRead,
    _finite,
    _frozen,
    _ReadOnlyState,
    check_coupling,
    check_n,
    check_square,
    check_symmetric,
)
from ._ladder_transform import LadderBasis, degenerate_pairs, ladder_eigenvalues, pivot_signs, zero_modes

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

#: Relative threshold below which an eigenvalue counts as zero.
ZERO_MODE_RTOL = 1e-9

#: Relative gap below which neighbouring eigenvalues share a degeneracy group.
DEGENERACY_RTOL = 1e-9


class _LazyFields(_ReadOnlyState):
    # declared on a private base, so vars(Spectrum) lists no descriptor
    eigenvectors = _BuiltOnFirstRead()
    degeneracy_groups = _BuiltOnFirstRead()


@dataclass(frozen=True, eq=False)
class Spectrum(_LazyFields):
    """Eigenvalues (ascending), eigenvectors (columns), and bookkeeping.

    Each eigenvector column has its largest-magnitude entry positive: the
    largest as rounded to float, the first of equal floats (entries of equal
    exact magnitude can differ in the last bit).  ``parity`` tags each column
    'symmetric' / 'antisymmetric' under the rail swap, or None when no
    parity structure applies.  ``beta`` is the coupling the operator was
    built with, so unit-coupling shape eigenvalues are ``eigenvalues / beta``.

    ``eigenvectors`` and ``degeneracy_groups`` each take a value or a
    zero-argument builder; a builder runs on the first read and its result
    is kept, so a caller that reads only eigenvalues never pays for them.
    ``repr`` leaves both out, and ``==`` is identity, so neither builds them.

    A closed-form or continued spectrum also keeps a DCT basis, which builds
    its vectors and projects on its modes without them; one made by
    ``dataclasses.replace`` or this constructor keeps none and uses its own.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    parity: tuple[str | None, ...]
    zero_modes: tuple[int, ...]
    degeneracy_groups: tuple[tuple[int, ...], ...] = field(repr=False)
    beta: float = 1.0
    regime: str = "euclidean"

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def nonzero_modes(self) -> tuple[int, ...]:
        return tuple(np.delete(np.arange(self.n_modes), list(self.zero_modes)).tolist())

    @property
    def is_singular(self) -> bool:
        """More null directions than the single gauge mode."""
        return len(self.zero_modes) > 1

    def eigenpairs(self):
        for i in range(self.n_modes):
            yield self.eigenvalues[i], self.eigenvectors[:, i]


def _zero_mode_indices(vals: np.ndarray) -> tuple[int, ...]:
    top = np.max(np.abs(vals), initial=0.0)
    return tuple(np.flatnonzero(np.abs(vals) <= ZERO_MODE_RTOL * top).tolist())


def _groups(n: int, joined) -> tuple[tuple[int, ...], ...]:
    """0 .. n - 1 as runs of consecutive indices, with i and i + 1 in one run for each i in ``joined``."""
    ends = np.setdiff1d(np.arange(1, n), np.asarray(joined, dtype=int) + 1).tolist() + [n]
    return tuple(tuple(range(a, b)) for a, b in zip([0] + ends, ends) if a < b)


def _degeneracy_groups(vals: np.ndarray) -> tuple[tuple[int, ...], ...]:
    scale = max(np.max(np.abs(vals), initial=0.0), 1.0)
    # a NaN gap is not within the tolerance, so it ends a group
    return _groups(vals.size, np.flatnonzero(np.abs(np.diff(vals)) <= DEGENERACY_RTOL * scale))


def _sign_fix(vecs: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's largest-magnitude float, the first of equal ones, is positive."""
    vecs *= pivot_signs(lambda s: vecs[:, s], vecs.shape)
    return vecs


def _symmetric_eigh(K) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigensolve of a square symmetric matrix; ValueError otherwise."""
    return np.linalg.eigh(check_symmetric(check_square(np.asarray(K, dtype=float))))


def _columns_in_order(build_vecs, order: np.ndarray) -> np.ndarray:
    return _frozen(np.asarray(build_vecs(), dtype=float)[:, order])


def _assemble(vals, build_vecs, parity, beta, regime) -> Spectrum:
    """A spectrum with no closed form, sorted stably by eigenvalue, its zero modes and groups by the thresholds.

    ``build_vecs`` builds the sign-fixed vectors in the order of ``vals``, on the first read of the
    eigenvectors, as the groups are built on theirs.  It is a ``partial`` of a module-level function,
    so a Spectrum pickles before its first read as after it.
    """
    order = np.argsort(vals, kind="stable")
    vals = _frozen(np.asarray(vals, dtype=float)[order])
    return Spectrum(eigenvalues=vals, eigenvectors=partial(_columns_in_order, build_vecs, order),
                    parity=tuple(parity[i] for i in order), zero_modes=_zero_mode_indices(vals),
                    degeneracy_groups=partial(_degeneracy_groups, vals), beta=float(beta), regime=regime)


def _from_modes(vals: np.ndarray, modes: np.ndarray, beta, regime) -> Spectrum:
    """A closed-form or continued spectrum, vals[i] the eigenvalue of mode modes[i] of ladder_eigenvalues:
    sorted stably by eigenvalue, with every tag from the mode indices and none from a threshold."""
    order = np.argsort(vals, kind="stable")
    basis = LadderBasis(modes[order])
    n, continued = modes.size, regime == "lorentzian"
    column = np.empty(n, dtype=int)
    column[basis.modes] = np.arange(n)
    if beta == 0:  # every eigenvalue is 0: all zero modes, in one group
        zero, joined = range(n), range(n - 1)
    else:
        zero = sorted(column[zero_modes(n, continued)].tolist())
        joined = [min(column[a], column[b]) for a, b in degenerate_pairs(n, continued)]
    parity = np.array([SYMMETRIC, ANTISYMMETRIC], dtype=object)[basis.modes % 2].tolist()
    spectrum = Spectrum(eigenvalues=_frozen(vals[order]), eigenvectors=basis.vectors, parity=tuple(parity),
                        zero_modes=tuple(zero), degeneracy_groups=partial(_groups, n, joined),
                        beta=float(beta), regime=regime)
    object.__setattr__(spectrum, "_basis", basis)  # an instance attribute, not a field, so replace() drops it
    return spectrum


def ladder_spectrum_closed_form(n_vertices: int, beta: float = 1.0) -> Spectrum:
    """The exact eigensystem of the degree-1 ladder operator.

    Eigenvalues are beta (lam_j -+ 1) as in the module docstring;
    eigenvectors come out orthonormal by construction, on first read.
    """
    n = check_n(n_vertices)
    beta = check_coupling(beta)
    vals = _finite("closed-form spectrum", lambda: beta * ladder_eigenvalues(n))
    return _from_modes(vals, np.arange(n), beta, "euclidean")


def parity_swap_matrix(n_vertices: int) -> np.ndarray:
    """Permutation matrix exchanging the two rails."""
    n = check_n(n_vertices)
    return _frozen(np.roll(np.eye(n), n // 2, axis=1))


def lorentzian_operator(K: np.ndarray, beta: float = 1) -> np.ndarray:
    """K_M = K - 2 beta [[I, -I], [-I, I]] for a ladder-sized operator (even, >= 4).

    Integer K with an Integral beta stays exact int64, with ValueError where
    an entry could leave the int64 range; anything else comes out float64.
    """
    K = check_square(np.asarray(K))
    n = check_n(K.shape[0])
    exact = isinstance(check_coupling(beta), Integral) and np.issubdtype(K.dtype, np.integer)
    # entries of K_M are at most max|K| + 2|beta| in magnitude
    if exact and max(int(K.max(initial=0)), -int(K.min(initial=0))) + 2 * abs(int(beta)) >= 2**63:
        raise ValueError(f"integer arithmetic would overflow int64: max|K| + 2 * |{beta}| >= 2**63")
    shift = 2 * (int(beta) if exact else float(beta))
    K_M = np.array(K, dtype=np.result_type(K, np.int64 if exact else float))
    i = np.arange(n)

    def shifted():  # in place: the 2N entries on the diagonal and at each vertex's rail-swap partner
        K_M[i, i] -= shift
        K_M[i, (i + n // 2) % n] += shift
        return K_M
    return _frozen(shifted() if exact else _finite("Lorentzian operator", shifted))


def numeric_spectrum(K) -> Spectrum:
    """Eigensystem of an arbitrary symmetric matrix, with the same bookkeeping.

    Uses a dense symmetric eigensolver, then post-processes: when the
    size is a ladder size (even, >= 4) and the matrix commutes with the
    rail swap, each degenerate subspace is rotated into definite-parity
    vectors so the tags match the closed form.  Raises on non-symmetric
    input.  Zero modes and degeneracy groups come from ZERO_MODE_RTOL and
    DEGENERACY_RTOL, so past cond K of about 1e9 a genuine mode is tagged
    zero (the ladder's own K gets there near N = 82 000).
    """
    K = np.asarray(K, dtype=float)
    vals, vecs = _symmetric_eigh(K)
    n = K.shape[0]

    parity: list[str | None] = [None] * n
    if n >= 4 and n % 2 == 0:
        swap = np.roll(np.arange(n), n // 2)  # the rail swap by index: row i of swap @ K is K[swap[i]]
        if np.allclose(K[swap][:, swap], K, rtol=0.0, atol=1e-12 * max(np.max(np.abs(K)), 1.0)):
            for idx in _degeneracy_groups(vals):
                V = vecs[:, idx]
                # The swap restricted to an eigenspace is an involution;
                # its +-1 eigenvectors are the definite-parity modes.
                w, R = np.linalg.eigh(np.ascontiguousarray(V[swap].T) @ V)
                vecs[:, idx] = V @ R
                for pos, wi in zip(idx, w):
                    if abs(wi - 1.0) < 1e-6:
                        parity[pos] = SYMMETRIC
                    elif abs(wi + 1.0) < 1e-6:
                        parity[pos] = ANTISYMMETRIC

    return _assemble(vals, partial(_sign_fix, vecs), parity, 1.0, "euclidean")


def continue_to_lorentzian(spectrum: Spectrum, n_vertices: int) -> Spectrum:
    """Continue a ladder spectrum: antisymmetric eigenvalues drop by 4 beta.

    Requires every mode to carry a parity tag.  A closed-form parent's
    continuation takes its tags from the mode indices; for N divisible by
    4 the antisymmetric mode at j = N/4 becomes a second null direction
    and the result reports itself singular.  A numeric parent's zero
    modes and degeneracy groups are recomputed for the shifted eigenvalues.
    """
    basis = getattr(spectrum, "_basis", None)
    if basis is None and None in spectrum.parity:
        raise ValueError("cannot continue a spectrum without parity tags on every mode")
    if spectrum.n_modes != n_vertices:
        raise ValueError(f"spectrum has {spectrum.n_modes} modes but n_vertices is {n_vertices}")
    # odd modes are the antisymmetric ones; a numeric parent's tags are compared once, as objects
    antisymmetric = basis.modes % 2 if basis is not None else np.array(spectrum.parity, dtype=object) == ANTISYMMETRIC
    vals = spectrum.eigenvalues - np.where(antisymmetric, 4.0 * spectrum.beta, 0.0)
    if basis is not None:  # sorted from the parent's order, so tied values keep their columns
        return _from_modes(vals, basis.modes, spectrum.beta, "lorentzian")
    # the parent's vectors, read (and kept by the parent) only when these are
    return _assemble(vals, partial(getattr, spectrum, "eigenvectors"), spectrum.parity, spectrum.beta, "lorentzian")


def _project(spectrum: Spectrum, x: np.ndarray, signed: bool) -> np.ndarray:
    """x's component along each column, through the spectrum's DCT basis (``signed`` as in
    LadderBasis.project) or, with none, by an einsum: off the threaded matmul path, so no bit
    depends on the BLAS thread count.  ValueError past the float range."""
    basis = getattr(spectrum, "_basis", None)
    if basis is None:
        return _finite("source projection", lambda: np.einsum("ij,i->j", spectrum.eigenvectors, x))
    return _finite("source projection", lambda: basis.project(x, signed))


def _synthesize(spectrum: Spectrum, coeffs: np.ndarray) -> np.ndarray:
    """The sum of coeffs[i] times column i, as an unsigned _project reads the columns."""
    basis = getattr(spectrum, "_basis", None)
    if basis is None:
        return _finite("mode sum", lambda: np.einsum("ij,j->i", spectrum.eigenvectors, coeffs))
    return _finite("mode sum", lambda: basis.synthesize(coeffs))
