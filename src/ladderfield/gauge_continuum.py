"""Momentum-space gauge kernels for the two continuum field theories.

Conventions.  Metric signature (+,-,-,-); four-vectors are given with
upper (contravariant) components; kernels are returned with lower
(covariant) components, so applying one to an upper-index vector is a
plain matrix product.  k^2 means the Minkowski square k.eta.k.

The electromagnetic kinetic operator in momentum space is

    M(k)_ab = -k^2 eta_ab + k_a k_b

which annihilates the gauge direction k and produces transverse output
(k^a M_ab X^b = 0 for every X).  The weak-field gravitational kinetic
operator acts on symmetric rank-2 tensors h_ab:

    E(h)_mn = 1/2 ( k^2 h_mn + k_m k_n h - k_m k^a h_an - k_n k^a h_am
                    - eta_mn k^2 h + eta_mn k^a k^b h_ab ),    h = eta^ab h_ab

whose null directions for generic k^2 != 0 are exactly the four-parameter
gauge family k_a eps_b + k_b eps_a, and whose output is transverse in
the same sense.  The overall signs follow the electromagnetic kernel's
convention: for timelike momentum the quadratic form is positive on
transverse (for E: transverse-traceless) directions.  E's trace sector
carries the opposite sign, an intrinsic feature of this operator, so no
overall sign makes it positive-semidefinite.

For lightlike k both null spaces enlarge; rank statements here assume
k^2 != 0.  A kernel or output that would overflow the float range is
refused with ValueError.
"""

from __future__ import annotations

import numpy as np

from .chain_complex import _finite, check_array, check_finite, check_symmetric

MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])
MINKOWSKI.setflags(write=False)

#: Relative singular-value threshold below which null_space_dimension counts a direction.
NULL_SV_RTOL = 1e-9


def _four_vector(v, name="momentum") -> np.ndarray:
    """``v`` as a float array; ValueError unless it has shape (4,) and finite components."""
    return check_array(v, (4,), f"{name} components", float)


def _tensors(h) -> np.ndarray:
    """``h`` as an array, for its caller to check; ValueError unless it is a 4x4 tensor or a stack h[..., 4, 4]."""
    h = np.asarray(h)
    if h.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 tensor or a stack of them, got shape {h.shape}")
    return h


def _kernel(kernel) -> np.ndarray:
    """``kernel`` as a float array; ValueError unless it is a 2-D matrix of finite entries."""
    kernel = np.asarray(kernel)
    if kernel.ndim != 2:
        raise ValueError(f"expected a 2-D kernel, got shape {kernel.shape}")
    return np.asarray(check_finite(kernel, "kernel entries"), dtype=float)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b along the last axis, one BLAS dot per vector, as a 1-D ``a @ b`` rounds.  The
    private helpers below all take checked stacks along the leading axes this way: each
    item gets the BLAS or LAPACK call it would alone, so it is bitwise its single call."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    """The 2-norm along the last axis, rounded as np.linalg.norm of each vector."""
    return np.sqrt(_dots(v, v))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def minkowski_square(k) -> float:
    """k^2 = k.eta.k for an upper-index four-vector."""
    k = _four_vector(k)
    return float(_finite("Minkowski square", lambda: _dots(k @ MINKOWSKI, k)))


def lower_index(k) -> np.ndarray:
    return _four_vector(k) @ MINKOWSKI


def maxwell_kernel(k) -> np.ndarray:
    """Covariant matrix -k^2 eta + k (x) k (both indices lowered)."""
    k = _four_vector(k)
    return _finite("Maxwell kernel", lambda: _maxwell(k))


def _maxwell(k: np.ndarray) -> np.ndarray:
    k_lo = k @ MINKOWSKI
    return -_dots(k_lo, k)[..., None, None] * MINKOWSKI + _outer(k_lo, k_lo)


def fierz_pauli_apply(k, h) -> np.ndarray:
    """Apply the weak-field kinetic operator to a symmetric tensor h_ab or a stack h[..., a, b]."""
    k, h = _four_vector(k), check_symmetric(_tensors(h))
    return _finite("Fierz-Pauli output", lambda: _fierz_pauli(k, h))


def _fierz_pauli(k: np.ndarray, h: np.ndarray) -> np.ndarray:
    """fierz_pauli_apply for checked four-vectors k[..., 4] and symmetric tensors h[..., 4, 4]
    whose leading axes broadcast."""
    k_lo = k @ MINKOWSKI
    k2 = _dots(k, k_lo)[..., None, None]
    # eta inverse has the same entries
    trace = np.einsum("ab,...ab->...", MINKOWSKI, h)[..., None, None]
    kh = k[..., None, :] @ h  # k^a h_{a nu}, as a row
    khk = kh @ k[..., :, None]  # one dot per tensor: rounds as k @ h @ k does
    return 0.5 * (
        k2 * h
        + _outer(k_lo, k_lo) * trace
        - k_lo[..., :, None] * kh
        - np.swapaxes(kh, -1, -2) * k_lo[..., None, :]
        - MINKOWSKI * (k2 * trace)
        + MINKOWSKI * khk
    )


#: Frobenius-orthonormal basis of symmetric 4x4 tensors, one (4, 4) slice per
#: upper-triangle entry (a, b) in row-major order: E_aa, or (E_ab + E_ba) / sqrt 2.
_ROWS, _COLS = np.triu_indices(4)
SYMMETRIC_BASIS = np.zeros((10, 4, 4))
SYMMETRIC_BASIS[range(10), _ROWS, _COLS] = SYMMETRIC_BASIS[range(10), _COLS, _ROWS] = np.where(
    _ROWS == _COLS, 1.0, 1.0 / np.sqrt(2.0)
)
SYMMETRIC_BASIS.setflags(write=False)


def sym_to_vec(h) -> np.ndarray:
    """Coordinates of a symmetric tensor (or of each of a stack h[..., 4, 4]) in SYMMETRIC_BASIS."""
    return np.einsum("pab,...ab->...p", SYMMETRIC_BASIS, check_finite(_tensors(h), "tensor entries"))


def vec_to_sym(x) -> np.ndarray:
    return np.einsum("p,pab->ab", check_array(x, (10,), "coordinates", float), SYMMETRIC_BASIS)


def fierz_pauli_kernel(k) -> np.ndarray:
    """The 10x10 matrix of fierz_pauli_apply in SYMMETRIC_BASIS coordinates.

    Column q holds the coordinates of the operator applied to basis tensor q.
    Built row-major (C-contiguous): products with it then take the same BLAS
    path, and round the same way, on every call.
    """
    k = _four_vector(k)
    return _finite("Fierz-Pauli kernel", lambda: _fierz_pauli_kernel(k))


def _fierz_pauli_kernel(k: np.ndarray) -> np.ndarray:
    applied = _fierz_pauli(k[..., None, :], SYMMETRIC_BASIS)
    return np.einsum("pab,...qab->...pq", SYMMETRIC_BASIS, applied)


def gauge_tensor(k, eps) -> np.ndarray:
    """The pure-gauge symmetric tensor k_a eps_b + k_b eps_a (lower indices)."""
    k, eps = _four_vector(k), _four_vector(eps, "gauge parameter")
    return _finite("gauge tensor", lambda: _gauge_tensor(k, eps))


def _gauge_tensor(k: np.ndarray, eps: np.ndarray) -> np.ndarray:
    k_lo, e_lo = k @ MINKOWSKI, eps @ MINKOWSKI
    return _outer(k_lo, e_lo) + _outer(e_lo, k_lo)


def output_divergence(k, out) -> np.ndarray | float:
    """Contract kernel output (covariant) with k^a on its first index."""
    k = _four_vector(k)
    out = np.asarray(out)
    if out.shape[:1] != (4,):
        raise ValueError(f"expected an output whose first axis is 4, got shape {out.shape}")
    out = np.asarray(check_finite(out, "output entries"), dtype=float)
    div = _finite("output divergence", lambda: np.tensordot(k, out, axes=1))  # the first axis, at any rank
    return float(div) if out.ndim == 1 else div


def _scaled_up(a: np.ndarray, core: int) -> np.ndarray:
    """Each of the ``core``-dimensional arrays stacked in ``a`` times the power of two
    lifting its largest |entry| below 0.5 into [0.5, 1).

    It scales exactly, and the squares of tiny entries then cannot underflow."""
    peak = np.max(np.abs(a), axis=tuple(range(-core, 0)), initial=0.0)
    exponent = np.frexp(peak)[1].reshape(peak.shape + (1,) * core)
    return np.ldexp(a, -np.minimum(exponent, 0))


def null_residual(kernel, direction) -> float:
    """|kernel . direction| / (|kernel| |direction|), a scale-free nullity measure."""
    kernel = _kernel(kernel)
    return float(_null_residuals(kernel, check_array(direction, kernel.shape[1:], "direction entries", float)))


def _null_residuals(kernel: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """null_residual of each checked kernel[..., m, n] and direction[..., n]."""
    kernel, direction = _scaled_up(kernel, 2), _scaled_up(direction, 1)
    norms = lambda: [
        _norms((kernel @ direction[..., None])[..., 0]), np.linalg.norm(kernel, 2, axis=(-2, -1)), _norms(direction)
    ]
    norm_image, norm_ker, norm_dir = _finite("null residual", norms)
    if np.any(norm_dir == 0.0):
        raise ValueError("direction must be nonzero")
    scale = norm_ker * norm_dir
    return np.divide(norm_image, scale, out=np.zeros_like(scale), where=norm_ker != 0.0)


def _gauge_residuals(k, x, eps, h) -> np.ndarray:
    """Per trial t, from stacks k[t], x[t], eps[t] (four-vectors) and symmetric h[t]: the
    residuals null_residual(M, k), |k.M.x| / (|M|_2 |x| |k|), null_residual(F,
    sym_to_vec(gauge_tensor(k, eps))) and |k.E(h)| / (|F|_2 |h| |k|), with M, F and E
    the Maxwell kernel, Fierz-Pauli kernel and apply.  Each stack is checked once.
    """
    for v, name in ((k, "momentum"), (x, "x"), (eps, "gauge parameter")):
        check_finite(v, f"{name} components")
    h = check_symmetric(h)
    M = _finite("Maxwell kernel", lambda: _maxwell(k))
    F = _finite("Fierz-Pauli kernel", lambda: _fierz_pauli_kernel(k))
    pure_gauge = sym_to_vec(_finite("gauge tensor", lambda: _gauge_tensor(k, eps)))
    divergence = (k[:, None, :] @ _finite("Fierz-Pauli output", lambda: _fierz_pauli(k, h)))[:, 0]
    knorm = _norms(k)
    return np.stack([
        _null_residuals(M, k),
        abs(_dots(k, (M @ x[..., None])[..., 0])) / (np.linalg.norm(M, 2, axis=(-2, -1)) * _norms(x) * knorm),
        _null_residuals(F, pure_gauge),
        _norms(divergence) / (np.linalg.norm(F, 2, axis=(-2, -1)) * _norms(h.reshape(-1, 16)) * knorm),
    ], axis=1)


def null_space_dimension(kernel) -> int:
    """Count singular values at most NULL_SV_RTOL times the largest."""
    sv = np.linalg.svd(_kernel(kernel), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return int(sv.size)
    return int(np.sum(sv <= NULL_SV_RTOL * sv[0]))
