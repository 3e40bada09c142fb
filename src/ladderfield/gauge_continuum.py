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
k^2 != 0.
"""

from __future__ import annotations

import numpy as np

MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])
MINKOWSKI.setflags(write=False)

#: Relative singular-value threshold below which null_space_dimension counts a direction.
NULL_SV_RTOL = 1e-9


def minkowski_square(k) -> float:
    """k^2 = k.eta.k for an upper-index four-vector."""
    k = np.asarray(k, dtype=float)
    if k.shape != (4,):
        raise ValueError(f"expected a four-vector, got shape {k.shape}")
    return float(k @ MINKOWSKI @ k)


def lower_index(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    return MINKOWSKI @ k


def maxwell_kernel(k) -> np.ndarray:
    """Covariant matrix -k^2 eta + k (x) k (both indices lowered)."""
    k = np.asarray(k, dtype=float)
    if k.shape != (4,):
        raise ValueError(f"expected a four-vector, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("momentum components must be finite")
    k_lo = MINKOWSKI @ k
    return -minkowski_square(k) * MINKOWSKI + np.outer(k_lo, k_lo)


def fierz_pauli_apply(k, h) -> np.ndarray:
    """Apply the weak-field kinetic operator to a symmetric tensor h_ab."""
    k = np.asarray(k, dtype=float)
    h = np.asarray(h, dtype=float)
    if k.shape != (4,) or h.shape != (4, 4):
        raise ValueError("expected a four-vector and a 4x4 tensor")
    if np.max(np.abs(h - h.T), initial=0.0) > 1e-12 * max(np.max(np.abs(h), initial=0.0), 1.0):
        raise ValueError("tensor argument must be symmetric")
    k_lo = MINKOWSKI @ k
    k2 = float(k @ k_lo)
    trace = float(np.einsum("ab,ab->", MINKOWSKI, h))  # eta inverse has the same entries
    kh = k @ h  # k^a h_{a nu}
    khk = float(k @ h @ k)
    return 0.5 * (
        k2 * h
        + np.outer(k_lo, k_lo) * trace
        - np.outer(k_lo, kh)
        - np.outer(kh, k_lo)
        - MINKOWSKI * (k2 * trace)
        + MINKOWSKI * khk
    )


def _symmetric_basis() -> list[np.ndarray]:
    """Frobenius-orthonormal basis of symmetric 4x4 tensors (fixed order)."""
    basis = []
    for i in range(4):
        for j in range(i, 4):
            B = np.zeros((4, 4))
            if i == j:
                B[i, i] = 1.0
            else:
                B[i, j] = B[j, i] = 1.0 / np.sqrt(2.0)
            B.setflags(write=False)
            basis.append(B)
    return basis


SYMMETRIC_BASIS = _symmetric_basis()


def sym_to_vec(h) -> np.ndarray:
    """Coordinates of a symmetric tensor in SYMMETRIC_BASIS."""
    h = np.asarray(h, dtype=float)
    return np.array([float(np.sum(h * B)) for B in SYMMETRIC_BASIS])


def vec_to_sym(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (10,):
        raise ValueError(f"expected 10 coordinates, got shape {x.shape}")
    out = np.zeros((4, 4))
    for c, B in zip(x, SYMMETRIC_BASIS):
        out += c * B
    return out


def fierz_pauli_kernel(k) -> np.ndarray:
    """The 10x10 matrix of fierz_pauli_apply in SYMMETRIC_BASIS coordinates."""
    M = np.empty((10, 10))
    for col, B in enumerate(SYMMETRIC_BASIS):
        M[:, col] = sym_to_vec(fierz_pauli_apply(k, B))
    return M


def gauge_tensor(k, eps) -> np.ndarray:
    """The pure-gauge symmetric tensor k_a eps_b + k_b eps_a (lower indices)."""
    k_lo = lower_index(k)
    e_lo = lower_index(eps)
    return np.outer(k_lo, e_lo) + np.outer(e_lo, k_lo)


def output_divergence(k, out) -> np.ndarray | float:
    """Contract kernel output (covariant) with k^a on its first index."""
    k = np.asarray(k, dtype=float)
    out = np.asarray(out, dtype=float)
    if out.ndim == 1:
        return float(k @ out)
    return k @ out


def null_residual(kernel, direction) -> float:
    """|kernel . direction| / (|kernel| |direction|), a scale-free nullity measure."""
    kernel = np.asarray(kernel, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm_dir = float(np.linalg.norm(direction))
    if norm_dir == 0.0:
        raise ValueError("direction must be nonzero")
    norm_ker = float(np.linalg.norm(kernel, 2))
    if norm_ker == 0.0:
        return 0.0
    return float(np.linalg.norm(kernel @ direction)) / (norm_ker * norm_dir)


def null_space_dimension(kernel) -> int:
    """Count singular values at most NULL_SV_RTOL times the largest."""
    sv = np.linalg.svd(np.asarray(kernel, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return int(sv.size)
    return int(np.sum(sv <= NULL_SV_RTOL * sv[0]))
