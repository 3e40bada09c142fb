"""Momentum-space kernels for the spin-1 and spin-2 quadratic forms.

The invariants mirror the discrete side: the kernel annihilates pure gauge
directions, its output is transverse, and the null space has the expected
dimension away from the light cone.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ladderfield.gauge_continuum import (
    MINKOWSKI,
    SYMMETRIC_BASIS,
    _gauge_residuals,
    fierz_pauli_apply,
    fierz_pauli_kernel,
    gauge_tensor,
    lower_index,
    maxwell_kernel,
    minkowski_square,
    null_residual,
    null_space_dimension,
    output_divergence,
    sym_to_vec,
    vec_to_sym,
)


def healthy_momenta(count, seed=0, min_square=0.1):
    """Random four-momenta kept away from the light cone."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = rng.uniform(-3.0, 3.0, size=4)
        if abs(minkowski_square(k)) >= min_square:
            out.append(k)
    return out


def test_metric_convention():
    assert_allclose(MINKOWSKI, np.diag([1.0, -1.0, -1.0, -1.0]))
    assert minkowski_square(np.array([1.0, 0, 0, 0])) == 1.0
    assert minkowski_square(np.array([0, 1.0, 0, 0])) == -1.0
    assert_allclose(lower_index(np.array([2.0, 3.0, 0, 0])), [2.0, -3.0, 0, 0])


def test_maxwell_rest_frame_projector():
    K = maxwell_kernel(np.array([1.0, 0.0, 0.0, 0.0]))
    assert_allclose(K, np.diag([0.0, 1.0, 1.0, 1.0]), atol=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_maxwell_annihilates_gauge_and_is_transverse(seed):
    for k in healthy_momenta(25, seed=seed):
        K = maxwell_kernel(k)
        scale = max(1.0, np.abs(K).max())
        assert np.abs(K @ k).max() <= 1e-12 * scale * max(1.0, np.abs(k).max())
        A = np.random.default_rng(seed).normal(size=4)
        out = K @ A
        div = out @ k  # covariant output contracted with the upper-index k
        assert abs(div) <= 1e-12 * scale * max(1.0, np.abs(A).max()) * 10


def test_maxwell_null_space_dimension():
    for k in healthy_momenta(10, seed=3):
        assert null_space_dimension(maxwell_kernel(k)) == 1
    # on the light cone the kernel degenerates to a rank-one form
    k = np.array([1.0, 1.0, 0.0, 0.0])
    assert null_space_dimension(maxwell_kernel(k)) == 3


def test_maxwell_symmetric():
    for k in healthy_momenta(5, seed=9):
        K = maxwell_kernel(k)
        assert_allclose(K, K.T, atol=1e-13)


def test_null_residual_flags_true_and_false_directions():
    k = np.array([2.0, 1.0, 0.0, 0.0])
    K = maxwell_kernel(k)
    assert null_residual(K, k) <= 1e-12
    # a direction Euclidean-orthogonal to k with comparable scales
    d = np.array([1.0, -2.0, 0.0, 0.0])
    assert null_residual(K, d) >= 0.1


def test_null_residual_identity_matrix():
    assert_allclose(null_residual(np.eye(4), np.array([1.0, 2.0, 0.0, 0.0])), 1.0)


def test_null_residual_rejects_zero_direction():
    with pytest.raises(ValueError):
        null_residual(np.eye(4), np.zeros(4))


# --- spin-2 ------------------------------------------------------------------


def random_symmetric(rng):
    M = rng.normal(size=(4, 4))
    return 0.5 * (M + M.T)


def test_gauge_tensor_shape_and_symmetry():
    k = np.array([1.0, 0.2, -0.3, 0.5])
    eps = np.array([0.4, -1.0, 2.0, 0.1])
    t = gauge_tensor(k, eps)
    assert_allclose(t, t.T, atol=1e-15)
    k_lo, e_lo = lower_index(k), lower_index(eps)
    assert_allclose(t, np.outer(k_lo, e_lo) + np.outer(e_lo, k_lo), atol=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_spin2_annihilates_gauge_family(seed):
    rng = np.random.default_rng(seed)
    for k in healthy_momenta(25, seed=seed + 40):
        eps = rng.normal(size=4)
        h = gauge_tensor(k, eps)
        out = fierz_pauli_apply(k, h)
        scale = max(1.0, np.abs(k).max()) ** 2 * max(1.0, np.abs(eps).max())
        assert np.abs(out).max() <= 1e-12 * scale * 10


@pytest.mark.parametrize("seed", range(4))
def test_spin2_output_transverse(seed):
    rng = np.random.default_rng(seed)
    for k in healthy_momenta(25, seed=seed + 80):
        h = random_symmetric(rng)
        out = fierz_pauli_apply(k, h)
        div = output_divergence(k, out)
        scale = max(1.0, np.abs(k).max()) ** 3 * max(1.0, np.abs(h).max())
        assert np.abs(div).max() <= 1e-12 * scale * 10


def test_spin2_output_symmetric_and_input_checked():
    k = np.array([1.5, 0.3, 0.0, -0.2])
    h = random_symmetric(np.random.default_rng(0))
    out = fierz_pauli_apply(k, h)
    assert_allclose(out, out.T, atol=1e-13)
    with pytest.raises(ValueError):
        fierz_pauli_apply(k, np.triu(np.ones((4, 4))))


def test_spin2_matrix_form_consistent_with_apply():
    rng = np.random.default_rng(5)
    for k in healthy_momenta(10, seed=17):
        h = random_symmetric(rng)
        M = fierz_pauli_kernel(k)
        assert_allclose(M @ sym_to_vec(h), sym_to_vec(fierz_pauli_apply(k, h)), atol=1e-12)


def test_spin2_kernel_null_space_dimension():
    timelike = np.array([2.0, 0.3, -0.4, 0.1])
    spacelike = np.array([0.2, 1.8, 0.5, -0.7])
    for k in (timelike, spacelike):
        assert null_space_dimension(fierz_pauli_kernel(k)) == 4
    lightlike = np.array([1.0, 0.0, 1.0, 0.0])
    assert null_space_dimension(fierz_pauli_kernel(lightlike)) > 4


def test_spin2_self_adjoint_under_indefinite_pairing():
    # <A, E(B)> = <E(A), B> with <A,B> = tr(eta A eta B)
    rng = np.random.default_rng(21)
    eta = MINKOWSKI
    for k in healthy_momenta(10, seed=55):
        A = random_symmetric(rng)
        B = random_symmetric(rng)
        left = np.trace(eta @ A @ eta @ fierz_pauli_apply(k, B))
        right = np.trace(eta @ fierz_pauli_apply(k, A) @ eta @ B)
        assert_allclose(left, right, rtol=1e-10, atol=1e-10)


def test_symmetric_basis_orthonormal():
    G = np.array([sym_to_vec(b) for b in SYMMETRIC_BASIS])
    assert G.shape == (10, 10)
    assert_allclose(G @ G.T, np.eye(10), atol=1e-14)
    # Frobenius inner products of the matrices themselves
    for i, bi in enumerate(SYMMETRIC_BASIS):
        for j, bj in enumerate(SYMMETRIC_BASIS):
            assert_allclose(np.tensordot(bi, bj), 1.0 if i == j else 0.0, atol=1e-14)


def test_vec_round_trip():
    h = random_symmetric(np.random.default_rng(8))
    assert_allclose(vec_to_sym(sym_to_vec(h)), h, atol=1e-14)


def test_discrete_continuum_parallel():
    """The consistency triangle holds in both settings: flat directions are
    annihilated, and every output is orthogonal to them."""
    from ladderfield.chain_complex import build_chain_complex
    from ladderfield.scc import build_operator, build_source

    # discrete: constants are flat, sources are orthogonal to constants
    n = 10
    c = build_chain_complex(n)
    K = build_operator(c, 1, 1)
    assert np.abs(K @ np.ones(n)).max() == 0
    e = np.random.default_rng(0).normal(size=3 * n // 2 - 2)
    assert abs(build_source(c, 1, e, 1.0) @ np.ones(n)) < 1e-12

    # continuum: the gauge direction is flat, outputs are transverse
    k = np.array([1.3, 0.4, -0.2, 0.8])
    assert np.abs(maxwell_kernel(k) @ k).max() < 1e-12 * 10
    A = np.random.default_rng(1).normal(size=4)
    assert abs((maxwell_kernel(k) @ A) @ k) < 1e-11


# --- the stacked basis against the loop-built references ---------------------
# The references are the per-tensor loops the stacked code replaced.  The
# stacked code must reproduce them bit for bit: gauge-check prints residuals
# to 12 digits, and a last-bit change in the kernel moves them.


def reference_basis():
    basis = []
    for i in range(4):
        for j in range(i, 4):
            B = np.zeros((4, 4))
            if i == j:
                B[i, i] = 1.0
            else:
                B[i, j] = B[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(B)
    return basis


REFERENCE_BASIS = reference_basis()


def reference_apply(k, h):
    k_lo = MINKOWSKI @ k
    k2 = float(k @ k_lo)
    trace = float(np.einsum("ab,ab->", MINKOWSKI, h))
    kh = k @ h
    khk = float(k @ h @ k)
    return 0.5 * (
        k2 * h
        + np.outer(k_lo, k_lo) * trace
        - np.outer(k_lo, kh)
        - np.outer(kh, k_lo)
        - MINKOWSKI * (k2 * trace)
        + MINKOWSKI * khk
    )


def reference_sym_to_vec(h):
    return np.array([float(np.sum(h * B)) for B in REFERENCE_BASIS])


def reference_vec_to_sym(x):
    out = np.zeros((4, 4))
    for c, B in zip(x, REFERENCE_BASIS):
        out += c * B
    return out


def reference_kernel(k):
    M = np.empty((10, 10))
    for col, B in enumerate(REFERENCE_BASIS):
        M[:, col] = reference_sym_to_vec(reference_apply(k, B))
    return M


def wide_momenta(count, seed):
    """Components of magnitude 1e-3 to 1e3; every tenth momentum lies on the light cone."""
    rng = np.random.default_rng(seed)
    k = rng.uniform(-1.0, 1.0, size=(count, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 4))
    k[::10, 0] = np.linalg.norm(k[::10, 1:], axis=1)
    return k


def test_symmetric_basis_is_the_loop_built_list_as_one_frozen_array():
    assert SYMMETRIC_BASIS.shape == (10, 4, 4) and SYMMETRIC_BASIS.dtype == np.float64
    assert np.array_equal(SYMMETRIC_BASIS, np.stack(REFERENCE_BASIS))
    assert not SYMMETRIC_BASIS.flags.writeable
    with pytest.raises(ValueError):
        SYMMETRIC_BASIS[0, 0, 0] = 2.0


def test_spin2_kernel_is_bitwise_the_per_column_loop():
    momenta = np.concatenate([wide_momenta(10_000, seed=2024), [[1.0, 1.0, 0, 0], [5.0, 0, 3.0, 4.0]]])
    for k in momenta:
        M = fierz_pauli_kernel(k)
        assert M.flags.c_contiguous
        assert np.array_equal(M, reference_kernel(k)), k


def test_spin2_apply_on_a_stack_is_bitwise_the_per_tensor_calls():
    rng = np.random.default_rng(11)
    for k in wide_momenta(200, seed=12):
        H = rng.normal(size=(2, 3, 4, 4)) * 10.0 ** rng.uniform(-3.0, 3.0)
        H = H + np.swapaxes(H, -1, -2)
        stacked = fierz_pauli_apply(k, H)
        assert stacked.shape == H.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(stacked[idx], fierz_pauli_apply(k, H[idx]))
            assert np.array_equal(stacked[idx], reference_apply(k, H[idx]))


def test_coordinate_maps_are_bitwise_the_loops():
    rng = np.random.default_rng(13)
    for _ in range(500):
        h = random_symmetric(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        x = rng.normal(size=10) * 10.0 ** rng.uniform(-3.0, 3.0)
        assert np.array_equal(sym_to_vec(h), reference_sym_to_vec(h))
        assert np.array_equal(vec_to_sym(x), reference_vec_to_sym(x))


def reference_null_residual(kernel, direction):
    """null_residual as one kernel at a time, with np.linalg.norm of each vector."""
    def scaled_up(a):
        return np.ldexp(a, -min(int(np.frexp(np.max(np.abs(a), initial=0.0))[1]), 0))

    kernel, direction = scaled_up(kernel), scaled_up(direction)
    norm_ker = float(np.linalg.norm(kernel, 2))
    if norm_ker == 0.0:
        return 0.0
    return float(np.linalg.norm(kernel @ direction)) / (norm_ker * float(np.linalg.norm(direction)))


def test_stacked_gauge_residuals_are_bitwise_the_per_trial_calls():
    rng = np.random.default_rng(21)
    k = wide_momenta(400, seed=22)
    x, eps = rng.normal(size=(2, len(k), 4)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2, len(k), 1))
    H = rng.normal(size=(len(k), 4, 4))
    H = H + np.swapaxes(H, -1, -2)
    stacked = _gauge_residuals(k, x, eps, H)
    assert stacked.shape == (len(k), 4)
    for t in range(len(k)):
        M, F = maxwell_kernel(k[t]), fierz_pauli_kernel(k[t])
        knorm = float(np.linalg.norm(k[t]))
        pure_gauge = sym_to_vec(gauge_tensor(k[t], eps[t]))
        div_t = k[t] @ fierz_pauli_apply(k[t], H[t])
        expected = [
            reference_null_residual(M, k[t]),
            abs(float(k[t] @ (M @ x[t]))) / (float(np.linalg.norm(M, 2)) * float(np.linalg.norm(x[t])) * knorm),
            reference_null_residual(F, pure_gauge),
            float(np.linalg.norm(div_t)) / (float(np.linalg.norm(F, 2)) * float(np.linalg.norm(H[t])) * knorm),
        ]
        assert stacked[t].tolist() == expected, t
        assert [null_residual(M, k[t]), null_residual(F, pure_gauge)] == expected[::2]


def test_stacked_gauge_residuals_check_each_stack():
    k = wide_momenta(3, seed=5)
    H = np.stack([np.eye(4)] * 3)
    x = np.ones((3, 4))
    with pytest.raises(ValueError, match="^momentum components must be finite$"):
        _gauge_residuals(np.where(k == k[1, 2], np.inf, k), x, x, H)
    with pytest.raises(ValueError, match="^matrix is not symmetric"):
        _gauge_residuals(k, x, x, H + np.triu(np.ones((4, 4)), 1))
