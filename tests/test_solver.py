import concurrent.futures
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from localex import solver
from localex.errors import NonFiniteOutput, SingularSystem
from localex.sampling import (Binomial, ExpKernel, Gaussian, Laplace, UniformBinary, Unit,
                              batch_weights, draw)
from localex.solver import RidgeProblem, solve_weighted_ridge
from oracles import (CovarianceModel, analytic_moments, dense_sigma_inverse, r_squared,
                     ridge_bordered, sherman_morrison_inverse)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_problem(seed: int, n: int = 40, d: int = 5, lam: float = 0.3) -> RidgeProblem:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    pi = rng.uniform(0.1, 2.0, size=n)
    return RidgeProblem(z, y, pi, lam)


# ---------------------------------------------------------------------------
# closed-form solve


def test_constant_responses_put_everything_in_the_intercept():
    p = RidgeProblem(np.random.default_rng(0).normal(size=(20, 3)),
                     np.full(20, 0.5), np.ones(20), 1.0)
    w, intercept, r2 = solve_weighted_ridge(p)
    assert np.allclose(w, 0.0)
    assert intercept == pytest.approx(0.5)
    # constant responses: zero residual with zero variance reports R^2 = 0
    assert r2 == 0.0


def test_huge_lambda_shrinks_w_to_zero_and_keeps_the_weighted_mean():
    rng = np.random.default_rng(3)
    pi = rng.uniform(0.5, 1.5, size=30)
    y = rng.normal(size=30)
    p = RidgeProblem(rng.normal(size=(30, 4)), y, pi, 1e9)
    w, intercept, _ = solve_weighted_ridge(p)
    assert np.max(np.abs(w)) <= 1e-6
    assert intercept == pytest.approx(float(pi @ y / pi.sum()), abs=1e-6)


@given(SEEDS)
@settings(max_examples=40)
def test_solution_matches_bordered_normal_equations(seed):
    p = random_problem(seed)
    w, intercept, _ = solve_weighted_ridge(p)
    w_bordered, b = ridge_bordered(p.design, p.responses, p.sample_weights, p.lam)
    assert np.allclose(w, w_bordered, atol=1e-9)
    assert intercept == pytest.approx(b, abs=1e-9)


@given(SEEDS)
@settings(max_examples=40)
def test_stationarity_of_the_weighted_objective(seed):
    p = random_problem(seed)
    w, intercept, _ = solve_weighted_ridge(p)
    z, y, pi = p.design, p.responses, p.sample_weights
    resid = y - intercept - z @ w
    grad_w = -2.0 * z.T @ (pi * resid) + 2.0 * p.lam * w
    grad_b = -2.0 * float(pi @ resid)
    scale = 1.0 + np.max(np.abs(z.T @ (pi * y)))
    assert max(np.max(np.abs(grad_w)), abs(grad_b)) <= 1e-8 * scale


def test_singular_system_at_lambda_zero_with_duplicate_rows():
    z = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    with pytest.raises(SingularSystem):
        solve_weighted_ridge(RidgeProblem(z, np.array([1.0, 1.0]), np.ones(2), 0.0))


def _cho_solve_w(p: RidgeProblem) -> np.ndarray:
    """w from scipy.linalg's cho_factor/cho_solve on the solver's normal
    equations, built with the solver's own operations."""
    z, y, pi = p.design.astype(np.float64), p.responses, p.sample_weights
    sw = pi / pi.sum()
    zbar = sw @ z
    zc = z - zbar
    yc = y - float(sw @ y)
    gram = (zc * pi[:, None]).T @ zc
    rhs = zc.T @ (pi * yc)
    system = gram if p.lam == 0.0 else gram + p.lam * np.eye(z.shape[1])
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(system, lower=True), rhs)


@pytest.mark.parametrize("d", [1, 2, 8, 16, 64, 100])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("design", ["binary", "binary-float64", "gaussian"])
@pytest.mark.parametrize("weights", ["unit", "kernel"])
def test_w_has_the_bits_of_scipy_cho_solve(d, lam, design, weights):
    # binary: bool masks as drawn; binary-float64: their float64 copy
    n = 4 * d + 16
    rng = np.random.default_rng(d)
    if design == "gaussian":
        z = draw(Gaussian(d, 1.0), n, d)
        pi = np.exp(-np.sum(z * z, axis=1) / d) if weights == "kernel" else np.ones(n)
    else:
        z = draw(UniformBinary(d), n, d)
        pi = batch_weights(ExpKernel(2.0) if weights == "kernel" else Unit(), z)
        z = z.astype(np.float64) if design == "binary-float64" else z
    p = RidgeProblem(z, rng.normal(size=n), pi, lam)
    assert p.design.dtype == z.dtype
    w = solve_weighted_ridge(p)[0]
    assert w.view(np.uint64).tolist() == _cho_solve_w(p).view(np.uint64).tolist()


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_a_bool_design_and_its_float_copy_fit_the_same_bits(lam):
    masks = draw(Binomial(12, 0.8), 300, 3)
    y = np.random.default_rng(3).normal(size=300)
    pi = batch_weights(ExpKernel(0.8), masks)
    (wa, *fit_a), (wb, *fit_b) = (solve_weighted_ridge(RidgeProblem(z, y, pi, lam))
                                  for z in (masks, masks.astype(np.float64)))
    assert (wa.tobytes(), *fit_a) == (wb.tobytes(), *fit_b)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_a_design_without_columns_fits_only_the_intercept(lam):
    w, intercept, _ = solve_weighted_ridge(RidgeProblem(
        np.zeros((3, 0)), np.array([1.0, 2.0, 6.0]), np.ones(3), lam))
    assert w.shape == (0,)
    assert intercept == 3.0


def test_a_numerically_indefinite_full_rank_system_fails_the_factorization():
    # z2 = fl(3 z1): the exact Gram matrix is singular, but rounding in its
    # 10^5-term sums leaves an eigenvalue too large in magnitude for the rank
    # test and, for some draws, negative, so the Cholesky pivot fails instead
    n = 100_000
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z1 = rng.normal(size=n)
        p = RidgeProblem(np.column_stack([z1, 3.0 * z1]), rng.normal(size=n), np.ones(n), 0.0)
        try:
            solve_weighted_ridge(p)
        except SingularSystem as exc:
            if str(exc).startswith("SPD"):
                assert str(exc) == ("SPD factorization failed (lambda=0.0): 2-th leading "
                                    "minor of the array is not positive definite")
                with pytest.raises(scipy.linalg.LinAlgError):
                    _cho_solve_w(p)
                return
    pytest.fail("no draw reached the factorization failure")


# ---------------------------------------------------------------------------
# every fit on one BLAS thread


def test_the_thread_calls_of_numpys_scipy_openblas_are_found():
    if np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas":
        pytest.skip("numpy does not link scipy-openblas")
    calls = solver._openblas_threads()
    assert calls is not None and calls[0]() >= 1


@pytest.mark.parametrize("path", ["_ctypes", "missing"])
def test_a_library_without_the_thread_calls_gives_no_calls(path, monkeypatch):
    import _ctypes

    lib = _ctypes.__file__ if path == "_ctypes" else os.path.join(os.getcwd(), "missing.so")
    monkeypatch.setattr(np.linalg._umath_linalg, "__file__", lib)
    assert solver._openblas_threads.__wrapped__() is None


@pytest.mark.parametrize("d", [16, 64])
def test_a_narrow_fit_runs_on_one_thread_and_puts_the_count_back(d, blas):
    get, seen = blas
    solve_weighted_ridge(random_problem(0, n=400, d=d))
    assert seen == {"set": [1, 3], "in_fit": [1]}
    assert get() == 3


def test_nested_scopes_set_the_count_once_and_the_outer_one_puts_it_back(blas):
    get, seen = blas
    with solver.one_blas_thread():
        solve_weighted_ridge(random_problem(0, n=200, d=16))
        assert get() == 1
    assert seen == {"set": [1, 3], "in_fit": [1]} and get() == 3


@pytest.mark.parametrize("raises", ["singular", "non-finite"])
def test_a_fit_that_raises_puts_the_count_back(raises, blas):
    get, seen = blas
    if raises == "singular":
        z = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        p, error = RidgeProblem(z, np.array([1.0, 1.0]), np.ones(2), 0.0), SingularSystem
    else:
        p = random_problem(0, n=20, d=3)
        p, error = RidgeProblem(p.design, p.responses * 1e300, np.ones(20), 1.0), NonFiniteOutput
    with pytest.raises(error):
        solve_weighted_ridge(p)
    assert seen["set"] == [1, 3] and get() == 3


def test_narrow_fits_on_eight_threads_each_run_on_one_and_put_the_count_back(blas):
    get, seen = blas
    problems = [random_problem(seed, n=64, d=4) for seed in range(8)] * 25
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(solve_weighted_ridge, p) for p in problems]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert seen["in_fit"] == [1] * len(problems)
    assert get() == 3


@pytest.mark.parametrize("n", [16, 256, 2048])
def test_a_narrow_fit_has_the_same_bits_in_the_scope_and_without_it(n, monkeypatch):
    # at these heights OpenBLAS splits no product of the fit, so the thread
    # count cannot move a bit; the taller designs it does split are checked by
    # the next test and by the digests at 1 and 4 threads
    p = random_problem(n, n=n, d=16)
    w, *fit = solve_weighted_ridge(p)
    monkeypatch.setattr(solver, "_openblas_threads", lambda: None)
    w_plain, *fit_plain = solve_weighted_ridge(p)
    assert (w.tobytes(), *fit) == (w_plain.tobytes(), *fit_plain)


@pytest.mark.parametrize("n, d, seed", [(2**16, 16, 7), (2**15, 64, 0)])
def test_a_tall_narrow_fit_has_the_same_bits_at_one_and_four_threads(n, d, seed):
    # OpenBLAS splits the products of these designs across threads, which
    # changes the last bits of w at 4 threads against 1; in the scope each
    # runs on one
    import localex

    src = os.path.dirname(os.path.dirname(localex.__file__))
    code = ("import hashlib, numpy as np; from localex.solver import RidgeProblem, "
            f"solve_weighted_ridge; rng = np.random.default_rng({seed}); n = {n}; "
            f"w, b, r2 = solve_weighted_ridge(RidgeProblem(rng.normal(size=(n, {d})), "
            "rng.normal(size=n), rng.uniform(0.1, 2.0, n), 0.5)); "
            "print(hashlib.sha256(w.tobytes() + np.array([b, r2]).tobytes()).hexdigest())")
    out = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src,
                                           "OPENBLAS_NUM_THREADS": threads}).stdout
           for threads in ("1", "4")}
    assert len(out) == 1


def test_cli_import_leaves_scipy_linalg_stats_numpy_f2py_testing_and_http_transport_unloaded():
    import localex

    src = os.path.dirname(os.path.dirname(localex.__file__))
    # the transport's modules load on a remote model's first POST
    code = ("import sys, localex.cli; print([m for m in ('scipy', 'scipy.linalg', "
            "'scipy.stats', 'numpy.f2py', 'numpy.testing', 'http.client', "
            "'urllib.request', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


def test_solver_imports_no_sampling_law():
    import localex

    src = os.path.dirname(os.path.dirname(localex.__file__))
    code = "import sys, localex.solver; print(sorted(m for m in sys.modules if 'localex' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "['localex', 'localex.errors', 'localex.solver']"


def test_zero_sample_weights_are_rejected_with_a_hint():
    with pytest.raises(SingularSystem, match="underflow"):
        RidgeProblem(np.ones((2, 1)), np.ones(2), np.array([1.0, 0.0]), 1.0)


@given(SEEDS, st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=40)
def test_monotone_shrinkage_in_lambda(seed, lam_a, lam_b):
    lo, hi = sorted((lam_a, lam_b))
    base = random_problem(seed, lam=lo)
    bigger = RidgeProblem(base.design, base.responses, base.sample_weights, hi)
    norm_lo = float(np.linalg.norm(solve_weighted_ridge(base)[0]))
    norm_hi = float(np.linalg.norm(solve_weighted_ridge(bigger)[0]))
    assert norm_hi <= norm_lo + 1e-12


@given(SEEDS)
@settings(max_examples=25)
def test_permuting_columns_permutes_w(seed):
    p = random_problem(seed)
    perm = np.random.default_rng(seed + 1).permutation(5)
    permuted = RidgeProblem(p.design[:, perm], p.responses, p.sample_weights, p.lam)
    assert np.allclose(solve_weighted_ridge(permuted)[0],
                       solve_weighted_ridge(p)[0][perm], atol=1e-10)


@given(SEEDS, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=25)
def test_joint_weight_and_lambda_rescaling_is_invariant(seed, c):
    p = random_problem(seed)
    scaled = RidgeProblem(p.design, p.responses, c * p.sample_weights, c * p.lam)
    wa, ba, _ = solve_weighted_ridge(p)
    wb, bb, _ = solve_weighted_ridge(scaled)
    assert np.allclose(wa, wb, atol=1e-10)
    assert ba == pytest.approx(bb, abs=1e-10)


# ---------------------------------------------------------------------------
# R^2


def test_r_squared_is_one_for_perfect_linear_data():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(25, 3))
    y = z @ np.array([1.0, -1.0, 2.0]) + 0.7
    p = RidgeProblem(z, y, np.ones(25), 0.0)
    w, intercept, r2 = solve_weighted_ridge(p)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert r_squared(p, w, intercept) == pytest.approx(1.0, abs=1e-12)


def test_r_squared_is_zero_when_prediction_is_the_weighted_mean():
    rng = np.random.default_rng(4)
    y = rng.normal(size=10)
    pi = rng.uniform(0.5, 2.0, size=10)
    p = RidgeProblem(rng.normal(size=(10, 2)), y, pi, 1.0)
    mean = float(pi @ y / pi.sum())
    assert r_squared(p, np.zeros(2), mean) == pytest.approx(0.0, abs=1e-12)


def test_weighted_r_squared_matches_the_direct_formula():
    z = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 1.5])
    pi = np.array([1.0, 2.0, 0.5])
    p = RidgeProblem(z, y, pi, 0.1)
    w, intercept, r2 = solve_weighted_ridge(p)
    yhat = z[:, 0] * w[0] + intercept
    ybar = pi @ y / pi.sum()
    direct = 1.0 - (pi @ (y - yhat) ** 2) / (pi @ (y - ybar) ** 2)
    assert r2 == pytest.approx(direct, abs=1e-10)


# ---------------------------------------------------------------------------
# analytic moments


def test_binomial_moments_approach_fair_coin_as_sigma_grows():
    a1, a2 = analytic_moments(Binomial(6, 1e6))
    assert a1 == pytest.approx(0.5, abs=1e-9)
    assert a2 == pytest.approx(0.25, abs=1e-9)


def test_weighted_uniform_moments_approach_fair_coin_as_sigma_grows():
    a1, a2 = analytic_moments(UniformBinary(2), ExpKernel(1e6))
    assert a1 == pytest.approx(0.5, abs=1e-9)
    assert a2 == pytest.approx(0.25, abs=1e-9)


def test_binomial_moments_at_sigma_one_match_monte_carlo():
    a1, a2 = analytic_moments(Binomial(2, 1.0))
    assert a1 == pytest.approx(0.731059, abs=1e-6)
    assert a2 == pytest.approx(0.534447, abs=1e-6)
    masks = draw(Binomial(2, 1.0), 400000, 9)
    m1 = masks[:, 0].mean()
    m2 = (masks[:, 0] * masks[:, 1]).mean()
    assert abs(m1 - a1) < 3.0 * masks[:, 0].std() / math.sqrt(len(masks))
    assert abs(m2 - a2) < 3.0 * (masks[:, 0] * masks[:, 1]).std() / math.sqrt(len(masks))


def test_weighted_uniform_moments_match_monte_carlo():
    from localex.sampling import batch_weights

    d, sigma = 6, 1.0
    a1, a2 = analytic_moments(UniformBinary(d), ExpKernel(sigma))
    masks = draw(UniformBinary(d), 400000, 21)
    w = batch_weights(ExpKernel(sigma), masks)
    s1 = w * masks[:, 0]
    s2 = w * masks[:, 0] * masks[:, 1]
    assert abs(s1.mean() - a1) < 3.0 * s1.std() / math.sqrt(len(masks))
    assert abs(s2.mean() - a2) < 3.0 * s2.std() / math.sqrt(len(masks))


def test_gaussian_moments_are_variance_and_zero():
    assert analytic_moments(Gaussian(3, 0.5)) == (0.25, 0.0)


def test_unsupported_moment_combinations_raise():
    with pytest.raises(ValueError, match="no closed-form moments for Gaussian with ExpKernel"):
        analytic_moments(Gaussian(3, 1.0), ExpKernel(1.0))
    with pytest.raises(ValueError, match="no closed-form moments for Laplace with Unit"):
        analytic_moments(Laplace(3, 1.0))
    with pytest.raises(ValueError, match="no closed-form moments for UniformBinary with Unit"):
        analytic_moments(UniformBinary(3), Unit())


# ---------------------------------------------------------------------------
# Sherman-Morrison structure


def test_sherman_morrison_frozen_2x2_case():
    beta1, beta2 = sherman_morrison_inverse(2.0, 1.0, 0.0, 2)
    assert beta1 == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert beta2 == pytest.approx(-1.0 / 3.0, rel=1e-12)


def test_sherman_morrison_diagonal_case():
    beta1, beta2 = sherman_morrison_inverse(1.7, 0.0, 0.3, 5)
    assert beta1 == pytest.approx(1.0 / 2.0, rel=1e-12)
    assert beta2 == 0.0


@given(SEEDS, st.integers(min_value=2, max_value=50))
@settings(max_examples=50)
def test_sherman_morrison_matches_dense_inversion(seed, d):
    rng = np.random.default_rng(seed)
    alpha1 = rng.uniform(0.1, 3.0)
    alpha2 = rng.uniform(-alpha1 / d, alpha1)  # keeps both eigenvalues positive
    lam = rng.uniform(0.0, 2.0)
    model = CovarianceModel.build(alpha1, alpha2, lam, d)
    dense = dense_sigma_inverse(alpha1, alpha2, lam, d)
    assert np.max(np.abs(model.inverse_matrix() - dense)) < 1e-10
    product = model.sigma_matrix() @ model.inverse_matrix()
    assert np.max(np.abs(product - np.eye(d))) < 1e-10


def test_sherman_morrison_rejects_indefinite_parameters():
    with pytest.raises(ValueError, match=r"Sigma \+ lambda\*I is not positive definite"):
        sherman_morrison_inverse(1.0, 2.0, 0.0, 3)  # alpha1 + lam - alpha2 < 0
    with pytest.raises(ValueError, match=r"Sigma \+ lambda\*I is not positive definite"):
        sherman_morrison_inverse(1.0, -1.0, 0.0, 3)  # trace direction negative
