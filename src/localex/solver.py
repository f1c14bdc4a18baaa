"""Weighted ridge regression in closed form, plus the analytic second-moment
structure of the mask designs and its rank-one (Sherman-Morrison) inverse.

Conventions: the solver minimizes sum_i pi_i (y_i - b - w.z_i)^2 + lambda |w|^2
with the raw lambda of the finite-sample objective; callers own any per-n
rescaling. The intercept is fit by weighted centering and is never penalized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, SingularSystem, UnsupportedCombination
from .sampling import Binomial, ExpKernel, Gaussian, Unit, UniformBinary


@dataclass(frozen=True)
class RidgeProblem:
    """One weighted regularized least-squares instance."""

    design: np.ndarray
    responses: np.ndarray
    sample_weights: np.ndarray
    lam: float
    fit_intercept: bool = True

    def __post_init__(self) -> None:
        z = np.asarray(self.design, dtype=np.float64)
        y = np.asarray(self.responses, dtype=np.float64)
        pi = np.asarray(self.sample_weights, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise ValueError("design must be an n x d matrix with n >= 1")
        n = z.shape[0]
        if y.shape != (n,) or pi.shape != (n,):
            raise ValueError("responses and sample_weights must have length n")
        if not np.all(pi > 0):
            raise SingularSystem(
                "all sample weights must be strictly positive "
                "(zero usually means a kernel weight underflowed)"
            )
        if not self.lam >= 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        object.__setattr__(self, "design", z)
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "sample_weights", pi)
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class RidgeSolution:
    """Fitted surrogate: attributions, unpenalized intercept, weighted R^2."""

    w: np.ndarray
    intercept: float
    r2: float
    degenerate_variance: bool = False

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        if not np.all(np.isfinite(w)) or not math.isfinite(self.intercept):
            raise ValueError("solution entries must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "r2", float(self.r2))


def _weighted_r2(
    y: np.ndarray, yhat: np.ndarray, pi: np.ndarray
) -> tuple[float, bool]:
    """Weighted coefficient of determination with the degenerate-variance flag."""
    sw = pi / pi.sum()
    ybar = sw @ y
    ss_res = pi @ (y - yhat) ** 2
    ss_tot = pi @ (y - ybar) ** 2
    if ss_tot == 0.0:
        # constant responses: perfect-constant fits score 0 without a flag,
        # nonzero residuals score 0 with the flag raised; the threshold is
        # relative to the response scale so factorization roundoff stays quiet
        tiny = 1e-20 * max(1.0, float(pi @ y**2))
        return 0.0, bool(ss_res > tiny)
    return 1.0 - ss_res / ss_tot, False


def solve_weighted_ridge(problem: RidgeProblem) -> RidgeSolution:
    """Closed-form solve via an SPD factorization of the d x d Gram matrix.

    Raises SingularSystem when lambda = 0 and the (centered) Gram matrix is
    rank-deficient; there is deliberately no pseudo-inverse fallback, since a
    silent minimum-norm solution would mask under-sampling.
    """
    z, y, pi = problem.design, problem.responses, problem.sample_weights
    d = z.shape[1]
    if problem.fit_intercept:
        sw = pi / pi.sum()
        zbar = sw @ z
        ybar = float(sw @ y)
        zc = z - zbar
        yc = y - ybar
    else:
        zbar = np.zeros(d)
        ybar = 0.0
        zc, yc = z, y
    gram = (zc * pi[:, None]).T @ zc
    rhs = zc.T @ (pi * yc)
    if problem.lam == 0.0:
        # exact rank deficiency is expected here (duplicate rows, n < d);
        # detect it explicitly instead of trusting Cholesky pivot roundoff
        if np.linalg.matrix_rank(gram, hermitian=True) < d:
            raise SingularSystem(
                "normal equations are rank-deficient at lambda = 0; "
                "increase lambda or provide more (distinct) samples"
            )
        system = gram
    else:
        system = gram + problem.lam * np.eye(d)
    try:
        chol = scipy.linalg.cho_factor(system, lower=True, check_finite=False)
        w = scipy.linalg.cho_solve(chol, rhs, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"SPD factorization failed (lambda={problem.lam}): {exc}"
        ) from exc
    intercept = ybar - float(w @ zbar) if problem.fit_intercept else 0.0
    yhat = z @ w + intercept
    r2, degenerate = _weighted_r2(y, yhat, pi)
    return RidgeSolution(w, intercept, r2, degenerate)


def r_squared(problem: RidgeProblem, solution: RidgeSolution) -> float:
    """Weighted R^2 of a solution on its problem's samples."""
    yhat = problem.design @ solution.w + solution.intercept
    r2, _ = _weighted_r2(problem.responses, yhat, problem.sample_weights)
    return r2


# ---------------------------------------------------------------------------
# analytic second moments of the mask designs


def analytic_moments(
    dist: UniformBinary | Binomial | Gaussian, weighting: ExpKernel | Unit = Unit()
) -> tuple[float, float]:
    """Closed-form (alpha1, alpha2) = (E[pi z_i], E[pi z_i z_j]) for the design.

    Supported: fair-coin masks under the exponential kernel, binomial masks
    unweighted, Gaussian offsets unweighted.
    """
    if isinstance(dist, UniformBinary) and isinstance(weighting, ExpKernel):
        d = dist.d
        log_base = math.log1p(math.exp(-1.0 / weighting.sigma**2))
        log2 = math.log(2.0)
        alpha1 = math.exp((d - 1) * log_base - d * log2)
        alpha2 = math.exp((d - 2) * log_base - d * log2)
        return alpha1, alpha2
    if isinstance(dist, Binomial) and isinstance(weighting, Unit):
        p = dist.p
        return p, p * p
    if isinstance(dist, Gaussian) and isinstance(weighting, Unit):
        return dist.sigma**2, 0.0
    raise UnsupportedCombination(
        f"no closed-form moments for {type(dist).__name__} with "
        f"{type(weighting).__name__}"
    )


def sherman_morrison_inverse(
    alpha1: float, alpha2: float, lam: float, d: int
) -> tuple[float, float]:
    """Inverse parameters of (a1 + lam - a2) I + a2 11^T as (beta1, beta2).

    The inverse is (beta1 - beta2) I + beta2 11^T.
    """
    a = alpha1 + lam - alpha2
    t = alpha1 + lam + (d - 1) * alpha2
    if not (a > 0 and t > 0):
        raise NotPositiveDefinite(
            f"Sigma + lambda*I is not positive definite: "
            f"alpha1+lam-alpha2={a}, alpha1+lam+(d-1)*alpha2={t}"
        )
    denom = a * t
    beta1 = (alpha1 + lam + (d - 2) * alpha2) / denom
    beta2 = -alpha2 / denom
    return beta1, beta2


@dataclass(frozen=True)
class CovarianceModel:
    """Analytic covariance structure (alpha1, alpha2, lam, d) with its inverse."""

    alpha1: float
    alpha2: float
    lam: float
    d: int
    beta1: float = field(default=float("nan"))
    beta2: float = field(default=float("nan"))

    @classmethod
    def build(cls, alpha1: float, alpha2: float, lam: float, d: int) -> "CovarianceModel":
        beta1, beta2 = sherman_morrison_inverse(alpha1, alpha2, lam, d)
        return cls(alpha1, alpha2, lam, d, beta1, beta2)

    def sigma_matrix(self) -> np.ndarray:
        """Dense (alpha1 + lam - alpha2) I + alpha2 11^T."""
        return (self.alpha1 + self.lam - self.alpha2) * np.eye(self.d) + (
            self.alpha2 * np.ones((self.d, self.d))
        )

    def inverse_matrix(self) -> np.ndarray:
        """Dense (beta1 - beta2) I + beta2 11^T."""
        return (self.beta1 - self.beta2) * np.eye(self.d) + (
            self.beta2 * np.ones((self.d, self.d))
        )
