"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different route than the library code:
the ridge solve goes through the full bordered normal equations instead of
weighted centering, Shapley values come from subset enumeration, pmfs and
kernel weights from direct arithmetic instead of log-space.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from localex.solver import RidgeProblem, RidgeSolution, sherman_morrison_inverse


def ridge_bordered(
    design: np.ndarray,
    responses: np.ndarray,
    weights: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, float]:
    """Solve min_w,b sum_i pi_i (y_i - b - z_i w)^2 + lam ||w||^2 directly.

    Builds the (d+1) x (d+1) normal equations over the intercept-augmented
    design and solves them with a dense LU factorization.
    """
    z = np.asarray(design, dtype=np.float64)
    y = np.asarray(responses, dtype=np.float64)
    pi = np.asarray(weights, dtype=np.float64)
    n, d = z.shape
    x = np.hstack([np.ones((n, 1)), z])
    penalty = np.diag(np.r_[0.0, np.full(d, lam)])
    lhs = x.T @ (pi[:, None] * x) + penalty
    rhs = x.T @ (pi * y)
    theta = np.linalg.solve(lhs, rhs)
    return theta[1:], float(theta[0])


def shapley_bruteforce(value: Callable[[np.ndarray], float], d: int) -> np.ndarray:
    """Shapley values by enumerating all 2^d coalitions of the mask game."""
    phi = np.zeros(d)
    fact = math.factorial
    for i in range(d):
        others = [j for j in range(d) if j != i]
        for size in range(d):
            coeff = fact(size) * fact(d - size - 1) / fact(d)
            for subset in itertools.combinations(others, size):
                mask = np.zeros(d)
                mask[list(subset)] = 1.0
                without = value(mask)
                mask[i] = 1.0
                phi[i] += coeff * (value(mask) - without)
    return phi


def central_difference_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (fn(hi) - fn(lo)) / (2.0 * h)
    return g


def count_pmf_direct(d: int, p: float, k: int) -> float:
    return math.comb(d, k) * p**k * (1.0 - p) ** (d - k)


def lime_weight_direct(d: int, sigma: float, k: int) -> float:
    return math.exp((k - d) / sigma**2)


def shap_weight_direct(d: int, k: int) -> float:
    return (d - 1) / (math.comb(d, k) * k * (d - k))


def r_squared(problem: RidgeProblem, solution: RidgeSolution) -> float:
    """Weighted R^2 of a solution on its problem's samples, by the direct formula."""
    y, pi = problem.responses, problem.sample_weights
    yhat = problem.design @ solution.w + solution.intercept
    ybar = pi @ y / pi.sum()
    return float(1.0 - (pi @ (y - yhat) ** 2) / (pi @ (y - ybar) ** 2))


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


def dense_sigma_inverse(alpha1: float, alpha2: float, lam: float, d: int) -> np.ndarray:
    sigma = (alpha1 + lam - alpha2) * np.eye(d) + alpha2 * np.ones((d, d))
    return np.linalg.inv(sigma)


def average_ranks_direct(a) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their positions."""
    a = np.asarray(a)
    return np.array([1 + np.sum(a < v) + (np.sum(a == v) - 1) / 2 for v in a])


def jaccard_direct(a, b) -> float:
    sa, sb = set(a), set(b)
    return len(sa & sb) / len(sa | sb)
