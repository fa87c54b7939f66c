"""Synthetic spectral regression problems with a closed-form risk oracle.

The data model is linear regression in R^d under a diagonal covariance
``diag(tau)`` with polynomially decaying eigenvalues ``tau_i = i^(-1/gamma)``.
The regression target saturates a smoothness budget of radius R at exponent
r, so every simulated trajectory can be scored against the exact excess
risk instead of a held-out sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SAMPLERS = ("coordinate", "gaussian")


@dataclass(frozen=True, eq=False)
class SpectralProblem:
    """Frozen problem instance; build through :func:`make_problem`."""

    d: int
    gamma: float
    r: float
    R: float
    noise_sigma: float
    sampler: str
    tau: np.ndarray = field(repr=False)
    target: np.ndarray = field(repr=False)
    kappa_sq: float
    capacity_constant: float


@dataclass(frozen=True, eq=False)
class AgentData:
    """One agent's local sample: rows of x with responses y."""

    x: np.ndarray
    y: np.ndarray
    agent_id: int


@dataclass(frozen=True, eq=False)
class CoordinateData:
    """One agent's coordinate sample as drawn.

    Row i of x is ``vals[i]`` at coordinate ``picks[i]`` and zero elsewhere.
    """

    picks: np.ndarray
    vals: np.ndarray
    y: np.ndarray
    d: int
    agent_id: int

    @property
    def x(self) -> np.ndarray:
        """The dense (m, d) sample matrix, built anew (m * d * 8 bytes) on each access."""
        x = np.zeros((self.picks.size, self.d))
        x[np.arange(self.picks.size), self.picks] = self.vals
        return _freeze(x)


@dataclass(frozen=True)
class MomentCertificate:
    """Constants (M, nu) with E[y^(2l) | x] <= nu * l! * M^l for all l >= 1."""

    M: float
    nu: float


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def make_problem(
    d: int,
    gamma: float,
    r: float,
    R: float = 1.0,
    noise_sigma: float = 0.0,
    sampler: str = "coordinate",
) -> SpectralProblem:
    """Construct a problem instance and verify its certificates.

    ``gamma`` in (0, 1] sets the eigenvalue decay ``tau_i = i^(-1/gamma)``,
    ``r >= 1/2`` the target smoothness, and the target coefficients
    ``(R / sqrt(d)) tau_i^(r - 1/2)`` spread the budget R^2 evenly across
    coordinates so the smoothness constraint is saturated exactly.

    The ``coordinate`` sampler draws a uniform index J and emits
    ``sqrt(d tau_J) e_J``; its second moment is diag(tau) exactly and its
    norm is bounded by ``kappa_sq = d tau_1 = d``.  The ``gaussian``
    sampler emits N(0, diag(tau)) draws, which violate the norm bound with
    small probability; such problems carry no moment certificate.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    for name, value in (("gamma", gamma), ("r", r), ("R", R), ("noise_sigma", noise_sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if r < 0.5:
        raise ValueError(f"smoothness exponent r must be >= 1/2, got {r}")
    if R <= 0.0:
        raise ValueError(f"smoothness radius R must be positive, got {R}")
    if noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}, not one of {SAMPLERS}")

    idx = np.arange(1, d + 1, dtype=float)
    tau = idx ** (-1.0 / gamma)
    target = (R / np.sqrt(d)) * tau ** (r - 0.5)

    # smoothness budget must be saturated: sum tau^(1-2r) target^2 == R^2;
    # it is not when a power of tau or R^2 leaves the float range
    with np.errstate(all="ignore"):
        budget = float(np.sum(tau ** (1.0 - 2.0 * r) * target**2))
        if not abs(budget - R * R) <= 1e-10 * R * R:  # also true for nan
            raise ValueError(
                f"gamma = {gamma}, r = {r}, R = {R} at d = {d} leave the float range: the"
                f" target's smoothness budget is {budget:.6g}, not R^2 = {R * R:.6g}"
            )

    # fit the capacity constant: effective_dimension(lam) <= c * lam^(-gamma)
    lam_grid = np.geomspace(tau[-1], tau[0], 25)
    eff = (tau[None, :] / (tau[None, :] + lam_grid[:, None])).sum(axis=1)
    capacity = float(np.max(eff * lam_grid**gamma))

    return SpectralProblem(
        d=d,
        gamma=gamma,
        r=r,
        R=R,
        noise_sigma=noise_sigma,
        sampler=sampler,
        tau=_freeze(tau),
        target=_freeze(target),
        kappa_sq=float(d * tau[0]),
        capacity_constant=capacity,
    )


def excess_risk(problem: SpectralProblem, omega: np.ndarray) -> float:
    """Exact population excess risk ``sum_i tau_i (omega_i - target_i)^2``."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (problem.d,):
        raise ValueError(f"omega must have shape ({problem.d},), got {omega.shape}")
    dev = omega - problem.target
    return float(np.dot(problem.tau, dev * dev))


def effective_dimension(problem: SpectralProblem, lam: float) -> float:
    """``sum_i tau_i / (tau_i + lam)``, the dimension resolved at scale lam."""
    if not 0.0 < lam < math.inf:  # also false for nan
        raise ValueError(f"lam must be positive and finite, got {lam}")
    return float(np.sum(problem.tau / (problem.tau + lam)))


def moment_certificate(problem: SpectralProblem) -> MomentCertificate:
    """Analytic even-moment bound for the response distribution.

    With the coordinate sampler the signal is bounded by
    ``B = max_i sqrt(d tau_i) |target_i|`` and the noise is centered
    Gaussian, giving E[y^(2l) | x] <= l! * (4 max(B^2, 2 sigma^2))^l.
    Gaussian inputs leave the conditional mean unbounded, so no uniform
    certificate exists there.
    """
    if problem.sampler != "coordinate":
        raise ValueError("moment certificate requires the coordinate sampler")
    B = float(np.max(np.sqrt(problem.d * problem.tau) * np.abs(problem.target)))
    M = 4.0 * max(B * B, 2.0 * problem.noise_sigma**2)
    return MomentCertificate(M=M, nu=2.0)


def sample_agent_data(
    problem: SpectralProblem, m: int, agent_id: int, seed: int
) -> AgentData | CoordinateData:
    """Draw one agent's local dataset from its own RNG stream.

    The stream is keyed by (seed, agent_id), so agents are independent and
    any one agent's data is reproduced exactly regardless of how many
    other agents are sampled.  The coordinate sampler returns its draw as
    :class:`CoordinateData` and never allocates the m x d matrix.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, agent_id]))
    d = problem.d
    if problem.sampler == "coordinate":
        picks = rng.integers(0, d, size=m)
        scale = np.sqrt(d * problem.tau)  # per coordinate, then gathered: same bits as per row
        vals = scale[picks]
        y = _add_noise(problem, rng, (scale * problem.target)[picks])  # x @ target
        return CoordinateData(_freeze(picks), _freeze(vals), y, d, agent_id)
    x = rng.standard_normal((m, d))
    x *= np.sqrt(problem.tau)  # in place: one m x d buffer per draw
    y = _add_noise(problem, rng, x @ problem.target)
    return AgentData(x=_freeze(x), y=y, agent_id=agent_id)


def _add_noise(problem: SpectralProblem, rng: np.random.Generator, y: np.ndarray) -> np.ndarray:
    """Frozen responses, with the noise drawn after the inputs from the same stream."""
    if problem.noise_sigma > 0.0:
        noise = rng.standard_normal(y.size)
        noise *= problem.noise_sigma
        noise += y  # in place; the bits of y + sigma * noise
        y = noise
    return _freeze(y)
