"""Closed-form tuning rules and rate bookkeeping for distributed descent.

``tune_plan`` picks the constant step size and stopping time that let n
gossiping agents with m samples each match the statistical accuracy of a
single machine holding all nm samples, charging extra iterations only when
the network mixes too slowly.  ``rate_terms`` evaluates the constant-free
error-bound terms behind that rule so regimes can be compared numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TuningPlan:
    """Stopping rule output plus the diagnosed operating regime."""

    n: int
    m: int
    r: float
    gamma: float
    sigma2: float
    kappa_sq: float
    t_stop: int
    eta: float
    regime: str
    t_star: int
    preconditions: dict[str, bool]


@dataclass(frozen=True)
class RateTerms:
    """Constant-free values of the four error-bound lines."""

    bias: float
    sample_variance: float
    network: float
    higher_order: float
    t_star: int

    @property
    def total(self) -> float:
        return self.bias + self.sample_variance + self.network + self.higher_order


@dataclass(frozen=True)
class RuntimeModel:
    """Wall-clock cost model: one iteration costs m + tau_delay + deg."""

    tau_delay: float
    deg: int
    grad_cost: float = 1.0

    def __post_init__(self):
        if self.tau_delay < 0.0 or self.deg < 0:
            raise ValueError("tau_delay and deg must be nonnegative")

    def iteration_time(self, m: int) -> float:
        return m * self.grad_cost + self.tau_delay + self.deg

    @classmethod
    def per_link_transmit(cls, transmit_time: float, deg: int) -> "RuntimeModel":
        """Delay proportional to the neighbor count, one transmit per link."""
        return cls(tau_delay=transmit_time * deg, deg=deg)


def _snap(x: float) -> float:
    """Remove float dust next to integers before floor/ceil decisions."""
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return float(nearest)
    return x


def check_theta(theta: float) -> None:
    """Step-decay exponents the rates cover: ``0 <= theta < 3/4``."""
    if not 0.0 <= theta < 0.75:
        raise ValueError(f"theta must be in [0, 3/4), got {theta}")


def _validate_common(n, m, r, gamma, sigma2):
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if r < 0.5:
        raise ValueError(f"smoothness exponent r must be >= 1/2, got {r}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if not 0.0 <= sigma2 < 1.0:
        raise ValueError(f"sigma2 must be in [0, 1), got {sigma2}")


def mixing_cutoff(r: float, t: int, sigma2: float) -> int:
    """Iterations after which gossip noise is mixed: ceil((r+1) ln(t) / gap)."""
    if t < 2:
        raise ValueError("mixing cutoff needs t >= 2")
    if r < 0.5:
        raise ValueError(f"smoothness exponent r must be >= 1/2, got {r}")
    if not 0.0 <= sigma2 < 1.0:
        raise ValueError(f"sigma2 must be in [0, 1), got {sigma2}")
    return int(math.ceil(_snap((r + 1.0) * math.log(t) / (1.0 - sigma2))))


def _power(n: int, exponent: float) -> float:
    """``n ** exponent`` as a threshold on m: infinite past the float range, where no m reaches it."""
    try:
        return float(n) ** exponent
    except OverflowError:
        return math.inf


def tune_plan(
    n: int, m: int, r: float, gamma: float, sigma2: float, kappa_sq: float
) -> TuningPlan:
    """Step size and stopping time matching the pooled single-machine rate.

    The stopping time is the smallest integer above
    ``(nm)^(1/(2r+gamma)) * factor`` where the factor is 1 when the data are
    plentiful and the network fast, and otherwise inflates the iteration
    count to let consensus catch up; the step size shrinks by the same
    factor so that ``eta * t_stop = kappa_sq^-1 * (nm)^(1/(2r+gamma))``
    always holds.  The regime label records which effect priced the plan.
    """
    _validate_common(n, m, r, gamma, sigma2)
    if kappa_sq <= 0.0:
        raise ValueError("kappa_sq must be positive")

    nm = float(n * m)
    gap = 1.0 - sigma2
    single = nm ** (1.0 / (2.0 * r + gamma))
    conc_threshold = _power(n, 2.0 * r / gamma)
    concentrated = m >= conc_threshold * (1.0 - 1e-12)

    if concentrated:
        raw = (nm ** (2.0 * r / (2.0 * r + gamma)) / (m * gap**gamma)) ** (1.0 / gamma)
        factor = max(raw, 1.0)
        saturated = raw <= 1.0
    else:
        factor = nm ** (r / (2.0 * r + gamma)) / (math.sqrt(m) * gap)
        saturated = False

    x = _snap(single * factor)
    t_stop = int(math.floor(x)) + 1
    eta = single / (kappa_sq * t_stop)

    if 2.0 * r + gamma > 2.0:
        higher_threshold = _power(n, (2.0 * r + 2.0 + gamma) / (2.0 * r + gamma - 2.0))
    else:
        higher_threshold = 1.0 if n == 1 else math.inf
    plentiful = m >= higher_threshold * (1.0 - 1e-12)

    if not concentrated:
        regime = "consensus_limited"
    elif saturated and plentiful:
        regime = "big_data_concentration"
    else:
        regime = "concentration_limited"

    t_star = mixing_cutoff(r, max(t_stop, 2), sigma2)
    preconditions = {
        "m >= n^((2r+2+gamma)/(2r+gamma-2))": bool(plentiful),
        "n >= 2(1+r) log(n/(1-sigma2))": bool(
            n >= 2.0 * (1.0 + r) * math.log(n / gap) - 1e-12
        ),
        "2r+gamma > 2": bool(2.0 * r + gamma > 2.0),
        "t_stop/2 >= t_star": bool(t_stop / 2.0 >= t_star),
    }
    return TuningPlan(
        n=n,
        m=m,
        r=r,
        gamma=gamma,
        sigma2=sigma2,
        kappa_sq=kappa_sq,
        t_stop=t_stop,
        eta=eta,
        regime=regime,
        t_star=t_star,
        preconditions=preconditions,
    )


def rate_terms(
    n: int,
    m: int,
    r: float,
    gamma: float,
    eta: float,
    t: int,
    sigma2: float,
    *,
    theta: float = 0.0,
    alpha: float = 0.0,
    gamma_prime: float | None = None,
) -> RateTerms:
    """Constant-free error-bound terms at step size eta after t iterations.

    ``alpha`` in [0, 1/2] and ``gamma_prime`` between min(1, gamma) and
    max(1, gamma) select the interpolation the network term is evaluated
    at; (alpha=0, gamma_prime=gamma) and (alpha=1/2, gamma_prime=1) are the
    two endpoints the stopping rule optimizes over.  Logs are natural.
    """
    _validate_common(n, m, r, gamma, sigma2)
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if t < 2:
        raise ValueError("rate terms need t >= 2")
    check_theta(theta)
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be in [0, 1/2], got {alpha}")
    if gamma_prime is None:
        gamma_prime = gamma
    lo, hi = min(1.0, gamma), max(1.0, gamma)
    if not lo <= gamma_prime <= hi:
        raise ValueError(f"gamma_prime must be in [{lo}, {hi}], got {gamma_prime}")

    nm = float(n * m)
    ex = 2.0 * r + gamma
    horizon = eta * float(t) ** (1.0 - theta)

    bias = horizon ** (-2.0 * r)
    sample_variance = nm ** (-2.0 * r / ex) * max(
        1.0,
        nm ** (-2.0 / ex) * horizon**2,
        horizon**2 / float(t) ** 2,
    )

    t_star = mixing_cutoff(r, t, sigma2)
    mixed = eta * t_star
    log_n, log_star = math.log(n), math.log(t_star)
    network = (log_n**2 * log_star**2 / m) * max(
        eta**2 * float(t) ** (-2.0 * r),
        mixed ** (1.0 + 2.0 * alpha) / m,
        mixed ** (gamma_prime + 2.0 * alpha),
    )
    higher_order = (
        (log_n**4 * math.log(t) ** 2 / m**2)
        * max(1.0, horizon**2, horizon**4 / float(t) ** 2)
        * max(horizon / m, horizon**gamma)
    )
    return RateTerms(
        bias=bias,
        sample_variance=sample_variance,
        network=network,
        higher_order=higher_order,
        t_star=t_star,
    )


def speedup(
    t_single: int, t_dist: int, n: int, m: int, tau_delay: float, deg: int
) -> float:
    """Wall-clock speed-up of n agents over one machine with nm samples.

    Each distributed iteration costs m gradient evaluations plus the
    communication charge ``tau_delay + deg``; the single machine pays nm
    per iteration with no communication.
    """
    if t_single < 1 or t_dist < 1:
        raise ValueError("iteration counts must be >= 1")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return (t_single / t_dist) * (n * m / RuntimeModel(tau_delay, deg).iteration_time(m))
