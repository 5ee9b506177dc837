"""Synthetic loss-data generator.

Profiles are repo fixtures standing in for proprietary loss data.  The
``uom1`` profile mixes a lognormal body below the splicing threshold with a
Pareto tail above it, tuned so roughly 19% of losses exceed 100,000, the
median sits near 39,000, and no loss exceeds 30m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special_functions import std_normal_cdf, std_normal_quantile

__all__ = ["PROFILES", "generate_losses"]


@dataclass(frozen=True)
class LossProfile:
    threshold: float      # splicing threshold T
    tail_prob: float      # fraction of losses at or above T
    tail_shape: float     # Pareto shape of the tail
    tail_cap: float       # upper truncation of the tail
    body_meanlog: float   # lognormal body below T
    body_sdlog: float


PROFILES: dict[str, LossProfile] = {
    "uom1": LossProfile(
        threshold=1e5,
        tail_prob=0.19,
        tail_shape=1.11,
        tail_cap=3e7,
        body_meanlog=10.45,
        body_sdlog=0.95,
    ),
}


def generate_losses(profile: str, n: int, seed: int) -> np.ndarray:
    """n losses from the named profile; deterministic under seed."""
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}")
    p = PROFILES[profile]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    pick = rng.random(n) < p.tail_prob
    u = rng.random(n)

    out = np.empty(n)
    # Pareto tail truncated at the cap: invert F(x)/F(cap)
    f_cap = 1.0 - (p.threshold / p.tail_cap) ** p.tail_shape
    out[pick] = p.threshold * (1.0 - u[pick] * f_cap) ** (-1.0 / p.tail_shape)
    # lognormal body truncated above at T
    z_t = (np.log(p.threshold) - p.body_meanlog) / p.body_sdlog
    phi_t = std_normal_cdf(z_t)
    z = std_normal_quantile(u[~pick] * phi_t)
    out[~pick] = np.exp(p.body_meanlog + p.body_sdlog * z)
    return out
