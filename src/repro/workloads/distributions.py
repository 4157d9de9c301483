"""Heavy-tailed samplers used by the synthetic trace generators.

The Twitter analysis in Appendix D shows the distributions our
generators must reproduce:

* follower / following counts follow truncated power laws (straight
  CCDF lines on log-log axes, Fig. 8);
* the *following* distribution has two man-made anomalies -- a spike at
  20 (the historical default number of accounts a new user was made to
  follow) and a pile-up at 2000 (the pre-2009 follow cap);
* event rates are heavy-tailed with a bot tail (Fig. 9).

Everything takes an explicit ``numpy.random.Generator`` -- generators
are deterministic given a seed, which the test suite and the experiment
harness rely on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "truncated_power_law",
    "glitched_following_counts",
]


def truncated_power_law(
    rng: np.random.Generator,
    size: int,
    alpha: float,
    x_min: float = 1.0,
    x_max: float = 1e6,
) -> np.ndarray:
    """Sample integers from a truncated continuous power law.

    Density ``p(x) ~ x^-alpha`` on ``[x_min, x_max]``, sampled by CDF
    inversion and floored to integers.  ``alpha`` must exceed 1.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1 for a normalizable power law")
    if not 0 < x_min < x_max:
        raise ValueError("need 0 < x_min < x_max")
    u = rng.random(size)
    one_minus = 1.0 - alpha
    lo = x_min**one_minus
    hi = x_max**one_minus
    samples = (lo + u * (hi - lo)) ** (1.0 / one_minus)
    return np.floor(samples).astype(np.int64)


def glitched_following_counts(
    rng: np.random.Generator,
    size: int,
    alpha: float = 2.1,
    max_following: int = 10_000,
    default_spike: int = 20,
    default_spike_prob: float = 0.12,
    cap: int = 2_000,
    cap_overflow_prob: float = 0.6,
) -> np.ndarray:
    """Following counts with the Appendix-D anomalies.

    * with probability ``default_spike_prob`` a user keeps the
      historical default of ``default_spike`` followings (the glitch at
      20 in Figs. 8 and 12);
    * samples that exceed ``cap`` are clamped *to* ``cap`` with
      probability ``cap_overflow_prob`` (the pre-2009 cap produced a
      visible pile-up at 2000 rather than a hard ceiling -- some users
      were later allowed past it);
    * everything else is a truncated power law on
      ``[1, max_following]``.
    """
    counts = truncated_power_law(rng, size, alpha, 1.0, float(max_following))
    spike = rng.random(size) < default_spike_prob
    counts[spike] = default_spike
    over = counts > cap
    clamp = over & (rng.random(size) < cap_overflow_prob)
    counts[clamp] = cap
    return counts
