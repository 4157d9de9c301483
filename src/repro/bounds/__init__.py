"""Lower bounds for MCSS.

* :func:`lower_bound` -- the paper's Algorithm 5 (Appendix C), cheap
  and ingest-blind; :func:`subscriber_bound_terms` is its
  per-subscriber term and :func:`terms_lower_bound` prices a kept
  vector of those terms;
* :func:`lp_lower_bound` -- the LP relaxation of the MCSS integer
  program, strictly stronger (it pays for ingest) at the price of an
  LP solve.
"""

from .lower import (
    lower_bound,
    lower_bound_bytes,
    subscriber_bound_terms,
    terms_lower_bound,
)
from .lp import best_lower_bound, lp_lower_bound

__all__ = [
    "lower_bound",
    "lower_bound_bytes",
    "subscriber_bound_terms",
    "terms_lower_bound",
    "lp_lower_bound",
    "best_lower_bound",
]
