"""Exponentially weighted link-quality filters.

Each peer link carries a quality factor q in [0, 1]: a raw sample combines
packet loss multiplicatively and RTT hyperbolically, then an EWMA smooths
successive samples. Links whose smoothed q falls below q_min are classified
Down and excluded from the optimizer's graphs.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import OutOfRange
from .model import LinkKey

DEFAULT_ALPHA = 0.25
DEFAULT_RTT_REF_MS = 200.0
DEFAULT_Q_MIN = 0.05


class LinkState(enum.Enum):
    USABLE = "usable"
    DOWN = "down"


@dataclass(frozen=True, slots=True)
class QualityFactor:
    """Smoothed quality of one peer link.

    q stays in [0, 1] for any sequence of in-range samples; sample_count
    advances by one per update and the first sample initializes q directly
    (no warm-up prior).
    """

    link: LinkKey
    q: float = 0.0
    alpha: float = DEFAULT_ALPHA
    updated_at: float = 0.0
    sample_count: int = 0


def raw_quality(loss_fraction: float, rtt_ms: float, rtt_ref_ms: float = DEFAULT_RTT_REF_MS) -> float:
    """One instantaneous quality sample from loss and RTT.

    q = (1 - loss) * rtt_ref / (rtt_ref + rtt): 1.0 for a perfect link,
    0.0 for a dead one, monotone decreasing in both inputs.
    """
    if not 0.0 <= loss_fraction <= 1.0:
        raise OutOfRange("loss_fraction must be in [0,1], got %r" % loss_fraction)
    if rtt_ms < 0.0:
        raise OutOfRange("rtt_ms must be nonnegative, got %r" % rtt_ms)
    if rtt_ref_ms <= 0.0:
        raise OutOfRange("rtt_ref_ms must be positive, got %r" % rtt_ref_ms)
    return (1.0 - loss_fraction) * rtt_ref_ms / (rtt_ref_ms + rtt_ms)


def update_ewma(state: QualityFactor, q_sample: float, at: float = 0.0) -> QualityFactor:
    """Fold one sample into the filter: q' = alpha*sample + (1-alpha)*q.

    The very first sample sets q' = sample. Returns a new value; the input
    state is untouched.
    """
    if not 0.0 <= q_sample <= 1.0:
        raise OutOfRange("q_sample must be in [0,1], got %r" % q_sample)
    if not 0.0 < state.alpha <= 1.0:
        raise OutOfRange("alpha must be in (0,1], got %r" % state.alpha)
    if not state.sample_count:
        q = q_sample
    elif q_sample == state.q:
        q = q_sample + 0.0  # what _blend gives for equal values: +0.0 for either zero
    else:
        q = _blend(state.alpha, q_sample, state.q)
    return QualityFactor(state.link, q, state.alpha, at, state.sample_count + 1)


def _blend(alpha: float, sample: float, q: float) -> float:
    """alpha*sample + (1-alpha)*q with one conservative rounding.

    Each double is an integer over a power of two, so the blend is exactly
    one integer ratio, rounded once by int true division; if that lands
    farther from the sample than the exact value (compared in integers),
    it is nudged one ulp back toward the sample. The stored float is never
    farther from the sample than the ideal update, so the geometric
    convergence bound |q_n - c| <= (1-alpha)^n holds exactly in doubles.
    """
    a_num, a_den = alpha.as_integer_ratio()
    s_num, s_den = sample.as_integer_ratio()
    q_num, q_den = q.as_integer_ratio()
    common = max(s_den, q_den)
    s_num, q_num = s_num * (common // s_den), q_num * (common // q_den)
    num, den = a_num * s_num + (a_den - a_num) * q_num, a_den * common
    rounded = num / den
    r_num, r_den = rounded.as_integer_ratio()  # r_den divides den: rounding only coarsens
    if abs(r_num * (den // r_den) - a_den * s_num) > abs(num - a_den * s_num):
        rounded = math.nextafter(rounded, sample)
    return rounded


def classify_link(state: QualityFactor, q_min: float = DEFAULT_Q_MIN) -> LinkState:
    """Down iff q is strictly below q_min; exactly q_min is still Usable."""
    return LinkState.DOWN if state.q < q_min else LinkState.USABLE
