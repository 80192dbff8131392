"""Normalisation steps of the Voiceprint comparison phase.

Two normalisations appear in the paper:

* **Enhanced Z-score** (Eq. 7) — applied to every RSSI series *before*
  DTW.  Dividing by ``3 * sigma`` maps ~99.7 % of samples into
  ``(-1, 1)`` and, crucially, cancels any constant TX-power offset the
  attacker gives each Sybil identity (Assumption 3): shifting a series
  by a constant changes only its mean, and rescaling the radio gain
  changes only its deviation — the *shape*, which is what DTW compares,
  is preserved.

* **Min–max** (Eq. 8) — applied to the set of pairwise DTW distances
  *after* comparison, mapping them into ``[0, 1]`` so that a single
  trained decision boundary is meaningful across detection periods.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .timeseries import RSSITimeSeries

__all__ = [
    "zscore",
    "zscore_series",
    "enhanced_zscore",
    "minmax",
    "minmax_distances",
]

#: Below this standard deviation a series is treated as constant; the
#: Z-score of a constant series is defined as all-zeros rather than a
#: division by (almost) zero blowing measurement noise up to +/-inf.
_SIGMA_FLOOR = 1e-12


def zscore(values: np.ndarray, sigma_multiplier: float = 1.0) -> np.ndarray:
    """Classic Z-score normalisation ``(x - mu) / (k * sigma)``.

    Args:
        values: 1-D array of samples.
        sigma_multiplier: ``k`` in the denominator; the paper's enhanced
            variant uses 3 (see :func:`enhanced_zscore`).

    Returns:
        A new array of the same shape.  A constant (or empty) input maps
        to all zeros.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    if sigma_multiplier <= 0:
        raise ValueError(f"sigma_multiplier must be positive, got {sigma_multiplier}")
    if arr.size == 0:
        return arr.copy()
    sigma = float(np.std(arr))
    if sigma < _SIGMA_FLOOR:
        return np.zeros_like(arr)
    return (arr - float(np.mean(arr))) / (sigma_multiplier * sigma)


def enhanced_zscore(values: np.ndarray) -> np.ndarray:
    """The paper's enhanced Z-score (Eq. 7): ``(x - mu) / (3 * sigma)``.

    Maps ~99.7 % of a Gaussian-like series into ``(-1, 1)`` while
    leaving the series *shape* untouched, which eliminates spoofed
    per-identity transmission-power offsets.
    """
    return zscore(values, sigma_multiplier=3.0)


def zscore_series(
    series: RSSITimeSeries, sigma_multiplier: float = 3.0
) -> RSSITimeSeries:
    """Return a normalised copy of ``series`` (timestamps preserved)."""
    normalised = zscore(series.values, sigma_multiplier=sigma_multiplier)
    out = RSSITimeSeries(series.identity)
    for t, v in zip(series.timestamps, normalised):
        out.append(float(t), float(v))
    return out


def minmax(values: np.ndarray) -> np.ndarray:
    """Min–max normalisation into ``[0, 1]`` (Eq. 8).

    A constant (or single-element) input maps to all zeros — in the
    detector this situation means "all pairs look equally similar", and
    mapping to 0 (maximal similarity) errs on the side of flagging,
    which matches the paper's treatment of indistinguishable pairs.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return arr.copy()
    lo = float(np.min(arr))
    hi = float(np.max(arr))
    if hi - lo < _SIGMA_FLOOR:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def minmax_distances(
    distances: Dict[Tuple[str, str], float],
) -> Dict[Tuple[str, str], float]:
    """Min–max normalise a pairwise-distance mapping (Eq. 8).

    Args:
        distances: Mapping from an identity pair to its raw DTW distance.

    Returns:
        A new mapping with every value scaled into ``[0, 1]``.
    """
    if not distances:
        return {}
    keys = list(distances.keys())
    values = minmax(np.array([distances[k] for k in keys], dtype=float))
    return {k: float(v) for k, v in zip(keys, values)}
