"""Deterministic, spatially/temporally correlated shadowing fields.

Why this exists: the whole premise of Voiceprint (Observation 3) is that
two Sybil identities transmitted by the *same physical radio* traverse
the *same physical channel*, so their RSSI time series share their
large-scale ups and downs, while two distinct vehicles — even side by
side — see measurably different channels.  An i.i.d. shadowing draw per
packet (what a naive simulator does) destroys exactly this structure:
Sybil identities would look no more alike than strangers.

:class:`SpatialNoiseField` therefore makes shadowing a *deterministic
function of (position, time)*: a lattice of hashed Gaussian values,
smoothly interpolated, with configurable decorrelation distance
(Gudmundson-style, ~tens of metres for vehicular channels) and
decorrelation time.  Two transmissions from the same place at the same
moment get the same shadowing — regardless of the identity claimed in
the packet — which is precisely the physics the attacker cannot fake.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = ["ValueNoise3D", "SpatialNoiseField"]

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    """One SplitMix64 scrambling step (public-domain constant set)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _hash_cell(seed: int, i: int, j: int, k: int) -> int:
    """Deterministic 64-bit hash of one lattice cell."""
    h = _splitmix64(seed & _MASK64)
    for coord in (i, j, k):
        h = _splitmix64(h ^ (coord & _MASK64))
    return h


def _cell_gaussian(seed: int, i: int, j: int, k: int) -> float:
    """Standard-normal value attached to lattice cell ``(i, j, k)``.

    Two independent uniforms from the cell hash feed a Box–Muller
    transform; the result is reproducible across runs and platforms.
    """
    h1 = _hash_cell(seed, i, j, k)
    h2 = _splitmix64(h1)
    # Map to (0, 1]; the +1 keeps u1 away from zero (log singularity).
    u1 = ((h1 >> 11) + 1) / (1 << 53)
    u2 = (h2 >> 11) / (1 << 53)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _smoothstep(t: float) -> float:
    """C1-continuous interpolation weight 3t^2 - 2t^3."""
    return t * t * (3.0 - 2.0 * t)


#: Lattice-cube corner offsets ``(di, dj, dk)`` in the scalar
#: interpolation's summation order.
_CORNERS = np.array(
    [(di, dj, dk) for di in (0, 1) for dj in (0, 1) for dk in (0, 1)],
    dtype=np.int64,
)


def _splitmix64_np(state: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 over a uint64 array (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        state = state + np.uint64(0x9E3779B97F4A7C15)
        z = state
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _cell_gaussian_np(seed: int, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Vectorised lattice Gaussians, within a few ulp of :func:`_cell_gaussian`.

    The hashes and both uniforms are bit-identical to the scalar path,
    but ``np.log``/``np.cos`` may round differently from
    ``math.log``/``math.cos``, so a cell can differ in its last bits:
    29 of 20,000 random cells differ, by at most 2 ulp (numpy 2.4 on
    x86-64).  ``tests/test_radio_noise.py`` pins a 4-ulp bound.
    """
    h = _splitmix64_np(np.full(i.shape, seed & _MASK64, dtype=np.uint64))
    for coord in (i, j, k):
        h = _splitmix64_np(h ^ coord.astype(np.int64).view(np.uint64))
    h2 = _splitmix64_np(h)
    u1 = ((h >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
    u2 = (h2 >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass
class ValueNoise3D:
    """Smooth unit-variance Gaussian value noise over (x, y, t).

    Lattice values are hashed from the seed (no stored state besides a
    memoisation cache), so the field is deterministic, unbounded in
    extent, and cheap to evaluate anywhere.

    Attributes:
        seed: Field seed; different seeds give independent fields.
        scale_x: Decorrelation length along x, metres.
        scale_y: Decorrelation length along y, metres.
        scale_t: Decorrelation time, seconds.
    """

    seed: int
    scale_x: float = 20.0
    scale_y: float = 20.0
    scale_t: float = 5.0
    _cache: Dict[Tuple[int, int, int], float] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.scale_x <= 0 or self.scale_y <= 0 or self.scale_t <= 0:
            raise ValueError(
                "all correlation scales must be positive, got "
                f"({self.scale_x}, {self.scale_y}, {self.scale_t})"
            )

    def _lattice(self, i: int, j: int, k: int) -> float:
        key = (i, j, k)
        value = self._cache.get(key)
        if value is None:
            value = _cell_gaussian(self.seed, i, j, k)
            if len(self._cache) > 200_000:
                self._cache.clear()
            self._cache[key] = value
        return value

    def value(self, x: float, y: float, t: float) -> float:
        """Field value at a point; ~N(0, 1) marginally, smooth in space/time."""
        fx = x / self.scale_x
        fy = y / self.scale_y
        ft = t / self.scale_t
        i0, j0, k0 = math.floor(fx), math.floor(fy), math.floor(ft)
        wx = _smoothstep(fx - i0)
        wy = _smoothstep(fy - j0)
        wt = _smoothstep(ft - k0)
        total = 0.0
        for di, wi in ((0, 1.0 - wx), (1, wx)):
            for dj, wj in ((0, 1.0 - wy), (1, wy)):
                for dk, wk in ((0, 1.0 - wt), (1, wt)):
                    total += (
                        wi * wj * wk * self._lattice(i0 + di, j0 + dj, k0 + dk)
                    )
        return total

    def value_batch(
        self, x: np.ndarray, y: np.ndarray, t
    ) -> np.ndarray:
        """Vectorised :meth:`value` over arrays of points.

        ``t`` may be a scalar (all points share the instant) or an array
        broadcastable against ``x``.  Same hashes, weights and summation
        order as the scalar path, but the lattice Gaussians agree only
        to a few ulp (see :func:`_cell_gaussian_np`), so a value can
        differ from :meth:`value` by ~1e-16.  The simulators evaluate
        their fields through this batch path only
        (:meth:`SpatialNoiseField.unit_shadowing_matrix` and
        :meth:`SpatialNoiseField.unit_shadowing_pairs`); never mix the
        two paths where values must match bit for bit.
        """
        fx = np.asarray(x, dtype=float) / self.scale_x
        fy = np.asarray(y, dtype=float) / self.scale_y
        ft = np.asarray(t, dtype=float) / self.scale_t
        fx, fy, ft = np.broadcast_arrays(fx, fy, ft)
        i0 = np.floor(fx).astype(np.int64)
        j0 = np.floor(fy).astype(np.int64)
        k0 = np.floor(ft).astype(np.int64)
        wx = fx - i0
        wy = fy - j0
        wt = ft - k0
        wx = wx * wx * (3.0 - 2.0 * wx)
        wy = wy * wy * (3.0 - 2.0 * wy)
        wt = wt * wt * (3.0 - 2.0 * wt)
        # All eight cube corners hash in one call over a stacked
        # (8, ...) lattice; the sum then runs in the scalar path's
        # corner order.
        offsets = _CORNERS.reshape((8, 3) + (1,) * fx.ndim)
        lattice = _cell_gaussian_np(
            self.seed, i0 + offsets[:, 0], j0 + offsets[:, 1], k0 + offsets[:, 2]
        )
        weights_x = (1.0 - wx, wx)
        weights_y = (1.0 - wy, wy)
        weights_t = (1.0 - wt, wt)
        total = np.zeros_like(fx)
        for corner, (di, dj, dk) in enumerate(_CORNERS.tolist()):
            total += weights_x[di] * weights_y[dj] * weights_t[dk] * lattice[corner]
        return total


@dataclass
class SpatialNoiseField:
    """Link shadowing as a deterministic function of both endpoints.

    The shadowing of a link is the sum of a transmit-side and a
    receive-side field value (scaled to keep unit variance), so that:

    * packets from the *same* TX position to the same RX at the same
      time get identical shadowing (the Sybil signature);
    * nearby-but-distinct transmitters get correlated-but-different
      shadowing (the side-by-side normal vehicle of Scenario 3);
    * the link is symmetric in its endpoints.

    Multiply :meth:`unit_shadowing` by the environment's sigma to get a
    dB value.

    Attributes:
        seed: Base seed; TX and RX sub-fields derive from it.
        correlation_distance_m: Spatial decorrelation length.
        correlation_time_s: Temporal decorrelation constant.
        tx_weight: Variance share of the transmit-side field.  The
            receive-side share (``1 - tx_weight``) is *common to every
            link one receiver observes* — it models the receiver's own
            surroundings.  Keeping it small matters: a large common-mode
            component would make every pair of heard identities look
            alike at that receiver, regardless of their transmitters.
    """

    seed: int = 0
    correlation_distance_m: float = 20.0
    correlation_time_s: float = 5.0
    tx_weight: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.tx_weight < 1.0:
            raise ValueError(f"tx_weight must be in (0, 1), got {self.tx_weight}")
        self._tx_field = ValueNoise3D(
            seed=_splitmix64(self.seed ^ 0x7478),  # 'tx'
            scale_x=self.correlation_distance_m,
            scale_y=self.correlation_distance_m,
            scale_t=self.correlation_time_s,
        )
        self._rx_field = ValueNoise3D(
            seed=_splitmix64(self.seed ^ 0x7278),  # 'rx'
            scale_x=self.correlation_distance_m,
            scale_y=self.correlation_distance_m,
            scale_t=self.correlation_time_s,
        )

    def unit_shadowing(
        self,
        tx_xy: Tuple[float, float],
        rx_xy: Tuple[float, float],
        t: float,
    ) -> float:
        """Unit-variance shadowing for one link at one instant.

        The TX field is evaluated at the transmitter and the RX field at
        the receiver; summing and scaling by 1/sqrt(2) keeps the
        marginal variance at ~1 while preserving endpoint correlation
        structure.
        """
        tx_term = self._tx_field.value(tx_xy[0], tx_xy[1], t)
        rx_term = self._rx_field.value(rx_xy[0], rx_xy[1], t)
        return (
            math.sqrt(self.tx_weight) * tx_term
            + math.sqrt(1.0 - self.tx_weight) * rx_term
        )

    def unit_shadowing_matrix(
        self,
        tx_xy: np.ndarray,
        rx_xy: np.ndarray,
        t: float,
    ) -> np.ndarray:
        """Unit shadowing for every (tx, rx) pair as a ``(k, m)`` matrix.

        Separable endpoint structure makes this O(k + m) field
        evaluations: the TX field is evaluated once per transmitter, the
        RX field once per receiver, and the matrix is their outer sum.

        Args:
            tx_xy: ``(k, 2)`` transmitter positions.
            rx_xy: ``(m, 2)`` receiver positions.
            t: Evaluation instant.
        """
        tx = np.atleast_2d(np.asarray(tx_xy, dtype=float))
        rx = np.atleast_2d(np.asarray(rx_xy, dtype=float))
        tx_term = self._tx_field.value_batch(tx[:, 0], tx[:, 1], t)
        rx_term = self._rx_field.value_batch(rx[:, 0], rx[:, 1], t)
        return (
            math.sqrt(self.tx_weight) * tx_term[:, None]
            + math.sqrt(1.0 - self.tx_weight) * rx_term[None, :]
        )

    def unit_shadowing_pairs(
        self,
        tx_xy: np.ndarray,
        rx_xy: np.ndarray,
        times: np.ndarray,
    ) -> np.ndarray:
        """Like :meth:`unit_shadowing_matrix`, but with per-TX times.

        Used for fast fading, whose coherence time is shorter than a
        beacon interval: transmission ``i`` is evaluated at its own
        on-air time ``times[i]`` against every receiver.

        Args:
            tx_xy: ``(k, 2)`` transmitter positions.
            rx_xy: ``(m, 2)`` receiver positions.
            times: ``(k,)`` per-transmission evaluation instants.

        Returns:
            ``(k, m)`` unit-variance noise values.
        """
        tx = np.atleast_2d(np.asarray(tx_xy, dtype=float))
        rx = np.atleast_2d(np.asarray(rx_xy, dtype=float))
        t = np.asarray(times, dtype=float)
        tx_term = self._tx_field.value_batch(tx[:, 0], tx[:, 1], t)
        rx_term = self._rx_field.value_batch(
            rx[None, :, 0], rx[None, :, 1], t[:, None]
        )
        return (
            math.sqrt(self.tx_weight) * tx_term[:, None]
            + math.sqrt(1.0 - self.tx_weight) * rx_term
        )
