"""The Voiceprint detector (paper Section IV-C, Algorithm 1).

One :class:`VoiceprintDetector` instance runs on one vehicle and is fed
every beacon that vehicle receives.  It implements the three phases:

* **Collection** — :meth:`VoiceprintDetector.observe` appends
  ``<ID, RSSI>`` tuples to per-identity buffers; the latest
  *observation time* seconds are retained.
* **Comparison** — :meth:`VoiceprintDetector.detect` cuts the current
  observation window, Z-score-normalises every series (Eq. 7), measures
  every pairwise FastDTW distance, and min–max-normalises the distances
  (Eq. 8).
* **Confirmation** — each pair is checked against the threshold policy
  ``D <= k * den + b`` (Algorithm 1, line 15); identities in a flagged
  pair are the suspected Sybil nodes.

The detector is *independent*: it never consumes information reported
by other vehicles, only its own RSSI observations — the property that
makes Voiceprint trust-relationship-free.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..obs.audit import (
    default_audit_log,
    get_audit_context,
    get_near_miss_epsilon,
    make_detection_bundle,
    signed_margin,
)
from ..obs.health import HealthMonitor, default_monitor
from ..obs.lineage import current_correlation_id
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.timers import Stopwatch
from ..obs.trace import Tracer, default_tracer
from .fastdtw import DEFAULT_RADIUS, dtw_banded_fast, fastdtw
from .dtw import dtw
from .normalization import _SIGMA_FLOOR, minmax_distances, zscore
from .pairwise import PairwiseEngine, PairwiseStats, get_engine_defaults
from .thresholds import LinearThreshold, ThresholdPolicy
from .timeseries import RSSITimeSeries

__all__ = [
    "DetectorConfig",
    "DetectionReport",
    "VoiceprintDetector",
    "set_ownership_guard",
    "ownership_guard_enabled",
]

_log = get_logger("core.detector")

Pair = Tuple[str, str]

#: Process-wide default for the single-writer ownership guard (see
#: :meth:`VoiceprintDetector.claim_ownership`).  Off in production —
#: the check is one ``threading.get_ident()`` per call, cheap but not
#: free — and switched on by the test suite's conftest plus the
#: streaming service's shard workers, so concurrent misuse of one
#: detector fails loudly instead of silently corrupting buffers.
_OWNERSHIP_GUARD_DEFAULT = False


def set_ownership_guard(enabled: bool) -> bool:
    """Set the process-wide ownership-guard default; returns the previous.

    Only affects detectors constructed afterwards (each instance
    snapshots the default, overridable per instance via the
    ``owner_guard`` constructor argument).
    """
    global _OWNERSHIP_GUARD_DEFAULT
    previous = _OWNERSHIP_GUARD_DEFAULT
    _OWNERSHIP_GUARD_DEFAULT = bool(enabled)
    return previous


def ownership_guard_enabled() -> bool:
    """The current process-wide ownership-guard default."""
    return _OWNERSHIP_GUARD_DEFAULT


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable parameters of one Voiceprint instance.

    Attributes:
        observation_time: Length of the RSSI window compared each
            detection (paper default 20 s).
        min_samples: Series shorter than this are excluded from the
            comparison.  The default (60, i.e. ~30 %% of the ~200
            beacons a full 20 s window carries at 10 Hz) rejects the
            heavily censored traces of vehicles that spent most of the
            window out of range — such truncated drive-by sweeps all
            look alike and are the dominant false-positive source.
            Skipped identities can still not be *detected*, which is
            exactly the packet-loss detection-rate penalty the paper
            describes at high density.
        band_radius_samples: Sakoe–Chiba band half-width for the
            pairwise DTW, in samples (1 s at the 10 Hz cadence per 10
            samples).  A band bounds how much temporal misalignment the
            warp may forgive: Sybil streams are truly synchronous and
            live on the diagonal, while coincidentally similar-shaped
            sweeps from different vehicles need large warps to match
            and get priced accordingly.  ``None`` disables the band and
            uses plain FastDTW (the ablation bench measures the gap).
        fastdtw_radius: FastDTW refinement radius, used only when the
            band is disabled.
        sigma_multiplier: Denominator multiplier of the Z-score; the
            paper's enhanced variant uses 3.
        scale_mode: How series are scaled after mean-centering.
            ``"median"`` (default) divides every series by the *same*
            value — ``sigma_multiplier`` times the median of the
            compared series' standard deviations.  ``"per-series"`` is
            the paper's literal Eq. 7, dividing each series by its own
            deviation.  Mean-centering alone already cancels spoofed
            constant TX-power offsets (Assumption 3's attack); dividing
            by a *per-series* sigma additionally rescales each series'
            noise, which makes per-step DTW costs incomparable across
            links — a high-dynamic drive-by sweep gets its measurement
            noise crushed and can look more "Sybil" than an actual
            Sybil pair.  The common scale keeps costs comparable; the
            ablation bench (E12) measures both modes.
        threshold_on: Which distance the confirmation threshold is
            compared against.  ``"normalized"`` (paper Eq. 8 / default)
            thresholds the per-report min–max-normalised distances —
            note that min–max *forces* the most similar pair in every
            report to 0, so a verifier with no attacker in range always
            flags its two most similar neighbours.  ``"raw"`` thresholds
            the per-step DTW cost directly (it is already scale-free
            after normalisation and path-averaging), which removes that
            forced false positive; the ablation bench compares both.
        use_exact_dtw: Replace the banded/FastDTW measure with exact
            unconstrained DTW (ablations only).
        normalize_by_path_length: Divide each DTW distance by its warp
            path length (mean per-step cost) before the min–max step.
            The paper min–maxes raw sums, which is fine when every pair
            contributes ~200 samples; under real packet loss, raw sums
            make *short* series pairs spuriously similar simply because
            fewer terms are summed.  Path-length normalisation removes
            that length bias; the ablation bench (E12) measures both.
        pairwise_engine: Run the comparison phase through the
            :class:`repro.core.pairwise.PairwiseEngine` (vectorised /
            batched banded-DTW kernels plus the incremental pair
            cache).  Bit-identical to the legacy per-pair loop, just
            faster.  ``None`` (default) follows the process-wide
            engine defaults (CLI ``--pairwise``).
        pairwise_pruning: Let :meth:`VoiceprintDetector.detect` decide
            pairs from the engine's lower/upper-bound cascade without
            running DTW when the bounds cannot change the flagged set
            (banded mode only).  Flagged pairs are identical to the
            exact computation; pruned pairs carry bound surrogates
            instead of exact distances in the report, so analyses that
            consume distance *values* should leave this off (the
            default; see DESIGN.md).  ``None`` follows the process-wide
            defaults.
        pairwise_incremental: Price each detection by what *changed*
            since the previous period instead of the window size:
            per-identity envelopes slide as beacons arrive, unchanged
            pairs carry the previous period's exact distance, and
            bound-undecided pairs run early-abandon DTW seeded with the
            decision boundary (banded mode only; takes precedence over
            ``pairwise_pruning``).  ``sybil_pairs`` stay byte-identical
            to the exact path; like pruning, undecided-then-abandoned
            pairs report surrogate distances — but only when
            consecutive windows actually overlap, so disjoint-window
            workloads (observation time == detection period) reproduce
            exact-mode reports bit for bit (see DESIGN.md §5f).
            ``None`` follows the process-wide defaults.
        pairwise_cache_size: LRU capacity of the engine's pair cache
            (0 disables; ``None`` follows the process-wide defaults).
        pairwise_workers: Engine thread-pool width for exact kernel
            evaluations (0 = inline; ``None`` follows the process-wide
            defaults).
    """

    observation_time: float = 20.0
    min_samples: int = 60
    band_radius_samples: Optional[int] = 10
    fastdtw_radius: int = DEFAULT_RADIUS
    sigma_multiplier: float = 3.0
    scale_mode: str = "median"
    threshold_on: str = "normalized"
    use_exact_dtw: bool = False
    normalize_by_path_length: bool = True
    pairwise_engine: Optional[bool] = None
    pairwise_pruning: Optional[bool] = None
    pairwise_incremental: Optional[bool] = None
    pairwise_cache_size: Optional[int] = None
    pairwise_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.observation_time <= 0:
            raise ValueError(
                f"observation_time must be positive, got {self.observation_time}"
            )
        if self.min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {self.min_samples}")
        if self.fastdtw_radius < 0:
            raise ValueError(
                f"fastdtw_radius must be non-negative, got {self.fastdtw_radius}"
            )
        if self.band_radius_samples is not None and self.band_radius_samples < 0:
            raise ValueError(
                f"band_radius_samples must be non-negative, got "
                f"{self.band_radius_samples}"
            )
        if self.sigma_multiplier <= 0:
            raise ValueError(
                f"sigma_multiplier must be positive, got {self.sigma_multiplier}"
            )
        if self.scale_mode not in ("median", "per-series"):
            raise ValueError(
                f"scale_mode must be 'median' or 'per-series', got "
                f"{self.scale_mode!r}"
            )
        if self.threshold_on not in ("normalized", "raw"):
            raise ValueError(
                f"threshold_on must be 'normalized' or 'raw', got "
                f"{self.threshold_on!r}"
            )
        if self.pairwise_cache_size is not None and self.pairwise_cache_size < 0:
            raise ValueError(
                f"pairwise_cache_size must be >= 0, got {self.pairwise_cache_size}"
            )
        if self.pairwise_workers is not None and self.pairwise_workers < 0:
            raise ValueError(
                f"pairwise_workers must be >= 0, got {self.pairwise_workers}"
            )


@dataclass(frozen=True)
class DetectionReport:
    """Result of one detection period on one vehicle.

    Attributes:
        timestamp: Detection time (end of the observation window).
        density: Traffic density handed to the threshold policy (the
            unit must match the policy's ``k``; the paper uses
            vehicles/km).
        threshold: The distance threshold applied at that density.
        raw_distances: Pairwise FastDTW distances before Eq. 8.
        distances: Pairwise distances after min–max normalisation.
        sybil_pairs: Pairs whose distance fell below the threshold.
        sybil_ids: Union of identities appearing in any flagged pair
            (Algorithm 1's ``SybilIDs``).
        compared_ids: Identities that had enough samples to compare.
        skipped_ids: Identities heard but excluded (too few samples).
        margins: Per-pair signed distance-to-threshold margin
            ``(judged - threshold) / threshold`` — negative on the
            flagged side, positive on the cleared side; magnitude is
            the relative slack.  Verdicts with tiny |margin| are
            fragile (the health monitor and the ``pipeline.margin.*``
            telemetry watch exactly this).
    """

    timestamp: float
    density: float
    threshold: float
    raw_distances: Dict[Pair, float]
    distances: Dict[Pair, float]
    sybil_pairs: Tuple[Pair, ...]
    sybil_ids: FrozenSet[str]
    compared_ids: Tuple[str, ...]
    skipped_ids: Tuple[str, ...]
    margins: Dict[Pair, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable digest of the period.

        Example::

            t=40.0s density=4.0/km thr=0.0505 compared=5 pairs=10 skipped=1 flagged=[101,102]
        """
        flagged = ",".join(sorted(self.sybil_ids)) or "none"
        return (
            f"t={self.timestamp:.1f}s density={self.density:.1f}/km "
            f"thr={self.threshold:.4g} compared={len(self.compared_ids)} "
            f"pairs={len(self.raw_distances)} skipped={len(self.skipped_ids)} "
            f"flagged=[{flagged}]"
        )

    def sybil_clusters(self) -> List[FrozenSet[str]]:
        """Group flagged identities emitted by the same physical radio.

        Connected components of the flagged-pair graph: if (a, b) and
        (b, c) are both flagged, {a, b, c} are one presumed attacker.

        The returned list is deterministic: clusters are ordered by
        their lexicographically smallest member, independent of
        ``PYTHONHASHSEED`` — downstream consumers (fleet confirmation,
        golden-file tests) may rely on the ordering.
        """
        parent: Dict[str, str] = {}

        def find(x: str) -> str:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for a, b in self.sybil_pairs:
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        clusters: Dict[str, List[str]] = {}
        for node in sorted(parent):
            clusters.setdefault(find(node), []).append(node)
        return [
            frozenset(members)
            for members in sorted(clusters.values(), key=lambda m: m[0])
        ]


class VoiceprintDetector:
    """Per-vehicle Voiceprint Sybil detector.

    Args:
        threshold: Confirmation threshold policy.  Defaults to the
            paper's trained linear boundary.
        config: Detector tunables; defaults follow Table V.
        registry: Metrics registry instrumentation records into;
            defaults to the process-global one (disabled unless
            observability is configured, in which case every
            instrumented call is a cheap no-op).
        tracer: Span tracer for per-detection phase traces; defaults to
            the process-global one.
        health: Streaming health monitor fed every beacon (Collection
            staleness watchdog) and every detection report (latency /
            flag-rate / density sliding windows).  Defaults to the
            process-global monitor installed via
            :func:`repro.obs.set_default_monitor` — None unless
            telemetry is armed, keeping the unmonitored fast path at a
            single None check.
        owner_guard: Enforce the single-writer contract below with a
            per-call thread-identity check (``None`` follows the
            process default, see :func:`set_ownership_guard`).

    **Thread-safety contract (single writer).**  A detector instance
    holds mutable per-identity buffers and incremental engine state
    with no internal locking: exactly one thread may call the mutating
    entry points (:meth:`observe`, :meth:`detect`, :meth:`load_series`,
    :meth:`forget`, :meth:`reset`).  ``repro.serve`` enforces this by
    sharding observers across worker threads — each shard thread owns
    its detectors outright (one-writer-per-shard) and other threads
    only ever see published :class:`DetectionReport` values.  With the
    ownership guard armed, the first mutating call binds the instance
    to the calling thread and any other thread's mutation raises
    ``RuntimeError`` instead of corrupting buffers; an explicit
    handoff between threads goes through :meth:`claim_ownership`.

    Example:
        >>> detector = VoiceprintDetector()
        >>> for t, identity, rssi in beacons:          # doctest: +SKIP
        ...     detector.observe(identity, t, rssi)
        >>> report = detector.detect(density=40.0, now=t)  # doctest: +SKIP
        >>> sorted(report.sybil_ids)                       # doctest: +SKIP
    """

    def __init__(
        self,
        threshold: Optional[ThresholdPolicy] = None,
        config: Optional[DetectorConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        health: Optional[HealthMonitor] = None,
        owner_guard: Optional[bool] = None,
    ) -> None:
        self.threshold: ThresholdPolicy = threshold or LinearThreshold()
        self.config = config or DetectorConfig()
        self._buffers: Dict[str, RSSITimeSeries] = {}
        self._latest: float = float("-inf")
        self._next_sweep_t: float = float("-inf")
        self._guard = (
            _OWNERSHIP_GUARD_DEFAULT if owner_guard is None else owner_guard
        )
        self._owner_ident: Optional[int] = None
        #: Observer id stamped onto this detector's audit bundles in
        #: place of the process-global audit context — shard threads in
        #: ``repro.serve`` run many detectors concurrently, so a global
        #: stamp would race (see :func:`repro.obs.set_audit_context`).
        self.audit_identity: Optional[str] = None
        self._audit_period = 0
        metrics = registry if registry is not None else default_registry()
        self._tracer = tracer if tracer is not None else default_tracer()
        self._health = health if health is not None else default_monitor()
        self._c_beacons = metrics.counter("detector.beacons_observed")
        self._c_evictions = metrics.counter("detector.series_evictions")
        self._c_pairs = metrics.counter("detector.pairs_compared")
        self._c_cells = metrics.counter("detector.dtw_cells")
        self._h_detect_ms = metrics.histogram("detector.detect_ms")
        self._h_margin = metrics.histogram("pipeline.margin.signed")
        self._h_margin_abs = metrics.histogram("pipeline.margin.abs")
        self._c_near_miss = metrics.counter("pipeline.margin.near_miss")
        defaults = get_engine_defaults()
        cfg = self.config
        use_engine = (
            defaults.engine if cfg.pairwise_engine is None else cfg.pairwise_engine
        )
        self._pruning = (
            defaults.pruning if cfg.pairwise_pruning is None else cfg.pairwise_pruning
        )
        self._incremental = (
            defaults.incremental
            if cfg.pairwise_incremental is None
            else cfg.pairwise_incremental
        )
        self._engine: Optional[PairwiseEngine] = None
        if use_engine:
            self._engine = PairwiseEngine(
                band_radius=cfg.band_radius_samples,
                use_exact_dtw=cfg.use_exact_dtw,
                fastdtw_radius=cfg.fastdtw_radius,
                normalize_by_path_length=cfg.normalize_by_path_length,
                pruning=self._pruning,
                incremental=self._incremental,
                cache_size=(
                    defaults.cache_size
                    if cfg.pairwise_cache_size is None
                    else cfg.pairwise_cache_size
                ),
                workers=(
                    defaults.workers
                    if cfg.pairwise_workers is None
                    else cfg.pairwise_workers
                ),
                registry=metrics,
            )

        self._c_stale_forgets = metrics.counter("detector.stale_forgets")

    @property
    def pairwise_stats(self) -> Optional[PairwiseStats]:
        """Cumulative engine work accounting (``None`` on the legacy path)."""
        return self._engine.stats if self._engine is not None else None

    # ------------------------------------------------------------------
    # Single-writer ownership guard
    # ------------------------------------------------------------------
    def enable_ownership_guard(self) -> None:
        """Arm the guard on this instance and bind it to this thread."""
        self._guard = True
        self._owner_ident = threading.get_ident()

    def claim_ownership(self) -> None:
        """Rebind the guard to the calling thread (explicit handoff).

        The previous owner must have stopped touching the detector
        before the new owner claims it — the guard checks identity,
        not synchronisation.
        """
        self._owner_ident = threading.get_ident()

    def _check_owner(self) -> None:
        if not self._guard:
            return
        ident = threading.get_ident()
        owner = self._owner_ident
        if owner is None:
            self._owner_ident = ident
        elif ident != owner:
            raise RuntimeError(
                f"VoiceprintDetector mutated from thread {ident} while "
                f"owned by thread {owner}: observe()/detect() are "
                "single-writer — route every mutation through one shard "
                "thread (see repro.serve) or hand the instance over with "
                "claim_ownership()"
            )

    # ------------------------------------------------------------------
    # Collection phase
    # ------------------------------------------------------------------
    def observe(self, identity: str, timestamp: float, rssi: float) -> None:
        """Record one received beacon's ``<ID, RSSI>`` tuple.

        Buffers are trimmed lazily to roughly twice the observation
        time, and identities whose *newest* sample has fallen more than
        twice the observation time behind the latest beacon are swept
        away entirely (buffer plus incremental pair state) — an
        identity that went silent can never contribute samples to a
        window again, so keeping it would leak memory for every
        identity a long-running observer ever heard.  The sweep is
        amortised: it runs at most once per observation time.
        """
        self._check_owner()
        identity = str(identity)
        buffer = self._buffers.get(identity)
        if buffer is None:
            buffer = RSSITimeSeries(identity)
            self._buffers[identity] = buffer
        buffer.append(timestamp, rssi)
        self._c_beacons.inc()
        if self._health is not None:
            self._health.beat(timestamp)
        if timestamp > self._latest:
            self._latest = timestamp
        horizon = timestamp - 2.0 * self.config.observation_time
        if buffer.start < horizon:
            buffer.drop_before(horizon)
            self._c_evictions.inc()
        if self._latest >= self._next_sweep_t:
            self._sweep_stale()

    def _sweep_stale(self) -> None:
        """Forget identities silent for over twice the observation time.

        The horizon trails :attr:`_latest` (the newest beacon heard from
        *anyone*), so a single chatty neighbour is enough to age out the
        whole silent tail.  Runs O(identities) once per observation
        time — amortised O(1) per beacon.
        """
        horizon = self._latest - 2.0 * self.config.observation_time
        stale = [
            identity
            for identity, buffer in self._buffers.items()
            if len(buffer) == 0 or buffer.end < horizon
        ]
        for identity in stale:
            del self._buffers[identity]
            if self._engine is not None:
                self._engine.drop_identity(identity)
        if stale:
            self._c_stale_forgets.inc(len(stale))
        self._next_sweep_t = self._latest + self.config.observation_time

    def load_series(self, series: RSSITimeSeries) -> None:
        """Adopt a pre-collected series as this identity's buffer.

        Batch/offline convenience: replaying a finished simulation
        sample-by-sample through :meth:`observe` would only rebuild the
        series objects the simulator already produced.  The series is
        adopted by reference and replaces any existing buffer for the
        identity.
        """
        self._check_owner()
        self._buffers[series.identity] = series
        if len(series) and series.end > self._latest:
            self._latest = series.end

    @property
    def heard_identities(self) -> Tuple[str, ...]:
        """All identities with at least one buffered sample."""
        return tuple(sorted(self._buffers))

    def series_for(self, identity: str) -> Optional[RSSITimeSeries]:
        """The raw buffered series for one identity, if any."""
        return self._buffers.get(str(identity))

    def forget(self, identity: str) -> None:
        """Drop an identity's buffer (e.g. after a node leaves range).

        Incremental engine state referencing the identity (envelopes,
        per-pair carries) is dropped with it: a node that re-enters
        range later must never carry a stale pre-departure verdict.
        """
        self._check_owner()
        identity = str(identity)
        self._buffers.pop(identity, None)
        if self._engine is not None:
            self._engine.drop_identity(identity)

    # ------------------------------------------------------------------
    # Comparison + confirmation phases
    # ------------------------------------------------------------------
    def _pair_distance(self, x: np.ndarray, y: np.ndarray) -> float:
        """One pair's comparison distance through the kernel ``detect()``
        uses: the engine's exact kernel when the engine is on, else the
        legacy per-pair kernels."""
        if self._engine is not None:
            ((distance, path_len, cells),) = self._engine.kernel_triples([x], [y])
        else:
            if self.config.use_exact_dtw:
                result = dtw(x, y)
            elif self.config.band_radius_samples is not None:
                result = dtw_banded_fast(x, y, self.config.band_radius_samples)
            else:
                result = fastdtw(x, y, radius=self.config.fastdtw_radius)
            distance, path_len, cells = result.distance, len(result.path), result.cells
        self._c_pairs.inc()
        self._c_cells.inc(cells)
        if self.config.normalize_by_path_length:
            return distance / path_len
        return distance

    def _normalise(
        self,
        now: float,
        capture: Optional[Dict[str, Any]] = None,
        inc_out: Optional[Dict[str, Any]] = None,
    ) -> Tuple[Dict[str, np.ndarray], List[str], Optional[Dict[str, bytes]], str]:
        """Cut and normalise the observation window (``normalise`` span).

        Returns ``(normalised, skipped, cache_keys, scale_tag)``.  The
        cache keys fingerprint each identity's *raw* window bytes and
        the scale tag fingerprints everything else that determines the
        normalised series, so key+tag equality implies the normalised
        series — and hence any DTW result on them — is identical.

        When ``capture`` is given (an audit sink is active), it is
        filled with the raw windows and the exact ``(mean, divisor)``
        each series was normalised with — ``(raw - mean) / divisor``
        reproduces the normalised series bit-identically (divisor 0
        marks the z-score constant-series case: all zeros).

        When ``inc_out`` is given (incremental engine mode), it is
        filled with the per-identity raw windows (``"raw"``), their
        timestamps (``"times"``, which align the overlap between
        consecutive sliding windows) and the same exact ``(mean,
        divisor)`` pairs (``"params"``) the incremental engine uses to
        map persistent raw-domain envelopes into the normalised domain.
        """
        with self._tracer.span("normalise") as span:
            window_start = now - self.config.observation_time
            windows: Dict[str, np.ndarray] = {}
            window_times: Dict[str, np.ndarray] = {}
            skipped: List[str] = []
            for identity, buffer in self._buffers.items():
                window = buffer.window(window_start, now + 1e-9)
                if len(window) < self.config.min_samples:
                    skipped.append(identity)
                    continue
                windows[identity] = window.values
                if inc_out is not None:
                    window_times[identity] = window.timestamps
            normalised: Dict[str, np.ndarray] = {}
            series_capture: Optional[Dict[str, Dict[str, Any]]] = None
            params: Dict[str, Tuple[float, float]] = {}
            if self.config.scale_mode == "median" and windows:
                sigmas = [float(np.std(v)) for v in windows.values()]
                scale = self.config.sigma_multiplier * max(
                    float(np.median(sigmas)), 1e-9
                )
                scale_tag = f"median:{scale.hex()}"
                for identity, values in windows.items():
                    mean = float(np.mean(values))
                    normalised[identity] = (values - mean) / scale
                    params[identity] = (mean, scale)
                    if capture is not None:
                        if series_capture is None:
                            series_capture = capture.setdefault("series", {})
                        series_capture[identity] = {
                            "values": values,
                            "mean": mean,
                            "divisor": scale,
                        }
            else:
                scale_tag = f"z:{float(self.config.sigma_multiplier).hex()}"
                for identity, values in windows.items():
                    normalised[identity] = zscore(
                        values, sigma_multiplier=self.config.sigma_multiplier
                    )
                    if capture is not None or inc_out is not None:
                        sigma = float(np.std(values))
                        mean = float(np.mean(values))
                        divisor = (
                            self.config.sigma_multiplier * sigma
                            if sigma >= _SIGMA_FLOOR
                            else 0.0
                        )
                        params[identity] = (mean, divisor)
                        if capture is not None:
                            if series_capture is None:
                                series_capture = capture.setdefault("series", {})
                            series_capture[identity] = {
                                "values": values,
                                "mean": mean,
                                "divisor": divisor,
                            }
            if capture is not None:
                capture["scale_tag"] = scale_tag
            keys: Optional[Dict[str, bytes]] = None
            if self._engine is not None and (
                self._engine.cache_enabled or inc_out is not None
            ):
                keys = {
                    identity: values.tobytes()
                    for identity, values in windows.items()
                }
            if inc_out is not None:
                inc_out["raw"] = windows
                inc_out["times"] = window_times
                inc_out["params"] = params
            span.set_attribute("series", len(normalised))
            span.set_attribute("skipped", len(skipped))
        return normalised, skipped, keys, scale_tag

    def compare(
        self,
        now: Optional[float] = None,
        capture: Optional[Dict[str, Any]] = None,
    ) -> Tuple[Dict[Pair, float], Tuple[str, ...], Tuple[str, ...]]:
        """Run the comparison phase only.

        Returns ``(raw_distances, compared_ids, skipped_ids)`` where the
        distances are *pre*-min–max FastDTW values on Z-scored series.
        ``capture`` is the audit evidence dict (see :meth:`_normalise`).
        """
        if now is None:
            now = self._latest
        normalised, skipped, keys, scale_tag = self._normalise(now, capture)
        with self._tracer.span("pairwise_dtw") as span:
            compared = tuple(sorted(normalised))
            cells_before = self._c_cells.value
            if self._engine is not None:
                raw, stats = self._engine.compare(normalised, keys, scale_tag)
                span.set_attribute("cache_hits", stats.cache_hits)
            else:
                raw = {}
                for idx, a in enumerate(compared):
                    for b in compared[idx + 1 :]:
                        raw[(a, b)] = self._pair_distance(
                            normalised[a], normalised[b]
                        )
            span.set_attribute("pairs", len(raw))
            span.set_attribute("cells", int(self._c_cells.value - cells_before))
        return raw, compared, tuple(sorted(skipped))

    def detect(
        self,
        density: float,
        now: Optional[float] = None,
    ) -> DetectionReport:
        """Run one full detection period (Algorithm 1).

        Args:
            density: Locally estimated traffic density, in the unit the
                threshold policy was trained with (vehicles/km for the
                paper's boundary).
            now: End of the observation window; defaults to the latest
                observed timestamp.

        Returns:
            A :class:`DetectionReport`; with fewer than two comparable
            identities the report is empty (nothing to compare).
        """
        self._check_owner()
        if density < 0:
            raise ValueError(f"density must be non-negative, got {density}")
        if now is None:
            now = self._latest if self._buffers else 0.0
        incremental = self._engine is not None and self._engine.can_incremental
        pruning = self._engine is not None and self._engine.can_prune
        sink = default_audit_log()
        capture: Optional[Dict[str, Any]] = {} if sink is not None else None
        if self._engine is not None:
            self._engine.record_provenance = sink is not None
        stopwatch = Stopwatch(self._h_detect_ms)
        with self._tracer.span("detection", density=float(density)) as root, \
                stopwatch:
            if incremental:
                assert self._engine is not None
                # Incremental comparison: per-identity envelope states
                # slide with the window, unchanged pairs carry the
                # previous period's exact distance, and bound-undecided
                # pairs run early-abandon DTW seeded with the decision
                # boundary.  Flags stay byte-identical to the exact
                # path; surrogate distances appear only for pairs whose
                # windows overlapped the previous period (DESIGN.md §5f).
                inc_state: Dict[str, Any] = {}
                normalised, skipped_list, keys, scale_tag = self._normalise(
                    now, capture, inc_out=inc_state
                )
                assert keys is not None
                compared = tuple(sorted(normalised))
                skipped = tuple(sorted(skipped_list))
                cutoff = self.threshold.threshold_at(density)
                with self._tracer.span("pairwise_dtw") as span:
                    cells_before = self._c_cells.value
                    raw, flags, stats = self._engine.compare_incremental(
                        normalised,
                        inc_state["raw"],
                        inc_state["times"],
                        keys,
                        scale_tag,
                        inc_state["params"],
                        float(cutoff),
                        self.config.threshold_on,
                    )
                    span.set_attribute("pairs", len(raw))
                    span.set_attribute("cells", int(self._c_cells.value - cells_before))
                    span.set_attribute("pruned", stats.pruned)
                    span.set_attribute("cache_hits", stats.cache_hits)
                    span.set_attribute("incremental", stats.incremental)
                    span.set_attribute("abandoned", stats.abandoned)
                with self._tracer.span("minmax"):
                    distances = minmax_distances(raw)
                with self._tracer.span("threshold") as span:
                    sybil_pairs = tuple(
                        pair for pair in sorted(flags) if flags[pair]
                    )
                    sybil_ids = frozenset(
                        identity for pair in sybil_pairs for identity in pair
                    )
                    span.set_attribute("threshold", float(cutoff))
                    span.set_attribute("flagged", len(sybil_ids))
            elif pruning:
                assert self._engine is not None
                # Threshold-aware comparison: the engine decides pairs
                # from the bound cascade wherever the bounds cannot
                # change the flagged set, so the spans below see
                # surrogate distances for pruned pairs (bit-identical
                # flags, see DESIGN.md).
                normalised, skipped_list, keys, scale_tag = self._normalise(
                    now, capture
                )
                compared = tuple(sorted(normalised))
                skipped = tuple(sorted(skipped_list))
                cutoff = self.threshold.threshold_at(density)
                with self._tracer.span("pairwise_dtw") as span:
                    cells_before = self._c_cells.value
                    raw, flags, stats = self._engine.compare_decided(
                        normalised,
                        keys,
                        scale_tag,
                        float(cutoff),
                        self.config.threshold_on,
                    )
                    span.set_attribute("pairs", len(raw))
                    span.set_attribute("cells", int(self._c_cells.value - cells_before))
                    span.set_attribute("pruned", stats.pruned)
                    span.set_attribute("cache_hits", stats.cache_hits)
                with self._tracer.span("minmax"):
                    distances = minmax_distances(raw)
                with self._tracer.span("threshold") as span:
                    sybil_pairs = tuple(
                        pair for pair in sorted(flags) if flags[pair]
                    )
                    sybil_ids = frozenset(
                        identity for pair in sybil_pairs for identity in pair
                    )
                    span.set_attribute("threshold", float(cutoff))
                    span.set_attribute("flagged", len(sybil_ids))
            else:
                raw, compared, skipped = self.compare(now=now, capture=capture)
                with self._tracer.span("minmax"):
                    distances = minmax_distances(raw)
                with self._tracer.span("threshold") as span:
                    cutoff = self.threshold.threshold_at(density)
                    judged = (
                        distances if self.config.threshold_on == "normalized" else raw
                    )
                    sybil_pairs = tuple(
                        pair for pair, d in sorted(judged.items()) if d <= cutoff
                    )
                    sybil_ids = frozenset(
                        identity for pair in sybil_pairs for identity in pair
                    )
                    span.set_attribute("threshold", float(cutoff))
                    span.set_attribute("flagged", len(sybil_ids))
            judged = (
                distances if self.config.threshold_on == "normalized" else raw
            )
            epsilon = get_near_miss_epsilon()
            margins: Dict[Pair, float] = {}
            for pair, distance in judged.items():
                margin = signed_margin(distance, float(cutoff))
                margins[pair] = margin
                self._h_margin.observe(margin)
                self._h_margin_abs.observe(abs(margin))
                if abs(margin) < epsilon:
                    self._c_near_miss.inc()
            root.set_attribute("compared", len(compared))
            root.set_attribute("flagged", len(sybil_ids))
        report = DetectionReport(
            timestamp=float(now),
            density=float(density),
            threshold=float(cutoff),
            raw_distances=raw,
            distances=distances,
            sybil_pairs=sybil_pairs,
            sybil_ids=sybil_ids,
            compared_ids=compared,
            skipped_ids=skipped,
            margins=margins,
        )
        if sink is not None:
            observer, period = get_audit_context()
            if self.audit_identity is not None:
                # Serve-mode stamp: shard threads run many detectors
                # concurrently, so the process-global context would
                # race; the instance-level identity cannot.
                observer = self.audit_identity
                period = self._audit_period
            # The audit_write span makes evidence-persistence cost
            # visible in the trace decomposition (lineage folds it into
            # the audit_write sub-stage of detect).
            with self._tracer.span("audit_write"):
                sink.record_detection(
                    make_detection_bundle(
                        report=report,
                        config=self.config,
                        scale_tag=(capture or {}).get("scale_tag", ""),
                        series=(capture or {}).get("series", {}),
                        provenance=(
                            self._engine.last_provenance
                            if self._engine is not None
                            else None
                        ),
                        observer=observer,
                        period=period,
                        store_windows=sink.store_windows,
                        correlation_id=current_correlation_id(),
                    )
                )
        self._audit_period += 1
        if self._health is not None:
            self._health.on_report(report, stopwatch.elapsed_ms or 0.0)
        if _log.isEnabledFor(10):  # DEBUG: skip summary() cost otherwise
            _log.debug("detection complete", extra={"report": report.summary()})
        return report

    def reset(self) -> None:
        """Drop all collection buffers and incremental state (fresh start)."""
        self._check_owner()
        self._buffers.clear()
        self._latest = float("-inf")
        self._next_sweep_t = float("-inf")
        if self._engine is not None:
            self._engine.clear_incremental()
