"""The online Voiceprint pipeline — the piece an OBU would actually run.

:class:`VoiceprintDetector` is deliberately low-level: it holds buffers
and answers "detect now at this density".  A deployed system also has
to *schedule* detections, estimate the density itself (Eq. 9), and
apply the paper's multi-period confirmation before acting on a flag.
:class:`OnlineVoiceprint` wires those pieces behind two calls:

    pipeline = OnlineVoiceprint(max_range_m=650.0)
    for beacon in radio:
        report = pipeline.on_beacon(beacon.identity, beacon.t, beacon.rssi)
        if report is not None:                 # a detection period elapsed
            act_on(pipeline.confirmed_sybils)  # debounced verdicts

Detections fire automatically once per detection period (driven by the
beacon timestamps — an OBU has no other clock worth trusting); density
estimation periods roll independently, and confirmed verdicts require a
majority of recent periods, which prunes red-light-style transients
(paper Section VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from ..obs.health import HealthMonitor, default_monitor
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.trace import Tracer, default_tracer
from .confirmation import MultiPeriodConfirmer
from .density import DensityEstimator
from .detector import DetectionReport, DetectorConfig, VoiceprintDetector
from .thresholds import LinearThreshold, ThresholdPolicy

__all__ = ["OnlineVoiceprintConfig", "OnlineVoiceprint"]

_log = get_logger("core.pipeline")


@dataclass(frozen=True)
class OnlineVoiceprintConfig:
    """Scheduling parameters of the online pipeline (Table V defaults).

    Attributes:
        detection_period_s: Seconds between detections (20 s).
        density_period_s: Density-estimation period (10 s).
        warmup_s: No detection before this much observation has
            accumulated (defaults to the detector's observation time).
        confirmation_window: Detection periods in the confirmation vote.
        confirmation_min_flags: Flags needed within the window
            (0 → strict majority).
    """

    detection_period_s: float = 20.0
    density_period_s: float = 10.0
    warmup_s: Optional[float] = None
    confirmation_window: int = 3
    confirmation_min_flags: int = 0

    def __post_init__(self) -> None:
        if self.detection_period_s <= 0:
            raise ValueError(
                f"detection period must be positive, got {self.detection_period_s}"
            )
        if self.density_period_s <= 0:
            raise ValueError(
                f"density period must be positive, got {self.density_period_s}"
            )
        if self.warmup_s is not None and self.warmup_s < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup_s}")


class OnlineVoiceprint:
    """Streaming Sybil detection for one vehicle.

    Args:
        max_range_m: Maximum transmission range for Eq. 9's density
            denominator.
        threshold: Confirmation threshold policy (trained line).
        detector_config: Comparison-phase tunables.
        config: Scheduling and confirmation parameters.
        registry: Metrics registry (default: the process-global one,
            a no-op until observability is configured).
        tracer: Span tracer, forwarded to the detector.
        health: Streaming health monitor fed every beacon (staleness
            watchdog) and every detection report (latency / flag-rate /
            density windows).  Defaults to the process-global monitor
            installed via :func:`repro.obs.set_default_monitor` — which
            is None unless telemetry is configured, keeping the
            unmonitored fast path at a single None check.
    """

    def __init__(
        self,
        max_range_m: float,
        threshold: Optional[ThresholdPolicy] = None,
        detector_config: Optional[DetectorConfig] = None,
        config: Optional[OnlineVoiceprintConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.config = config or OnlineVoiceprintConfig()
        metrics = registry if registry is not None else default_registry()
        self._c_periods = metrics.counter("pipeline.detection_periods")
        self._g_density = metrics.gauge("pipeline.density_vhls_per_km")
        self._g_confirmed = metrics.gauge("pipeline.confirmed_sybils")
        self._tracer = tracer if tracer is not None else default_tracer()
        self._health = health if health is not None else default_monitor()
        # The detector feeds the monitor itself (beat per beacon,
        # on_report per detection), so the pipeline only passes it down.
        self.detector = VoiceprintDetector(
            threshold=threshold or LinearThreshold(),
            config=detector_config,
            registry=metrics,
            tracer=self._tracer,
            health=self._health,
        )
        self.estimator = DensityEstimator(max_range_m=max_range_m)
        self.confirmer = MultiPeriodConfirmer(
            window=self.config.confirmation_window,
            min_flags=self.config.confirmation_min_flags,
        )
        self._first_beacon_t: Optional[float] = None
        self._next_detection_t: Optional[float] = None
        self._next_density_t: Optional[float] = None
        self._density_per_km: float = 0.0
        self._reports: List[DetectionReport] = []
        self._confirmed: FrozenSet[str] = frozenset()

    # ------------------------------------------------------------------
    @property
    def confirmed_sybils(self) -> FrozenSet[str]:
        """Identities confirmed over the multi-period vote."""
        return self._confirmed

    @property
    def last_report(self) -> Optional[DetectionReport]:
        """The most recent detection period's report."""
        return self._reports[-1] if self._reports else None

    @property
    def reports(self) -> List[DetectionReport]:
        """All detection reports so far (oldest first)."""
        return list(self._reports)

    @property
    def current_density_vhls_per_km(self) -> float:
        """The density estimate the next detection will use."""
        return self._density_per_km

    @property
    def pairwise_stats(self):
        """Cumulative pairwise-engine work accounting
        (``repro.core.pairwise.PairwiseStats``: pairs, kernel runs, DP
        cells relaxed)."""
        return self.detector.pairwise_stats

    # ------------------------------------------------------------------
    def on_beacon(
        self, identity: str, timestamp: float, rssi_dbm: float
    ) -> Optional[DetectionReport]:
        """Feed one received beacon; returns a report when a period fires.

        Beacons must arrive in non-decreasing timestamp order (a single
        radio's log always does).
        """
        self.detector.observe(identity, timestamp, rssi_dbm)
        self.estimator.hear(identity)

        if self._first_beacon_t is None:
            self._first_beacon_t = timestamp
            warmup = (
                self.config.warmup_s
                if self.config.warmup_s is not None
                else self.detector.config.observation_time
            )
            self._next_detection_t = timestamp + max(
                warmup, self.config.detection_period_s
            )
            self._next_density_t = timestamp + self.config.density_period_s
            # Seed the density with something sane before the first
            # period completes.
            self._density_per_km = 0.0

        assert self._next_density_t is not None
        while timestamp >= self._next_density_t:
            self._density_per_km = self.estimator.estimate() * 1000.0
            self._g_density.set(self._density_per_km)
            self.estimator.reset_period()
            self._next_density_t += self.config.density_period_s

        assert self._next_detection_t is not None
        if timestamp >= self._next_detection_t:
            report = self._detect(self._next_detection_t)
            self._next_detection_t += self.config.detection_period_s
            return report
        return None

    def _detect(self, now: float) -> DetectionReport:
        density = self._density_per_km
        if density == 0.0:
            # First period before any density estimate completed: use
            # what has been heard so far (the paper's bootstrap rule).
            density = self.estimator.estimate() * 1000.0
            self.estimator.reset_period()
        report = self.detector.detect(density=density, now=now)
        self._reports.append(report)
        with self._tracer.span("confirmation") as span:
            self._confirmed = self.confirmer.update(report)
            span.set_attribute("confirmed", len(self._confirmed))
        for identity in report.sybil_ids:
            self.estimator.mark_illegitimate(identity)
        self._c_periods.inc()
        self._g_confirmed.set(len(self._confirmed))
        if self._confirmed:
            _log.info(
                "sybil identities confirmed",
                extra={
                    "t": report.timestamp,
                    "confirmed": ",".join(sorted(self._confirmed)),
                },
            )
        return report

    def force_detection(self, now: float) -> DetectionReport:
        """Run a detection immediately (e.g. on an application trigger)."""
        return self._detect(now)

    def reset(self) -> None:
        """Forget everything (new trip).

        Everything includes the density estimator's illegitimate-identity
        set and its first-estimate bootstrap flag: verdicts from the
        previous trip must not silently bias the new trip's density
        estimates.
        """
        self.detector.reset()
        self.confirmer.reset()
        self.estimator.reset()
        self._first_beacon_t = None
        self._next_detection_t = None
        self._next_density_t = None
        self._density_per_km = 0.0
        self._reports.clear()
        self._confirmed = frozenset()
