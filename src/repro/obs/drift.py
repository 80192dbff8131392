"""Quality-drift detection and SLO burn-rate alerting.

Voiceprint's verdicts are threshold crossings on DTW distance, so the
detector degrades *silently* when the environment shifts: the paper's
Fig. 14 stop-at-traffic-light case is a margin-distribution drift that
shows up long before accuracy collapses.  This module watches the
Snapshotter's per-tick records for exactly that class of failure:

* :class:`CusumDetector` — two-sided standardized CUSUM.  A warmup
  window establishes the signal's reference mean/std; afterwards each
  sample's z-score feeds the classic ``g+ / g-`` accumulators and a
  persistent mean shift of a fraction of a sigma trips within a few
  ticks, while zero-mean noise never accumulates.
* :class:`PageHinkleyDetector` — the Page–Hinkley test on the same
  standardized stream; less reactive than CUSUM but robust to slow
  ramps that never produce a step.
* :class:`SLOSpec` / :class:`DriftMonitor` — declarative service-level
  objectives over any snapshot-derived value (a gauge, a counter rate,
  a histogram quantile) with Google-SRE-style **multi-window
  error-budget burn rates**: a tick violating the objective spends
  budget, ``burn = bad_fraction / budget``, and an alert needs both
  the short and the long window burning — transient noise cannot spend
  its way into an alert, a sustained breach cannot hide.

:class:`DriftMonitor.observe` consumes one Snapshotter tick record,
updates every detector and SLO, publishes ``drift.*`` / ``slo.*``
gauges into the metrics registry (and hence Prometheus), and routes
alerts through :meth:`HealthMonitor.notify` as the two new alert kinds
``metric_drift`` and ``slo_burn`` — so the flight recorder, the
``/health`` endpoint, and the end-of-run summary all see drift exactly
like any other health breach.  Nothing runs unless a monitor is
constructed and wired into a Snapshotter (``--watch-record`` does
both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, default_registry

__all__ = [
    "CusumDetector",
    "PageHinkleyDetector",
    "SLOSpec",
    "DriftMonitor",
    "default_slos",
    "WATCHED_SIGNALS",
]


class CusumDetector:
    """Two-sided standardized CUSUM change detector.

    Args:
        k: Slack per sample in sigmas — shifts smaller than ``k·σ``
           never accumulate (classic tuning: half the shift you care
           to catch).
        h: Decision threshold in accumulated sigmas.
        warmup: Samples used to estimate the reference mean/std before
            scoring starts (Welford, exact).
        min_std: Floor for the reference std so a constant warmup
            doesn't divide by zero (any later change then trips).
    """

    def __init__(
        self,
        k: float = 0.5,
        h: float = 6.0,
        warmup: int = 12,
        min_std: float = 1e-9,
    ) -> None:
        if warmup < 2:
            raise ValueError(f"warmup must be >= 2, got {warmup}")
        if k < 0 or h <= 0:
            raise ValueError(f"bad CUSUM tuning k={k}, h={h}")
        self.k = float(k)
        self.h = float(h)
        self.warmup = int(warmup)
        self.min_std = float(min_std)
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.g_pos = 0.0
        self.g_neg = 0.0
        self.trips = 0

    @property
    def mean(self) -> float:
        """Reference mean (frozen once warmup completes)."""
        return self._mean

    @property
    def std(self) -> float:
        """Reference std (floored; frozen once warmup completes)."""
        if self.n < 2:
            return self.min_std
        return max(math.sqrt(self._m2 / (self.n - 1)), self.min_std)

    @property
    def score(self) -> float:
        """Current evidence: ``max(g+, g-)`` in accumulated sigmas."""
        return max(self.g_pos, self.g_neg)

    def update(self, value: float) -> bool:
        """Feed one sample; True when the detector trips on it.

        A trip re-arms the accumulators (the reference stays frozen),
        so a persisting shift fires again after ``~h/|z|`` more ticks
        instead of alerting every tick.
        """
        value = float(value)
        if not math.isfinite(value):
            return False
        if self.n < self.warmup:
            self.n += 1
            delta = value - self._mean
            self._mean += delta / self.n
            self._m2 += delta * (value - self._mean)
            return False
        z = (value - self._mean) / self.std
        self.g_pos = max(0.0, self.g_pos + z - self.k)
        self.g_neg = max(0.0, self.g_neg - z - self.k)
        if self.g_pos > self.h or self.g_neg > self.h:
            self.trips += 1
            self.g_pos = 0.0
            self.g_neg = 0.0
            return True
        return False


class PageHinkleyDetector:
    """Two-sided Page–Hinkley test on the standardized stream.

    Args:
        delta: Tolerated drift per sample (sigmas).
        lambda_: Decision threshold (accumulated sigmas).
        warmup: Reference-estimation window, as in
            :class:`CusumDetector`.
    """

    def __init__(
        self,
        delta: float = 0.05,
        lambda_: float = 12.0,
        warmup: int = 12,
        min_std: float = 1e-9,
    ) -> None:
        if warmup < 2:
            raise ValueError(f"warmup must be >= 2, got {warmup}")
        if delta < 0 or lambda_ <= 0:
            raise ValueError(f"bad PH tuning delta={delta}, lambda={lambda_}")
        self.delta = float(delta)
        self.lambda_ = float(lambda_)
        self.warmup = int(warmup)
        self.min_std = float(min_std)
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._cum = 0.0
        self._cum_min = 0.0
        self._cum_max = 0.0
        self.trips = 0

    @property
    def std(self) -> float:
        if self.n < 2:
            return self.min_std
        return max(math.sqrt(self._m2 / (self.n - 1)), self.min_std)

    @property
    def score(self) -> float:
        """Current evidence: deviation from the running extremum."""
        return max(self._cum - self._cum_min, self._cum_max - self._cum)

    def update(self, value: float) -> bool:
        """Feed one sample; True when the test trips on it."""
        value = float(value)
        if not math.isfinite(value):
            return False
        if self.n < self.warmup:
            self.n += 1
            delta = value - self._mean
            self._mean += delta / self.n
            self._m2 += delta * (value - self._mean)
            return False
        z = (value - self._mean) / self.std
        self._cum += z - self.delta
        self._cum_min = min(self._cum_min, self._cum)
        self._cum_max = max(self._cum_max, self._cum)
        if self.score > self.lambda_:
            self.trips += 1
            self._cum = self._cum_min = self._cum_max = 0.0
            return True
        return False


# ----------------------------------------------------------------------
# Snapshot-record signal extraction
# ----------------------------------------------------------------------
def _gauge(record: Dict[str, Any], name: str) -> Optional[float]:
    return record.get("gauges", {}).get(name)


def _counter_rate(record: Dict[str, Any], name: str) -> Optional[float]:
    entry = record.get("counters", {}).get(name)
    return entry.get("rate") if entry else None


def _hist_tick_mean(record: Dict[str, Any], name: str) -> Optional[float]:
    summary = record.get("histograms", {}).get(name)
    if not summary:
        return None
    count_delta = summary.get("count_delta") or 0
    sum_delta = summary.get("sum_delta")
    if count_delta <= 0 or sum_delta is None:
        return None
    return sum_delta / count_delta


def _beacon_interarrival(record: Dict[str, Any]) -> Optional[float]:
    rate = _counter_rate(record, "detector.beacons_observed")
    if rate is None or rate <= 0:
        return None
    return 1.0 / rate


#: Signal name -> extractor over one Snapshotter tick record.  These
#: are the paper-grounded drift surfaces: the signed margin mean (the
#: Fig. 14 stop-at-light failure collapses it toward the threshold),
#: the near-miss rate (fragile verdicts), and beacon inter-arrival (a
#: Collection-phase stall or flood).
WATCHED_SIGNALS = {
    "margin_mean": lambda record: _hist_tick_mean(
        record, "pipeline.margin.signed"
    ),
    "near_miss_rate": lambda record: _gauge(
        record, "rate.margin_near_miss_rate"
    ),
    "beacon_interarrival_s": _beacon_interarrival,
    # Serve-only (absent ⇒ skipped): queue wait is the first stage to
    # drift when shards fall behind the offered load — lineage's stage
    # decomposition makes it a first-class signal instead of a guess
    # from the end-to-end latency histogram.
    "serve_queue_wait_ms": lambda record: _hist_tick_mean(
        record, "serve.stage.queue_wait_ms"
    ),
}


# ----------------------------------------------------------------------
# SLOs with multi-window burn rates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    Attributes:
        name: Short identifier used in gauges and alerts.
        metric: Where the per-tick value comes from: a gauge name, a
            ``rate:<counter>`` counter rate, or a
            ``hist:<name>:<p50|p95|p99|tick_mean>`` histogram read.
        max_value: Objective ceiling (a tick above it spends budget).
        min_value: Objective floor (either bound may be set).
        budget: Allowed bad-tick fraction (the error budget).
        short_window: Fast-burn window, in ticks.
        long_window: Slow-burn window, in ticks.
        burn_threshold: Alert when *both* windows burn at or above
            this multiple of the budget.
    """

    name: str
    metric: str
    max_value: Optional[float] = None
    min_value: Optional[float] = None
    budget: float = 0.1
    short_window: int = 5
    long_window: int = 30
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.max_value is None and self.min_value is None:
            raise ValueError(f"SLO {self.name!r} needs max= or min=")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(
                f"SLO {self.name!r}: budget must be in (0, 1], "
                f"got {self.budget}"
            )
        if self.short_window < 1 or self.long_window < self.short_window:
            raise ValueError(
                f"SLO {self.name!r}: want 1 <= short <= long, got "
                f"{self.short_window}/{self.long_window}"
            )
        if self.burn_threshold <= 0:
            raise ValueError(
                f"SLO {self.name!r}: burn threshold must be positive"
            )

    #: CLI spelling -> field name for :meth:`from_spec`.
    _ALIASES = {
        "max": "max_value",
        "min": "min_value",
        "short": "short_window",
        "long": "long_window",
        "burn": "burn_threshold",
    }

    @classmethod
    def from_spec(cls, spec: str) -> "SLOSpec":
        """Parse a CLI spec like
        ``near_miss:metric=rate.margin_near_miss_rate,max=0.2,budget=0.1``.

        The part before the first ``:`` is the name; the rest is
        ``key=value`` pairs using the field names or the short aliases
        ``max``/``min``/``short``/``long``/``burn``.
        """
        name, separator, rest = spec.partition(":")
        name = name.strip()
        if not separator or not name:
            raise ValueError(
                f"bad SLO spec {spec!r} (want name:key=value,...)"
            )
        kwargs: Dict[str, Any] = {"name": name}
        ints = {"short_window", "long_window"}
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad SLO entry {part!r} in {spec!r} (want key=value)"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            field_name = cls._ALIASES.get(key, key)
            if field_name == "metric":
                kwargs["metric"] = raw.strip()
                continue
            if field_name not in {
                "max_value",
                "min_value",
                "budget",
                "short_window",
                "long_window",
                "burn_threshold",
            }:
                raise ValueError(f"unknown SLO key {key!r} in {spec!r}")
            try:
                kwargs[field_name] = (
                    int(raw) if field_name in ints else float(raw)
                )
            except ValueError as error:
                raise ValueError(
                    f"bad value for SLO key {key!r}: {raw!r}"
                ) from error
        if "metric" not in kwargs:
            raise ValueError(f"SLO spec {spec!r} needs metric=...")
        return cls(**kwargs)

    def read(self, record: Dict[str, Any]) -> Optional[float]:
        """Extract this SLO's per-tick value from a snapshot record."""
        if self.metric.startswith("rate:"):
            return _counter_rate(record, self.metric[len("rate:"):])
        if self.metric.startswith("hist:"):
            _, _, rest = self.metric.partition(":")
            name, _, stat = rest.rpartition(":")
            if not name:
                raise ValueError(
                    f"SLO {self.name!r}: bad histogram metric "
                    f"{self.metric!r} (want hist:<name>:<stat>)"
                )
            if stat == "tick_mean":
                return _hist_tick_mean(record, name)
            summary = record.get("histograms", {}).get(name)
            return summary.get(stat) if summary else None
        return _gauge(record, self.metric)

    def violated(self, value: float) -> bool:
        """Does one tick's value spend error budget?"""
        if self.max_value is not None and value > self.max_value:
            return True
        if self.min_value is not None and value < self.min_value:
            return True
        return False


def default_slos() -> Tuple[SLOSpec, ...]:
    """The stock objectives ``--watch-record`` arms when no ``--slo``
    is given: p99 detect latency, near-miss rate, flagged-pair rate,
    and (serve runs with lineage only — the metric is absent
    otherwise, so the objective self-disarms) p99 queue wait."""
    return (
        SLOSpec(
            name="detect_p99_ms",
            metric="hist:detector.detect_ms:p99",
            max_value=250.0,
        ),
        SLOSpec(
            name="near_miss_rate",
            metric="rate.margin_near_miss_rate",
            max_value=0.2,
        ),
        SLOSpec(
            name="flagged_pair_rate",
            metric="health.flagged_pair_rate",
            max_value=0.5,
        ),
        SLOSpec(
            name="serve_queue_wait_p99_ms",
            metric="hist:serve.stage.queue_wait_ms:p99",
            max_value=250.0,
        ),
    )


@dataclass
class _SLOState:
    spec: SLOSpec
    short: Deque[bool] = field(default_factory=deque)
    long: Deque[bool] = field(default_factory=deque)

    def __post_init__(self) -> None:
        self.short = deque(maxlen=self.spec.short_window)
        self.long = deque(maxlen=self.spec.long_window)

    def update(self, bad: bool) -> Tuple[float, float, bool]:
        """Returns ``(short burn, long burn, alerting)``."""
        self.short.append(bad)
        self.long.append(bad)
        burn_short = (
            sum(self.short) / len(self.short) / self.spec.budget
        )
        burn_long = sum(self.long) / len(self.long) / self.spec.budget
        alerting = (
            len(self.short) == self.spec.short_window
            and burn_short >= self.spec.burn_threshold
            and burn_long >= self.spec.burn_threshold
        )
        return burn_short, burn_long, alerting


class DriftMonitor:
    """Per-tick drift detectors + SLO burn rates over snapshot records.

    Args:
        registry: Registry the ``drift.*`` / ``slo.*`` gauges and the
            ``drift.trips`` / ``slo.burn_alerts`` counters live in
            (default: process-global).
        health: Optional :class:`~repro.obs.health.HealthMonitor`;
            trips and burns route through :meth:`~HealthMonitor.notify`
            as ``metric_drift`` / ``slo_burn`` alerts.
        signals: Signal name -> extractor map (default:
            :data:`WATCHED_SIGNALS`).
        slos: Objectives to evaluate (default: :func:`default_slos`).
        cusum: Template detector cloned per signal (tuning knobs).
        page_hinkley: Template detector cloned per signal; None
            disables the PH side.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        health: Optional[Any] = None,
        signals: Optional[Dict[str, Any]] = None,
        slos: Optional[Sequence[SLOSpec]] = None,
        cusum: Optional[CusumDetector] = None,
        page_hinkley: Optional[PageHinkleyDetector] = None,
    ) -> None:
        self._registry = (
            registry if registry is not None else default_registry()
        )
        self._health = health
        self._signals = dict(
            WATCHED_SIGNALS if signals is None else signals
        )
        self._cusum_template = cusum if cusum is not None else CusumDetector()
        self._ph_template = (
            page_hinkley if page_hinkley is not None else PageHinkleyDetector()
        )
        self._cusum: Dict[str, CusumDetector] = {}
        self._ph: Dict[str, PageHinkleyDetector] = {}
        self._slo_states = [
            _SLOState(spec)
            for spec in (default_slos() if slos is None else slos)
        ]
        self.ticks = 0
        self.alerts: List[Dict[str, Any]] = []
        self._c_trips = self._registry.counter("drift.trips")
        self._c_burns = self._registry.counter("slo.burn_alerts")

    @property
    def slos(self) -> Tuple[SLOSpec, ...]:
        """The objectives this monitor evaluates."""
        return tuple(state.spec for state in self._slo_states)

    def _clone_cusum(self) -> CusumDetector:
        template = self._cusum_template
        return CusumDetector(
            k=template.k,
            h=template.h,
            warmup=template.warmup,
            min_std=template.min_std,
        )

    def _clone_ph(self) -> PageHinkleyDetector:
        template = self._ph_template
        return PageHinkleyDetector(
            delta=template.delta,
            lambda_=template.lambda_,
            warmup=template.warmup,
            min_std=template.min_std,
        )

    def _emit(
        self, kind: str, message: str, t: float, value: float, threshold: float
    ) -> None:
        record = {
            "kind": kind,
            "message": message,
            "t": t,
            "value": value,
            "threshold": threshold,
        }
        self.alerts.append(record)
        if self._health is not None:
            self._health.notify(
                kind, message, t=t, value=value, threshold=threshold
            )

    def observe(self, record: Dict[str, Any], t: float) -> List[Dict[str, Any]]:
        """Fold one Snapshotter tick in; returns alerts fired on it."""
        fired_before = len(self.alerts)
        self.ticks += 1
        for signal, extract in self._signals.items():
            value = extract(record)
            if value is None:
                continue
            cusum = self._cusum.get(signal)
            if cusum is None:
                cusum = self._cusum[signal] = self._clone_cusum()
                self._ph[signal] = self._clone_ph()
            ph = self._ph[signal]
            cusum_tripped = cusum.update(value)
            ph_tripped = ph.update(value)
            self._registry.gauge(f"drift.{signal}.cusum").set(cusum.score)
            self._registry.gauge(f"drift.{signal}.page_hinkley").set(ph.score)
            if cusum_tripped:
                self._c_trips.inc()
                self._emit(
                    "metric_drift",
                    f"CUSUM drift on {signal}: value {value:.4g} vs "
                    f"reference {cusum.mean:.4g}±{cusum.std:.2g}",
                    t=t,
                    value=value,
                    threshold=cusum.h,
                )
            if ph_tripped:
                self._c_trips.inc()
                self._emit(
                    "metric_drift",
                    f"Page-Hinkley drift on {signal}: value {value:.4g} "
                    f"vs reference {ph._mean:.4g}±{ph.std:.2g}",
                    t=t,
                    value=value,
                    threshold=ph.lambda_,
                )
        for state in self._slo_states:
            spec = state.spec
            value = spec.read(record)
            if value is None:
                continue
            burn_short, burn_long, alerting = state.update(
                spec.violated(value)
            )
            self._registry.gauge(f"slo.{spec.name}.burn_short").set(burn_short)
            self._registry.gauge(f"slo.{spec.name}.burn_long").set(burn_long)
            if alerting:
                self._c_burns.inc()
                self._emit(
                    "slo_burn",
                    f"SLO {spec.name} burning {burn_short:.1f}x budget "
                    f"(short) / {burn_long:.1f}x (long) — latest "
                    f"{value:.4g} vs objective "
                    f"{spec.max_value if spec.max_value is not None else spec.min_value:g}",
                    t=t,
                    value=burn_short,
                    threshold=spec.burn_threshold,
                )
        return self.alerts[fired_before:]
