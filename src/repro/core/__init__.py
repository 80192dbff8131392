"""Core Voiceprint algorithm: time series, DTW, LDA threshold, detector."""

from .confirmation import MultiPeriodConfirmer
from .density import DensityEstimator, linear_density
from .detector import DetectionReport, DetectorConfig, VoiceprintDetector
from .distances import (
    chebyshev_distance,
    euclidean_distance,
    lp_distance,
    manhattan_distance,
)
from .dtw import DTWResult, dtw, dtw_banded, dtw_distance
from .fastdtw import fastdtw, fastdtw_distance
from .lda import DecisionLine, LDAModel, fit_decision_line, fit_lda
from .normalization import enhanced_zscore, minmax, minmax_distances, zscore
from .pairwise import PairwiseEngine, PairwiseStats, dtw_banded_batch
from .pipeline import OnlineVoiceprint, OnlineVoiceprintConfig
from .thresholds import (
    PAPER_FIELD_THRESHOLD,
    PAPER_INTERCEPT,
    PAPER_SLOPE,
    ConstantThreshold,
    LinearThreshold,
    ThresholdPolicy,
)
from .timeseries import RSSISample, RSSITimeSeries, merge_series

__all__ = [
    "MultiPeriodConfirmer",
    "DensityEstimator",
    "linear_density",
    "DetectionReport",
    "DetectorConfig",
    "VoiceprintDetector",
    "chebyshev_distance",
    "euclidean_distance",
    "lp_distance",
    "manhattan_distance",
    "DTWResult",
    "dtw",
    "dtw_banded",
    "dtw_distance",
    "fastdtw",
    "fastdtw_distance",
    "DecisionLine",
    "LDAModel",
    "fit_decision_line",
    "fit_lda",
    "enhanced_zscore",
    "minmax",
    "minmax_distances",
    "zscore",
    "PairwiseEngine",
    "PairwiseStats",
    "dtw_banded_batch",
    "OnlineVoiceprint",
    "OnlineVoiceprintConfig",
    "PAPER_FIELD_THRESHOLD",
    "PAPER_INTERCEPT",
    "PAPER_SLOPE",
    "ConstantThreshold",
    "LinearThreshold",
    "ThresholdPolicy",
    "RSSISample",
    "RSSITimeSeries",
    "merge_series",
]
