"""Tests for the ragged banded-DTW kernel and its native C backend.

``repro.core.native`` compiles a scalar anti-diagonal kernel at runtime
that takes a *ragged* batch (per-pair lengths, band built in C), and
``dtw_banded_batch_abandon`` sends each batch to it in one call when
available.  The contract under test is *bit-identity*: distances, path
lengths and relaxed-cell counts must match the numpy per-shape sweep
and :func:`dtw_banded_fast` exactly, so the dispatch is invisible to
every caller.  Native-specific tests skip cleanly on machines without a
C toolchain; the numpy-path tests run everywhere.
"""

import contextlib
import dataclasses
import os
import subprocess
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core import pairwise
from repro.core.fastdtw import dtw_banded_fast
from repro.core.pairwise import PairwiseEngine, dtw_banded_batch_abandon
from repro.obs.metrics import MetricsRegistry

needs_native = pytest.mark.skipif(
    not native.native_available(), reason="no C toolchain on this machine"
)


def _batch(seed, count=8, n=120, m=120, sybil=3):
    """Random series batch with a few near-duplicate (cheap) pairs."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=max(n, m))
    xs, ys = [], []
    for index in range(count):
        if index < sybil:
            xs.append(base[:n] + rng.normal(scale=0.05, size=n))
            ys.append(base[:m] + rng.normal(scale=0.05, size=m))
        else:
            xs.append(rng.normal(size=n))
            ys.append(rng.normal(size=m))
    return xs, ys


def _force_numpy(monkeypatch):
    """Route dtw_banded_batch_abandon through the numpy fallback."""
    monkeypatch.setattr(pairwise, "abandon_batch_native", lambda *args: None)


class TestGating:
    def test_env_var_disables_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(native, "_lib", native._UNSET)
        assert not native.native_available()
        assert not native.warmup()
        assert (
            native.abandon_batch_native(
                np.asarray([[0, 5, 5, 5]], dtype=np.int64), np.ones(10), 2
            )
            is None
        )

    def test_warmup_reports_availability(self):
        assert native.warmup() == native.native_available()

    @needs_native
    def test_compile_leaves_only_the_library(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        assert native._compile() is not None
        assert [p.name for p in tmp_path.iterdir()] == [
            f"repro-native-{native._source_tag()}.so"
        ]

    def test_failed_compile_leaves_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)

        def broken_cc(*args, **kwargs):
            raise subprocess.CalledProcessError(1, args[0])

        monkeypatch.setattr(native.subprocess, "run", broken_cc)
        assert native._compile() is None
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "kwargs,warmed",
        [
            ({"band_radius": 10}, True),
            ({"band_radius": 0}, True),
            ({"band_radius": None}, False),
            ({"band_radius": 10, "use_exact_dtw": True}, False),
        ],
    )
    def test_banded_engines_warm_up_at_construction(self, monkeypatch, kwargs, warmed):
        calls = []
        monkeypatch.setattr(pairwise, "native_warmup", lambda: calls.append(1))
        PairwiseEngine(registry=MetricsRegistry(), **kwargs)
        assert calls == ([1] if warmed else [])

    @needs_native
    @pytest.mark.parametrize(
        "rows,radius",
        [
            ([[0, 5, 5, 6]], 2),  # b runs one past the buffer
            ([[-1, 5, 5, 5]], 2),  # negative offset
            ([[0, 0, 5, 5]], 2),  # empty series
            ([[0, 5, 5, 5]], -1),  # radius
            ([0, 5, 5, 5], 2),  # not (count, 4)
        ],
    )
    def test_rejects_rows_outside_the_buffer(self, rows, radius):
        with pytest.raises(ValueError):
            native.abandon_batch_native(
                np.asarray(rows, dtype=np.int64), np.ones(10), radius
            )

    def test_source_tag_is_stable(self):
        assert native._source_tag() == native._source_tag()
        assert len(native._source_tag()) == 16


class TestAbandonKernelNumpyPath:
    """Contract tests pinned to the numpy fallback (run everywhere)."""

    @pytest.mark.parametrize(
        "n,m,radius", [(120, 120, 10), (80, 100, 10), (40, 40, 3), (200, 200, 10)]
    )
    def test_infinite_thresholds_match_plain_batch(self, monkeypatch, n, m, radius):
        # The kernel no longer takes thresholds: every run is the exact
        # one an infinite threshold used to select.
        _force_numpy(monkeypatch)
        xs, ys = _batch(5, count=6, n=n, m=m)
        results = dtw_banded_batch_abandon(xs, ys, radius)
        assert results == [
            (ref.distance, len(ref.path), ref.cells)
            for ref in (dtw_banded_fast(x, y, radius) for x, y in zip(xs, ys))
        ]

    def test_rejects_mismatched_batches(self):
        with pytest.raises(ValueError):
            dtw_banded_batch_abandon([np.ones(5)], [np.ones(5)] * 2, 2)
        with pytest.raises(ValueError):
            dtw_banded_batch_abandon([np.ones(5)], [np.ones(5)], -1)

    def test_degenerate_shapes_run_exact(self):
        xs = [np.asarray([1.0]), np.asarray([2.0])]
        ys = [np.asarray([1.5, 2.5]), np.asarray([0.0, 1.0])]
        results = dtw_banded_batch_abandon(xs, ys, 2)
        for triple, x, y in zip(results, xs, ys):
            ref = dtw_banded_fast(x, y, 2)
            assert triple == (ref.distance, len(ref.path), ref.cells)

    def test_empty_batch(self):
        assert dtw_banded_batch_abandon([], [], 5) == []


@needs_native
class TestNativeBitIdentity:
    """The C backend must be indistinguishable from the numpy kernel."""

    @pytest.mark.parametrize(
        "n,m,radius", [(120, 120, 10), (80, 100, 10), (40, 40, 3), (199, 200, 10)]
    )
    def test_completed_pairs(self, monkeypatch, n, m, radius):
        xs, ys = _batch(11, count=6, n=n, m=m)
        got = dtw_banded_batch_abandon(xs, ys, radius)
        _force_numpy(monkeypatch)
        want = dtw_banded_batch_abandon(xs, ys, radius)
        assert got == want  # == on float triples: bit-identity

    def test_single_pair_exact_run(self):
        # A one-pair batch (``repro timing``'s pair) must reproduce the
        # scalar kernel bit for bit.
        rng = np.random.default_rng(17)
        x, y = rng.normal(size=200), rng.normal(size=200)
        (triple,) = dtw_banded_batch_abandon([x], [y], 10)
        ref = dtw_banded_fast(x, y, 10)
        assert triple == (ref.distance, len(ref.path), ref.cells)


def _ragged(seed, count=10):
    """Ragged batch: per-identity lengths as packet loss produces, with
    identities shared across pairs and some one/two-sample windows."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=120)
    pool = []
    for index in range(6):
        n = int(rng.choice([1, 2, 3, int(rng.integers(20, 120))]))
        if index < 2:
            pool.append(base[:n] + rng.normal(scale=0.05, size=n))
        else:
            pool.append(rng.normal(size=n))
    xs = [pool[int(rng.integers(0, 6))] for _ in range(count)]
    ys = [pool[int(rng.integers(0, 6))] for _ in range(count)]
    return xs, ys


class TestRaggedBatch:
    @pytest.mark.parametrize("radius", [0, 1, 3, 10])
    @pytest.mark.parametrize("seed", range(6))
    def test_native_and_numpy_agree(self, monkeypatch, seed, radius):
        xs, ys = _ragged(seed)
        got = dtw_banded_batch_abandon(xs, ys, radius)
        _force_numpy(monkeypatch)
        want = dtw_banded_batch_abandon(xs, ys, radius)
        assert got == want
        for triple, x, y in zip(got, xs, ys):
            ref = dtw_banded_fast(x, y, radius)
            assert triple == (ref.distance, len(ref.path), ref.cells)

    @needs_native
    def test_one_native_call_per_batch(self, monkeypatch):
        calls = []
        real = pairwise.abandon_batch_native

        def spy(*args):
            calls.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(pairwise, "abandon_batch_native", spy)
        xs, ys = _ragged(4, count=16)
        dtw_banded_batch_abandon(xs, ys, 10)
        assert calls == [16]

    @needs_native
    def test_shared_series_stored_once(self, monkeypatch):
        seen = []
        real = pairwise.abandon_batch_native

        def spy(pairs, values, *rest):
            seen.append(values.size)
            return real(pairs, values, *rest)

        monkeypatch.setattr(pairwise, "abandon_batch_native", spy)
        x, y, z = np.ones(7), np.zeros(5), np.arange(3.0)
        dtw_banded_batch_abandon([x, x, y], [y, z, z], 2)
        assert seen == [15]

    def test_band_grid_matches_scalar(self):
        # Every (n, m, radius) of a grid in one ragged call: the band the
        # kernel builds must be the scalar DP's, cell for cell.
        rng = np.random.default_rng(23)
        pool = {size: rng.normal(size=size) for size in range(1, 49)}
        for radius in (0, 1, 2, 5):
            shapes = [(n, m) for n in range(1, 49) for m in range(1, 49, 5)]
            xs = [pool[n] for n, _ in shapes]
            ys = [pool[m][::-1].copy() for _, m in shapes]
            got = dtw_banded_batch_abandon(xs, ys, radius)
            for triple, x, y in zip(got, xs, ys):
                ref = dtw_banded_fast(x, y, radius)
                assert triple == (ref.distance, len(ref.path), ref.cells)


@contextlib.contextmanager
def _numpy_backend():
    """Run the block as on a machine without the C library
    (``REPRO_NATIVE=0``), restoring the loaded backend afterwards."""
    saved_env = os.environ.get("REPRO_NATIVE")
    saved_lib = native._lib
    os.environ["REPRO_NATIVE"] = "0"
    native._lib = native._UNSET
    try:
        yield
    finally:
        if saved_env is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved_env
        native._lib = saved_lib


def _periods(seed, lengths, shift):
    """Two overlapping detection periods of ragged per-identity windows
    (the second slid by ``shift`` samples): identity -> normalised
    window, per period."""
    rng = np.random.default_rng(seed)
    longest = max(lengths) + shift
    base = np.cumsum(rng.normal(size=longest))
    periods = [{}, {}]
    for index, size in enumerate(lengths):
        noise = 0.1 if index < 2 else 3.0
        full = base + rng.normal(scale=noise, size=longest) * (1 + index)
        for period, start in zip(periods, (0, shift)):
            values = full[start : start + size]
            divisor = float(values.std())
            period[f"id{index}"] = (
                (values - float(values.mean())) / divisor
                if divisor >= 1e-9
                else np.zeros_like(values)
            )
    return periods


def _engine_outputs(periods, radius):
    """Everything the engine reports, plus raw kernel triples."""
    first = periods[0]
    ids = sorted(first)
    xs = [first[a] for i, a in enumerate(ids) for _ in ids[i + 1 :]]
    ys = [first[b] for i, _ in enumerate(ids) for b in ids[i + 1 :]]
    engine = PairwiseEngine(band_radius=radius, registry=MetricsRegistry())
    out = [engine.kernel_triples(xs, ys), dtw_banded_batch_abandon(xs, ys, radius)]
    for period in periods:
        distances, stats = engine.compare(period)
        out.append((distances, dataclasses.astuple(stats)))
    return out


@needs_native
class TestEngineNativeVsNumpy:
    """The engine reports the same bits with the C library and under
    ``REPRO_NATIVE=0``."""

    @given(
        lengths=st.lists(st.integers(1, 45), min_size=2, max_size=7),
        seed=st.integers(0, 2**16),
        radius=st.integers(0, 8),
        shift=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical(self, lengths, seed, radius, shift):
        periods = _periods(seed, lengths, shift)
        got = _engine_outputs(periods, radius)
        with _numpy_backend():
            assert not native.native_available()
            want = _engine_outputs(periods, radius)
        assert native.native_available()
        assert got == want
