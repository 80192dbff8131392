"""Unit tests for the correlated noise fields."""

import numpy as np
import pytest

from repro.radio.noise import (
    SpatialNoiseField,
    ValueNoise3D,
    _cell_gaussian,
    _cell_gaussian_np,
)


class TestValueNoise3D:
    def test_deterministic(self):
        field1 = ValueNoise3D(seed=42)
        field2 = ValueNoise3D(seed=42)
        assert field1.value(3.7, -2.1, 9.9) == field2.value(3.7, -2.1, 9.9)

    def test_seed_changes_field(self):
        a = ValueNoise3D(seed=1)
        b = ValueNoise3D(seed=2)
        values_a = [a.value(x, 0.0, 0.0) for x in range(50)]
        values_b = [b.value(x, 0.0, 0.0) for x in range(50)]
        assert not np.allclose(values_a, values_b)

    def test_batch_matches_scalar(self):
        field = ValueNoise3D(seed=7, scale_x=10, scale_y=10, scale_t=2)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-100, 100, size=40)
        ys = rng.uniform(-100, 100, size=40)
        t = 3.3
        batch = field.value_batch(xs, ys, t)
        scalar = [field.value(float(x), float(y), t) for x, y in zip(xs, ys)]
        assert np.array_equal(batch, scalar)

    def test_batch_with_array_time(self):
        field = ValueNoise3D(seed=7)
        xs = np.array([1.0, 2.0, 3.0])
        ts = np.array([0.5, 1.5, 2.5])
        batch = field.value_batch(xs, xs, ts)
        scalar = [field.value(float(x), float(x), float(t)) for x, t in zip(xs, ts)]
        assert np.array_equal(batch, scalar)

    def test_smoothness(self):
        field = ValueNoise3D(seed=3, scale_x=20, scale_y=20, scale_t=5)
        a = field.value(10.0, 0.0, 0.0)
        b = field.value(10.2, 0.0, 0.0)
        assert abs(a - b) < 0.15

    def test_decorrelation_beyond_scale(self):
        field = ValueNoise3D(seed=4, scale_x=10, scale_y=10, scale_t=5)
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 10000, size=600)
        near = np.array(
            [field.value(x, 0, 0) * field.value(x + 1.0, 0, 0) for x in base]
        )
        far = np.array(
            [field.value(x, 0, 0) * field.value(x + 200.0, 0, 0) for x in base]
        )
        assert np.mean(near) > 0.5  # highly correlated at 0.1 scale
        assert abs(np.mean(far)) < 0.15  # decorrelated at 20 scales

    def test_roughly_unit_marginal_variance(self):
        field = ValueNoise3D(seed=5, scale_x=10, scale_y=10, scale_t=5)
        rng = np.random.default_rng(2)
        samples = [
            field.value(float(x), float(y), float(t))
            for x, y, t in rng.uniform(0, 5000, size=(3000, 3))
        ]
        # Interpolated value noise has position-dependent variance; the
        # population variance sits below 1 but well above 0.
        assert 0.25 < np.var(samples) < 1.1

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            ValueNoise3D(seed=0, scale_x=0.0)


class TestScalarBatchAgreement:
    """The batch path agrees with the scalar one to a few ulp, not bit
    for bit: ``np.log``/``np.cos`` may round differently from ``math``."""

    def test_cells_within_four_ulp(self):
        rng = np.random.default_rng(2024)
        i, j, k = (rng.integers(-(10**6), 10**6, size=20_000) for _ in range(3))
        batch = _cell_gaussian_np(11, i, j, k)
        scalar = np.array(
            [_cell_gaussian(11, int(a), int(b), int(c)) for a, b, c in zip(i, j, k)]
        )
        assert np.all(np.abs(batch - scalar) <= 4 * np.spacing(np.abs(scalar)))
        assert np.mean(batch == scalar) > 0.99  # differences stay rare

    def test_field_values_within_bound(self):
        # A field value is a convex combination of eight lattice
        # Gaussians (|g| < 8.6 for 53-bit uniforms), so 4 ulp per cell
        # bounds the value's difference by 4 ulp of 8.
        field = ValueNoise3D(seed=9, scale_x=20, scale_y=20, scale_t=5)
        rng = np.random.default_rng(2025)
        x, y, t = rng.uniform(-5000, 5000, size=(3, 5_000))
        batch = field.value_batch(x, y, t)
        scalar = np.array([field.value(a, b, c) for a, b, c in zip(x, y, t)])
        assert np.all(np.abs(batch - scalar) <= 4 * np.spacing(8.0))


class TestSpatialNoiseField:
    def test_sybil_signature_identical_links(self):
        """Same TX position, same RX, same instant => same shadowing."""
        field = SpatialNoiseField(seed=9)
        a = field.unit_shadowing((10.0, 2.0), (200.0, -1.0), 5.0)
        b = field.unit_shadowing((10.0, 2.0), (200.0, -1.0), 5.0)
        assert a == b

    def test_nearby_transmitters_differ(self):
        field = SpatialNoiseField(seed=9, correlation_distance_m=20.0)
        rx = (300.0, 0.0)
        a = field.unit_shadowing((10.0, 0.0), rx, 5.0)
        b = field.unit_shadowing((13.0, 0.0), rx, 5.0)
        assert a != b

    def test_matrix_matches_scalar(self):
        field = SpatialNoiseField(seed=11)
        tx = np.array([[0.0, 0.0], [50.0, 3.0]])
        rx = np.array([[100.0, 0.0], [200.0, 1.0], [300.0, -2.0]])
        matrix = field.unit_shadowing_matrix(tx, rx, 2.0)
        for i in range(2):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(
                    field.unit_shadowing(tuple(tx[i]), tuple(rx[j]), 2.0)
                )

    def test_pairs_with_times(self):
        field = SpatialNoiseField(seed=12)
        tx = np.array([[0.0, 0.0], [10.0, 0.0]])
        rx = np.array([[100.0, 0.0]])
        times = np.array([1.0, 2.0])
        pairs = field.unit_shadowing_pairs(tx, rx, times)
        assert pairs.shape == (2, 1)
        assert pairs[0, 0] == pytest.approx(
            field.unit_shadowing((0.0, 0.0), (100.0, 0.0), 1.0)
        )

    def test_tx_weight_validation(self):
        with pytest.raises(ValueError):
            SpatialNoiseField(seed=0, tx_weight=0.0)
        with pytest.raises(ValueError):
            SpatialNoiseField(seed=0, tx_weight=1.0)

    def test_common_mode_is_bounded(self):
        """Two far-apart transmitters to one receiver share only the
        RX-side variance fraction."""
        field = SpatialNoiseField(seed=13, tx_weight=0.75)
        rng = np.random.default_rng(3)
        rx = (0.0, 0.0)
        products = []
        for _ in range(500):
            t = float(rng.uniform(0, 1000))
            a = field.unit_shadowing((float(rng.uniform(5000, 9000)), 0.0), rx, t)
            b = field.unit_shadowing((float(rng.uniform(-9000, -5000)), 0.0), rx, t)
            products.append(a * b)
        # Shared variance ~ (1 - tx_weight) * field variance (< 0.25).
        assert abs(np.mean(products)) < 0.25
