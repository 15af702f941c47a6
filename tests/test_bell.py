"""Tests for CHSH combinations, velocity scans, and the settings calibration."""

import math

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_direction, unit
from relbell.bell import (
    STANDARD_SETTINGS,
    ChshSettings,
    ScanTable,
    calibrated_settings,
    chsh_batch,
    chsh_value,
    maximize_chsh,
    proper_time_comparison,
    scan_beta_phi,
    scan_theta_phi,
)
from relbell.errors import DegenerateObservable, EmptyGrid
from relbell import bell
from relbell.kinematics import BeamVelocity, alpha_norm
from relbell.observables import DEGENERACY_THRESHOLD, eprb_closed_form, eprb_oracle

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)  # 2.8284271247461903

REST = np.zeros(3)


def in_plane(mag, phi):
    return mag * np.array([math.cos(phi), math.sin(phi), 0.0])


class TestChshValue:
    def test_rest_frame_reaches_quantum_bound(self):
        # Bitwise: the standard settings at rest give exactly the
        # double-precision rounding of -2 sqrt(2).
        assert chsh_value(STANDARD_SETTINGS, REST) == -2.8284271247461903

    def test_motion_normal_to_settings_plane_preserves_bound(self):
        for mag in (0.5, 0.9, 0.99):
            value = chsh_value(STANDARD_SETTINGS, np.array([0.0, 0.0, mag]))
            assert abs(value + TWO_SQRT_TWO) < 1e-12

    def test_in_plane_motion_suppresses(self):
        rest = abs(chsh_value(STANDARD_SETTINGS, REST))
        prev = rest
        for mag in (0.3, 0.6, 0.9, 0.99):
            value = abs(chsh_value(STANDARD_SETTINGS, in_plane(mag, math.pi / 4)))
            assert value < prev
            prev = value
        assert prev > 2.0  # never below the classical bound for these settings

    def test_pinned_regression_values(self):
        # Frozen from the first implementation: both evaluation routes
        # agreed to < 1e-15 when these were recorded.
        assert_allclose(
            chsh_value(STANDARD_SETTINGS, in_plane(0.9, math.pi / 4)),
            -2.6325562161047413,
            atol=1e-12,
        )
        assert_allclose(
            chsh_value(STANDARD_SETTINGS, in_plane(0.99, math.pi / 4)),
            -2.2597608606534427,
            atol=1e-12,
        )

    def test_oracle_route_agrees(self):
        beta = in_plane(0.9, math.pi / 4)
        closed = chsh_value(STANDARD_SETTINGS, beta)
        oracle = chsh_value(STANDARD_SETTINGS, beta, correlation=eprb_oracle)
        assert abs(closed - oracle) < 1e-12

    def test_luminal_sign_correlations_hit_classical_bound(self):
        # At |beta| = 1 with no degenerate axis every correlation is a
        # product of signs, so the combination lands exactly on -2.
        assert chsh_value(STANDARD_SETTINGS, in_plane(1.0, math.pi / 8)) == -2.0

    def test_degenerate_setting_is_named(self):
        with pytest.raises(DegenerateObservable, match="setting b "):
            chsh_value(STANDARD_SETTINGS, in_plane(1.0, 0.0))
        with pytest.raises(DegenerateObservable, match="setting b_prime"):
            chsh_value(STANDARD_SETTINGS, in_plane(1.0, math.pi / 2))

    def test_rejects_superluminal(self):
        with pytest.raises(ValueError):
            chsh_value(STANDARD_SETTINGS, in_plane(1.01, 0.0))

    def test_settings_of_validates_axes(self):
        with pytest.raises(ValueError, match="a_prime"):
            ChshSettings.of([1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1])


def oracle_chsh(axes, bv):
    a, a_prime, b, b_prime = axes
    return math.fsum([
        eprb_oracle(a, b, bv), eprb_oracle(a, b_prime, bv),
        eprb_oracle(a_prime, b, bv), -eprb_oracle(a_prime, b_prime, bv),
    ])


class TestChshBatch:
    def test_matches_the_oracle_route(self, rng):
        # Random settings and velocities up to |beta| = 0.999, plus rows at
        # exactly light speed with one setting turned orthogonal to the
        # motion, so that the gap mask is tested on both outcomes.
        count = 300
        axes = np.array([[random_direction(rng) for _ in range(4)] for _ in range(count)])
        direction = np.array([random_direction(rng) for _ in range(count)])
        speed = rng.uniform(0.0, 0.999, size=count)
        luminal = np.arange(count) % 10 == 0
        speed[luminal] = 1.0
        for k in np.flatnonzero(luminal)[::2]:
            j = k // 10 % 4
            axes[k, j] = unit(np.cross(direction[k], axes[k, j]))
        values, degenerate = chsh_batch(axes, speed, direction)
        assert values.shape == (count,) and degenerate.shape == (count, 4)
        for k in range(count):
            bv = BeamVelocity(beta=speed[k] * direction[k], magnitude=float(speed[k]),
                              direction=direction[k])
            norms = [alpha_norm(axis, bv) for axis in axes[k]]
            assert list(degenerate[k]) == [n <= DEGENERACY_THRESHOLD for n in norms]
            if degenerate[k].any():
                assert np.isnan(values[k])
            elif not luminal[k]:
                assert abs(values[k] - oracle_chsh(axes[k], bv)) < 1e-12
        assert degenerate[luminal].any(axis=1).sum() == luminal.sum() // 2

    def test_rest_frame_bit_exact(self):
        values, degenerate = chsh_batch(STANDARD_SETTINGS.axes, np.zeros(3), np.eye(3))
        assert list(values) == [-2.8284271247461903] * 3
        assert not degenerate.any()

    def test_values_are_correctly_rounded_sums(self):
        # Every dot product is exact here, so the four terms are exactly
        # -0.6, -0.28, -0.8 and +0.96; summed left to right they would
        # round to -0.7200000000000002.
        axes = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0], [0.28, 0.96, 0.0]]
        values, _ = chsh_batch(axes, 0.0, [0.0, 0.0, 1.0])
        assert values == math.fsum([-0.6, -0.28, -0.8, 0.96]) == -0.7200000000000001

    def test_light_speed_degeneracy_without_cancellation(self):
        # At |beta| = 1 along x, |alpha(b)| = |n.b| = tilt, on either side
        # of the 1e-12 threshold; 1 + beta^2 ((n.b)^2 - 1) would cancel to
        # 0. Every route must agree on whether b is degenerate.
        x = np.array([1.0, 0.0, 0.0])
        for tilt, collapsed in ((2e-12, False), (5e-13, True)):
            axes = STANDARD_SETTINGS.axes
            axes[2] = [tilt, math.sqrt(1.0 - tilt * tilt), 0.0]
            tilted = ChshSettings(*axes)
            assert_allclose(alpha_norm(axes[2], x), tilt, rtol=1e-15, atol=0.0)
            values, degenerate = chsh_batch(axes, 1.0, x)
            assert list(degenerate) == [False, False, collapsed, False]
            if collapsed:
                with pytest.raises(DegenerateObservable, match="axis b"):
                    eprb_closed_form(axes[0], axes[2], x)
                with pytest.raises(DegenerateObservable, match="setting b "):
                    chsh_value(tilted, x)
            else:
                assert eprb_closed_form(axes[0], axes[2], x) == -1.0
                assert values == chsh_value(tilted, x) == -2.0

    def test_batch_shapes_broadcast(self):
        speeds = np.array([0.0, 0.5, 0.9])
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        values, degenerate = chsh_batch(STANDARD_SETTINGS.axes, speeds[:, None], dirs)
        assert values.shape == (3, 2) and degenerate.shape == (3, 2, 4)
        for i, mag in enumerate(speeds):
            for k, d in enumerate(dirs):
                assert abs(values[i, k] - chsh_value(STANDARD_SETTINGS, mag * d)) < 1e-15

    def test_rejects_invalid_batches(self):
        axes = STANDARD_SETTINGS.axes
        z = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="speed"):
            chsh_batch(axes, [0.5, 1.0 + 1e-15], z)
        with pytest.raises(ValueError, match="speed"):
            chsh_batch(axes, math.nan, z)
        with pytest.raises(ValueError, match="motion direction"):
            chsh_batch(axes, 0.5, [0.0, 0.0, 1.0 + 1e-9])
        bent = axes.copy()
        bent[3] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="setting b_prime"):
            chsh_batch(bent, 0.5, z)
        with pytest.raises(ValueError, match="shape"):
            chsh_batch(axes[:3], 0.5, z)


class TestScanBetaPhi:
    def test_rest_row_is_flat(self):
        table = scan_beta_phi(STANDARD_SETTINGS, [0.0], np.linspace(0.0, 2 * math.pi, 8))
        assert_allclose(table.values[0, :, 0], -TWO_SQRT_TWO, atol=1e-12)

    def test_half_turn_symmetry(self):
        # The correlation depends on the motion axis, not its sense.
        phis = np.linspace(0.0, math.pi, 6, endpoint=False)
        both = np.concatenate([phis, phis + math.pi])
        table = scan_beta_phi(STANDARD_SETTINGS, [0.4, 0.85], both)
        assert_allclose(table.values[:, :6, 0], table.values[:, 6:, 0], atol=1e-13)

    def test_luminal_gaps_marked(self):
        table = scan_beta_phi(STANDARD_SETTINGS, [0.5, 1.0], [0.0, math.pi / 8, math.pi / 2])
        assert (1, 0) in table.gaps
        assert (1, 2) in table.gaps
        assert (1, 1) not in table.gaps
        assert table.values[1, 1, 0] == -2.0
        assert np.isnan(table.values[1, 0, 0])
        csv = table.to_csv()
        assert "degenerate" in csv
        assert "nan" not in csv

    def test_empty_grid_raises(self):
        with pytest.raises(EmptyGrid):
            scan_beta_phi(STANDARD_SETTINGS, [], [0.0])
        with pytest.raises(EmptyGrid):
            scan_beta_phi(STANDARD_SETTINGS, [0.5], [])

    def test_rejects_out_of_range_speed(self):
        with pytest.raises(ValueError):
            scan_beta_phi(STANDARD_SETTINGS, [-0.1], [0.0])
        with pytest.raises(ValueError):
            scan_beta_phi(STANDARD_SETTINGS, [1.1], [0.0])

    def test_csv_golden_bytes(self):
        table = scan_beta_phi(STANDARD_SETTINGS, np.array([0.0, 1.0]), np.array([0.0]))
        assert table.to_csv() == (
            "# a=0.7071067811865476,0.7071067811865476,0.0\n"
            "# a_prime=-0.7071067811865476,0.7071067811865476,0.0\n"
            "# b=0.0,1.0,0.0\n"
            "# b_prime=1.0,0.0,0.0\n"
            "# beta_parametrization=beta*(cos(phi),sin(phi),0)\n"
            "beta,phi,chsh\n"
            "0.0,0.0,-2.8284271247461903\n"
            "1.0,0.0,degenerate\n"
        )

    def test_deterministic_across_runs(self):
        grid_b = np.linspace(0.0, 0.999, 7)
        grid_p = np.linspace(0.0, 2 * math.pi, 9)
        first = scan_beta_phi(STANDARD_SETTINGS, grid_b, grid_p).to_csv()
        second = scan_beta_phi(STANDARD_SETTINGS, grid_b, grid_p).to_csv()
        assert first == second


class TestScanThetaPhi:
    def test_polar_axis_preserves_bound(self):
        table = scan_theta_phi(STANDARD_SETTINGS, 0.99, [0.0], np.linspace(0, 2 * math.pi, 5))
        assert_allclose(table.values[0, :, 0], -TWO_SQRT_TWO, atol=1e-12)

    def test_equator_matches_in_plane_scan(self):
        phis = np.linspace(0.0, 2 * math.pi, 9)
        ring = scan_theta_phi(STANDARD_SETTINGS, 0.9, [math.pi / 2], phis)
        row = scan_beta_phi(STANDARD_SETTINGS, [0.9], phis)
        assert_allclose(ring.values[0, :, 0], row.values[0, :, 0], atol=1e-12)

    def test_deeper_suppression_at_higher_speed(self):
        thetas = np.linspace(0.0, math.pi, 7)
        phis = np.linspace(0.0, 2 * math.pi, 9)
        slow = scan_theta_phi(STANDARD_SETTINGS, 0.95, thetas, phis)
        fast = scan_theta_phi(STANDARD_SETTINGS, 0.99, thetas, phis)
        assert np.all(np.abs(fast.values) <= np.abs(slow.values) + 1e-12)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            scan_theta_phi(STANDARD_SETTINGS, 1.2, [0.0], [0.0])


class TestProperTimeComparison:
    def test_known_values_at_six_tenths(self):
        table = proper_time_comparison([0.6])
        assert_allclose(table.values[0, 0], -0.36 / 1.64, atol=1e-15)
        assert_allclose(table.values[0, 1], -0.2, atol=1e-15)

    def test_endpoints(self):
        table = proper_time_comparison([0.0, 1.0])
        assert table.values[0, 0] == 0.0
        assert table.values[0, 1] == 0.0
        assert table.values[1, 0] == -1.0
        assert table.values[1, 1] == -1.0

    def test_correlation_defect_dominates_strictly(self):
        grid = np.linspace(0.0, 1.0, 501)[1:-1]
        table = proper_time_comparison(grid)
        assert np.all(np.abs(table.values[:, 0]) > np.abs(table.values[:, 1]))

    def test_csv_golden_bytes(self):
        table = proper_time_comparison(np.array([0.0, 0.5, 1.0]))
        assert table.to_csv() == (
            "# correlation=orthogonal axes at 45 degrees to the beam\n"
            "# proper_time=sqrt(1-beta^2)-1\n"
            "beta,correlation,proper_time\n"
            "0.0,-0.0,0.0\n"
            "0.5,-0.14285714285714285,-0.1339745962155614\n"
            "1.0,-1.0,-1.0\n"
        )


class TestScanTableValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScanTable(
                axes=("x",), coords=(np.array([0.0, 1.0]),), columns=("y",),
                values=np.zeros((3, 1)),
            )

    def test_unmarked_nan_rejected(self):
        values = np.array([[0.0], [math.nan]])
        with pytest.raises(ValueError, match=r"grid point \(1,\) not marked"):
            ScanTable(
                axes=("x",), coords=(np.array([0.0, 1.0]),), columns=("y",),
                values=values,
            )
        # The same NaN is fine once its grid point is declared a gap.
        table = ScanTable(
            axes=("x",), coords=(np.array([0.0, 1.0]),), columns=("y",),
            values=values, gaps=((1,),),
        )
        assert "degenerate" in table.to_csv()
        # On a 2-D grid the first unmarked point is named, not a marked one.
        grid = np.zeros((2, 2, 1))
        grid[0, 1, 0] = grid[1, 0, 0] = grid[1, 1, 0] = math.nan
        with pytest.raises(ValueError, match=r"grid point \(1, 0\) not marked"):
            ScanTable(axes=("x", "y"), coords=(np.arange(2.0), np.arange(2.0)), columns=("z",),
                      values=grid, gaps=((0, 1),))


def rowwise_to_csv(table):
    """ScanTable.to_csv as first written, one repr per cell: the oracle
    for the column-at-a-time serializer."""
    lines = [f"# {key}={table.metadata[key]}" for key in sorted(table.metadata)]
    lines.append(",".join(table.axes + table.columns))
    gapset = set(table.gaps)
    for idx in np.ndindex(*table.values.shape[:-1]):
        cells = [repr(float(table.coords[d][i])) for d, i in enumerate(idx)]
        if idx in gapset:
            cells.extend("degenerate" for _ in table.columns)
        else:
            cells.extend(repr(float(v)) for v in table.values[idx])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


cell_values = st.floats(allow_nan=False, allow_infinity=True, width=64)


@st.composite
def scan_tables(draw):
    """Tables of 1 to 3 axes and 1 to 3 columns with no, some or all grid
    points as gaps; axis lengths up to 9 give up to 729 rows."""
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    columns = tuple(f"c{k}" for k in range(draw(st.integers(1, 3))))
    coords = tuple(np.array(draw(st.lists(cell_values, min_size=n, max_size=n))) for n in shape)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape + (len(columns),)) * 10.0 ** rng.integers(-300, 300, size=shape + (1,))
    kind = draw(st.sampled_from(["none", "some", "all"]))
    mask = {"none": np.zeros(shape, bool), "all": np.ones(shape, bool),
            "some": rng.random(shape) < 0.3}[kind]
    values[mask] = np.nan
    gaps = tuple(map(tuple, np.argwhere(mask).tolist()))
    return ScanTable(axes=tuple(f"x{d}" for d in range(len(shape))), coords=coords,
                     columns=columns, values=values, gaps=gaps,
                     metadata={"seed": seed, "kind": kind})


class TestCsvSerialization:
    @settings(max_examples=200, deadline=None)
    @given(table=scan_tables(), block=st.sampled_from([1, 7, 64, 1024]))
    def test_bytes_match_the_rowwise_serializer(self, table, block):
        # Small row blocks put block boundaries inside every table.
        with mock.patch.object(bell, "_CSV_BLOCK_ROWS", block):
            assert table.to_csv() == rowwise_to_csv(table)

    def test_bytes_match_across_full_row_blocks(self):
        # 129 x 129 = 16 641 rows, many blocks of the real size, with gaps
        # (at speed 1) on both sides of the first boundary.
        table = scan_theta_phi(STANDARD_SETTINGS, [0.9, 1.0], np.linspace(0.0, math.pi, 129),
                               np.linspace(0.0, 2.0 * math.pi, 129))
        rows = math.prod(table.values.shape[:-1])
        flat_gaps = [i * 129 + j for i, j in table.gaps]
        assert rows > bell._CSV_BLOCK_ROWS
        assert min(flat_gaps) < bell._CSV_BLOCK_ROWS < max(flat_gaps)
        assert table.to_csv() == rowwise_to_csv(table)

    def test_integer_coordinates_and_values_print_as_floats(self):
        table = ScanTable(axes=("n",), coords=([1, 2],), columns=("v",),
                          values=np.array([[3], [4]]))
        assert table.to_csv() == rowwise_to_csv(table) == "n,v\n1.0,3.0\n2.0,4.0\n"


class TestMaximizeChsh:
    def test_rest_recovers_quantum_bound(self):
        settings, value = maximize_chsh(REST, restarts=2)
        assert abs(value - TWO_SQRT_TWO) < 1e-12
        assert abs(chsh_value(settings, REST)) == value

    def test_moving_pair_bound_recoverable_with_adapted_settings(self):
        # In-plane motion suppresses the standard settings to ~2.26, but
        # settings adapted to the motion restore the full bound: the
        # suppression is a calibration artifact, not a physical cap.
        beta = np.array([0.99, 0.0, 0.0])
        standard = abs(chsh_value(STANDARD_SETTINGS, beta))
        settings, value = maximize_chsh(beta, restarts=3)
        assert standard < 2.3
        assert value > TWO_SQRT_TWO - 1e-12
        assert value <= TWO_SQRT_TWO + 1e-12
        assert_allclose(value, 2.828427124746199, atol=1e-12)

    def test_initial_settings_are_honored(self):
        # Motion normal to the settings plane leaves the standard settings
        # optimal, so a start from them returns them.
        beta = np.array([0.0, 0.0, 0.99])
        settings, value = maximize_chsh(beta, restarts=1, initial=STANDARD_SETTINGS)
        assert abs(value - 2.8284271247461894) < 1e-12
        assert_allclose(settings.axes, STANDARD_SETTINGS.axes, rtol=0.0, atol=1e-12)

    def test_trace_records_the_closed_form(self):
        trace = []
        _, value = maximize_chsh(in_plane(0.9, 0.3), restarts=2, trace=trace)
        assert trace == [(0, "closed_form", value)]

    def test_deterministic(self):
        beta = in_plane(0.7, 1.1)
        first = maximize_chsh(beta, restarts=2)
        second = maximize_chsh(beta, restarts=2)
        assert first[1] == second[1]
        for (_, ax1), (_, ax2) in zip(first[0].labeled(), second[0].labeled()):
            assert np.array_equal(ax1, ax2)

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            maximize_chsh(REST, restarts=0)


velocities = st.builds(
    lambda speed, seed: speed * random_direction(np.random.default_rng(seed)),
    speed=st.floats(min_value=0.0, max_value=1.0 - 1e-6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def deformed_gram(calibrated, beta):
    """Gram matrix of the normalized deformed axes alpha_hat of some settings.

    The transverse factor is sqrt((1 - beta)(1 + beta)), as in
    alpha_vector; the map is written out here because alpha_vector rejects
    velocities below ~1e-154, where the squares in |beta| underflow and
    the motion direction misses unit length.
    """
    bv = BeamVelocity.of(beta)
    n = bv.direction
    par = np.outer(calibrated.axes @ n, n)
    alpha = math.sqrt((1.0 - bv.magnitude) * (1.0 + bv.magnitude)) * (calibrated.axes - par) + par
    hats = alpha / np.linalg.norm(alpha, axis=1, keepdims=True)
    return hats @ hats.T


class TestCalibratedSettings:
    @settings(max_examples=200, deadline=None)
    @given(beta=velocities)
    def test_reaches_the_bound(self, beta):
        calibrated, value = maximize_chsh(beta)
        assert abs(value - TWO_SQRT_TWO) <= 1e-12
        assert value == abs(chsh_value(calibrated, beta))

    @settings(max_examples=200, deadline=None)
    @given(beta=velocities)
    def test_deformed_axes_are_an_orthogonal_image_of_the_standard_settings(self, beta):
        gram = deformed_gram(calibrated_settings(beta), beta)
        standard = STANDARD_SETTINGS.axes @ STANDARD_SETTINGS.axes.T
        assert np.max(np.abs(gram - standard)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(beta=velocities)
    def test_warm_start_from_the_result_returns_it(self, beta):
        first = maximize_chsh(beta)[0]
        again = maximize_chsh(beta, initial=first)[0]
        assert np.max(np.abs(again.axes - first.axes)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_warm_start_at_rest_keeps_turned_optimal_settings(self, seed):
        # Any orthogonal image of the standard settings (reflections too)
        # is optimal at rest, and the Procrustes fit keeps it.
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        turned = ChshSettings(*(STANDARD_SETTINGS.axes @ q.T))
        result = calibrated_settings(REST, initial=turned)
        assert np.max(np.abs(result.axes - turned.axes)) <= 1e-12

    def test_light_speed_reaches_the_classical_optimum(self, rng):
        for beta in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]):
            calibrated, value = maximize_chsh(np.array(beta), initial=STANDARD_SETTINGS)
            assert value == 2.0
            assert all(np.array_equal(axis, beta) for axis in calibrated.axes)
        for _ in range(20):
            n = random_direction(rng)
            luminal = BeamVelocity(beta=n, magnitude=1.0, direction=n)
            assert abs(maximize_chsh(luminal)[1] - 2.0) <= 1e-15
