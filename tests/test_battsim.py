"""Tests for the drive-cycle generator and the cell simulator.

The Coulomb-counting checks recompute the SOC integral independently
(vectorised cumulative sum versus the simulator's sequential loop) so
agreement is evidence, not tautology.
"""

import tracemalloc

import numpy as np
import pytest

from socdfn.battsim import (
    LAG_CHUNK_STEPS,
    REGEN_PEAK_FRACTION,
    CellParams,
    CycleConfig,
    _first_order_lag,
    generate_drive_cycle,
    simulate_cell,
    synth_dataset,
)
from socdfn.errors import ConfigError


def soc_oracle(profile, capacity_ah, soc0_pct, dt_s):
    """Raw (unclamped) SOC integral, computed the independent way."""
    step = 100.0 * dt_s / (3600.0 * capacity_ah)
    return soc0_pct + step * np.cumsum(np.asarray(profile, dtype=np.float64))


class TestCellParams:
    def test_defaults_are_consistent(self):
        p = CellParams()
        assert p.capacity_ah == 2.9
        assert p.ocv(100.0) == p.ocv_full_v
        assert p.ocv(0.0) == p.ocv_empty_v

    def test_ocv_is_linear(self):
        p = CellParams()
        np.testing.assert_allclose(p.ocv(50.0), 3.6, rtol=1e-15)
        np.testing.assert_allclose(p.ocv(25.0), 3.3, rtol=1e-15)

    def test_bad_capacity(self):
        with pytest.raises(ConfigError):
            CellParams(capacity_ah=0.0)

    def test_ocv_ordering(self):
        with pytest.raises(ConfigError):
            CellParams(ocv_full_v=3.0, ocv_empty_v=3.0)

    def test_negative_resistance(self):
        with pytest.raises(ConfigError):
            CellParams(r_internal_ohm=-0.01)

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            CellParams(thermal_tau_s=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_heat_coeff(self, value):
        with pytest.raises(ConfigError, match="heat_coeff_k_per_w"):
            CellParams(heat_coeff_k_per_w=value)


class TestCycleConfig:
    def test_bad_dt(self):
        with pytest.raises(ConfigError):
            CycleConfig(dt_s=0.0)

    def test_duration_shorter_than_dt(self):
        with pytest.raises(ConfigError):
            CycleConfig(duration_s=0.5, dt_s=1.0)

    def test_bad_peak(self):
        with pytest.raises(ConfigError):
            CycleConfig(peak_discharge_a=-1.0)

    def test_bad_regen_fraction(self):
        with pytest.raises(ConfigError):
            CycleConfig(regen_fraction=1.0)

    def test_bad_seed(self):
        with pytest.raises(ConfigError):
            CycleConfig(seed=-1)

    def test_step_count_bounded_by_array_size(self):
        # 2**60 float64 steps is 2**63 bytes, one more than numpy can size.
        CycleConfig(duration_s=2.0**60 - 256.0, dt_s=1.0)
        for duration_s, dt_s in ((2.0**60, 1.0), (1.0, 1e-300), (1e300, 5e-324)):
            with pytest.raises(ConfigError, match="steps"):
                CycleConfig(duration_s=duration_s, dt_s=dt_s)


class TestGenerateDriveCycle:
    def test_length(self):
        p = generate_drive_cycle(CycleConfig(duration_s=1000.0, dt_s=1.0))
        assert len(p) == 1000
        p = generate_drive_cycle(CycleConfig(duration_s=1000.0, dt_s=2.0))
        assert len(p) == 500

    def test_deterministic(self):
        cfg = CycleConfig(duration_s=2000.0, seed=4)
        np.testing.assert_array_equal(
            generate_drive_cycle(cfg), generate_drive_cycle(cfg)
        )

    def test_seed_changes_profile(self):
        a = generate_drive_cycle(CycleConfig(duration_s=2000.0, seed=4))
        b = generate_drive_cycle(CycleConfig(duration_s=2000.0, seed=5))
        assert not np.array_equal(a, b)

    def test_bounds(self):
        cfg = CycleConfig(duration_s=5000.0, peak_discharge_a=2.0, seed=1)
        p = generate_drive_cycle(cfg)
        assert p.min() >= -2.0
        assert p.max() <= REGEN_PEAK_FRACTION * 2.0

    def test_mostly_discharge_with_some_regen(self):
        p = generate_drive_cycle(CycleConfig(duration_s=20000.0, seed=0))
        assert (p < 0.0).mean() > 0.7
        assert (p > 0.0).sum() > 0

    def test_no_regen_when_fraction_zero(self):
        p = generate_drive_cycle(
            CycleConfig(duration_s=5000.0, regen_fraction=0.0, seed=2)
        )
        assert p.max() <= 0.0

    def test_default_profile_regression(self):
        # Frozen statistic of the default profile; any change to the
        # generator's draw order shows up here before it silently shifts
        # every downstream training run.
        p = generate_drive_cycle(CycleConfig())
        np.testing.assert_allclose(p.mean(), -0.319699285497158, rtol=1e-12)


class TestSimulateCell:
    def test_full_discharge_reaches_zero_in_one_hour(self):
        # 2.9 Ah drained at a constant 2.9 A is exactly one hour. With
        # dt = 1 s the raw integral must hit 0 at t = 3600 s to within
        # accumulated rounding, which is far below 1e-9 percentage points.
        params = CellParams()
        profile = np.full(3600, -2.9)
        ds = simulate_cell(profile, params, soc0_pct=100.0, dt_s=1.0)
        assert ds.t[-1] == 3600.0
        assert abs(ds.soc[-1]) < 1e-9
        oracle = soc_oracle(profile, 2.9, 100.0, 1.0)
        assert abs(oracle[-1]) < 1e-9

    def test_half_discharge(self):
        params = CellParams()
        ds = simulate_cell(np.full(1800, -2.9), params, 100.0, 1.0)
        assert abs(ds.soc[-1] - 50.0) < 1e-9

    def test_zero_current_holds_state(self):
        params = CellParams()
        ds = simulate_cell(np.zeros(100), params, 73.5, 1.0)
        assert len(ds) == 100
        assert np.all(ds.soc == 73.5)
        assert np.all(ds.voltage == params.ocv(73.5))
        assert np.all(ds.temperature == params.ambient_c)

    def test_matches_integral_oracle_on_random_profile(self):
        rng = np.random.default_rng(17)
        profile = rng.uniform(-0.8, 0.3, size=2500)
        params = CellParams()
        ds = simulate_cell(profile, params, 60.0, 1.0)
        labels = ds.soc
        oracle = np.clip(soc_oracle(profile, 2.9, 60.0, 1.0), 0.0, 100.0)
        np.testing.assert_allclose(labels, oracle, atol=1e-9)

    def test_discharge_only_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(8)
        profile = -rng.uniform(0.1, 1.0, size=500)
        ds = simulate_cell(profile, CellParams(), 90.0, 1.0)
        socs = ds.soc.tolist()
        assert all(b <= a for a, b in zip(socs, socs[1:]))

    def test_charge_only_is_monotone_nondecreasing(self):
        profile = np.full(50, 0.4)
        ds = simulate_cell(profile, CellParams(), 10.0, 1.0)
        socs = ds.soc.tolist()
        assert all(b >= a for a, b in zip(socs, socs[1:]))

    def test_label_clamped_at_full(self):
        ds = simulate_cell(np.full(100, 1.0), CellParams(), 99.99, 1.0)
        assert ds.soc.max() == 100.0

    def test_truncates_when_empty(self):
        profile = np.full(5000, -2.9)
        ds = simulate_cell(profile, CellParams(), 100.0, 1.0)
        assert len(ds) < 5000
        assert 3600 <= len(ds) <= 3601
        assert ds.soc[-1] <= 1e-9

    def test_voltage_is_ocv_plus_ir(self):
        rng = np.random.default_rng(3)
        profile = rng.uniform(-1.0, 0.5, size=200)
        params = CellParams()
        ds = simulate_cell(profile, params, 80.0, 1.0)
        for soc, current, voltage in zip(
            ds.soc.tolist(), ds.current.tolist(), ds.voltage.tolist()
        ):
            expect = params.ocv(soc) + current * params.r_internal_ohm
            np.testing.assert_allclose(voltage, expect, rtol=1e-12)

    def test_temperature_follows_first_order_lag(self):
        # Hand recursion: temp' = temp + (dt/tau) * (target - temp) with
        # target = ambient + heat_coeff * i^2 * r.
        params = CellParams(thermal_tau_s=60.0)
        profile = np.array([-1.0, -1.0, 0.0, 0.5])
        ds = simulate_cell(profile, params, 50.0, 2.0)
        temp = params.ambient_c
        alpha = 2.0 / 60.0
        for i, temperature in zip(profile, ds.temperature):
            target = params.ambient_c + params.heat_coeff_k_per_w * i * i * (
                params.r_internal_ohm
            )
            temp += alpha * (target - temp)
            np.testing.assert_allclose(temperature, temp, rtol=1e-15)

    def test_self_heating_raises_temperature(self):
        ds = simulate_cell(np.full(600, -1.0), CellParams(), 90.0, 1.0)
        assert ds.temperature[-1] > CellParams().ambient_c + 0.1

    def test_timestamps(self):
        ds = simulate_cell(np.zeros(5), CellParams(), 50.0, 0.5)
        assert ds.t.tolist() == [0.5, 1.0, 1.5, 2.0, 2.5]

    def test_soc0_validation(self):
        with pytest.raises(ConfigError):
            simulate_cell(np.zeros(3), CellParams(), 0.0, 1.0)
        with pytest.raises(ConfigError):
            simulate_cell(np.zeros(3), CellParams(), 100.1, 1.0)

    def test_dt_validation(self):
        with pytest.raises(ConfigError):
            simulate_cell(np.zeros(3), CellParams(), 50.0, 0.0)


class TestFirstOrderLag:
    @pytest.mark.parametrize("n", [
        1, LAG_CHUNK_STEPS - 1, LAG_CHUNK_STEPS, LAG_CHUNK_STEPS + 1,
        2 * LAG_CHUNK_STEPS + 1,
    ])
    def test_matches_scalar_loop_bit_for_bit(self, n):
        target = 25.0 + 10.0 * np.random.default_rng(n).random(n)
        alpha, y = 1.0 / 120.0, 25.0
        expect = []
        for value in target:
            y += alpha * (float(value) - y)
            expect.append(y)
        np.testing.assert_array_equal(_first_order_lag(target, alpha, 25.0), expect)


class TestSynthDataset:
    def test_end_to_end_conserves_charge(self):
        cell = CellParams()
        cycle = CycleConfig(duration_s=3000.0, seed=6)
        ds = synth_dataset(cell, cycle, soc0_pct=95.0)
        profile = generate_drive_cycle(cycle)
        oracle = np.clip(soc_oracle(profile, cell.capacity_ah, 95.0, 1.0), 0.0, 100.0)
        labels = ds.soc
        np.testing.assert_allclose(labels, oracle[: len(labels)], atol=1e-9)

    def test_long_cycle_holds_no_whole_cycle_of_python_floats(self):
        # A 200k-step cycle's float64 columns take 1.6 MB each. Two lists
        # of 200k Python floats (about 6.4 MB each) or a 4 x n isfinite
        # stack would push the peak past the bound.
        cycle = CycleConfig(duration_s=200_000.0, seed=0)
        cell = CellParams(capacity_ah=29.0)
        tracemalloc.start()
        try:
            ds = synth_dataset(cell, cycle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 200_000
        assert peak < 20e6

    def test_rows_pass_csv_validation(self, tmp_path):
        from socdfn.data import load_csv, write_csv

        ds = synth_dataset(CellParams(), CycleConfig(duration_s=500.0, seed=9))
        path = tmp_path / "cycle.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert len(back) == len(ds)
