"""Synthetic drive-cycle generator and equivalent-circuit cell simulator.

Produces timestamped (voltage, current, temperature, SOC) series whose
SOC labels come from exact Coulomb counting, so the ground truth is
analytically checkable. Sign convention throughout: charging current is
positive, discharge negative.

The cell model is deliberately small: a linear open-circuit-voltage
curve over SOC, an ohmic internal resistance, and a first-order thermal
lag toward ambient plus I^2*R self-heating. That is enough structure for
a network to learn while keeping every channel hand-verifiable.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import MIN_WRITTEN_VOLTAGE_V, Dataset
from .errors import ConfigError, check_range
from .rng import check_seed, make_rng

logger = logging.getLogger(__name__)

# Fraction of peak discharge allowed as regen (charging) current.
REGEN_PEAK_FRACTION = 0.5
# Steps per slice of a first-order lag: a slice is stepped as a list of
# Python floats, so no list holds a whole cycle.
LAG_CHUNK_STEPS = 4096


@dataclass(frozen=True)
class CellParams:
    """Electrical and thermal constants of one cylindrical cell."""

    capacity_ah: float = 2.9
    ocv_full_v: float = 4.2
    ocv_empty_v: float = 3.0
    r_internal_ohm: float = 0.05
    thermal_tau_s: float = 120.0
    ambient_c: float = 25.0
    heat_coeff_k_per_w: float = 8.0

    def __post_init__(self):
        check_range("capacity_ah", self.capacity_ah, "positive")
        check_range("ocv_full_v", self.ocv_full_v, "finite")
        check_range("ocv_empty_v", self.ocv_empty_v, "finite")
        if not self.ocv_empty_v < self.ocv_full_v:
            raise ConfigError(
                f"ocv_full_v ({self.ocv_full_v}) must exceed "
                f"ocv_empty_v ({self.ocv_empty_v})"
            )
        check_range("r_internal_ohm", self.r_internal_ohm, "non-negative")
        check_range("thermal_tau_s", self.thermal_tau_s, "positive")
        check_range("ambient_c", self.ambient_c, "finite")
        check_range("heat_coeff_k_per_w", self.heat_coeff_k_per_w, "non-negative")

    def ocv(self, soc_pct: float) -> float:
        """Open-circuit voltage, linear in SOC."""
        return self.ocv_empty_v + (self.ocv_full_v - self.ocv_empty_v) * (
            soc_pct / 100.0
        )


@dataclass(frozen=True)
class CycleConfig:
    """Shape of one synthetic drive cycle."""

    duration_s: float = 20000.0
    dt_s: float = 1.0
    peak_discharge_a: float = 1.0
    regen_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_range("dt_s", self.dt_s, "positive")
        check_range("duration_s", self.duration_s, "finite")
        if not self.dt_s <= self.duration_s:
            raise ConfigError(
                f"duration_s ({self.duration_s}) must be at least dt_s ({self.dt_s})"
            )
        # numpy refuses an array whose byte count exceeds intp, so a float64
        # column of floor(duration_s / dt_s) steps must stay under that.
        if self.duration_s / self.dt_s > np.iinfo(np.intp).max // 8:
            raise ConfigError(
                f"duration_s / dt_s is {self.duration_s / self.dt_s:g} steps, "
                "more than one array can hold"
            )
        check_range("peak_discharge_a", self.peak_discharge_a, "positive")
        check_range("regen_fraction", self.regen_fraction, "in [0, 1)")
        check_seed(self.seed)


def generate_drive_cycle(cfg: CycleConfig) -> np.ndarray:
    """Seed-deterministic per-step current profile in amperes.

    Three layers: a slowly varying discharge backbone (linear ramps
    between random control points), short random discharge pulses, and
    occasional regen segments carrying positive current on roughly
    regen_fraction of the steps. Values stay within
    [-peak_discharge_a, +REGEN_PEAK_FRACTION * peak_discharge_a].
    """
    rng = make_rng(cfg.seed)
    n = int(math.floor(cfg.duration_s / cfg.dt_s))
    peak = cfg.peak_discharge_a

    # Backbone: control points roughly every 10 minutes of cycle time.
    n_ctrl = max(2, int(n * cfg.dt_s / 600.0) + 1)
    ctrl_levels = -peak * rng.uniform(0.15, 0.55, size=n_ctrl)
    current = np.interp(np.arange(n), np.linspace(0.0, n - 1.0, n_ctrl), ctrl_levels)

    # Discharge pulses: acceleration-like bursts on top of the backbone.
    n_pulses = n // 150
    starts = rng.integers(0, n, size=n_pulses)
    widths = rng.integers(5, 26, size=n_pulses)
    depths = peak * rng.uniform(0.10, 0.40, size=n_pulses)
    with np.errstate(over="ignore"):  # clipped to -peak below
        for s, w, d in zip(starts, widths, depths):
            current[s : s + w] -= d

    # Regen segments: braking recharges the cell for short stretches.
    if cfg.regen_fraction > 0.0:
        seg_width = 15
        n_regen = max(1, int(round(cfg.regen_fraction * n / seg_width)))
        starts = rng.integers(0, n, size=n_regen)
        levels = REGEN_PEAK_FRACTION * peak * rng.uniform(0.2, 1.0, size=n_regen)
        for s, level in zip(starts, levels):
            current[s : s + seg_width] = level

    return np.clip(current, -peak, REGEN_PEAK_FRACTION * peak)


def _first_order_lag(target: np.ndarray, alpha: float, start: float) -> np.ndarray:
    """y[k] = y[k-1] + alpha * (target[k] - y[k-1]), with y[-1] = start.

    Each step feeds the next, so the recurrence runs in Python floats,
    LAG_CHUNK_STEPS targets at a time; the result has the bits of a
    plain one-step-at-a-time loop.
    """
    out = np.empty(len(target))
    y = start
    for lo in range(0, len(target), LAG_CHUNK_STEPS):
        chunk = target[lo : lo + LAG_CHUNK_STEPS].tolist()
        out[lo : lo + len(chunk)] = [y := y + alpha * (t - y) for t in chunk]
    return out


def simulate_cell(
    profile: np.ndarray, params: CellParams, soc0_pct: float, dt_s: float
) -> Dataset:
    """Integrate one current profile into a labeled Dataset.

    SOC bookkeeping is pure Coulomb counting on the raw integral
    soc(t) = soc0 + (100 / (3600 * capacity)) * sum(i * dt); emitted
    labels are that integral clamped to [0, 100], and the run truncates
    after emitting the first row whose integral has reached 0. Row k
    carries time (k + 1) * dt, the state after applying step k. Raises
    ConfigError naming the first step that load_csv would refuse once
    written: a non-finite value, or a voltage that rounds to 0 V or below.
    """
    check_range("soc0_pct", soc0_pct, "in (0, 100]")
    check_range("dt_s", dt_s, "positive")
    profile = np.asarray(profile, dtype=np.float64)
    soc_per_amp_step = 100.0 * dt_s / (3600.0 * params.capacity_ah)

    # Overflow and inf - inf are caught by the row check below.
    with np.errstate(over="ignore", invalid="ignore"):
        # Sequential running sum: the same additions, in the same order, as
        # stepping soc += soc_per_amp_step * i one row at a time.
        steps = soc_per_amp_step * profile
        raw = np.add.accumulate(np.concatenate(([soc0_pct], steps)))[1:]
        empty = np.flatnonzero(raw <= 0.0)
        if empty.size:
            n = int(empty[0]) + 1
            logger.info("cell empty after step %d of %d, truncating cycle", n, len(profile))
            raw = raw[:n]
        current = profile[: len(raw)].copy()
        soc = np.clip(raw, 0.0, 100.0)
        volts = params.ocv(soc) + current * params.r_internal_ohm
        heat_target = (
            params.ambient_c
            + params.heat_coeff_k_per_w * current * current * params.r_internal_ohm
        )
    temps = _first_order_lag(heat_target, dt_s / params.thermal_tau_s, params.ambient_c)
    ok = volts >= MIN_WRITTEN_VOLTAGE_V
    for column in (volts, current, temps, soc):
        ok &= np.isfinite(column)
    if not ok.all():
        k = int(np.argmin(ok))
        v, i, temp = (float(c[k]) for c in (volts, current, temps))
        raise ConfigError(
            f"simulated step {k + 1} has voltage_v {v!r}, current_a {i!r}, "
            f"temp_c {temp!r}; a written cycle needs finite values and a "
            "voltage that rounds to at least 0.01"
        )
    return Dataset(
        t=np.arange(1, len(raw) + 1) * dt_s,
        voltage=volts,
        current=current,
        temperature=temps,
        soc=soc,
    )


def synth_dataset(
    cell: CellParams, cycle: CycleConfig, soc0_pct: float = 100.0
) -> Dataset:
    """Generate a profile and simulate it in one call."""
    return simulate_cell(generate_drive_cycle(cycle), cell, soc0_pct, cycle.dt_s)
