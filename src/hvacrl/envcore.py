"""Shared domain types: observation/action layouts, normalization, reward.

Everything here is a pure function of its inputs; simulators, agents and
the evaluation harness all build on these definitions. An observation or
action is a plain float64 vector laid out by a `VectorSpec`: in physical
units at the simulator, and as unit-interval observations and [-1, 1]
actions at the agents (`normalize_obs`, `normalize_action` and
`denormalize_action` convert between the two).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SpecError
from .fingerprint import fingerprint


@dataclass(frozen=True)
class DimSpec:
    """One vector dimension with its physical range."""

    name: str
    low: float
    high: float
    unit: str = ""

    def __post_init__(self):
        if not self.low < self.high:
            raise SpecError(f"dimension {self.name!r}: low {self.low} must be < high {self.high}")


@dataclass(frozen=True)
class VectorSpec:
    """Ordered collection of dimensions describing an observation or action vector."""

    kind: str  # "obs" or "act"
    dims: tuple[DimSpec, ...]

    def __post_init__(self):
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate dimension names in {self.kind} spec: {names}")
        # (low, high, span) per dimension as Python floats, for the per-step
        # conversions; not a field, so it stays out of `to_jsonable`
        object.__setattr__(self, "_ranges", tuple(
            (float(d.low), float(d.high), float(d.high) - float(d.low))
            for d in self.dims))

    @property
    def size(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    @property
    def lows(self) -> np.ndarray:
        return np.array([r[0] for r in self._ranges])

    @property
    def highs(self) -> np.ndarray:
        return np.array([r[1] for r in self._ranges])

    @property
    def span(self) -> np.ndarray:
        """``highs - lows``."""
        return np.array([r[2] for r in self._ranges])

    def fingerprint(self) -> str:
        return fingerprint([[d.name, d.low, d.high, d.unit] for d in self.dims])

    def validate_physical(self, values) -> None:
        """Reject vectors of the wrong size or outside the physical ranges."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.size,):
            raise SpecError(f"{self.kind} vector has shape {values.shape}, "
                            f"expected ({self.size},)")
        bad = [(d.name, v) for d, v, (lo, hi, _)
               in zip(self.dims, values.tolist(), self._ranges)
               if not lo - 1e-6 <= v <= hi + 1e-6]
        # a NaN is named but alone passes: the simulator step faults on it
        if any(v == v for _, v in bad):
            raise SpecError(f"{self.kind} values out of range for "
                            f"{[name for name, _ in bad]}")


def mixeduse_obs_spec() -> VectorSpec:
    return VectorSpec("obs", (
        DimSpec("total_power", 0.0, 50.0, "kW"),
        DimSpec("hvac_power", 0.0, 50.0, "kW"),
        DimSpec("building_power", 0.0, 10.0, "kW"),
        DimSpec("outdoor_rh", 0.0, 100.0, "%RH"),
        DimSpec("outdoor_temp", -10.0, 40.0, "degC"),
        DimSpec("zone4_temp", 10.0, 40.0, "degC"),
        DimSpec("zone5_temp", 10.0, 40.0, "degC"),
        DimSpec("avg6_temp", 10.0, 40.0, "degC"),
    ))


def datacenter_obs_spec() -> VectorSpec:
    return VectorSpec("obs", (
        DimSpec("total_power", 0.0, 200.0, "kW"),
        DimSpec("hvac_power", 0.0, 200.0, "kW"),
        DimSpec("building_power", 0.0, 200.0, "kW"),
        DimSpec("outdoor_temp", -20.0, 50.0, "degC"),
        DimSpec("outdoor_rh", 0.0, 100.0, "%RH"),
        DimSpec("west_temp", 0.0, 50.0, "degC"),
        DimSpec("east_temp", 0.0, 50.0, "degC"),
        DimSpec("pue", 1.0, 5.0, "-"),
    ))


def mixeduse_act_spec() -> VectorSpec:
    return VectorSpec("act", (
        DimSpec("zone_setpoint", 16.0, 26.0, "degC"),
        DimSpec("ahu1_setpoint", 10.0, 30.0, "degC"),
        DimSpec("ahu2_setpoint", 10.0, 30.0, "degC"),
        DimSpec("ahu1_flow", 0.0, 1.0, "-"),
        DimSpec("ahu2_flow", 0.0, 1.0, "-"),
    ))


def datacenter_act_spec() -> VectorSpec:
    return VectorSpec("act", (
        DimSpec("west_setpoint", 10.0, 40.0, "degC"),
        DimSpec("east_setpoint", 10.0, 40.0, "degC"),
        DimSpec("west_flow", 1.75, 7.0, "kg/s"),
        DimSpec("east_flow", 1.75, 7.0, "kg/s"),
    ))


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip`` of one float: it keeps a -0.0 and a NaN."""
    return lo if x < lo else hi if x > hi else x


def positive_part(x: float) -> float:
    """``np.maximum(x, 0.0)`` of a float that is not NaN: 0.0 for a -0.0,
    which ``max(x, 0.0)`` would keep."""
    return x if x > 0.0 else 0.0


def ordered_sum(values) -> float:
    """numpy's ``.sum()`` of fewer than eight floats: left to right from 0.0
    (Python 3.12's ``sum`` compensates, which can change the bits)."""
    total = 0.0
    for v in values:
        total += v
    return total


def normalize_obs(obs: np.ndarray, spec: VectorSpec) -> np.ndarray:
    """Min-max normalize a physical observation vector into the unit
    interval per dimension.

    Out-of-range values clip to the range edge rather than raising
    (surrogate excursions are expected).
    """
    values = np.asarray(obs, dtype=np.float64)
    if values.shape != (spec.size,):
        raise SpecError(f"observation has shape {values.shape}, spec expects ({spec.size},)")
    floats = values.tolist()
    if not all(map(math.isfinite, floats)):
        raise DataError(f"non-finite observation values: {values}")
    return np.array([_clip((x - lo) / span, 0.0, 1.0)
                     for x, (lo, _, span) in zip(floats, spec._ranges)])


def normalize_action(act: np.ndarray, spec: VectorSpec) -> np.ndarray:
    """Map a physical action vector affinely onto [-1, 1] per dimension."""
    values = np.asarray(act, dtype=np.float64)
    if values.shape != (spec.size,):
        raise SpecError(f"action has shape {values.shape}, spec expects ({spec.size},)")
    if np.any(values < spec.lows - 1e-6) or np.any(values > spec.highs + 1e-6):
        raise DataError(f"physical action outside spec range: {values}")
    values = np.clip(values, spec.lows, spec.highs)
    return 2.0 * (values - spec.lows) / spec.span - 1.0


def denormalize_action(act_n: np.ndarray, spec: VectorSpec) -> np.ndarray:
    """Inverse of `normalize_action`: a [-1, 1] action vector (clipped
    first) to float64 physical units, clipped into the physical range."""
    values = np.asarray(act_n, dtype=np.float64)
    if values.shape != (spec.size,):
        raise SpecError(f"action has shape {values.shape}, spec expects ({spec.size},)")
    return np.array([_clip(lo + (_clip(u, -1.0, 1.0) + 1.0) * 0.5 * span, lo, hi)
                     for u, (lo, hi, span) in zip(values.tolist(), spec._ranges)])


@dataclass(frozen=True)
class RewardParams:
    """Weights and comfort bands for the temperature/energy reward.

    `lambda_power` is per watt, so a ~1e5 W facility draw contributes a
    penalty of order 1, commensurate with the per-zone temperature terms.
    """

    lambda_shape: float  # Gaussian sharpness on (T - target)^2
    lambda_trapezoid: float  # weight on the out-of-band trapezoid penalty
    lambda_power: float  # 1/W
    target: tuple[float, ...]  # per-zone target temperature, degC
    band_low: tuple[float, ...]
    band_high: tuple[float, ...]

    def __post_init__(self):
        if self.lambda_shape <= 0:
            raise SpecError("lambda_shape must be > 0")
        if self.lambda_trapezoid < 0 or self.lambda_power < 0:
            raise SpecError("lambda_trapezoid and lambda_power must be >= 0")
        if not (len(self.target) == len(self.band_low) == len(self.band_high)):
            raise SpecError("per-zone parameter lengths disagree")
        for lo, tc, hi in zip(self.band_low, self.target, self.band_high):
            if not lo <= tc <= hi:
                raise SpecError(f"band [{lo}, {hi}] must contain target {tc}")

    @property
    def n_zones(self) -> int:
        return len(self.target)


def mixeduse_reward_params() -> RewardParams:
    # Shared comfort band over the three observed channels (zone4, zone5, avg6).
    return RewardParams(0.5, 0.1, 2e-5, (23.5,) * 3, (23.0,) * 3, (24.0,) * 3)


def datacenter_reward_params() -> RewardParams:
    return RewardParams(0.5, 0.1, 1e-5, (22.0,) * 2, (21.0,) * 2, (23.0,) * 2)


@dataclass(frozen=True)
class RewardTerms:
    total: float
    temperature: float  # summed Gaussian minus weighted trapezoid terms
    power: float  # -P_t, watts


def compute_reward(zone_temps: np.ndarray, total_power_w: float, params: RewardParams) -> RewardTerms:
    """Comfort/energy reward: r = r_T + lambda_power * (-P_t).

    Per zone, a Gaussian bump rewards proximity to the target and a trapezoid
    term penalizes distance outside the tolerance band. The trapezoid is
    subtracted because a band violation is a penalty: adding it would
    reward the controller for leaving the band.
    """
    temps = np.asarray(zone_temps, dtype=np.float64)
    if temps.shape != (params.n_zones,):
        raise SpecError(f"expected {params.n_zones} zone temperatures, got shape {temps.shape}")
    temps = temps.tolist()
    if not all(map(math.isfinite, temps)) or not math.isfinite(total_power_w):
        raise DataError("non-finite reward inputs")
    if total_power_w < 0:
        raise DataError(f"negative total power: {total_power_w}")
    # one np.exp over the zones: math.exp rounds some values differently
    diffs = [t - c for t, c in zip(temps, params.target)]
    gauss = np.exp([-params.lambda_shape * (d * d) for d in diffs]).tolist()
    weight = -params.lambda_trapezoid
    r_temp = ordered_sum(
        g + weight * (positive_part(t - hi) + positive_part(lo - t))
        for g, t, lo, hi in zip(gauss, temps, params.band_low, params.band_high))
    r_power = -float(total_power_w)
    return RewardTerms(r_temp + params.lambda_power * r_power, r_temp, r_power)
