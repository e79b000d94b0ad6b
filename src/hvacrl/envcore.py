"""Shared domain types: observation/action layouts, normalization, reward.

Everything here is a pure function of its inputs; simulators, agents and
the evaluation harness all build on these definitions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        object.__setattr__(self, "_lows", np.array([d.low for d in self.dims], dtype=np.float64))
        object.__setattr__(self, "_highs", np.array([d.high for d in self.dims], dtype=np.float64))

    @property
    def size(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    @property
    def lows(self) -> np.ndarray:
        return self._lows

    @property
    def highs(self) -> np.ndarray:
        return self._highs

    def fingerprint(self) -> str:
        return fingerprint([[d.name, d.low, d.high, d.unit] for d in self.dims])

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SpecError(f"no dimension named {name!r} in {self.kind} spec") from None

    def validate_physical(self, values) -> None:
        """Reject vectors of the wrong size or outside the physical ranges."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.size,):
            raise SpecError(f"{self.kind} vector has shape {values.shape}, "
                            f"expected ({self.size},)")
        if np.any(values < self._lows - 1e-6) or np.any(values > self._highs + 1e-6):
            bad = [self.dims[i].name for i in range(self.size)
                   if not (self._lows[i] - 1e-6 <= values[i] <= self._highs[i] + 1e-6)]
            raise SpecError(f"{self.kind} values out of range for {bad}")


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


@dataclass(frozen=True)
class Observation:
    values: np.ndarray  # physical units, matches an obs VectorSpec
    timestamp: int = 0


@dataclass(frozen=True)
class Action:
    values: np.ndarray
    normalized: bool = False  # True: values in [-1, 1]; False: physical units


@dataclass
class ClipCounter:
    """Counts out-of-range values clipped during observation normalization."""

    events: int = 0

    def add(self, n: int) -> None:
        self.events += int(n)


def normalize_obs(obs: Observation, spec: VectorSpec, counter: ClipCounter | None = None) -> np.ndarray:
    """Min-max normalize an observation into the unit interval per dimension.

    Out-of-range values clip to the range edge; each clipped entry bumps the
    counter rather than raising (surrogate excursions are expected).
    """
    values = np.asarray(obs.values, dtype=np.float64)
    if values.shape != (spec.size,):
        raise SpecError(f"observation has shape {values.shape}, spec expects ({spec.size},)")
    if not np.all(np.isfinite(values)):
        raise DataError(f"non-finite observation values: {values}")
    unit = (values - spec.lows) / (spec.highs - spec.lows)
    clipped = np.clip(unit, 0.0, 1.0)
    if counter is not None:
        counter.add(int(np.sum(clipped != unit)))
    return clipped


def normalize_action(act: Action, spec: VectorSpec) -> Action:
    """Map a physical action affinely onto [-1, 1] per dimension."""
    if act.normalized:
        return act
    values = np.asarray(act.values, dtype=np.float64)
    if values.shape != (spec.size,):
        raise SpecError(f"action has shape {values.shape}, spec expects ({spec.size},)")
    if np.any(values < spec.lows - 1e-6) or np.any(values > spec.highs + 1e-6):
        raise DataError(f"physical action outside spec range: {values}")
    values = np.clip(values, spec.lows, spec.highs)
    unit = 2.0 * (values - spec.lows) / (spec.highs - spec.lows) - 1.0
    return Action(values=unit, normalized=True)


def denormalize_action(act: Action, spec: VectorSpec) -> Action:
    """Inverse of `normalize_action`; output is clipped into the physical range."""
    if not act.normalized:
        return act
    values = np.asarray(act.values, dtype=np.float64)
    if values.shape != (spec.size,):
        raise SpecError(f"action has shape {values.shape}, spec expects ({spec.size},)")
    unit = np.clip(values, -1.0, 1.0)
    phys = spec.lows + (unit + 1.0) * 0.5 * (spec.highs - spec.lows)
    return Action(values=np.clip(phys, spec.lows, spec.highs), normalized=False)


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
    literal_trapezoid_sign: bool = False  # audit mode: add the trapezoid term instead of subtracting

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


def mixeduse_reward_params(literal_trapezoid_sign: bool = False) -> RewardParams:
    # Shared comfort band over the three observed channels (zone4, zone5, avg6).
    return RewardParams(0.5, 0.1, 2e-5, (23.5,) * 3, (23.0,) * 3, (24.0,) * 3,
                        literal_trapezoid_sign)


def datacenter_reward_params(literal_trapezoid_sign: bool = False) -> RewardParams:
    return RewardParams(0.5, 0.1, 1e-5, (22.0,) * 2, (21.0,) * 2, (23.0,) * 2,
                        literal_trapezoid_sign)


@dataclass(frozen=True)
class RewardTerms:
    total: float
    temperature: float  # summed Gaussian minus weighted trapezoid terms
    power: float  # -P_t, watts


def compute_reward(zone_temps: np.ndarray, total_power_w: float, params: RewardParams) -> RewardTerms:
    """Comfort/energy reward: r = r_T + lambda_power * (-P_t).

    Per zone, a Gaussian bump rewards proximity to the target and a trapezoid
    term penalizes distance outside the tolerance band. The trapezoid enters
    with a minus sign (violations are penalties); `literal_trapezoid_sign`
    flips it to the printed-plus form for audit only.
    """
    temps = np.asarray(zone_temps, dtype=np.float64)
    if temps.shape != (params.n_zones,):
        raise SpecError(f"expected {params.n_zones} zone temperatures, got shape {temps.shape}")
    if not np.all(np.isfinite(temps)) or not math.isfinite(total_power_w):
        raise DataError("non-finite reward inputs")
    if total_power_w < 0:
        raise DataError(f"negative total power: {total_power_w}")
    target = np.asarray(params.target)
    gauss = np.exp(-params.lambda_shape * (temps - target) ** 2)
    trap = np.maximum(temps - np.asarray(params.band_high), 0.0) \
        + np.maximum(np.asarray(params.band_low) - temps, 0.0)
    sign = 1.0 if params.literal_trapezoid_sign else -1.0
    r_temp = float(np.sum(gauss + sign * params.lambda_trapezoid * trap))
    r_power = -float(total_power_w)
    return RewardTerms(r_temp + params.lambda_power * r_power, r_temp, r_power)


def episode_return(rewards, gamma: float) -> float:
    """Discounted sum of a reward sequence; gamma=1 gives the plain sum."""
    if not 0.0 <= gamma <= 1.0:
        raise SpecError(f"gamma must be in [0, 1], got {gamma}")
    total = 0.0
    weight = 1.0
    for r in rewards:
        total += weight * float(r)
        weight *= gamma
    return total
