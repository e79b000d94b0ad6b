"""Surrogate building environments: lumped RC thermal networks with
synthetic or trace-driven weather, a rule-based baseline controller, and
trajectory plumbing.

Two facilities are modeled. The data-center ("dc") has two server zones
(west/east), each with a dedicated air loop whose supply temperature and
mass flow are controlled directly. The mixed-use office ("mu") models the
three observed temperature channels (zone 4, zone 5, and the average of
six remaining zones) served by two air-handling units; AHU 1 conditions
zone 5, AHU 2 the rest, and each zone's damper is modulated by a
proportional thermostat (zone 4's thermostat is hard-wired to 18 degC).

Zone dynamics are one explicit-Euler step per control interval:

    T_i += (dt / C_i) * [ (T_out - T_i)/R_oi + sum_j (T_j - T_i)/R_ij
                          + Q_int,i + m_i * c_p * (T_sup,i - T_i) ]

which is numerically stable provided dt < C_i / G_i,max; that bound is
enforced when parameters are constructed.

The per-step arithmetic (steps, weather, gains, reward, rule controller and
the agents' vector conversions in `envcore`) runs on Python floats with the
bits of the numpy array code it replaced, at a fraction of the dispatch
cost. Sums of a few floats go left to right from 0.0 (`ordered_sum`), as
numpy's `.sum()` does; `math.sin` equals `np.sin`; `np.clip` keeps a -0.0
and a NaN (so a NaN action still ends in a `SimulationFault`), and
`np.maximum(x, 0.0)` keeps no -0.0. Two calls stay numpy because the Python
forms round differently: the reward's `np.exp` over the zone vector and
`dc`'s `np.power` over its flow pair.

Every rollout runs through `EpisodeDriver`, the only code that resets and
steps a `BuildingEnv`: it drives one physical-units controller over
independent episodes in lockstep, each with its own environment and reset
seed, and `run_episode` records them as `Trajectory`s. The environments
stay scalar, one Python-float step per lane; what a lockstep step batches
is the controller's call, so a policy runs one forward pass per step for
all of its episodes.
"""
from __future__ import annotations

import copy
import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .envcore import (
    compute_reward,
    datacenter_act_spec,
    datacenter_obs_spec,
    datacenter_reward_params,
    mixeduse_act_spec,
    mixeduse_obs_spec,
    mixeduse_reward_params,
    ordered_sum,
    positive_part,
)
from .container import atomic_write, read_text
from .errors import DataError, SimulationFault, SpecError, UsageError
from .fingerprint import fingerprint, to_jsonable

SECONDS_PER_DAY = 86400.0
DAYS_PER_YEAR = 365.0


# ---------------------------------------------------------------------------
# internal gains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainSchedule:
    """Diurnal internal gains per zone: base + amplitude * sin(day phase).

    Every zone follows the same cycle, shifted by one phase offset that is
    drawn at reset and never observed, so the gain cycle position is
    hidden state that only observation history can reveal.
    """
    base_w: tuple[float, ...]        # steady internal load per zone, W
    amplitude_w: tuple[float, ...]   # diurnal swing per zone, W

    def __post_init__(self):
        if len(self.base_w) != len(self.amplitude_w):
            raise SpecError("gain base and amplitude lengths differ")
        for b, a in zip(self.base_w, self.amplitude_w):
            if b < 0 or a < 0 or a > b:
                raise SpecError("gains need 0 <= amplitude <= base")

    def at(self, t_seconds: float, phase: float) -> np.ndarray:
        hour_angle = 2.0 * math.pi * (t_seconds % SECONDS_PER_DAY) / SECONDS_PER_DAY
        s = math.sin(hour_angle + phase)
        return np.array([b + s * a for b, a in zip(self.base_w, self.amplitude_w)])


# ---------------------------------------------------------------------------
# thermal parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermalParams:
    kind: str                                  # "dc" or "mu"
    zone_names: tuple[str, ...]
    capacity_j_per_k: tuple[float, ...]        # C_i
    outdoor_r_k_per_w: tuple[float, ...]       # R_oi
    coupling_r_k_per_w: tuple[tuple[int, int, float], ...]  # (i, j, R_ij)
    gains: GainSchedule
    max_flow_kg_s: tuple[float, ...]           # peak supply mass flow per zone
    supply_cp: float = 1005.0                  # J/(kg K)
    fan_coeff: float = 30.0                    # W s^3 / kg^3
    cop_nominal: float = 3.5
    cop_slope: float = 0.05                    # COP loss per K above reference
    cop_ref_c: float = 15.0
    thermostat_gain: float = 0.5               # damper opening per K of error
    dt_s: float = 600.0

    def __post_init__(self):
        n = len(self.zone_names)
        if not (len(self.capacity_j_per_k) == len(self.outdoor_r_k_per_w)
                == len(self.max_flow_kg_s) == len(self.gains.base_w) == n):
            raise SpecError("per-zone field lengths disagree")
        if self.dt_s <= 0:
            raise SpecError("dt must be positive")
        for c in self.capacity_j_per_k:
            if c <= 0:
                raise SpecError("capacities must be positive")
        for r in self.outdoor_r_k_per_w:
            if r <= 0:
                raise SpecError("resistances must be positive")
        for i, j, r in self.coupling_r_k_per_w:
            if r <= 0:
                raise SpecError("resistances must be positive")
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise SpecError("bad coupling indices")
        # explicit-Euler stability: dt must undercut every zone's fastest
        # possible time constant C_i / G_i with the supply flow wide open
        for i in range(n):
            g = 1.0 / self.outdoor_r_k_per_w[i]
            for a, b, r in self.coupling_r_k_per_w:
                if i in (a, b):
                    g += 1.0 / r
            g += self.max_flow_kg_s[i] * self.supply_cp
            critical = self.capacity_j_per_k[i] / g
            if self.dt_s >= critical:
                raise SpecError(
                    f"dt={self.dt_s}s unstable for zone {self.zone_names[i]}: "
                    f"needs dt < {critical:.0f}s")

    def cop(self, t_out_c: float) -> float:
        return max(1.0, self.cop_nominal - self.cop_slope * (t_out_c - self.cop_ref_c))


def datacenter_thermal() -> ThermalParams:
    """Two server zones with dedicated supply loops, 10-minute control.

    Calibrated so the default rule controller holds the comfort band for
    most but not all of a 30-day episode on every weather preset: the
    diurnal load swing is wide enough that its peaks outrun the rule's
    proportional authority, while a modulating controller can track them.
    """
    return ThermalParams(
        kind="dc",
        zone_names=("west", "east"),
        capacity_j_per_k=(6.4e7, 6.4e7),
        outdoor_r_k_per_w=(0.05, 0.05),
        coupling_r_k_per_w=((0, 1, 0.02),),
        gains=GainSchedule(base_w=(35000.0, 35000.0),
                           amplitude_w=(8000.0, 8000.0)),
        max_flow_kg_s=(7.0, 7.0),
        fan_coeff=30.0,
        dt_s=600.0,
    )


def mixeduse_thermal() -> ThermalParams:
    """Zones (zone4, zone5, six-zone aggregate); AHU1 -> zone5, AHU2 -> rest.

    max_flow_kg_s holds each zone's design share of its AHU's peak flow.
    Zone 4 gets a small share and a strong coupling to the aggregate, so
    its hard-wired thermostat leaves it hovering at the band edge: it is
    overcooled whenever AHU 2 works hard and drifts warm when idle.
    """
    return ThermalParams(
        kind="mu",
        zone_names=("zone4", "zone5", "avg6"),
        capacity_j_per_k=(4.0e6, 1.2e7, 4.8e7),
        outdoor_r_k_per_w=(0.08, 0.06, 0.015),
        coupling_r_k_per_w=((0, 2, 0.02), (1, 2, 0.04)),
        gains=GainSchedule(base_w=(600.0, 2500.0, 3000.0),
                           amplitude_w=(300.0, 1500.0, 2000.0)),
        max_flow_kg_s=(0.2, 1.2, 1.8),   # zone4/avg6 split AHU2's 2.0 kg/s
        fan_coeff=80.0,
        thermostat_gain=1.0,
        dt_s=900.0,
    )


# zone 4's thermostat is fixed; the commanded zone setpoint never reaches it
MIXEDUSE_FIXED_ZONE4_SETPOINT = 18.0


# ---------------------------------------------------------------------------
# weather
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticWeather:
    """Deterministic seasonal + diurnal temperature curve with OU noise."""
    name: str
    mean_c: float
    annual_amp_c: float
    diurnal_amp_c: float
    mean_rh: float
    rh_amp: float
    dt_s: float
    annual_phase: float = -math.pi / 2.0      # coldest near day 0
    diurnal_phase: float = -3.0 * math.pi / 4.0   # warmest mid-afternoon
    noise_rate: float = 0.05                  # OU mean reversion per step
    noise_scale: float = 1.5                  # OU stationary std dev, degC
    t_min_c: float = -20.0                    # clamp keeps temps in obs range
    t_max_c: float = 50.0
    seed: int = 0


@dataclass(frozen=True)
class WeatherTrace:
    """Recorded outdoor conditions, one row per step; a step past the last
    row reads the last row."""
    name: str
    t_out_c: tuple[float, ...]
    rh_pct: tuple[float, ...]
    dt_s: float


# keyed by what a path depends on: the frozen model hashes slowly per step
_NOISE_PATHS: dict[tuple, np.ndarray] = {}


def _noise_path(model: SyntheticWeather, length: int) -> np.ndarray:
    key = (model.seed, model.noise_rate, model.noise_scale)
    cached = _NOISE_PATHS.get(key)
    if cached is not None and len(cached) >= length:
        return cached
    n = max(length, 4096, 0 if cached is None else 2 * len(cached))
    rng = np.random.default_rng(model.seed)
    theta = model.noise_rate
    sigma = model.noise_scale
    # innovation variance chosen so the marginal std stays exactly sigma
    z = rng.standard_normal(n + 1)
    shock_scale = sigma * math.sqrt(max(2.0 * theta - theta * theta, 0.0))
    keep = 1.0 - theta
    path = np.empty(n)
    x = float(sigma * z[0])
    # a memoryview yields Python floats: the same double arithmetic as
    # numpy scalars at half the cost, and no list copy of z
    for k, shock in enumerate(memoryview(z)[1:]):
        x = keep * x + shock_scale * shock
        path[k] = x
    _NOISE_PATHS[key] = path
    return path


def weather_at(model, step: int) -> tuple[float, float]:
    """Outdoor (temperature degC, relative humidity %) at a step index."""
    if step < 0:
        raise SpecError("weather step must be non-negative")
    if isinstance(model, WeatherTrace):
        idx = min(step, len(model.t_out_c) - 1)
        return float(model.t_out_c[idx]), float(model.rh_pct[idx])
    t = step * model.dt_s
    day = t / SECONDS_PER_DAY
    hour_angle = 2.0 * math.pi * (t % SECONDS_PER_DAY) / SECONDS_PER_DAY
    temp = (model.mean_c
            + model.annual_amp_c * math.sin(2.0 * math.pi * day / DAYS_PER_YEAR
                                            + model.annual_phase)
            + model.diurnal_amp_c * math.sin(hour_angle + model.diurnal_phase))
    noise = float(_noise_path(model, step + 1)[step]) if model.noise_scale > 0 else 0.0
    temp = min(max(temp + noise, model.t_min_c), model.t_max_c)
    rh = model.mean_rh + model.rh_amp * math.sin(hour_angle + model.diurnal_phase
                                                 + math.pi)
    return temp, min(max(rh, 0.0), 100.0)


def _dc_preset(name, mean, annual, diurnal, rh, seed):
    return SyntheticWeather(name=name, mean_c=mean, annual_amp_c=annual,
                            diurnal_amp_c=diurnal, mean_rh=rh, rh_amp=12.0,
                            dt_s=600.0, t_min_c=-20.0, t_max_c=50.0, seed=seed)


def _mu_preset(name, mean, annual, diurnal, rh, seed):
    return SyntheticWeather(name=name, mean_c=mean, annual_amp_c=annual,
                            diurnal_amp_c=diurnal, mean_rh=rh, rh_amp=15.0,
                            dt_s=900.0, t_min_c=-10.0, t_max_c=40.0, seed=seed)


# constants are plausible-looking but invented; only their diversity matters
WEATHER_PRESETS: dict[str, SyntheticWeather] = {
    "chicago": _dc_preset("chicago", 10.0, 14.0, 5.0, 62.0, 11),
    "san_francisco": _dc_preset("san_francisco", 14.0, 4.0, 4.0, 70.0, 12),
    "sterling": _dc_preset("sterling", 13.0, 12.0, 5.0, 64.0, 13),
    "tampa": _dc_preset("tampa", 23.0, 6.0, 4.0, 74.0, 14),
    "hong_kong": _dc_preset("hong_kong", 24.0, 6.0, 3.0, 78.0, 15),
    "athens": _mu_preset("athens", 18.0, 9.0, 4.0, 60.0, 21),
    "skiathos": _mu_preset("skiathos", 16.0, 8.0, 3.0, 68.0, 22),
    "larisa": _mu_preset("larisa", 16.0, 10.0, 5.0, 63.0, 23),
    "trikala": _mu_preset("trikala", 15.5, 10.0, 5.0, 62.0, 24),
    "lamia": _mu_preset("lamia", 17.0, 9.0, 4.0, 61.0, 25),
}

TRAIN_PRESETS = {
    "dc": ("chicago", "san_francisco", "sterling", "tampa"),
    "mu": ("athens", "skiathos", "larisa", "trikala"),
}
EVAL_PRESET = {"dc": "hong_kong", "mu": "lamia"}


def load_weather_trace(path, dt_s: float, name: str | None = None) -> WeatherTrace:
    """Read a `step,t_out_c,rh_pct` CSV into a trace; another header, no
    rows or a row other than its step from 0 and two numbers is a DataError."""
    path = Path(path)
    lines = list(csv.reader(io.StringIO(read_text(path))))
    if lines[:1] != [["step", "t_out_c", "rh_pct"]]:
        raise DataError(f"{path}: expected header step,t_out_c,rh_pct, "
                        f"got {lines[:1]}")
    try:
        steps, temps, rhs = zip(*((int(s), float(t), float(h))
                                  for s, t, h in filter(None, lines[1:])))
    except ValueError as e:     # a short, long or non-numeric row; no rows
        raise DataError(f"{path}: rows must be 3 numbers: {e}") from None
    if steps != tuple(range(len(steps))):
        raise DataError(f"{path}: step column does not count from 0")
    return WeatherTrace(name=name or path.stem, t_out_c=temps, rh_pct=rhs,
                        dt_s=dt_s)


# ---------------------------------------------------------------------------
# state, stepping, observation assembly
# ---------------------------------------------------------------------------

@dataclass
class EnvState:
    zone_temps_c: np.ndarray     # float64, one per zone
    gain_phase: float            # hidden per-episode schedule offset
    step_index: int


@dataclass(frozen=True)
class PowerBreakdown:
    building_w: float
    fan_w: float
    coil_w: float

    @property
    def hvac_w(self) -> float:
        return self.fan_w + self.coil_w

    @property
    def total_w(self) -> float:
        return self.building_w + self.hvac_w

    @property
    def pue(self) -> float:
        return self.total_w / max(self.building_w, 1.0)


def _advance_temps(temps: list, t_out: float, gains: list, hvac_w: list,
                   params: ThermalParams) -> list:
    """The zone temperatures one Euler step on, as lists of floats."""
    flux = [g + h + (t_out - t) / r for g, h, t, r
            in zip(gains, hvac_w, temps, params.outdoor_r_k_per_w)]
    for i, j, r in params.coupling_r_k_per_w:
        q = (temps[j] - temps[i]) / r
        flux[i] += q
        flux[j] -= q
    new = [t + params.dt_s * f / c
           for t, f, c in zip(temps, flux, params.capacity_j_per_k)]
    if not all(map(math.isfinite, new)):
        raise SimulationFault("non-finite zone temperature", state_dump={
            "temps": temps, "t_out": t_out, "gains": gains, "hvac_w": hvac_w})
    return new


def step_datacenter(state: EnvState, act: np.ndarray, params: ThermalParams,
                    weather) -> tuple[EnvState, np.ndarray, PowerBreakdown]:
    """One control interval from a physical action vector
    [sp_west, sp_east, flow_west, flow_east]; returns the next state, its
    physical observation vector and the interval's power."""
    act = np.asarray(act, dtype=float)
    setpoints, flows = act[:2].tolist(), act[2:].tolist()
    t_out, rh = weather_at(weather, state.step_index)
    gains = params.gains.at(state.step_index * params.dt_s, state.gain_phase).tolist()
    temps = state.zone_temps_c.tolist()
    cp = params.supply_cp

    hvac_heat = [f * cp * (sp - t) for f, sp, t in zip(flows, setpoints, temps)]
    new_temps = _advance_temps(temps, t_out, gains, hvac_heat, params)

    cop = params.cop(t_out)
    # the cubes stay one numpy power: Python's ** rounds some differently
    fan_w = ordered_sum(params.fan_coeff * c for c in np.power(act[2:], 3).tolist())
    coil_w = ordered_sum(f * cp * positive_part(t - sp)
                         for f, sp, t in zip(flows, setpoints, temps)) / cop
    power = PowerBreakdown(ordered_sum(gains), fan_w, coil_w)
    new_state = EnvState(np.array(new_temps), state.gain_phase, state.step_index + 1)
    obs = assemble_observation(new_state, power, (t_out, rh), params)
    return new_state, obs, power


def _damper(zone_temp: float, zone_set: float, supply_temp: float,
            gain: float) -> float:
    """Proportional thermostat: open only when supply air corrects the error."""
    err = zone_temp - zone_set
    if supply_temp < zone_temp:
        opening = gain * err          # cool air admitted when too warm
    elif supply_temp > zone_temp:
        opening = -gain * err         # warm air admitted when too cold
    else:
        return 0.0
    return min(max(opening, 0.0), 1.0)


def step_mixeduse(state: EnvState, act: np.ndarray, params: ThermalParams,
                  weather) -> tuple[EnvState, np.ndarray, PowerBreakdown]:
    """One control interval from a physical action vector [zone_setpoint,
    ahu1_setpoint, ahu2_setpoint, ahu1_flow, ahu2_flow]; returns as
    `step_datacenter` does.

    AHU 1 serves zone5 (index 1); AHU 2 serves zone4 and avg6 (0 and 2).
    Flows are fractions of each zone's design share of its AHU peak flow.
    """
    zone_set, sp1, sp2, f1, f2 = np.asarray(act, dtype=float).tolist()
    t_out, rh = weather_at(weather, state.step_index)
    gains = params.gains.at(state.step_index * params.dt_s, state.gain_phase).tolist()
    temps = state.zone_temps_c.tolist()

    supply, flow_frac = (sp2, sp1, sp2), (f2, f1, f2)
    targets = (MIXEDUSE_FIXED_ZONE4_SETPOINT, zone_set, zone_set)
    hvac_heat = [
        _damper(t, target, s, params.thermostat_gain) * f * m
        * params.supply_cp * (s - t)
        for t, target, s, f, m
        in zip(temps, targets, supply, flow_frac, params.max_flow_kg_s)]
    new_temps = _advance_temps(temps, t_out, gains, hvac_heat, params)

    cop = params.cop(t_out)
    # AHU fan work follows commanded flow even when dampers are shut
    ahu_peaks = (params.max_flow_kg_s[1], params.max_flow_kg_s[0] + params.max_flow_kg_s[2])
    fan_w = params.fan_coeff * ((f1 * ahu_peaks[0]) ** 3 + (f2 * ahu_peaks[1]) ** 3)
    cooling = ordered_sum(positive_part(-h) for h in hvac_heat)
    heating = ordered_sum(positive_part(h) for h in hvac_heat)
    power = PowerBreakdown(building_w=ordered_sum(gains), fan_w=float(fan_w),
                           coil_w=cooling / cop + heating)
    new_state = EnvState(np.array(new_temps), state.gain_phase, state.step_index + 1)
    obs = assemble_observation(new_state, power, (t_out, rh), params)
    return new_state, obs, power


def assemble_observation(state: EnvState, power: PowerBreakdown,
                         outdoor: tuple[float, float],
                         params: ThermalParams) -> np.ndarray:
    """Pure projection of (state, power breakdown, weather) onto the
    physical observation vector of the kind's obs spec."""
    t_out, rh = outdoor
    kw = 1e-3
    temps = state.zone_temps_c.tolist()
    if params.kind == "dc":
        return np.array([
            power.total_w * kw, power.hvac_w * kw, power.building_w * kw,
            t_out, rh, temps[0], temps[1], power.pue,
        ])
    return np.array([
        power.total_w * kw, power.hvac_w * kw, power.building_w * kw,
        rh, t_out, temps[0], temps[1], temps[2],
    ])


# ---------------------------------------------------------------------------
# environment wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvConfig:
    kind: str = "dc"                     # "dc" or "mu"
    weather: str = ""                    # "preset:<name>" or "csv:<path>"; "" = eval preset
    days: float = 30.0

    def __post_init__(self):
        if self.kind not in ("dc", "mu"):
            raise SpecError(f"unknown environment kind {self.kind!r}")
        if not self.days > 0:
            raise SpecError(f"days must be positive, got {self.days}")

    @property
    def horizon(self) -> int:
        """Control steps in an episode: ``days`` at the kind's thermal step;
        days that no float can count in steps are a SpecError."""
        thermal = (datacenter_thermal() if self.kind == "dc"
                   else mixeduse_thermal())
        steps = self.days * SECONDS_PER_DAY / thermal.dt_s
        if not math.isfinite(steps):
            raise SpecError(f"days={self.days} is too long to count in steps")
        return int(round(steps))

    @property
    def weather_spec(self) -> str:
        """The weather this config runs: ``weather``, or the kind's
        evaluation preset when that is blank."""
        return self.weather or f"preset:{EVAL_PRESET[self.kind]}"

    def resolve_weather(self, dt_s: float):
        spec = self.weather_spec
        if spec.startswith("preset:"):
            name = spec.split(":", 1)[1]
            if name not in WEATHER_PRESETS:
                raise SpecError(f"unknown weather preset {name!r}")
            model = WEATHER_PRESETS[name]
            if model.dt_s != dt_s:
                model = replace(model, dt_s=dt_s)
            return model
        if spec.startswith("csv:"):
            return load_weather_trace(spec.split(":", 1)[1], dt_s=dt_s)
        raise SpecError(f"weather must be preset:<name> or csv:<path>, got {spec!r}")


class BuildingEnv:
    """Stateful episode wrapper around the pure step functions.

    `reset` returns and `step` takes and returns float64 vectors in the
    physical units of `obs_spec` and `act_spec`.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        if config.kind == "dc":
            self.thermal = datacenter_thermal()
            self.reward_params = datacenter_reward_params()
            self.obs_spec = datacenter_obs_spec()
            self.act_spec = datacenter_act_spec()
            self._step_fn = step_datacenter
        else:
            self.thermal = mixeduse_thermal()
            self.reward_params = mixeduse_reward_params()
            self.obs_spec = mixeduse_obs_spec()
            self.act_spec = mixeduse_act_spec()
            self._step_fn = step_mixeduse
        self.weather = config.resolve_weather(self.thermal.dt_s)
        self.horizon = config.horizon
        self.state: EnvState | None = None
        self._steps_this_episode = 0

    def variant(self, weather: str | None = None,
                days: float | None = None) -> "BuildingEnv":
        """This environment with other weather or episode length.

        Thermal and reward parameters are kept; a bare weather name means
        ``preset:NAME``, and a blank one keeps the current weather. Returns
        ``self`` when nothing changes.
        """
        cfg = self.config
        if weather:
            cfg = replace(cfg, weather=weather if ":" in weather
                          else f"preset:{weather}")
        if days is not None:
            cfg = replace(cfg, days=days)
        if cfg == self.config:
            return self
        return BuildingEnv(cfg)

    def fingerprint(self) -> str:
        return fingerprint({
            "config": to_jsonable(self.config),
            "thermal": to_jsonable(self.thermal),
            "weather": to_jsonable(self.weather),
            "reward": to_jsonable(self.reward_params),
            "horizon": self.horizon,
        })

    @property
    def n_zones(self) -> int:
        return len(self.thermal.zone_names)

    def reset(self, seed: int) -> np.ndarray:
        if seed < 0:
            raise UsageError(f"reset seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        steps_per_year = int(DAYS_PER_YEAR * SECONDS_PER_DAY / self.thermal.dt_s)
        start = int(rng.integers(0, steps_per_year))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        mid = np.array(self.reward_params.target)
        temps = mid + rng.uniform(-2.0, 2.0, size=self.n_zones)
        self.state = EnvState(zone_temps_c=temps.astype(np.float64),
                              gain_phase=phase, step_index=start)
        self._steps_this_episode = 0
        # initial observation: HVAC idle, building load only
        t_out, rh = weather_at(self.weather, start)
        gains = self.thermal.gains.at(start * self.thermal.dt_s, phase)
        power = PowerBreakdown(building_w=ordered_sum(gains.tolist()),
                               fan_w=0.0, coil_w=0.0)
        return assemble_observation(self.state, power, (t_out, rh), self.thermal)

    def step(self, act: np.ndarray) -> tuple[np.ndarray, float, bool, dict]:
        if self.state is None:
            raise SpecError("step() before reset()")
        self.act_spec.validate_physical(act)
        self.state, obs, power = self._step_fn(self.state, act, self.thermal,
                                               self.weather)
        terms = compute_reward(self.state.zone_temps_c, power.total_w,
                               self.reward_params)
        self._steps_this_episode += 1
        done = self._steps_this_episode >= self.horizon
        info = {"power": power, "zone_temps": self.state.zone_temps_c.copy()}
        return obs, terms.total, done, info


# ---------------------------------------------------------------------------
# rule-based baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleGains:
    deadband_c: float = 0.5
    setpoint_gain: float = 2.0    # supply setpoint degC moved per degC of error
    flow_gain: float = 0.6        # flow (kg/s or fraction) added per degC of error


# Frozen against the default surrogates: each facility sits below full
# band compliance (its proportional authority runs out at load peaks)
# while staying far from runaway, which leaves the learned controllers
# measurable room on both comfort and fan energy.
DEFAULT_RULE_GAINS = {"dc": RuleGains(setpoint_gain=7.0, flow_gain=3.5),
                      "mu": RuleGains(setpoint_gain=14.0, flow_gain=3.5)}
# the action spec and reward parameters `rule_controller` reads on every
# step, built once
_RULE_SPECS = {"dc": (datacenter_act_spec(), datacenter_reward_params()),
               "mu": (mixeduse_act_spec(), mixeduse_reward_params())}


def rule_controller(obs: np.ndarray, kind: str) -> np.ndarray:
    """Deadband-plus-proportional baseline: a physical action vector from a
    physical observation vector, deterministic in the observation."""
    g = DEFAULT_RULE_GAINS[kind]
    spec, params = _RULE_SPECS[kind]
    obs = np.asarray(obs, dtype=np.float64).tolist()
    if kind == "dc":
        values = [0.0] * 4
        for i, (temp, target) in enumerate(zip(obs[5:7], params.target)):
            err = temp - target
            if abs(err) <= g.deadband_c:
                values[i] = target
                values[2 + i] = spec.dims[2 + i].low
            else:
                lo, hi = spec.dims[i].low, spec.dims[i].high
                values[i] = min(max(target - g.setpoint_gain * err, lo), hi)
                flo, fhi = spec.dims[2 + i].low, spec.dims[2 + i].high
                values[2 + i] = min(max(flo + g.flow_gain * abs(err), flo), fhi)
        return np.array(values)
    target = params.target[1]   # shared comfort target
    zone4, zone5, avg6 = obs[5:8]
    err1 = zone5 - target
    err2 = (zone4 - target + avg6 - target) / 2.0
    values = [0.0] * 5
    values[0] = min(max(target, spec.dims[0].low), spec.dims[0].high)
    for slot, err in ((1, err1), (2, err2)):
        lo, hi = spec.dims[slot].low, spec.dims[slot].high
        if abs(err) <= g.deadband_c:
            values[slot] = min(max(target, lo), hi)
            values[3 + slot - 1] = 0.0
        else:
            values[slot] = min(max(target - g.setpoint_gain * err, lo), hi)
            values[3 + slot - 1] = min(max(g.flow_gain * abs(err), 0.0), 1.0)
    return np.array(values)


# ---------------------------------------------------------------------------
# episodes and trajectory export
# ---------------------------------------------------------------------------

class _EachLane:
    """A controller function of one observation, applied lane by lane."""

    def __init__(self, fn):
        self.fn = fn

    def reset(self, n: int) -> None:
        pass

    def act_lanes(self, obs: list, lanes: list) -> list:
        return list(map(self.fn, obs))


class EpisodeDriver:
    """The one loop that resets and steps `BuildingEnv`s: independent
    episodes, one per lane, that step in lockstep as a Gymnasium vector
    environment does.

    ``episodes`` lists each lane's environment and reset seed; the seeds
    are kept in ``reset_seeds``. Every lane steps its own shallow copy of
    its environment, so lanes may name one environment, and each copy keeps
    the scalar per-step arithmetic of the module docstring. ``controller``
    maps one physical observation vector to a physical action vector and is
    called lane by lane, unless it chooses for all lanes at once: then
    ``controller.reset(n)`` is called as the n episodes begin and
    ``controller.act_lanes(obs, lanes)`` maps the running lanes'
    observations to their actions, in the order of ``lanes``. A single
    episode is a batch of one.
    """

    def __init__(self, episodes, controller):
        self.envs = [copy.copy(env) for env, _ in episodes]
        self.reset_seeds = [seed for _, seed in episodes]
        if not hasattr(controller, "act_lanes"):
            controller = _EachLane(controller)
        self.controller = controller
        controller.reset(len(self.envs))
        # the next action's observation, per lane
        self.obs = [env.reset(seed)
                    for env, seed in zip(self.envs, self.reset_seeds)]
        self.running = list(range(len(self.envs)))

    def step(self) -> list[tuple]:
        """One controller call and one environment step for each running
        lane, in lane order: per lane ``(lane, obs, act, reward, done, info,
        fault)``, where ``obs`` is the observation ``act`` was chosen from.
        A lane whose episode ends, or whose step raises a `SimulationFault`
        (then ``fault``, with ``done`` set and no reward or info), stops
        running; a fault leaves the lane's ``obs`` where it was."""
        lanes = self.running
        obs = list(map(self.obs.__getitem__, lanes))
        steps, running = [], []
        for k, o, act in zip(lanes, obs,
                             self.controller.act_lanes(obs, lanes),
                             strict=True):
            try:
                step = self.envs[k].step(act)
            except SimulationFault as exc:
                steps.append((k, o, act, None, True, None, exc))
                continue
            self.obs[k], reward, done, info = step
            steps.append((k, o, act, reward, done, info, None))
            if not done:
                running.append(k)
        self.running = running
        return steps


@dataclass
class Trajectory:
    obs: np.ndarray          # (n+1, obs_dim) physical values, obs[0] from reset
    actions: np.ndarray      # (n, act_dim) physical values
    rewards: np.ndarray      # (n,)
    zone_temps: np.ndarray   # (n, zones) post-step temperatures
    total_power_w: np.ndarray  # (n,)
    terminals: np.ndarray    # (n,) bool
    seed: int
    weather_name: str
    fault: str | None = None   # populated when a simulation fault truncated the run

    def __len__(self) -> int:
        return len(self.actions)


def run_episode(episodes, controller) -> list:
    """Recorded `EpisodeDriver` episodes: for each ``(env, seed)`` lane of
    ``episodes``, ``env.horizon`` steps of ``controller`` from
    ``env.reset(seed)``, all lanes in lockstep, as one `Trajectory` per
    lane in lane order. A simulation fault ends only its own episode early
    and is recorded in its ``Trajectory.fault``.
    """
    if any(env.horizon < 1 for env, _ in episodes):
        raise SpecError("horizon must be >= 1")
    driver = EpisodeDriver(episodes, controller)
    steps = [[] for _ in episodes]
    faults = [None] * len(episodes)
    while driver.running:
        for lane, obs, act, reward, done, info, fault in driver.step():
            if fault is None:
                steps[lane].append((obs, act, reward, done, info["zone_temps"],
                                    info["power"].total_w))
            else:
                faults[lane] = str(fault)
    trajs = []
    for k, lane_env in enumerate(driver.envs):
        obs, acts, rewards, terms, temps, powers = (list(zip(*steps[k]))
                                                    or [()] * 6)
        trajs.append(Trajectory(
            obs=np.asarray(obs + (driver.obs[k],)),
            # explicit widths, so a fault on the first step records 0 rows
            actions=np.asarray(acts, dtype=float).reshape(
                len(acts), lane_env.act_spec.size),
            rewards=np.asarray(rewards),
            zone_temps=np.asarray(temps).reshape(len(temps), lane_env.n_zones),
            total_power_w=np.asarray(powers),
            terminals=np.asarray(terms, dtype=bool),
            seed=driver.reset_seeds[k],
            weather_name=getattr(lane_env.weather, "name", "unknown"),
            fault=faults[k],
        ))
    return trajs


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per step of ``traj``: ``step, obs_*, act_*, reward,
    terminal`` with the post-step observation, the layout
    `read_trajectory_csv` reads. The rows stream to `atomic_write` as one
    byte chunk each, so the whole file is never held in memory."""
    obs, actions = traj.obs[1:], traj.actions
    header = (["step"] + [f"obs_{i}" for i in range(obs.shape[1])]
              + [f"act_{i}" for i in range(actions.shape[1])]
              + ["reward", "terminal"])
    # `tolist` turns every value into a Python float (terminals into bools),
    # written as its repr, the shortest exact representation, as the csv
    # module would: reading the file back reproduces the in-memory values
    # bit for bit. No value needs csv quoting, so each row is one join.
    rows = zip(obs.tolist(), actions.tolist(), traj.rewards.tolist(),
               traj.terminals.tolist())

    def chunks():
        yield (",".join(header) + "\n").encode()
        for t, (o, a, r, d) in enumerate(rows):
            yield (f"{t},{','.join(map(repr, o))},{','.join(map(repr, a))},"
                   f"{r!r},{int(d)}\n").encode()

    atomic_write(path, chunks())


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """The columns of a `write_trajectory_csv` file, parsed by numpy's C
    reader, which rounds each value as ``float`` does."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    n_obs = sum(1 for h in header if h.startswith("obs_"))
    n_act = sum(1 for h in header if h.startswith("act_"))
    return {
        "obs": data[:, 1:1 + n_obs],
        "actions": data[:, 1 + n_obs:1 + n_obs + n_act],
        "rewards": data[:, 1 + n_obs + n_act],
        "terminals": data[:, 2 + n_obs + n_act].astype(bool),
    }
