"""Scenario configuration: flat sectioned key-value files resolved into the
inputs of the rate, noise, channel and finite-size modules.

Grammar (INI as read by configparser, one level of sections):

    [scenario]   channel, protocol, lo, trust, security, attack
    [physics]    quantities with optional unit suffix, keys named after the
                 setup symbols (lambda, w, nep, l_w, p_lo, c, dt_lo, ...)
    [protocol]   block sizes and epsilons (n_total, m, d, beta, p_ec, eps, mu)
    [sweep]      variable, start, stop, points        (sweep command)
    [point]      loss_db | distance | z_max           (rate / simulate)
    [simulate]   pulses [, pilot_rate]                (simulate command)
    [coverage]   rounds, pulses, eps_pe               (coverage command)

Quantities accept a numeric part (float, inf, or base^exponent like 2^-33)
followed by an optional unit suffix that scales to SI: nm um mm cm m km pm,
Hz kHz MHz GHz, W mW uW, pW/rtHz, s ms us ns, sr, K, rad mrad urad, deg,
deg2, dB (scale 1). Cross-field rules are checked before dispatch and
violations cite the rule by name.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from .channel import microwave_best_range
from .finite_size import ProtocolParams, confidence_w, total_epsilon
from .noise import (
    ReceiverOptics,
    SetupConfig,
    microwave_thermal_photons,
    sky_background_photons,
    theta_el,
    theta_ph,
)


class ConfigError(ValueError):
    """Scenario file cannot be resolved; the message names the violated rule."""


_UNIT_SCALE = {
    "": 1.0,
    "m": 1.0, "nm": 1e-9, "um": 1e-6, "mm": 1e-3, "cm": 1e-2, "km": 1e3,
    "pm": 1e-12,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
    "w": 1.0, "mw": 1e-3, "uw": 1e-6,
    "pw/rthz": 1e-12, "w/rthz": 1.0,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
    "sr": 1.0, "k": 1.0,
    "rad": 1.0, "mrad": 1e-3, "urad": 1e-6,
    "deg": math.pi / 180.0, "deg2": (math.pi / 180.0) ** 2,
    "db": 1.0,
}

_QUANTITY_RE = re.compile(
    r"^(?P<num>[+-]?(?:inf|\d[\d.eE+\-^]*|\.\d[\d.eE+\-^]*))\s*(?P<unit>[A-Za-z][\w/]*)?$"
)
_POWER_RE = re.compile(r"^(?P<base>[+-]?\d+(?:\.\d+)?)\^(?P<exp>[+-]?\d+(?:\.\d+)?)$")

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}

CHANNELS = ("fixed-loss", "optical-fixed", "optical-mobile", "microwave")
SWEEP_VARIABLE = {"fixed-loss": "loss_db", "optical-fixed": "distance",
                  "optical-mobile": "z_max", "microwave": "distance"}


def parse_quantity(text: str) -> float:
    """Parse '800 nm', '2^-33', '6 pW/rtHz', '1e7', 'inf' into an SI float."""
    match = _QUANTITY_RE.match(text.strip())
    if match is None:
        raise ConfigError(f"cannot parse quantity {text!r}")
    num, unit = match.group("num"), match.group("unit") or ""
    power = _POWER_RE.match(num)
    try:
        # math.pow rejects what ** would make complex or divide by zero
        value = math.pow(float(power.group("base")), float(power.group("exp"))) \
            if power else float(num)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse number {num!r} in {text!r}") from exc
    scale = _UNIT_SCALE.get(unit.lower())
    if scale is None:
        raise ConfigError(f"unknown unit {unit!r} in {text!r}")
    return value * scale


def parse_count(section: str, key: str, text: str) -> int:
    """Parse an integer-valued quantity such as '32' or '1e6'; fractional or
    non-finite values are rejected rather than truncated."""
    value = parse_quantity(text)
    if not math.isfinite(value) or value != math.floor(value):
        raise ConfigError(f"[{section}] {key} must be an integer, got {text!r} "
                          "(rule: integer-count)")
    return int(value)


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


@dataclass(frozen=True)
class Scenario:
    """Fully resolved scenario: validated choices, SI physics, protocol block.

    derived echoes the scenario-level quantities computed during resolution
    (setup-noise coefficients, thermal photon numbers, block arithmetic,
    confidence parameter, epsilon budget).
    """

    channel: str
    nu_det: int
    lo_kind: str | None
    trust: int
    security: str
    attack: str
    physics: dict
    params: ProtocolParams
    improved_aep: bool
    f_th: float
    bins: int
    sweep: tuple | None = None        # (variable, start, stop, points)
    point: tuple | None = None        # (variable, value)
    simulate: dict | None = None
    coverage: dict | None = None
    derived: dict = field(default_factory=dict)

    @property
    def sigma_x2(self) -> float:
        return self.params.mu - 1.0

    def setup_config(self) -> SetupConfig:
        p = self.physics
        return SetupConfig(wavelength=p["lambda"], detector_bandwidth=p["w"],
                           nep=p["nep"], lo_power=p["p_lo"],
                           lo_pulse_duration=p["dt_lo"], linewidth=p["l_w"],
                           clock=p["c"], nu_det=self.nu_det,
                           sigma_x2=self.sigma_x2, lo_kind=self.lo_kind)


_SCENARIO_KEYS = {"channel", "protocol", "lo", "trust", "security", "attack"}

_PHYSICS_OPTICAL = {"lambda", "eta_eff", "w", "nep", "l_w", "p_lo", "c",
                    "dt_lo", "n_b", "n_other"}
_PHYSICS_KEYS = {
    "fixed-loss": _PHYSICS_OPTICAL,
    "optical-fixed": _PHYSICS_OPTICAL | {"w0", "a_r", "eta_atm", "omega_fov",
                                         "dlambda", "b_sky"},
    "optical-mobile": _PHYSICS_OPTICAL | {"w0", "a_r", "eta_atm", "omega_fov",
                                          "dlambda", "b_sky", "sigma_p"},
    "microwave": {"lambda", "g", "a_r", "omega_fov", "t", "eta_eff"},
}
_PHYSICS_REQUIRED = {
    "fixed-loss": {"lambda", "eta_eff", "w", "nep", "l_w", "p_lo", "c",
                   "dt_lo", "n_b"},
    "optical-fixed": {"lambda", "eta_eff", "w", "nep", "l_w", "p_lo", "c",
                      "dt_lo", "w0", "a_r"},
    "optical-mobile": {"lambda", "eta_eff", "w", "nep", "l_w", "p_lo", "c",
                       "dt_lo", "w0", "a_r", "sigma_p"},
    "microwave": {"lambda", "g", "a_r", "omega_fov", "t", "eta_eff"},
}

_PROTOCOL_KEYS = {"n_total", "m", "m_pl", "f_et", "d", "beta", "p_ec", "eps",
                  "eps_pe", "eps_s", "eps_h", "eps_cor", "mu", "improved_aep",
                  "f_th", "bins"}
_SWEEP_KEYS = {"variable", "start", "stop", "points"}
_POINT_KEYS = {"loss_db", "distance", "z_max"}
_SIMULATE_KEYS = {"pulses", "pilot_rate"}
_COVERAGE_KEYS = {"rounds", "pulses", "eps_pe"}
_SECTIONS = {"scenario", "physics", "protocol", "sweep", "point", "simulate",
             "coverage"}


def _check_keys(section: str, present, allowed) -> None:
    unknown = sorted(set(present) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in [{section}]")


def _require(section: str, mapping, keys, rule: str | None = None) -> None:
    missing = sorted(k for k in keys if k not in mapping)
    if missing:
        cite = f" (rule: {rule})" if rule else ""
        raise ConfigError(f"missing key {missing[0]!r} in [{section}]{cite}")


def _choice(section: str, key: str, value: str, allowed) -> str:
    lowered = value.strip().lower()
    if lowered not in allowed:
        raise ConfigError(
            f"[{section}] {key} must be one of {sorted(allowed)}, got {value!r}")
    return lowered


@contextmanager
def _valid_block(section: str):
    """Report a ValueError or an arithmetic fault (overflow, division by zero)
    raised while building the section's quantities as a ConfigError naming
    the section."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as exc:
        detail = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        raise ConfigError(f"invalid [{section}] block: {detail}") from exc


def _check_physics_range(physics: dict) -> None:
    """Rule physics-range: efficiencies in (0, 1], photon numbers >= 0."""
    for key in ("eta_eff", "eta_atm"):
        if key in physics and not 0.0 < physics[key] <= 1.0:
            raise ConfigError(f"[physics] {key} must lie in (0, 1], got "
                              f"{physics[key]!r} (rule: physics-range)")
    for key in ("n_b", "n_other"):
        if key in physics and not physics[key] >= 0.0:
            raise ConfigError(f"[physics] {key} must be >= 0, got "
                              f"{physics[key]!r} (rule: physics-range)")


def resolve_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file, computing the derived header."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    unknown_sections = sorted(set(parser.sections()) - _SECTIONS)
    if unknown_sections:
        raise ConfigError(f"unknown section [{unknown_sections[0]}]")
    if not parser.has_section("scenario"):
        raise ConfigError("missing section [scenario]")

    scen = dict(parser.items("scenario"))
    _check_keys("scenario", scen, _SCENARIO_KEYS)
    _require("scenario", scen, ("channel", "protocol", "trust", "security",
                                "attack"))
    channel = _choice("scenario", "channel", scen["channel"], CHANNELS)
    protocol = _choice("scenario", "protocol", scen["protocol"],
                       {"homodyne", "heterodyne", "hom", "het"})
    nu_det = 1 if protocol.startswith("hom") else 2
    trust_text = scen["trust"].strip()
    if trust_text not in {"1", "2", "3"}:
        raise ConfigError(f"[scenario] trust must be 1, 2 or 3, got {trust_text!r}")
    trust = int(trust_text)
    security = _choice("scenario", "security", scen["security"],
                       {"standard", "los"})
    attack = _choice("scenario", "attack", scen["attack"],
                     {"collective", "general"})
    lo_kind = None
    if channel != "microwave":
        _require("scenario", scen, ("lo",))
        lo_kind = _choice("scenario", "lo", scen["lo"], {"llo", "tlo"})
    elif "lo" in scen:
        raise ConfigError("[scenario] lo does not apply to the microwave channel")

    # cross-field rules, named so error messages cite them
    if security == "los" and trust == 3:
        raise ConfigError("line-of-sight security requires a trusted receiver "
                          "(rule: los-requires-trusted-receiver)")
    if security == "los" and attack == "general":
        raise ConfigError("line-of-sight security assumes a passive collective "
                          "eavesdropper (rule: los-requires-collective)")
    if attack == "general" and nu_det != 2:
        raise ConfigError("the general-attack extension is heterodyne-only "
                          "(rule: general-requires-heterodyne)")
    if channel == "microwave":
        ok = (security == "standard" and trust == 3) or \
             (security == "los" and trust == 2)
        if not ok:
            raise ConfigError("microwave scenarios support trust 3 + standard "
                              "or trust 2 + los (rule: microwave-trust-mapping)")

    # physics block
    if not parser.has_section("physics"):
        raise ConfigError("missing section [physics]")
    raw_physics = dict(parser.items("physics"))
    _check_keys("physics", raw_physics, _PHYSICS_KEYS[channel])
    rule = "mobile-requires-pointing-error" if channel == "optical-mobile" \
        else None
    _require("physics", raw_physics, _PHYSICS_REQUIRED[channel], rule)
    physics = {k: parse_quantity(v) for k, v in raw_physics.items()}
    _check_physics_range(physics)

    # protocol block
    if not parser.has_section("protocol"):
        raise ConfigError("missing section [protocol]")
    raw_protocol = dict(parser.items("protocol"))
    _check_keys("protocol", raw_protocol, _PROTOCOL_KEYS)
    _require("protocol", raw_protocol, ("n_total", "m", "d", "beta", "p_ec",
                                        "mu"))
    if "eps" in raw_protocol:
        clash = sorted({"eps_pe", "eps_s", "eps_h", "eps_cor"} & set(raw_protocol))
        if clash:
            raise ConfigError(f"[protocol] eps conflicts with {clash[0]}")
        eps = parse_quantity(raw_protocol["eps"])
        eps_pe = eps_s = eps_h = eps_cor = eps
    else:
        _require("protocol", raw_protocol, ("eps_pe", "eps_s", "eps_h",
                                            "eps_cor"))
        eps_pe = parse_quantity(raw_protocol["eps_pe"])
        eps_s = parse_quantity(raw_protocol["eps_s"])
        eps_h = parse_quantity(raw_protocol["eps_h"])
        eps_cor = parse_quantity(raw_protocol["eps_cor"])
    f_et = parse_quantity(raw_protocol.get("f_et", "0"))
    if attack == "general" and f_et <= 0.0:
        raise ConfigError("general attacks need an energy-test fraction f_et > 0 "
                          "(rule: general-requires-energy-test)")
    if attack == "collective" and f_et > 0.0:
        raise ConfigError("the energy test only enters the general-attack "
                          "analysis (rule: energy-test-requires-general)")
    improved_aep = parse_bool(raw_protocol.get("improved_aep", "false"))
    for key in ("f_th", "bins"):
        if key in raw_protocol and channel != "optical-mobile":
            raise ConfigError(f"[protocol] {key} only applies to optical-mobile")
    f_th = parse_quantity(raw_protocol.get("f_th", "0.8"))
    bins = parse_count("protocol", "bins", raw_protocol.get("bins", "50"))
    d = parse_count("protocol", "d", raw_protocol["d"])
    mu = parse_quantity(raw_protocol["mu"])
    if not mu > 1.0:
        raise ConfigError(f"[protocol] mu must be > 1, since no key is distilled "
                          f"without modulation (sigma_x^2 = mu - 1), got "
                          f"{raw_protocol['mu']!r} (rule: positive-modulation)")
    with _valid_block("protocol"):
        params = ProtocolParams(
            n_total=parse_quantity(raw_protocol["n_total"]),
            m=parse_quantity(raw_protocol["m"]),
            m_pl=parse_quantity(raw_protocol.get("m_pl", "0")),
            beta=parse_quantity(raw_protocol["beta"]),
            p_ec=parse_quantity(raw_protocol["p_ec"]),
            eps_pe=eps_pe, eps_s=eps_s, eps_h=eps_h, eps_cor=eps_cor,
            mu=mu,
            d=d, f_et=f_et)
        derived = {"nu_det": nu_det, "sigma_x2": params.mu - 1.0, "n": params.n,
                   "w": params.w, "eps_total": total_epsilon(params)}

    # sky background may be given directly (n_b) or derived from the receiver
    if channel in ("optical-fixed", "optical-mobile") and "n_b" not in physics:
        needed = {"omega_fov", "dlambda", "b_sky"}
        if not needed <= set(physics):
            raise ConfigError("optical channels need n_b or all of omega_fov, "
                              "dlambda, b_sky to derive it")
        with _valid_block("physics"):
            optics = ReceiverOptics(aperture_radius=physics["a_r"],
                                    fov=physics["omega_fov"],
                                    spectral_filter=physics["dlambda"])
            physics["n_b"] = sky_background_photons(optics, physics["lambda"],
                                                    physics["w"], physics["b_sky"])

    sweep = _resolve_sweep(parser, channel)
    point = _resolve_point(parser, channel)
    simulate = _resolve_simulate(parser, channel, nu_det)
    coverage = _resolve_coverage(parser, nu_det)

    scenario = Scenario(channel=channel, nu_det=nu_det, lo_kind=lo_kind,
                        trust=trust, security=security, attack=attack,
                        physics=physics, params=params,
                        improved_aep=improved_aep, f_th=f_th, bins=bins,
                        sweep=sweep, point=point, simulate=simulate,
                        coverage=coverage, derived=derived)
    with _valid_block("physics"):
        if channel == "microwave":
            derived["n_th"] = microwave_thermal_photons(
                physics["lambda"], physics["t"], physics["omega_fov"],
                physics["a_r"])
            derived["z_best"] = microwave_best_range(physics["g"], physics["a_r"])
        else:
            cfg = scenario.setup_config()
            derived["theta_el"] = theta_el(cfg)
            derived["theta_ph"] = theta_ph(cfg)
            if lo_kind == "llo":
                derived["xi_llo"] = 2.0 * derived["theta_ph"]
            derived["n_b"] = physics["n_b"]
    return scenario


def _resolve_sweep(parser, channel) -> tuple | None:
    if not parser.has_section("sweep"):
        return None
    raw = dict(parser.items("sweep"))
    _check_keys("sweep", raw, _SWEEP_KEYS)
    _require("sweep", raw, ("variable", "start", "stop", "points"))
    variable = raw["variable"].strip().lower()
    expected = SWEEP_VARIABLE[channel]
    if variable != expected:
        raise ConfigError(f"[sweep] variable for channel {channel!r} must be "
                          f"{expected!r} (rule: sweep-variable-mismatch)")
    start = parse_quantity(raw["start"])
    stop = parse_quantity(raw["stop"])
    points = parse_count("sweep", "points", raw["points"])
    if points < 1:
        raise ConfigError("[sweep] points must be >= 1")
    if stop < start:
        raise ConfigError("[sweep] stop must be >= start")
    return (variable, start, stop, points)


def _resolve_point(parser, channel) -> tuple | None:
    if not parser.has_section("point"):
        return None
    raw = dict(parser.items("point"))
    _check_keys("point", raw, _POINT_KEYS)
    if len(raw) != 1:
        raise ConfigError("[point] must hold exactly one abscissa key")
    key = next(iter(raw))
    expected = SWEEP_VARIABLE[channel]
    if key != expected:
        raise ConfigError(f"[point] key for channel {channel!r} must be "
                          f"{expected!r} (rule: sweep-variable-mismatch)")
    return (key, parse_quantity(raw[key]))


def _require_pairs(section: str, pulses: int, nu_det: int) -> None:
    if nu_det * pulses < 2:
        raise ConfigError(f"[{section}] nu * pulses = {nu_det} x {pulses} is "
                          "below 2 disclosed pairs (rule: min-disclosed-pairs)")


def _resolve_simulate(parser, channel, nu_det) -> dict | None:
    if not parser.has_section("simulate"):
        return None
    raw = dict(parser.items("simulate"))
    _check_keys("simulate", raw, _SIMULATE_KEYS)
    _require("simulate", raw, ("pulses",))
    out = {"pulses": parse_count("simulate", "pulses", raw["pulses"])}
    _require_pairs("simulate", out["pulses"], nu_det)
    if "pilot_rate" in raw:
        if channel != "optical-mobile":
            raise ConfigError("[simulate] pilot_rate only applies to "
                              "optical-mobile")
        out["pilot_rate"] = parse_quantity(raw["pilot_rate"])
    return out


def _resolve_coverage(parser, nu_det) -> dict | None:
    if not parser.has_section("coverage"):
        return None
    raw = dict(parser.items("coverage"))
    _check_keys("coverage", raw, _COVERAGE_KEYS)
    _require("coverage", raw, ("rounds", "pulses", "eps_pe"))
    out = {"rounds": parse_count("coverage", "rounds", raw["rounds"]),
           "pulses": parse_count("coverage", "pulses", raw["pulses"]),
           "eps_pe": parse_quantity(raw["eps_pe"])}
    if out["rounds"] < 1:
        raise ConfigError("[coverage] rounds must be >= 1")
    _require_pairs("coverage", out["pulses"], nu_det)
    with _valid_block("coverage"):
        confidence_w(out["eps_pe"])  # validates the range
    return out
