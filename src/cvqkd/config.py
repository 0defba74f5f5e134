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
deg2, dB (scale 1). One key table holds, for every key of every section, the
channels it applies to, the channels that require it, its parser and its
domain with the rule a value outside it violates. Cross-field rules are
checked in code. Every violation cites its rule by name.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from contextlib import contextmanager
from functools import cached_property

from . import Record
from .channel import BeamConfig, microwave_best_range
from .finite_size import ProtocolParams, general_attack_extension, total_epsilon
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

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}

CHANNELS = ("fixed-loss", "optical-fixed", "optical-mobile", "microwave")
SWEEP_VARIABLE = {"fixed-loss": "loss_db", "optical-fixed": "distance",
                  "optical-mobile": "z_max", "microwave": "distance"}


def parse_quantity(text: str) -> float:
    """Parse '800 nm', '2^-33', '6 pW/rtHz', '1e7', 'inf' into an SI float."""
    match = _QUANTITY_RE.match(text.strip())
    if match is None:
        raise ConfigError(f"cannot parse quantity {text!r} (rule: quantity-syntax)")
    num, unit = match.group("num"), match.group("unit") or ""
    power = _POWER_RE.match(num)
    try:
        # math.pow rejects what ** would make complex or divide by zero
        value = math.pow(float(power.group("base")), float(power.group("exp"))) \
            if power else float(num)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse number {num!r} in {text!r} "
                          "(rule: quantity-syntax)") from exc
    scale = _UNIT_SCALE.get(unit.lower())
    if scale is None:
        raise ConfigError(f"unknown unit {unit!r} in {text!r} (rule: quantity-syntax)")
    return value * scale


class Scenario(Record):
    """Fully resolved scenario: validated choices, SI physics, protocol block.

    trust (1, 2, 3) and security ("standard", "los") are the validated
    choices that the rate kernels read as they are. derived echoes the
    scenario-level quantities computed during resolution (setup-noise
    coefficients, thermal photon numbers, block arithmetic, confidence
    parameter, epsilon budget). The optical beam is built on first use, once.
    """

    def __init__(self, channel: str, nu_det: int, lo_kind: str | None, trust: int,
                 security: str, attack: str, physics: dict, params: ProtocolParams,
                 improved_aep: bool, f_th: float, bins: int,
                 sweep: tuple | None = None,    # (variable, start, stop, points)
                 point: tuple | None = None,    # (variable, value)
                 simulate: dict | None = None, coverage: dict | None = None,
                 derived: dict | None = None):
        self.__dict__.update(
            channel=channel, nu_det=nu_det, lo_kind=lo_kind, trust=trust,
            security=security, attack=attack, physics=physics, params=params,
            improved_aep=improved_aep, f_th=f_th, bins=bins, sweep=sweep,
            point=point, simulate=simulate, coverage=coverage,
            derived={} if derived is None else derived)

    @property
    def sigma_x2(self) -> float:
        return self.params.mu - 1.0

    @cached_property
    def beam(self) -> BeamConfig:
        return BeamConfig(self.physics["lambda"], self.physics["w0"])


_ALL = frozenset(CHANNELS)
_OPT = _ALL - {"microwave"}
_FSO = frozenset({"optical-fixed", "optical-mobile"})
_MOB = frozenset({"optical-mobile"})
_MW = frozenset({"microwave"})
_NONE = frozenset()

# One entry per key of every section: (section, key, channels it applies to,
# channels that require it, parser, domain, rule). A domain is the list of the
# allowed choices or the range that the library guard it pre-empts accepts; a
# value outside it fails under the entry's rule.
_KEY_TABLE = (
    ("scenario", "channel", _ALL, _ALL, "text", "one of " + ", ".join(CHANNELS),
     "scenario-choice"),
    ("scenario", "protocol", _ALL, _ALL, "text", "one of homodyne, heterodyne, hom, het",
     "scenario-choice"),
    ("scenario", "lo", _OPT, _OPT, "text", "one of tlo, llo", "scenario-choice"),
    ("scenario", "trust", _ALL, _ALL, "text", "one of 1, 2, 3", "scenario-choice"),
    ("scenario", "security", _ALL, _ALL, "text", "one of standard, los", "scenario-choice"),
    ("scenario", "attack", _ALL, _ALL, "text", "one of collective, general",
     "scenario-choice"),
    ("physics", "lambda", _ALL, _ALL, "quantity", "> 0", "physics-range"),
    ("physics", "eta_eff", _ALL, _ALL, "quantity", "in (0, 1]", "physics-range"),
    ("physics", "w", _OPT, _OPT, "quantity", "> 0", "physics-range"),
    ("physics", "nep", _OPT, _OPT, "quantity", "> 0", "physics-range"),
    ("physics", "l_w", _OPT, _OPT, "quantity", ">= 0", "physics-range"),
    ("physics", "p_lo", _OPT, _OPT, "quantity", "> 0", "physics-range"),
    ("physics", "c", _OPT, _OPT, "quantity", "> 0", "physics-range"),
    ("physics", "dt_lo", _OPT, _OPT, "quantity", "> 0", "physics-range"),
    ("physics", "n_b", _OPT, {"fixed-loss"}, "quantity", ">= 0", "physics-range"),
    ("physics", "n_other", _OPT, _NONE, "quantity", ">= 0", "physics-range"),
    ("physics", "eta_atm", _FSO, _NONE, "quantity", "in (0, 1]", "physics-range"),
    ("physics", "b_sky", _FSO, _NONE, "quantity", ">= 0", "physics-range"),
    ("physics", "g", _MW, _MW, "quantity", "> 0", "physics-range"),
    ("physics", "t", _MW, _MW, "quantity", "> 0", "physics-range"),
    ("physics", "w0", _FSO, _FSO, "quantity", "> 0", "geometry-range"),
    ("physics", "a_r", _FSO | _MW, _FSO | _MW, "quantity", "> 0", "geometry-range"),
    ("physics", "omega_fov", _FSO | _MW, _MW, "quantity", "> 0", "geometry-range"),
    ("physics", "dlambda", _FSO, _NONE, "quantity", "> 0", "geometry-range"),
    # required by the named rule mobile-requires-pointing-error in resolve_scenario
    ("physics", "sigma_p", _MOB, _NONE, "quantity", "> 0", "geometry-range"),
    ("protocol", "n_total", _ALL, _ALL, "quantity", "> 0", "protocol-range"),
    ("protocol", "m", _ALL, _ALL, "quantity", "> 0", "protocol-range"),
    ("protocol", "m_pl", _ALL, _NONE, "quantity", ">= 0", "protocol-range"),
    ("protocol", "f_et", _ALL, _NONE, "quantity", ">= 0", "protocol-range"),
    ("protocol", "d", _ALL, _ALL, "count", "a power of two >= 2", "protocol-range"),
    ("protocol", "beta", _ALL, _ALL, "quantity", "in (0, 1]", "protocol-range"),
    ("protocol", "p_ec", _ALL, _ALL, "quantity", "in (0, 1]", "protocol-range"),
    ("protocol", "eps", _ALL, _NONE, "quantity", "in (0, 1/2]", "protocol-range"),
    ("protocol", "eps_pe", _ALL, _NONE, "quantity", "in (0, 1/2]", "protocol-range"),
    ("protocol", "eps_s", _ALL, _NONE, "quantity", "in (0, 1)", "protocol-range"),
    ("protocol", "eps_h", _ALL, _NONE, "quantity", "in (0, 1)", "protocol-range"),
    ("protocol", "eps_cor", _ALL, _NONE, "quantity", "in (0, 1)", "protocol-range"),
    ("protocol", "mu", _ALL, _ALL, "quantity", "> 1", "positive-modulation"),
    ("protocol", "improved_aep", _ALL, _NONE, "bool", None, None),
    ("protocol", "f_th", _MOB, _NONE, "quantity", "in (0, 1)", "fading-window"),
    ("protocol", "bins", _MOB, _NONE, "count", ">= 1", "fading-window"),
    ("sweep", "variable", _ALL, _ALL, "text", None, None),
    ("sweep", "start", _ALL, _ALL, "abscissa", None, None),
    ("sweep", "stop", _ALL, _ALL, "abscissa", None, None),
    ("sweep", "points", _ALL, _ALL, "count", ">= 1", "run-range"),
    ("point", "loss_db", _ALL, _NONE, "abscissa", None, None),
    ("point", "distance", _ALL, _NONE, "abscissa", None, None),
    ("point", "z_max", _ALL, _NONE, "abscissa", None, None),
    ("simulate", "pulses", _ALL, _ALL, "count", None, None),
    ("simulate", "pilot_rate", _MOB, _NONE, "quantity", "in [0, 1)", "pilot-rate-range"),
    ("coverage", "rounds", _ALL, _ALL, "count", ">= 1", "run-range"),
    ("coverage", "pulses", _ALL, _ALL, "count", None, None),
    ("coverage", "eps_pe", _ALL, _ALL, "quantity", "in (0, 1/2]", "run-range"),
)
_KEYS = {section: {entry[1]: entry[2:] for entry in _KEY_TABLE if entry[0] == section}
         for section in dict.fromkeys(entry[0] for entry in _KEY_TABLE)}
_REQUIRED = {(section, channel): [key for key, entry in keys.items() if channel in entry[1]]
             for section, keys in _KEYS.items() for channel in CHANNELS}

_DOMAINS = {
    "> 0": lambda v: v > 0.0,
    ">= 0": lambda v: v >= 0.0,
    "> 1": lambda v: v > 1.0,
    ">= 1": lambda v: v >= 1,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in [0, 1)": lambda v: 0.0 <= v < 1.0,
    "in (0, 1/2]": lambda v: 0.0 < v <= 0.5,
    "a power of two >= 2": lambda v: v >= 2 and not v & (v - 1),
}
# a choice domain "one of a, b, c" holds exactly the values it lists
_DOMAINS.update(
    {domain: frozenset(domain.removeprefix("one of ").split(", ")).__contains__
     for *_, domain, _ in _KEY_TABLE if domain and domain.startswith("one of ")})
# the rule a non-finite [physics]/[protocol] quantity or [sweep]/[point] abscissa breaks
_FINITE = {"quantity": "(rule: finite-quantity)", "abscissa": "(rule: finite-abscissa)"}


def _value(name: str, key: str, text: str):
    """The [name] key's text read by the key table's parser and held to its
    domain. A count is an integer-valued quantity such as '32' or '1e6';
    fractional or non-finite counts are rejected rather than truncated."""
    _, _, kind, domain, rule = _KEYS[name][key]
    if kind == "text":
        value = text.strip().lower()
    elif kind == "bool":
        value = _BOOLEANS.get(text.strip().lower())
        if value is None:
            raise ConfigError(f"[{name}] {key}: cannot parse boolean {text!r} "
                              "(rule: boolean-syntax)")
    else:
        try:
            value = parse_quantity(text)
        except ConfigError as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from exc
        if kind == "count":
            if not math.isfinite(value) or value != math.floor(value):
                raise ConfigError(f"[{name}] {key} must be an integer, got {text!r} "
                                  "(rule: integer-count)")
            value = int(value)
        # [simulate] and [coverage] domains are bounded and reject inf themselves
        elif not math.isfinite(value) and name not in ("simulate", "coverage"):
            raise ConfigError(f"[{name}] {key} must be finite, got {text!r} "
                              + _FINITE[kind])
    if domain is not None and not _DOMAINS[domain](value):
        raise ConfigError(f"[{name}] {key} must be {domain}, got {text!r} "
                          f"(rule: {rule})")
    return value


def _section(parser, name: str, channel: str) -> dict | None:
    """Section [name] read through the key table: each key must apply to the
    channel, each key the channel requires must be given, and each value is
    parsed and held to its domain. None if the file has no such section."""
    if not parser.has_section(name):
        return None
    keys = _KEYS[name]
    values = {}
    for key, text in parser.items(name):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in [{name}] (rule: unknown-key)")
        if channel not in keys[key][0]:
            raise ConfigError(f"[{name}] {key} does not apply to the {channel} channel "
                              "(rule: key-not-for-channel)")
        values[key] = _value(name, key, text)
    for key in _REQUIRED[name, channel]:
        if key not in values:
            raise ConfigError(f"missing key {key!r} in [{name}] (rule: required-key)")
    return values


@contextmanager
def _valid_block(section: str):
    """Report a ValueError or an arithmetic fault (overflow, division by zero)
    raised while building the section's quantities as a ConfigError naming
    the section. The key table pre-empts every single-key fault, so only
    overflow and faults across keys (m + m_pl >= n_total) reach this."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as exc:
        detail = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        raise ConfigError(f"invalid [{section}] block: {detail} "
                          "(rule: block-consistency)") from exc


def resolve_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file, computing the derived header."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        # one line: configparser spreads its message over several
        raise ConfigError(f"cannot parse config: {' '.join(str(exc).split())} "
                          "(rule: config-syntax)") from exc

    unknown_sections = sorted(set(parser.sections()) - _KEYS.keys())
    if unknown_sections:
        raise ConfigError(f"unknown section [{unknown_sections[0]}] (rule: unknown-section)")
    for name in ("scenario", "physics", "protocol"):
        if not parser.has_section(name):
            raise ConfigError(f"missing section [{name}] (rule: required-section)")

    # the channel first: every other key's channel set is checked against it
    if not parser.has_option("scenario", "channel"):
        raise ConfigError("missing key 'channel' in [scenario] (rule: required-key)")
    channel = _value("scenario", "channel", parser.get("scenario", "channel"))
    scen = _section(parser, "scenario", channel)
    nu_det = 1 if scen["protocol"].startswith("hom") else 2
    trust, security, attack = int(scen["trust"]), scen["security"], scen["attack"]
    lo_kind = scen.get("lo")

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
    if channel == "optical-mobile" and not parser.has_option("physics", "sigma_p"):
        raise ConfigError("missing key 'sigma_p' in [physics] "
                          "(rule: mobile-requires-pointing-error)")

    physics = _section(parser, "physics", channel)
    protocol = _section(parser, "protocol", channel)
    epsilons = ("eps_cor", "eps_h", "eps_pe", "eps_s")
    if "eps" in protocol:
        clash = [key for key in epsilons if key in protocol]
        if clash:
            raise ConfigError(f"[protocol] eps conflicts with {clash[0]} "
                              "(rule: eps-exclusive)")
        protocol.update(dict.fromkeys(epsilons, protocol.pop("eps")))
    missing = [key for key in epsilons if key not in protocol]
    if missing:
        raise ConfigError(f"missing key {missing[0]!r} in [protocol] (rule: required-key)")
    f_et = protocol.get("f_et", 0.0)
    if attack == "general" and f_et <= 0.0:
        raise ConfigError("general attacks need an energy-test fraction f_et > 0 "
                          "(rule: general-requires-energy-test)")
    if attack == "collective" and f_et > 0.0:
        raise ConfigError("the energy test only enters the general-attack "
                          "analysis (rule: energy-test-requires-general)")
    improved_aep = protocol.pop("improved_aep", False)
    f_th = protocol.pop("f_th", 0.8)
    bins = protocol.pop("bins", 50)
    with _valid_block("protocol"):
        params = ProtocolParams(**protocol)
        # block faults that every abscissa would meet: p_delta <= 1 only shrinks n
        if params.n < 1.0:
            raise ConfigError("invalid [protocol] block: effective block length "
                              "below one pulse (rule: min-key-pulses)")
        if attack == "general":
            general_attack_extension(params, (params.mu - 1.0) / 2.0, total_epsilon(params))
        derived = {"nu_det": nu_det, "sigma_x2": params.mu - 1.0, "n": params.n,
                   "w": params.w, "eps_total": total_epsilon(params)}

    # sky background may be given directly (n_b) or derived from the receiver
    if channel in ("optical-fixed", "optical-mobile") and "n_b" not in physics:
        needed = {"omega_fov", "dlambda", "b_sky"}
        if not needed <= set(physics):
            raise ConfigError("optical channels need n_b or all of omega_fov, "
                              "dlambda, b_sky to derive it "
                              "(rule: optical-background-source)")
        with _valid_block("physics"):
            optics = ReceiverOptics(aperture_radius=physics["a_r"],
                                    fov=physics["omega_fov"],
                                    spectral_filter=physics["dlambda"])
            physics["n_b"] = sky_background_photons(optics, physics["lambda"],
                                                    physics["w"], physics["b_sky"])

    expected = SWEEP_VARIABLE[channel]
    sweep = _section(parser, "sweep", channel)
    if sweep is not None:
        if sweep["variable"] != expected:
            raise ConfigError(f"[sweep] variable for channel {channel!r} must be "
                              f"{expected!r} (rule: sweep-variable-mismatch)")
        if sweep["stop"] < sweep["start"]:
            raise ConfigError("[sweep] stop must be >= start (rule: sweep-order)")
        sweep = (expected, sweep["start"], sweep["stop"], sweep["points"])
    point = _section(parser, "point", channel)
    if point is not None:
        if len(point) != 1:
            raise ConfigError("[point] must hold exactly one abscissa key "
                              "(rule: one-point-abscissa)")
        (point,) = point.items()
        if point[0] != expected:
            raise ConfigError(f"[point] key for channel {channel!r} must be "
                              f"{expected!r} (rule: sweep-variable-mismatch)")
    runs = {name: _section(parser, name, channel) for name in ("simulate", "coverage")}
    disclosed = [("protocol", "m", params.m)] + [
        (name, "pulses", run["pulses"]) for name, run in runs.items() if run is not None]
    for name, key, count in disclosed:
        if nu_det * count < 2:
            raise ConfigError(f"[{name}] nu * {key} = {nu_det} x {count} is below 2 "
                              "disclosed pairs (rule: min-disclosed-pairs)")

    with _valid_block("physics"):
        if channel == "microwave":
            derived["n_th"] = microwave_thermal_photons(
                physics["lambda"], physics["t"], physics["omega_fov"],
                physics["a_r"])
            derived["z_best"] = microwave_best_range(physics["g"], physics["a_r"])
        else:
            p = physics
            cfg = SetupConfig(wavelength=p["lambda"], detector_bandwidth=p["w"],
                              nep=p["nep"], lo_power=p["p_lo"],
                              lo_pulse_duration=p["dt_lo"], linewidth=p["l_w"],
                              clock=p["c"], nu_det=nu_det,
                              sigma_x2=derived["sigma_x2"], lo_kind=lo_kind)
            derived["theta_el"] = theta_el(cfg)
            derived["theta_ph"] = theta_ph(cfg)
            if lo_kind == "llo":
                derived["xi_llo"] = 2.0 * derived["theta_ph"]
            derived["n_b"] = physics["n_b"]
    return Scenario(channel=channel, nu_det=nu_det, lo_kind=lo_kind, trust=trust,
                    security=security, attack=attack, physics=physics, params=params,
                    improved_aep=improved_aep, f_th=f_th, bins=bins, sweep=sweep,
                    point=point, simulate=runs["simulate"],
                    coverage=runs["coverage"], derived=derived)
