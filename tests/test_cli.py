"""Scenario resolution and the batch command line: grammar, rejection rules,
derived-header echoes, output formats, provenance, exit codes."""

import ast
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from numbers import Integral
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqkd import __version__
from cvqkd.cli import (
    COVERAGE_COLUMNS,
    RATE_COLUMNS,
    SIM_COLUMNS,
    SIM_MOBILE_COLUMNS,
    WARNING_CODES,
    _coverage_row,
    _guarded_row,
    _json_cell,
    _rate_rows,
    _simulation_row,
    _sweep_grid,
    emit_csv,
    emit_json,
    main,
    scenario_echo,
    scenario_hash,
)
from cvqkd.config import (
    _DOMAINS,
    _KEY_TABLE,
    CHANNELS,
    ConfigError,
    parse_quantity,
    resolve_scenario,
)
from cvqkd.simulate import _workers
from oracles import emit_csv_oracle, emit_json_oracle

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

FIBER = """
[scenario]
channel = fixed-loss
protocol = heterodyne
lo = llo
trust = {trust}
security = {security}
attack = collective

[physics]
lambda = 800 nm
eta_eff = 0.7
w = 100 MHz
nep = 6 pW/rtHz
l_w = 1.6 kHz
p_lo = 100 mW
c = 5 MHz
dt_lo = 10 ns
n_b = 0.002

[protocol]
n_total = 1e7
m = 1e6
d = 32
beta = 0.95
p_ec = 0.9
eps = 2^-33
mu = 10

[point]
loss_db = {loss_db}

[sweep]
variable = loss_db
start = 0
stop = 20
points = {points}

[coverage]
rounds = 40
pulses = 2000
eps_pe = 0.05

[simulate]
pulses = 20000
"""

MICROWAVE = """
[scenario]
channel = microwave
protocol = heterodyne
trust = {trust}
security = {security}
attack = collective

[physics]
lambda = 0.299792458 m
g = 10
a_r = 5 cm
omega_fov = 1 deg2
t = 290 K
eta_eff = 0.8

[protocol]
n_total = 5e7
m = 5e6
d = 32
beta = 0.98
p_ec = 0.9
eps = 2^-33
mu = 21

[point]
distance = {distance}
"""

MOBILE = """
[scenario]
channel = optical-mobile
protocol = heterodyne
lo = llo
trust = 1
security = standard
attack = collective

[physics]
lambda = 800 nm
eta_eff = 0.7
w = 100 MHz
nep = 6 pW/rtHz
l_w = 1.6 kHz
p_lo = 10 mW
c = 33 MHz
dt_lo = 10 ns
w0 = 1 mm
a_r = 1 cm
n_b = 0.019
{extra_physics}

[protocol]
n_total = 1e7
m = 1e6
m_pl = 5e5
d = 32
beta = 0.95
p_ec = 0.9
eps = 2^-33
mu = 10

[point]
z_max = 5 m

[sweep]
variable = z_max
start = {sweep_start}
stop = 10
points = 4

[simulate]
pulses = 20000
"""


def fiber(trust=1, security="standard", loss_db="2", points=5):
    return FIBER.format(trust=trust, security=security, loss_db=loss_db,
                        points=points)


def mobile(extra_physics="sigma_p = 1.745 mrad", sweep_start=1):
    return MOBILE.format(extra_physics=extra_physics, sweep_start=sweep_start)


def run_cli(tmp_path, config_text, argv_tail, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(config_text)
    out = tmp_path / "out.dat"
    code = main([argv_tail[0], "--config", str(path), "--out", str(out)]
                + argv_tail[1:])
    return code, out.read_bytes() if out.exists() else b""


def read_csv(blob):
    rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data]


class TestQuantities:
    def test_unit_spelling_invariance(self):
        assert parse_quantity("800 nm") == parse_quantity("800nm")
        assert parse_quantity("800 nm") == pytest.approx(parse_quantity("0.8 um"))
        assert parse_quantity("100 MHz") == 1e8
        assert parse_quantity("6 pW/rtHz") == 6e-12
        assert parse_quantity("1.6 kHz") == 1600.0
        assert parse_quantity("2^-33") == 2.0**-33
        assert parse_quantity("10^-43") == 1e-43
        assert parse_quantity("1e7") == 1e7
        assert parse_quantity("1 deg2") == pytest.approx((math.pi / 180.0) ** 2)
        assert parse_quantity("5 cm") == 0.05
        assert parse_quantity("1.745 mrad") == pytest.approx(1.745e-3,
                                                             rel=1e-15)

    def test_rejects_garbage(self):
        # 0^-1 divides by zero and -8^0.5 has no real value
        for bad in ("", "furlongs", "1 lightyear", "^3", "--2 m", "0^-1", "-8^0.5"):
            with pytest.raises(ConfigError):
                parse_quantity(bad)


class TestResolution:
    def test_fiber_header_echo(self):
        scenario = resolve_scenario(fiber())
        derived = scenario.derived
        assert derived["theta_el"] == pytest.approx(1.45e-3, rel=0.02)
        assert derived["theta_el"] == pytest.approx(0.0014498255714523003,
                                                    rel=1e-12)
        assert derived["xi_llo"] == pytest.approx(0.018, rel=0.03)
        assert derived["eps_total"] == pytest.approx(5.587935447692871e-10,
                                                     rel=1e-12)
        assert derived["w"] == pytest.approx(6.34, abs=0.01)
        assert derived["n"] == 9e6
        assert scenario.nu_det == 2
        assert scenario.sigma_x2 == 9.0

    def test_microwave_header_echo(self):
        scenario = resolve_scenario(
            MICROWAVE.format(trust=3, security="standard", distance="4.4 cm"))
        assert scenario.derived["n_th"] == pytest.approx(0.10239356132899088,
                                                         rel=1e-12)
        assert scenario.derived["n_th"] == pytest.approx(0.1, rel=0.05)
        assert scenario.derived["z_best"] == pytest.approx(
            0.04460310290381928, rel=1e-12)

    def test_sky_background_derivation(self):
        text = mobile(extra_physics="sigma_p = 1.745 mrad\n"
                                    "omega_fov = 1e-4 sr\n"
                                    "dlambda = 0.1 pm\n"
                                    "b_sky = 1.5e-1")
        text = text.replace("n_b = 0.019\n", "")
        scenario = resolve_scenario(text)
        assert scenario.physics["n_b"] == pytest.approx(0.018978172351088216,
                                                        rel=1e-12)

    def test_scenario_hash_tracks_content(self):
        a = resolve_scenario(fiber())
        b = resolve_scenario(fiber())
        c = resolve_scenario(fiber(loss_db="3"))
        assert scenario_hash(a) == scenario_hash(b)
        # the hash covers the resolved scenario, not the evaluation point
        assert scenario_hash(a) == scenario_hash(c)
        d = resolve_scenario(fiber(trust=2))
        assert scenario_hash(a) != scenario_hash(d)
        echo = scenario_echo(a)
        assert echo["protocol"]["d"] == 32

    def test_rejection_rules(self):
        cases = [
            (fiber(trust=3, security="los"), "los-requires-trusted-receiver"),
            (fiber().replace("attack = collective", "attack = general"),
             "general-requires-energy-test"),
            (fiber(security="los").replace("attack = collective",
                                           "attack = general"),
             "los-requires-collective"),
            (fiber().replace("protocol = heterodyne", "protocol = homodyne")
             .replace("attack = collective", "attack = general"),
             "general-requires-heterodyne"),
            (fiber().replace("[protocol]", "[protocol]\nf_et = 0.2"),
             "energy-test-requires-general"),
            (mobile(extra_physics=""), "mobile-requires-pointing-error"),
            (MICROWAVE.format(trust=1, security="standard",
                              distance="4.4 cm"), "microwave-trust-mapping"),
            (fiber().replace("variable = loss_db", "variable = distance"),
             "sweep-variable-mismatch"),
        ]
        for text, rule in cases:
            with pytest.raises(ConfigError, match=rule):
                resolve_scenario(text)

    def test_rejects_unknown_keys_and_sections(self):
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_scenario(fiber().replace("n_b = 0.002",
                                             "n_b = 0.002\nbogus = 1"))
        with pytest.raises(ConfigError, match="unknown section"):
            resolve_scenario(fiber() + "\n[plotting]\nstyle = dark\n")
        with pytest.raises(ConfigError, match="missing key"):
            resolve_scenario(fiber().replace("nep = 6 pW/rtHz\n", ""))
        with pytest.raises(ConfigError, match="lo does not apply"):
            resolve_scenario(MICROWAVE.format(
                trust=3, security="standard",
                distance="4.4 cm").replace("[physics]", "lo = llo\n[physics]"))
        with pytest.raises(ConfigError, match="eps conflicts"):
            resolve_scenario(fiber().replace("eps = 2^-33",
                                             "eps = 2^-33\neps_pe = 1e-10"))
        with pytest.raises(ConfigError, match="f_th"):
            resolve_scenario(fiber().replace("[protocol]",
                                             "[protocol]\nf_th = 0.9"))


def shipped(name: str, old: str, new: str) -> str:
    text = (CONFIGS / name).read_text(encoding="utf-8")
    assert text.count(old) == 1, old
    return text.replace(old, new)


def assert_config_error(tmp_path, capsys, text, message):
    """The rate command exits 1 with no output and a one-line error that
    holds message, and never a traceback."""
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code = main(["rate", "--config", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert message in err
    assert "Traceback" not in err


class TestInvalidPhysicsBlock:
    """A value its library formula rejects fails with a ConfigError naming the
    key table's rule; only overflow and faults across keys still reach the
    unnamed "invalid [<section>] block" message."""

    CASES = {
        "nep": ("fiber_fixed_loss.ini", "nep = 6 pW/rtHz", "nep = 0 pW/rtHz",
                "physics-range"),
        "temperature": ("microwave.ini", "t = 290 K", "t = 0 K", "physics-range"),
        "gain": ("microwave.ini", "g = 10", "g = 0", "physics-range"),
        "sky_aperture": ("wireless_fixed.ini", "a_r = 1 cm\nn_b = 0.019",
                         "a_r = 0 cm\nomega_fov = 1e-4 sr\ndlambda = 0.1 pm\n"
                         "b_sky = 0.15", "geometry-range"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_1_without_traceback(self, tmp_path, capsys, case):
        *edit, rule = self.CASES[case]
        assert_config_error(tmp_path, capsys, shipped(*edit), f"(rule: {rule})")

    def test_overflow_is_a_config_error(self, tmp_path, capsys):
        text = shipped("fiber_fixed_loss.ini", "nep = 6 pW/rtHz", "nep = 1e200 W/rtHz")
        assert_config_error(tmp_path, capsys, text,
                            "invalid [physics] block: OverflowError")

    # faults across [protocol] keys that every abscissa would meet
    BLOCK_FAULTS = {
        "disclosed_pulses": ("fiber_fixed_loss.ini", "m = 1e6", "m = 1e7",
                             "disclosed pulses exhaust the block"),
        "below_one_key_pulse": ("fiber_fixed_loss.ini", "m = 1e6", "m = 9999999.5",
                                "effective block length below one pulse"),
        # n = 99 / 201: the general attack meets the same rule as the collective
        "below_one_key_pulse_general": (
            "wireless_general.ini", "n_total = 1e7\nm = 1e6\nf_et = 0.2",
            "n_total = 100\nm = 1\nf_et = 200",
            "effective block length below one pulse (rule: min-key-pulses)"),
        "energy_test_too_short": ("wireless_general.ini", "n_total = 1e7\nm = 1e6",
                                  "n_total = 1e3\nm = 10",
                                  "energy-test failure probability too large"),
        "general_epsilon_budget": ("wireless_general.ini", "eps = 1e-43", "eps = 0.45",
                                   "eps must lie in (0, 1)"),
    }

    @pytest.mark.parametrize("case", sorted(BLOCK_FAULTS))
    def test_fault_across_keys(self, tmp_path, capsys, case):
        *edit, reason = self.BLOCK_FAULTS[case]
        assert_config_error(tmp_path, capsys, shipped(*edit),
                            f"invalid [protocol] block: {reason}")

    def test_eps_pe_above_one_half(self, tmp_path, capsys):
        assert_config_error(tmp_path, capsys,
                            shipped("fiber_fixed_loss.ini", "eps = 2^-33", "eps = 0.7"),
                            "[protocol] eps must be in (0, 1/2], got '0.7' "
                            "(rule: protocol-range)")
        assert_config_error(tmp_path, capsys,
                            shipped("coverage.ini", "eps_pe = 0.01", "eps_pe = 0.7"),
                            "[coverage] eps_pe must be in (0, 1/2], got '0.7' "
                            "(rule: run-range)")


class TestPhysicsRange:
    """Rule physics-range: eta_eff and eta_atm in (0, 1], n_b and n_other
    non-negative."""

    CASES = {
        "eta_eff_zero": ("fiber_fixed_loss.ini", "eta_eff = 0.7", "eta_eff = 0"),
        "eta_eff_negative": ("fiber_fixed_loss.ini", "eta_eff = 0.7", "eta_eff = -0.2"),
        "eta_eff_above_one": ("fiber_fixed_loss.ini", "eta_eff = 0.7", "eta_eff = 1.5"),
        "eta_atm_zero": ("wireless_fixed.ini", "a_r = 1 cm", "a_r = 1 cm\neta_atm = 0"),
        "n_b_negative": ("fiber_fixed_loss.ini", "n_b = 0.002", "n_b = -0.01"),
        "n_other_mobile": ("mobile.ini", "n_b = 0.019", "n_b = 0.019\nn_other = -0.01"),
        "n_other_fixed": ("wireless_fixed.ini", "n_b = 0.019",
                          "n_b = 0.019\nn_other = -0.01"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected(self, tmp_path, capsys, case):
        assert_config_error(tmp_path, capsys, shipped(*self.CASES[case]),
                            "(rule: physics-range)")

    def test_bounds_accepted(self):
        text = shipped("wireless_fixed.ini", "eta_eff = 0.7\n",
                       "eta_eff = 1\neta_atm = 1\nn_other = 0\n")
        scenario = resolve_scenario(text.replace("n_b = 0.019", "n_b = 0"))
        assert scenario.physics["eta_atm"] == 1.0
        assert scenario.physics["n_b"] == scenario.physics["n_other"] == 0.0


def set_key(text: str, section: str, key: str, value: str) -> str:
    """text with [section] key set to value, added if the section lacks it."""
    head, tail = text.split(f"[{section}]\n")
    body, sep, rest = tail.partition("\n[")
    line = re.search(rf"^{key} = .*$", body, flags=re.MULTILINE)
    body = body[:line.start()] + f"{key} = {value}" + body[line.end():] if line \
        else f"{key} = {value}\n{body}"
    return f"{head}[{section}]\n{body}{sep}{rest}"


# per domain of the key table: values just outside it, then its inclusive edges
DOMAIN_EDGES = {
    "> 0": (("0", "-1e-9"), ()),
    ">= 0": (("-1e-9",), ("0",)),
    "> 1": (("1",), ()),
    ">= 1": (("0",), ("1",)),
    "in (0, 1]": (("0", "1.000001"), ("1",)),
    "in (0, 1)": (("0", "1"), ()),
    "in [0, 1)": (("-1e-9", "1"), ("0",)),
    "in (0, 1/2]": (("0", "0.500001"), ("0.5",)),
    "a power of two >= 2": (("1", "3", "48"), ("2",)),
    # [scenario] choices: values outside the list, then every listed value
    # (and one in upper case)
    "one of fixed-loss, optical-fixed, optical-mobile, microwave": (
        ("fiber", "free-space"), ("fixed-loss", "optical-fixed", "optical-mobile", "microwave")),
    "one of homodyne, heterodyne, hom, het": (
        ("both", "homo"), ("homodyne", "heterodyne", "hom", "het", "HET")),
    "one of tlo, llo": (("lo", "both"), ("tlo", "llo")),
    "one of 1, 2, 3": (("0", "4", "1.0"), ("1", "2", "3")),
    "one of standard, los": (("both", "nlos"), ("standard", "los")),
    "one of collective, general": (("both", "coherent"), ("collective", "general")),
}
RANGED = [entry for entry in _KEY_TABLE if entry[5] is not None]
CHOICES = [entry for entry in RANGED if entry[6] == "scenario-choice"]


class TestKeyTable:
    """Cases generated from the key table in config.py: a value just outside
    an entry's domain exits 1 with no output and names the entry's rule; each
    inclusive edge of the domain resolves."""

    SHIPPED = ("fiber_fixed_loss.ini", "wireless_fixed.ini", "mobile.ini",
               "microwave.ini", "coverage.ini")
    # shipped configs for the [scenario] choices that the cross-field rules of
    # the first shipped config refuse
    HOSTS = {("channel", "optical-fixed"): "wireless_fixed.ini",
             ("channel", "optical-mobile"): "mobile.ini",
             ("channel", "microwave"): "microwave.ini",
             ("security", "los"): "mobile.ini",
             ("attack", "general"): "wireless_general.ini"}

    @classmethod
    def config(cls, section: str, key: str, channels, value: str) -> str:
        """The key's host config, or else the first shipped config whose
        channel the key applies to and that has the section, with the key set
        to value."""
        host = cls.HOSTS.get((key, value))
        for name in (host,) if host else cls.SHIPPED:
            text = (CONFIGS / name).read_text(encoding="utf-8")
            if f"[{section}]" in text and resolve_scenario(text).channel in channels:
                break
        if key.startswith("eps_") and section == "protocol":
            text = text.replace("eps = 2^-33", "\n".join(
                f"{eps} = 2^-33" for eps in ("eps_pe", "eps_s", "eps_h", "eps_cor")))
        return set_key(text, section, key, value)

    def test_every_domain_has_cases(self):
        assert set(DOMAIN_EDGES) == set(_DOMAINS) | {entry[5] for entry in RANGED}

    @pytest.mark.parametrize("section, key, channels, domain, rule, value", [
        pytest.param(*entry[:3], *entry[5:], value, id=f"{entry[0]}.{entry[1]}={value}")
        for entry in RANGED for value in DOMAIN_EDGES[entry[5]][0]])
    def test_outside_is_rejected(self, tmp_path, capsys, section, key, channels,
                                 domain, rule, value):
        assert_config_error(tmp_path, capsys,
                            self.config(section, key, channels, value),
                            f"[{section}] {key} must be {domain}, got '{value}' "
                            f"(rule: {rule})")

    @pytest.mark.parametrize("section, key, channels, value", [
        pytest.param(*entry[:3], value, id=f"{entry[0]}.{entry[1]}={value}")
        for entry in RANGED for value in DOMAIN_EDGES[entry[5]][1]])
    def test_inclusive_edge_resolves(self, section, key, channels, value):
        scenario = resolve_scenario(self.config(section, key, channels, value))
        assert scenario.channel in channels

    @pytest.mark.parametrize("key, value", [
        pytest.param(entry[1], value, id=f"{entry[1]}={value}")
        for entry in CHOICES for value in DOMAIN_EDGES[entry[5]][1]])
    def test_choice_reaches_the_scenario(self, key, value):
        s = resolve_scenario(self.config("scenario", key, CHANNELS, value))
        held = {"channel": s.channel, "protocol": {1: "hom", 2: "het"}[s.nu_det],
                "lo": s.lo_kind, "trust": str(s.trust), "security": s.security,
                "attack": s.attack}[key]
        assert held == (value.lower()[:3] if key == "protocol" else value)


class TestUnreadableValue:
    """A value that its key's parser cannot read fails with a message that
    starts with its section and key."""

    @pytest.mark.parametrize("old, new, message", [
        ("nep = 6 pW/rtHz", "nep = abc",
         "[physics] nep: cannot parse quantity 'abc' (rule: quantity-syntax)"),
        ("mu = 10\n", "mu = 10\nimproved_aep = maybe\n",
         "[protocol] improved_aep: cannot parse boolean 'maybe' (rule: boolean-syntax)"),
        ("d = 32", "d = abc", "[protocol] d: cannot parse quantity 'abc' (rule: quantity-syntax)"),
    ])
    def test_message_names_the_key(self, tmp_path, capsys, old, new, message):
        assert_config_error(tmp_path, capsys, shipped("fiber_fixed_loss.ini", old, new),
                            f"error: {message}\n")


class TestRuleList:
    def test_readme_lists_exactly_the_rules(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("a message that names its rule")[1].split("\n\n")[1]
        listed = re.findall(r"^- `([a-z-]+)`", block, flags=re.MULTILINE)
        literal = {rule for module in ("config.py", "cli.py")
                   for rule in re.findall(r"\(rule: ([a-z-]+)\)", (
                       ROOT / "src" / "cvqkd" / module).read_text(encoding="utf-8"))}
        table = {entry[6] for entry in _KEY_TABLE if entry[6] is not None}
        assert sorted(listed) == sorted(table | literal)


class TestCrossFieldRuleNames:
    """The cross-field checks end their one-line error with their rule."""

    @pytest.mark.parametrize("config, old, new, rule", [
        ("fiber_fixed_loss.ini", "stop = 20", "stop = -1", "sweep-order"),
        ("fiber_fixed_loss.ini", "eps = 2^-33", "eps = 2^-33\neps_pe = 2^-33",
         "eps-exclusive"),
        ("wireless_fixed.ini", "n_b = 0.019\n", "omega_fov = 1e-4 sr\n",
         "optical-background-source"),
        ("fiber_fixed_loss.ini", "loss_db = 2", "loss_db = 2\nz_max = 3",
         "one-point-abscissa"),
    ])
    def test_message_ends_with_rule(self, tmp_path, capsys, config, old, new, rule):
        assert_config_error(tmp_path, capsys, shipped(config, old, new),
                            f"(rule: {rule})\n")


def without_section(text: str, section: str) -> str:
    """text with its [section] block, header to the next header, removed."""
    head, tail = text.split(f"\n[{section}]\n")
    return head + tail[tail.index("\n["):] if "\n[" in tail else head


def assert_rule_error(capsys, argv, rule):
    """main(argv) exits 1 with no output and one stderr line, never a
    traceback, that ends with the rule."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(f"(rule: {rule})\n"), err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestUsageErrors:
    """A command whose config lacks a section it reads, and coverage on a
    fading link, exit 1 with no output and a one-line error that ends with
    its rule."""

    @pytest.mark.parametrize("command, text, rule", [
        ("rate", without_section(fiber(), "point"), "command-needs-section"),
        ("sweep", without_section(fiber(), "sweep"), "command-needs-section"),
        ("simulate", without_section(fiber(), "simulate"), "command-needs-section"),
        ("simulate", without_section(fiber(), "point"), "command-needs-section"),
        ("coverage", without_section(fiber(), "coverage"), "command-needs-section"),
        ("coverage", mobile() + "\n[coverage]\nrounds = 4\npulses = 2000\n"
                               "eps_pe = 0.05\n", "coverage-constant-channel"),
    ])
    def test_error_names_its_rule(self, tmp_path, capsys, command, text, rule):
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        assert_rule_error(capsys, [command, "--config", str(path)], rule)


FIBER_INI = (CONFIGS / "fiber_fixed_loss.ini").read_text(encoding="utf-8")


class TestEveryErrorNamesItsRule:
    """Each way a config file or a command line fails, from undecodable bytes
    to an argparse usage error, exits 1 with no output and one stderr line,
    never a traceback, that ends with its rule."""

    @pytest.mark.parametrize("content, rule", [
        pytest.param(b"\xff\xfe[scenario]\n", "config-encoding", id="not-utf-8"),
        pytest.param(shipped("fiber_fixed_loss.ini", "nep = 6 pW/rtHz", "nep = abc"),
                     "quantity-syntax", id="quantity"),
        pytest.param(shipped("fiber_fixed_loss.ini", "nep = 6 pW/rtHz", "nep = 0^-1"),
                     "quantity-syntax", id="number"),
        pytest.param(shipped("fiber_fixed_loss.ini", "nep = 6 pW/rtHz", "nep = 6 furlongs"),
                     "quantity-syntax", id="unit"),
        pytest.param(shipped("fiber_fixed_loss.ini", "mu = 10\n",
                             "mu = 10\nimproved_aep = maybe\n"),
                     "boolean-syntax", id="boolean"),
        pytest.param(shipped("fiber_fixed_loss.ini", "n_b = 0.002", "n_b = 0.002\nbogus = 1"),
                     "unknown-key", id="unknown-key"),
        pytest.param(shipped("fiber_fixed_loss.ini", "n_b = 0.002", "n_b = 0.002\ng = 1"),
                     "key-not-for-channel", id="key-not-for-channel"),
        pytest.param(shipped("fiber_fixed_loss.ini", "nep = 6 pW/rtHz\n", ""),
                     "required-key", id="missing-key"),
        pytest.param(shipped("fiber_fixed_loss.ini", "channel = fixed-loss\n", ""),
                     "required-key", id="missing-channel"),
        pytest.param(shipped("fiber_fixed_loss.ini", "eps = 2^-33\n", "eps_pe = 2^-33\n"),
                     "required-key", id="missing-epsilon"),
        pytest.param(shipped("fiber_fixed_loss.ini", "nep = 6 pW/rtHz", "nep = 1e200 W/rtHz"),
                     "block-consistency", id="overflow"),
        pytest.param(shipped("fiber_fixed_loss.ini", "m = 1e6", "m = 1e7"),
                     "block-consistency", id="m-exceeds-block"),
        pytest.param("stray line\n" + FIBER_INI, "config-syntax", id="no-section-header"),
        pytest.param(shipped("fiber_fixed_loss.ini", "[point]\n", "[point]\nno value\n"),
                     "config-syntax", id="line-without-value"),
        pytest.param(FIBER_INI + "\n[plotting]\nstyle = dark\n", "unknown-section",
                     id="unknown-section"),
        pytest.param(without_section(FIBER_INI, "physics"), "required-section",
                     id="missing-section"),
    ])
    def test_config_error(self, tmp_path, capsys, content, rule):
        path = tmp_path / "bad.ini"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        assert_rule_error(capsys, ["rate", "--config", str(path)], rule)

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="no-command"),
        pytest.param(["launch", "--config", "x.ini"], id="unknown-command"),
        pytest.param(["rate"], id="no-config"),
        pytest.param(["rate", "--config", "x.ini", "--format", "xml"], id="bad-choice"),
        pytest.param(["rate", "--config", "x.ini", "--seed", "one"], id="bad-int"),
    ])
    def test_usage_error(self, capsys, argv):
        assert_rule_error(capsys, argv, "usage")


class TestPositiveModulation:
    """Rule positive-modulation: mu > 1. With mu = 1 the modulation variance
    mu - 1 is 0, and every rate row used to be a NaN row (exit 2)."""

    @pytest.mark.parametrize("config, line", [("fiber_fixed_loss.ini", "mu = 10\n"),
                                              ("microwave.ini", "mu = 21\n"),
                                              ("mobile.ini", "mu = 10\n")])
    def test_mu_one_rejected(self, tmp_path, capsys, config, line):
        assert_config_error(tmp_path, capsys, shipped(config, line, "mu = 1\n"),
                            "(rule: positive-modulation)")


class TestScenarioRanges:
    """Scenario-wide ranges are config errors (exit 1), not NaN rows: rule
    fading-window (f_th in (0, 1), bins >= 1) and rule pilot-rate-range
    (pilot_rate in [0, 1))."""

    CASES = {
        "f_th_one": ("f_th = 0.8", "f_th = 1", "fading-window"),
        "f_th_zero": ("f_th = 0.8", "f_th = 0", "fading-window"),
        "bins_zero": ("bins = 50", "bins = 0", "fading-window"),
        "pilot_rate_one": ("pulses = 200000", "pulses = 200000\npilot_rate = 1",
                           "pilot-rate-range"),
        "pilot_rate_negative": ("pulses = 200000",
                                "pulses = 200000\npilot_rate = -0.5",
                                "pilot-rate-range"),
        "pilot_rate_inf": ("pulses = 200000", "pulses = 200000\npilot_rate = inf",
                           "pilot-rate-range"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected(self, tmp_path, capsys, case):
        old, new, rule = self.CASES[case]
        assert_config_error(tmp_path, capsys, shipped("mobile.ini", old, new),
                            f"(rule: {rule})")

    def test_bounds_accepted(self):
        scenario = resolve_scenario(shipped(
            "mobile.ini", "pulses = 200000", "pulses = 200000\npilot_rate = 0")
            .replace("bins = 50", "bins = 1"))
        assert scenario.simulate["pilot_rate"] == 0.0 and scenario.bins == 1


class TestIntegerCounts:
    """Counts must be integer-valued; nothing is truncated silently."""

    CASES = {
        "d": (lambda: fiber(), "d = 32", "d = 32.7"),
        "bins": (lambda: mobile(), "m_pl = 5e5", "m_pl = 5e5\nbins = 50.9"),
        "sweep_points": (lambda: fiber(points="10.5"), None, None),
        "simulate_pulses": (lambda: fiber(), "[simulate]\npulses = 20000",
                            "[simulate]\npulses = 20000.5"),
        "coverage_pulses": (lambda: fiber(), "pulses = 2000\n",
                            "pulses = 2000.5\n"),
        "coverage_rounds": (lambda: fiber(), "rounds = 40", "rounds = 40.25"),
    }

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_rejects_fractional_count(self, key):
        make, old, new = self.CASES[key]
        text = make()
        if old is not None:
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(ConfigError, match="integer-count"):
            resolve_scenario(text)

    def test_integer_valued_forms_accepted(self):
        text = fiber(points="1e1").replace("d = 32", "d = 3.2e1") \
            .replace("rounds = 40", "rounds = 4e1")
        scenario = resolve_scenario(text)
        assert scenario.params.d == 32 and isinstance(scenario.params.d, int)
        assert scenario.sweep[3] == 10 and isinstance(scenario.sweep[3], int)
        assert scenario.coverage["rounds"] == 40
        assert resolve_scenario(mobile().replace(
            "m_pl = 5e5", "m_pl = 5e5\nbins = 2^5")).bins == 32


class TestFiniteAbscissa:
    """A non-finite [point] value or [sweep] end (rule finite-abscissa), or
    [physics] or [protocol] quantity (rule finite-quantity), is a ConfigError
    naming the rule, in either format, never a traceback or a NaN row. 1e400
    overflows to inf."""

    EDITS = {"point": ("rate", "loss_db = 2", "loss_db = {}"),
             "start": ("sweep", "start = 0", "start = {}"),
             "stop": ("sweep", "stop = 20", "stop = {}"),
             "n_b": ("rate", "n_b = 0.002", "n_b = {}"),
             "p_lo": ("rate", "p_lo = 100 mW", "p_lo = {} mW"),
             "c": ("rate", "c = 5 MHz", "c = {}"),
             "n_total": ("rate", "n_total = 1e7", "n_total = {}"),
             "mu": ("rate", "mu = 10", "mu = {}")}

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    @pytest.mark.parametrize("value", ("inf", "-inf", "1e400"))
    @pytest.mark.parametrize("key", sorted(EDITS))
    def test_rejects_infinite_abscissa(self, tmp_path, capsys, key, value, fmt):
        command, old, new = self.EDITS[key]
        rule = "finite-abscissa" if key in ("point", "start", "stop") \
            else "finite-quantity"
        text = fiber()
        assert text.count(old) == 1
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(old, new.format(value)))
        code = main([command, "--config", str(path), "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert f"(rule: {rule})" in err
        assert "Traceback" not in err


class TestDisclosedPairs:
    """Rule min-disclosed-pairs: the estimators need nu * m >= 2 and
    nu * pulses >= 2."""

    HOMODYNE = fiber().replace("protocol = heterodyne", "protocol = homodyne")

    def test_one_homodyne_disclosed_pulse_rejected(self, tmp_path, capsys):
        text = self.HOMODYNE.replace("m = 1e6\n", "m = 1\n")
        with pytest.raises(ConfigError, match=r"\[protocol\] nu \* m = 1 x 1\.0 .*"
                                               "min-disclosed-pairs"):
            resolve_scenario(text)
        code, blob = run_cli(tmp_path, text, ["rate"])
        assert (code, blob) == (1, b"")
        assert "min-disclosed-pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("section, old", [
        ("coverage", "pulses = 2000\n"), ("simulate", "pulses = 20000\n")])
    def test_one_homodyne_pulse_rejected(self, tmp_path, capsys, section,
                                         old):
        text = self.HOMODYNE.replace(old, "pulses = 1\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\].*"
                                               "min-disclosed-pairs"):
            resolve_scenario(text)
        code, blob = run_cli(tmp_path, text, [section, "--seed", "1"])
        assert code == 1
        assert blob == b""
        assert "min-disclosed-pairs" in capsys.readouterr().err

    def test_one_heterodyne_pulse_accepted(self):
        text = fiber().replace("pulses = 2000\n", "pulses = 1\n") \
            .replace("pulses = 20000\n", "pulses = 1\n")
        scenario = resolve_scenario(text)
        assert scenario.coverage["pulses"] == scenario.simulate["pulses"] == 1


class TestRateCommand:
    def test_fiber_two_db_anchor_row(self, tmp_path):
        code, blob = run_cli(tmp_path, fiber(), ["rate"])
        assert code == 0
        row = read_csv(blob)[0]
        assert float(row["loss_db"]) == 2.0
        assert float(row["tau"]) == pytest.approx(10**-0.2, rel=1e-12)
        assert float(row["r_pe"]) == pytest.approx(0.81261620237390542,
                                                   rel=1e-12)
        assert float(row["rate"]) == pytest.approx(0.61251283478736285,
                                                   rel=1e-12)
        assert float(row["epsilon"]) == pytest.approx(5.587935447692871e-10,
                                                      rel=1e-12)
        assert row["version"] == __version__
        assert row["reason"] == ""

    def test_trust_ordering_at_two_db(self, tmp_path):
        rates = {}
        for trust in (1, 2, 3):
            _, blob = run_cli(tmp_path, fiber(trust=trust), ["rate"])
            rates[trust] = float(read_csv(blob)[0]["rate"])
        assert rates[3] <= rates[2] <= rates[1]

    def test_clamp_flag(self, tmp_path):
        text = fiber(trust=3, loss_db="20")
        code_on, blob_on = run_cli(tmp_path, text, ["rate", "--clamp", "on"])
        code_off, blob_off = run_cli(tmp_path, text, ["rate", "--clamp", "off"])
        row_on, row_off = read_csv(blob_on)[0], read_csv(blob_off)[0]
        assert float(row_on["rate_raw"]) < 0.0
        assert float(row_on["rate"]) == 0.0
        assert float(row_off["rate"]) == float(row_off["rate_raw"])

    def test_microwave_plob_column(self, tmp_path):
        code, blob = run_cli(
            tmp_path,
            MICROWAVE.format(trust=3, security="standard", distance="4.4 cm"),
            ["rate"])
        assert code == 0
        row = read_csv(blob)[0]
        assert float(row["rate"]) == pytest.approx(0.0097692749124862425,
                                                   rel=1e-12)
        assert float(row["plob"]) == pytest.approx(1.0904689495548454,
                                                   rel=1e-12)

    @pytest.mark.parametrize("trust, security", [(3, "standard"), (2, "los")])
    def test_microwave_identity_row(self, tmp_path, trust, security):
        # eta_eff = 1 puts tau = 1 inside the best range: the rates are
        # defined, and the unbounded PLOB ceiling prints as null
        text = MICROWAVE.format(trust=trust, security=security,
                                distance="4.4 cm").replace("eta_eff = 0.8",
                                                           "eta_eff = 1")
        code, blob = run_cli(tmp_path, text, ["rate", "--format", "json"])
        doc = json.loads(blob)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert (code, row["tau"], row["plob"], row["reason"]) == (0, 1.0, None, "")
        assert row["rate"] > 0.0


class TestSweepCommand:
    def test_rows_ordered_and_jobs_invariant(self, tmp_path):
        text = fiber(points=7)
        code, blob_1 = run_cli(tmp_path, text, ["sweep", "--jobs", "1"])
        assert code == 0
        code, blob_2 = run_cli(tmp_path, text, ["sweep", "--jobs", "3"])
        assert code == 0
        assert blob_1 == blob_2
        xs = [float(r["loss_db"]) for r in read_csv(blob_1)]
        assert xs == sorted(xs)

    def test_shipped_optical_fixed_passive_eve_has_no_failed_rows(self, tmp_path):
        # 1 - eta_ch falls to 1e-12 near z = 10 m; the dilation's omega
        # reaches 1e10 there, which the eigenvalue path could not handle
        text = (CONFIGS / "wireless_fixed.ini").read_text()
        text = text.replace("trust = 3", "trust = 1").replace("points = 100",
                                                              "points = 400")
        code, blob = run_cli(tmp_path, text, ["sweep"])
        rows = read_csv(blob)
        assert len(rows) == 400
        assert [r["reason"] for r in rows if r["reason"]] == []
        assert code == 0
        # the model rate cannot grow as the link lengthens
        asym = [float(r["rate_asym_raw"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(asym, asym[1:]))

    def test_deterministic_bytes(self, tmp_path):
        blobs = {run_cli(tmp_path, fiber(points=4),
                         ["sweep", "--format", "json", "--seed", "9"])[1]
                 for _ in range(2)}
        assert len(blobs) == 1

    def test_partial_failure_emits_nan_row_and_exit_2(self, tmp_path):
        code, blob = run_cli(tmp_path, mobile(sweep_start=0), ["sweep"])
        assert code == 2
        rows = read_csv(blob)
        failed = [r for r in rows if r["reason"]]
        assert len(failed) == 1
        assert float(failed[0]["z_max_m"]) == 0.0
        assert failed[0]["rate"] == "nan"
        assert "distance must be positive" in failed[0]["reason"]
        assert all(not r["reason"] for r in rows[1:])

    def test_csv_round_trip(self, tmp_path):
        code, csv_blob = run_cli(tmp_path, fiber(points=5), ["sweep"])
        code, json_blob = run_cli(tmp_path, fiber(points=5),
                                  ["sweep", "--format", "json"])
        payload = json.loads(json_blob)
        csv_rows = read_csv(csv_blob)
        for row, json_row in zip(csv_rows, payload["rows"]):
            for col, json_value in zip(payload["columns"], json_row):
                if isinstance(json_value, (int, float)) and \
                        not isinstance(json_value, bool):
                    assert float(row[col]) == pytest.approx(json_value,
                                                            rel=1e-12)

    def test_line_endings(self, tmp_path):
        _, blob = run_cli(tmp_path, fiber(points=3), ["sweep"])
        assert b"\r" not in blob
        assert blob.endswith(b"\n")


def _csv_writer_cell(value) -> str:
    """The cell rule the CSV writer was fed before it wrote rows itself."""
    if isinstance(value, str):
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return str(int(value))
    return "%.17g" % float(value)


def _json_cell_rule(value):
    """The JSON cell rule without the float fast path: NaN and +-inf, which
    JSON lacks, become null."""
    if isinstance(value, str):
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    value = float(value)
    return value if math.isfinite(value) else None


ODD_STRINGS = ("a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n", "\r", "",
               " lead", "trail ", '"', ",", "\n", "ünïcödé µ→∞", '"q",\n"')
ODD_NUMBERS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               1.7976931348623157e308, np.float64(0.1), np.float64(math.nan),
               np.float64(-0.0), True, False, np.int64(7), 10**20, -3, 1.5)


class TestEmitters:
    """emit_csv writes its own rows of cells; the running interpreter's
    csv.writer, fed the old cells, is its oracle. With a CR LF terminator
    csv.writer quotes a cell that holds a carriage return; the oracle then
    ends each row with a line feed alone. emit_csv and emit_json match the
    per-cell writers of tests/oracles.py, which read rows by column."""

    COLUMNS = ("x", "odd,name", 'q"name', "s", "n")
    PROVENANCE = {"scenario_hash": "0123abcd", "seed": np.int64(12),
                  "version": '1,0 "rc" 100%s %%'}

    def rows(self):
        strings, numbers = ODD_STRINGS, ODD_NUMBERS
        return [(float(i), strings[i % len(strings)], numbers[i % len(numbers)],
                 strings[(3 * i + 1) % len(strings)], numbers[(5 * i + 2) % len(numbers)])
                for i in range(3 * len(strings) * len(numbers))]

    @staticmethod
    def oracle(rows, columns) -> str:
        lines = []
        for cells in (columns, *([_csv_writer_cell(v) for v in row] for row in rows)):
            out = io.StringIO()
            csv.writer(out, lineterminator="\r\n").writerow(cells)
            line = out.getvalue()
            assert line.endswith("\r\n")
            lines.append(line[:-2] + "\n")
        return "".join(lines)

    @staticmethod
    def command_rows() -> dict:
        """name -> (columns, rows) of each command's rows, NaN rows included,
        and of rows of wide integers, bools and numpy scalars."""
        def scenario(name, section, key, value):
            text = (CONFIGS / name).read_text(encoding="utf-8")
            return resolve_scenario(set_key(text, section, key, value))

        def failing(x):
            raise ValueError(f"no row at {x}, 100% sure")

        fiber_sc = resolve_scenario(fiber(points=9))
        cov = scenario("coverage.ini", "coverage", "rounds", "50")
        sim = scenario("coverage.ini", "simulate", "pulses", "2000")
        mob = scenario("mobile.ini", "simulate", "pulses", "2000")
        rate_rows = [*_rate_rows(fiber_sc, _sweep_grid(0.0, 80.0, 9), True),
                     *_rate_rows(fiber_sc, _sweep_grid(0.0, 80.0, 9), False),
                     _guarded_row(failing, RATE_COLUMNS, 3.0)]
        return {
            "rate": (("loss_db", *RATE_COLUMNS), rate_rows),
            "simulate": (("loss_db", *SIM_COLUMNS), [
                _guarded_row(functools.partial(_simulation_row, sim, seed=3, dump=None),
                             SIM_COLUMNS, 2.0),
                _guarded_row(failing, SIM_COLUMNS, 2.0)]),
            "simulate-mobile": (("z_max_m", *SIM_MOBILE_COLUMNS), [
                _guarded_row(functools.partial(_simulation_row, mob, seed=3, dump=None),
                             SIM_MOBILE_COLUMNS, 5.0)]),
            "coverage": (("loss_db", *COVERAGE_COLUMNS), [
                _guarded_row(functools.partial(_coverage_row, cov, seed=3),
                             COVERAGE_COLUMNS, 2.0),
                _guarded_row(failing, COVERAGE_COLUMNS, 2.0)]),
            "wide": (("a", "b", "c", "d", "e"), [
                (2 ** 53 + 1, -(2 ** 63) - 1, np.int64(2 ** 62 + 1), True, "a,b"),
                (10 ** 20 + 1, False, np.float64(0.1), np.int64(-7), 1.5),
                (math.nan, 0.1, np.float64(math.nan), 2 ** 53 + 1, "")]),
        }

    def test_csv_matches_csv_writer(self):
        rows = self.rows()
        out = io.StringIO()
        emit_csv(rows, self.COLUMNS, out, {})
        assert out.getvalue() == self.oracle(rows, self.COLUMNS)

    def test_csv_provenance_cells_match_csv_writer(self):
        rows = self.rows()
        provenance = {"scenario_hash": "0123abcd", "seed": np.int64(12),
                      "version": "1,0 \"rc\""}
        out = io.StringIO()
        emit_csv(rows, self.COLUMNS, out, provenance)
        full = [(*row, *provenance.values()) for row in rows]
        assert out.getvalue() == self.oracle(full, (*self.COLUMNS, *provenance))

    def test_csv_round_trips_through_csv_reader(self):
        # every string reads back whole, carriage returns included
        rows = self.rows()
        out = io.StringIO()
        emit_csv(rows, self.COLUMNS, out, {})
        back = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
        assert tuple(back[0]) == self.COLUMNS
        assert [(r[1], r[3]) for r in back[1:]] == [(row[1], row[3]) for row in rows]

    def test_csv_matches_per_cell_writer(self):
        sets = {"odd": (self.COLUMNS, self.rows()), **self.command_rows()}
        for name, (columns, rows) in sets.items():
            assert all(len(row) == len(columns) for row in rows), name
            by_column = [dict(zip(columns, row)) for row in rows]
            for provenance in ({}, self.PROVENANCE):
                got, want = io.StringIO(), io.StringIO()
                emit_csv(rows, columns, got, provenance)
                emit_csv_oracle(by_column, columns, want, provenance)
                assert got.getvalue() == want.getvalue(), name

    def test_json_matches_per_cell_writer(self):
        # JSON has no inf, so the odd rows are left to the CSV tests; the
        # document's own seed field is the command line's int
        provenance = {**self.PROVENANCE, "seed": 12}
        for name, (columns, rows) in self.command_rows().items():
            by_column = [dict(zip(columns, row)) for row in rows]
            got, want = io.StringIO(), io.StringIO()
            emit_json(rows, columns, {"k": 1}, provenance, name, got)
            emit_json_oracle(by_column, columns, {"k": 1}, provenance, name, want)
            assert got.getvalue() == want.getvalue(), name

    def test_command_rows_cover_every_cell_type(self):
        sets = self.command_rows()
        assert {row[-1] for row in sets["rate"][1]} > {""}  # a NaN row with a reason
        assert any(type(v) is int for _, rows in sets.values() for row in rows for v in row)
        out = io.StringIO()
        emit_csv(sets["wide"][1], sets["wide"][0], out, {})
        # integers above 2**53 print whole, not through %.17g
        assert out.getvalue().splitlines()[1:] == [
            '9007199254740993,-9223372036854775809,4611686018427387905,1,"a,b"',
            "100000000000000000001,0,0.10000000000000001,-7,1.5",
            "nan,0.10000000000000001,nan,9007199254740993,"]

    def test_json_cell_matches_old_rule(self):
        for value in (*ODD_STRINGS, *ODD_NUMBERS):
            got, want = _json_cell(value), _json_cell_rule(value)
            assert type(got) is type(want), value
            assert json.dumps(got) == json.dumps(want), value

    def test_infinite_cell_is_json_null(self, tmp_path):
        # n_b = 1e308 is finite and in its domain, but the row's n_hi
        # overflows and its Holevo term is not finite: the row fails, csv
        # prints its cells nan, and JSON, which has no nan or inf, null, with
        # csv's exit code
        text = set_key((CONFIGS / "fiber_fixed_loss.ini").read_text(encoding="utf-8"),
                       "physics", "n_b", "1e308")
        csv_code, csv_out = run_cli(tmp_path, text, ["rate"])
        row = read_csv(csv_out)[0]
        assert (csv_code, row["n_hi"], row["rate"]) == (2, "nan", "nan")
        assert row["reason"].startswith("ValueError: entropic_h")
        json_code, json_out = run_cli(tmp_path, text, ["rate", "--format", "json"])
        assert json_code == csv_code
        doc = json.loads(json_out)
        assert [doc["rows"][0][doc["columns"].index(c)] for c in ("n_hi", "rate")] == [None] * 2

    @pytest.mark.parametrize("name, command, key, overflowed", (
        ("fiber_fixed_loss.ini", "rate", "l_w", ("theta_ph", "xi_llo")),
        ("coverage.ini", "simulate", "l_w", ("theta_ph", "xi_llo")),
        ("mobile.ini", "simulate", "l_w", ("theta_ph", "xi_llo")),
        ("microwave.ini", "rate", "t", ("n_th",))))
    def test_infinite_echo_is_json_null(self, tmp_path, name, command, key, overflowed):
        # the key at 1e308 is finite and in its domain, but derived values
        # overflow: the JSON echo shows them as null, with csv's exit code and
        # the scenario hash of the echo as csv prints it
        text = set_key((CONFIGS / name).read_text(encoding="utf-8"), "physics", key, "1e308")
        if command == "simulate":
            text = set_key(text, "simulate", "pulses", "20000")
        csv_code, csv_out = run_cli(tmp_path, text, [command])
        json_code, json_out = run_cli(tmp_path, text, [command, "--format", "json"])
        assert json_code == csv_code
        doc = json.loads(json_out)
        assert [doc["scenario"]["derived"][d] for d in overflowed] == [None] * len(overflowed)
        assert doc["scenario_hash"] == read_csv(csv_out)[0]["scenario_hash"]
        jsonschema.validate(doc, TestJsonSchema().schema())


@pytest.mark.parametrize("name, command, key, value", (
    ("coverage.ini", "rate", "l_w", "1e308"),
    ("fiber_fixed_loss.ini", "rate", "nep", "1e150 W/rtHz"),
    ("coverage.ini", "rate", "n_b", "1e308"),
    ("microwave.ini", "rate", "t", "1e308"),
    ("coverage.ini", "simulate", "l_w", "1e308"),
    ("mobile.ini", "simulate", "l_w", "1e308"),
    ("coverage.ini", "simulate", "n_b", "1e308")))
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_non_finite_row_fails_with_a_reason(tmp_path, monkeypatch, name, command, key,
                                            value, fmt):
    # finite keys in their domains whose rows printed nan or inf, exit 0: the
    # row fails with a reason, no numpy warning, and a dump it made is gone;
    # simulate reduces over CHUNK pairs on threads in csv, in order in json
    monkeypatch.setattr("cvqkd.simulate._workers", lambda: 3)
    text = set_key((CONFIGS / name).read_text(encoding="utf-8"), "physics", key, value)
    dump = tmp_path / "pairs.csv"
    tail = ["--dump", str(dump)] if command == "simulate" and fmt == "json" else []
    if command == "simulate":
        text = set_key(text, "simulate", "pulses", "140000")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, text, [command, "--format", fmt, *tail])
    assert (code, caught) == (2, [])
    if fmt == "csv":
        reason = read_csv(out)[0]["reason"]
    else:
        doc = json.loads(out)
        reason = doc["rows"][0][doc["columns"].index("reason")]
    assert reason.startswith("ValueError: entropic_h" if command == "rate" else
                             "ValueError: estimators not finite"), reason
    assert not dump.exists()


class TestSharedParser:
    """One parser serves every main() call in a process: alternating calls
    give the bytes and exit code each gives in a fresh interpreter."""

    def test_alternating_calls_match_fresh_processes(self, tmp_path):
        good = tmp_path / "fiber.ini"
        good.write_text(fiber(points=4))
        bad = tmp_path / "bad.ini"
        bad.write_text(fiber().replace("mu = 10", "mu = 1"))
        calls = [["rate", "--config", str(good), "--clamp", "off"],
                 ["sweep", "--config", str(good), "--format", "json",
                  "--seed", "9"],
                 ["simulate", "--config", str(good), "--seed", "3"],
                 ["rate", "--config", str(bad)],
                 ["rate", "--config", str(good)],
                 ["rate", "--config", str(good), "--format", "yaml"],
                 ["sweep", "--config", str(good)]]

        def in_process(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        results = [in_process(argv) for argv in calls + calls]
        assert results[:len(calls)] == results[len(calls):]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for argv, (code, out, err) in zip(calls, results):
            proc = subprocess.run([sys.executable, "-m", "cvqkd.cli", *argv],
                                  env=env, capture_output=True, text=True)
            assert (code, out, err) == (proc.returncode, proc.stdout,
                                        proc.stderr), argv
        assert [r[0] for r in results[:len(calls)]] == [0, 0, 0, 1, 0, 1, 0]


class TestSweepGrid:
    """The sweep grid is numpy.linspace's own formula in pure Python."""

    # bit for bit, signed zeros included; finite ends up to 1e300 so that
    # stop - start stays finite, subnormals included
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(start=st.floats(-1e300, 1e300), stop=st.floats(-1e300, 1e300),
           points=st.integers(1, 200))
    @example(start=0.0, stop=10.0, points=1)
    @example(start=0.0, stop=10.0, points=2)
    @example(start=2.5, stop=2.5, points=5)
    @example(start=7.0, stop=-3.0, points=11)
    @example(start=-0.0, stop=0.0, points=1)
    @example(start=0.0, stop=5e-324, points=7)      # the step underflows to 0
    def test_bit_identical_to_numpy_linspace(self, start, stop, points):
        grid = _sweep_grid(start, stop, points)
        assert all(type(x) is float for x in grid)
        assert np.array(grid, dtype=float).tobytes() == \
            np.linspace(start, stop, points).tobytes()


class TestJsonSchema:
    def schema(self):
        import cvqkd

        root = cvqkd.__path__[0]
        with open(f"{root}/schemas/results.schema.json") as handle:
            return json.load(handle)

    def test_all_commands_validate(self, tmp_path):
        schema = self.schema()
        for text, command in ((fiber(), "rate"), (fiber(points=3), "sweep"),
                              (fiber(), "simulate"), (fiber(), "coverage"),
                              (mobile(), "simulate")):
            code, blob = run_cli(tmp_path, text,
                                 [command, "--format", "json", "--seed", "3"])
            assert code == 0, blob
            payload = json.loads(blob)
            jsonschema.validate(payload, schema)
            assert payload["command"] == command
            assert payload["version"] == __version__


class TestSimulateCommand:
    def test_estimates_track_model(self, tmp_path):
        code, blob = run_cli(tmp_path, fiber(), ["simulate", "--seed", "11"])
        assert code == 0
        row = read_csv(blob)[0]
        tau = float(row["tau_model"])
        assert float(row["tau_hat"]) == pytest.approx(tau, rel=0.05)
        assert float(row["tau_lo"]) < tau < float(row["tau_hi"])
        assert float(row["n_hi"]) > float(row["nbar_model"])

    def test_seed_changes_draw(self, tmp_path):
        _, a = run_cli(tmp_path, fiber(), ["simulate", "--seed", "11"])
        _, b = run_cli(tmp_path, fiber(), ["simulate", "--seed", "12"])
        _, a2 = run_cli(tmp_path, fiber(), ["simulate", "--seed", "11"])
        assert a == a2
        assert a != b

    def test_mobile_defade_summary(self, tmp_path):
        code, blob = run_cli(tmp_path, mobile(), ["simulate", "--seed", "4"])
        assert code == 0
        row = read_csv(blob)[0]
        assert float(row["p_delta_emp"]) == pytest.approx(
            float(row["p_delta_model"]), abs=0.02)
        assert float(row["tau_hat"]) == pytest.approx(float(row["tau_min"]),
                                                      rel=0.05)
        assert float(row["defade_var"]) == pytest.approx(
            float(row["defade_var_model"]), rel=0.05)


    def test_mobile_counts_untrusted_photons(self, tmp_path):
        # n_other photons reach the de-fading model as they reach the
        # simulated pulses: the measured de-faded variance stays within three
        # standard errors, defade_var_model * sqrt(2 / kept_pairs), of the
        # model value
        text = mobile("sigma_p = 1.745 mrad\nn_other = 0.05").replace(
            "pulses = 20000", "pulses = 200000")
        code, blob = run_cli(tmp_path, text, ["simulate", "--seed", "4"])
        assert code == 0
        row = read_csv(blob)[0]
        model = float(row["defade_var_model"])
        sigma = model * math.sqrt(2.0 / int(row["kept_pairs"]))
        assert abs(float(row["defade_var"]) - model) <= 3.0 * sigma


class TestMobileUntrustedNoise:
    def test_rate_credits_n_other_to_eve(self, tmp_path):
        _, base = run_cli(tmp_path, mobile(), ["rate"])
        _, noisy = run_cli(tmp_path, mobile("sigma_p = 1.745 mrad\nn_other = 0.05"),
                           ["rate"])
        base, noisy = read_csv(base)[0], read_csv(noisy)[0]
        assert float(noisy["n_hi"]) >= float(base["n_hi"]) + 0.05
        assert float(noisy["rate_raw"]) < float(base["rate_raw"])


class TestCoverageCommand:
    def test_failure_rates_bounded(self, tmp_path):
        code, blob = run_cli(tmp_path, fiber(), ["coverage", "--seed", "2"])
        assert code == 0
        row = read_csv(blob)[0]
        assert int(row["rounds"]) == 40
        for col in ("tau_low_rate", "tau_high_rate", "n_rate"):
            assert 0.0 <= float(row[col]) <= 0.2

    def test_seeds_977_apart_differ(self, tmp_path):
        # the per-pulse path seeded round k with seed + 977 k, so seeds 17
        # and 994 shared all rounds but one and printed the same counts
        text = fiber().replace("rounds = 40", "rounds = 400") \
            .replace("eps_pe = 0.05", "eps_pe = 0.3")
        rows = []
        for seed in ("17", "994"):
            code, blob = run_cli(tmp_path, text, ["coverage", "--seed", seed])
            assert code == 0
            row = read_csv(blob)[0]
            rows.append({k: v for k, v in row.items() if k != "seed"})
        assert rows[0] != rows[1]

    def test_zero_margin_prints_positive_zero(self, tmp_path):
        text = fiber().replace("eps_pe = 0.05", "eps_pe = 0.5")
        code, blob = run_cli(tmp_path, text, ["coverage", "--seed", "1"])
        assert code == 0
        assert read_csv(blob)[0]["w"] == "0"

    def test_in_process_matches_subprocess(self, tmp_path):
        code, blob = run_cli(tmp_path, fiber(), ["coverage", "--seed", "8"])
        assert code == 0
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "cvqkd.cli", "coverage",
                              "--config", str(tmp_path / "scenario.ini"),
                              "--seed", "8"],
                             check=True, capture_output=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.stdout == blob

    def test_mobile_coverage_is_config_error(self, tmp_path, capsys):
        text = mobile() + "\n[coverage]\nrounds = 4\npulses = 2000\neps_pe = 0.05\n"
        code, blob = run_cli(tmp_path, text, ["coverage", "--seed", "2"])
        assert code == 1
        assert blob == b""
        assert "constant-transmissivity" in capsys.readouterr().err


def fresh_interpreter(probe: str, *args: str, flags: tuple = ()) -> str:
    """Stdout of probe run in a new interpreter with src on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", probe, *args], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}).stdout.strip()


LOADED = ("print(codes, sorted(m for m in sys.modules "
          "if m.split('.')[0] in {names!r}))")


class TestImportFloor:
    def test_cli_loads_no_scipy(self, tmp_path):
        # scipy serves only the oracles, which import it when called: a rate
        # row on every shipped config, from a fresh interpreter, loads none
        # of it
        probe = ("import sys, cvqkd.cli\n"
                 "codes = [cvqkd.cli.main(['rate', '--config', cfg, '--out', "
                 "sys.argv[1]]) for cfg in sys.argv[2:]]\n"
                 + LOADED.format(names=("scipy",)))
        configs = sorted(str(cfg) for cfg in CONFIGS.glob("*.ini"))
        assert fresh_interpreter(probe, str(tmp_path / "row.csv"), *configs) \
            == f"{[0] * len(configs)} []"

    @staticmethod
    def rate_and_sweep_runs() -> list:
        """cmd, config, cmd, config, ...: rate on every shipped config and
        sweep on every one with a [sweep] section (coverage.ini has none)."""
        configs = sorted(CONFIGS.glob("*.ini"))
        runs = [("rate", str(cfg)) for cfg in configs] + [
            ("sweep", str(cfg)) for cfg in configs
            if "[sweep]" in cfg.read_text(encoding="utf-8")]
        assert len(runs) == 2 * len(configs) - 1
        return [arg for run in runs for arg in run]

    RUN_PAIRS = ("[cvqkd.cli.main([cmd, '--config', cfg, '--out', sys.argv[1]]) "
                 "for cmd, cfg in zip(sys.argv[2::2], sys.argv[3::2])]")

    def test_rate_and_sweep_load_no_numpy(self, tmp_path):
        # the closed-form commands run on the standard library alone: rate and
        # sweep exit 0 and leave no numpy, scipy or concurrent.futures module,
        # nor dataclasses, inspect or statistics (the records are plain
        # classes, and w comes from _statistics)
        flat = self.rate_and_sweep_runs()
        probe = ("import sys, cvqkd.cli\n"
                 f"codes = {self.RUN_PAIRS}\n"
                 + LOADED.format(names=("numpy", "scipy", "concurrent",
                                        "dataclasses", "inspect", "statistics")))
        assert fresh_interpreter(probe, str(tmp_path / "rows.csv"), *flat) \
            == f"{[0] * (len(flat) // 2)} []"

    def test_cli_loads_no_hashlib(self):
        # scenario_hash takes the built-in sha256: the OpenSSL binding that
        # hashlib loads costs milliseconds of every invocation
        probe = ("import sys, cvqkd.cli\n"
                 "codes = [cvqkd.cli.scenario_hash(None, {'a': 1})]\n"
                 + LOADED.format(names=("_hashlib", "hashlib")))
        digest = hashlib.sha256(json.dumps({"a": 1}).encode()).hexdigest()[:12]
        assert fresh_interpreter(probe, flags=("-S",)) == f"{[digest]} []"

    def test_only_coverage_loads_random(self, tmp_path):
        # the coverage sampler imports random in its own body: import
        # cvqkd.cli, rate and sweep load none of it. -S keeps site out, since
        # a .pth file may import random at start-up
        flat = self.rate_and_sweep_runs()
        probe = ("import sys, cvqkd.cli\n"
                 f"codes = ['random' in sys.modules] + {self.RUN_PAIRS}\n"
                 + LOADED.format(names=("random",)))
        assert fresh_interpreter(probe, str(tmp_path / "rows.csv"), *flat,
                                 flags=("-S",)) \
            == f"{[False] + [0] * (len(flat) // 2)} []"

    def test_coverage_loads_no_numpy(self, tmp_path):
        # the sufficient-statistics sampler draws from the standard library:
        # coverage on every constant-channel shipped config, given a
        # [coverage] section where it has none, exits 0 and loads no numpy
        paths = []
        for cfg in sorted(CONFIGS.glob("*.ini")):
            text = cfg.read_text(encoding="utf-8")
            if "channel = optical-mobile" in text:
                continue
            if "[coverage]" not in text:
                text += "\n[coverage]\nrounds = 500\npulses = 2000\neps_pe = 0.05\n"
            paths.append(tmp_path / cfg.name)
            paths[-1].write_text(text, encoding="utf-8")
        assert len(paths) == 5
        probe = ("import sys, cvqkd.cli\n"
                 "codes = [cvqkd.cli.main(['coverage', '--config', cfg, '--out', "
                 "sys.argv[1]]) for cfg in sys.argv[2:]]\n"
                 + LOADED.format(names=("numpy",)))
        assert fresh_interpreter(probe, str(tmp_path / "row.csv"),
                                 *map(str, paths)) == f"{[0] * 5} []"

    def test_package_never_imports_dataclasses(self):
        # every record is a cvqkd.Record subclass with an explicit __init__
        imported = set()
        for path in sorted((ROOT / "src" / "cvqkd").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imported.add(node.module)
        assert "numpy" in imported and "dataclasses" not in imported

    def test_cli_imports_no_numpy(self):
        # the simulate rows leave their arrays to cvqkd.simulate: a row takes
        # its estimators from one call per channel
        tree = ast.parse((ROOT / "src" / "cvqkd" / "cli.py").read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names} | {
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module}
        assert "json" in imported
        assert {name for name in imported if name.split(".")[0] == "numpy"} == set()

    def test_commands_run_with_scipy_refused(self, tmp_path):
        # scipy is a test dependency only: with a meta-path finder that
        # refuses it, every command on every shipped config gives the same
        # exit code, stdout and dump bytes as an unrestricted interpreter
        probe = (
            "import contextlib, hashlib, io, os, sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'{name} is refused')\n"
            "if sys.argv[1] == 'refuse':\n"
            "    sys.meta_path.insert(0, Refuse())\n"
            "import cvqkd.cli\n"
            "codes = []\n"
            "for cfg in sys.argv[3:]:\n"
            "    for cmd in ('rate', 'sweep', 'simulate', 'coverage'):\n"
            "        dump = os.path.join(sys.argv[2], 'pairs.csv')\n"
            "        out = io.StringIO()\n"
            "        with contextlib.redirect_stdout(out), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "            codes.append(cvqkd.cli.main([cmd, '--config', cfg, "
            "'--seed', '5'] + (['--dump', dump] if cmd == 'simulate' "
            "else [])))\n"
            "        pairs = b''\n"
            "        if os.path.exists(dump):\n"
            "            with open(dump, 'rb') as handle:\n"
            "                pairs = handle.read()\n"
            "            os.remove(dump)\n"
            "        print(cmd, os.path.basename(cfg), codes[-1], "
            "len(pairs), hashlib.sha256(out.getvalue().encode() + b'|' "
            "+ pairs).hexdigest())\n"
            + LOADED.format(names=("scipy",)))
        configs = sorted(str(cfg) for cfg in CONFIGS.glob("*.ini"))
        runs = {mode: fresh_interpreter(probe, mode, str(tmp_path), *configs)
                for mode in ("refuse", "allow")}
        assert runs["refuse"] == runs["allow"]
        lines = runs["refuse"].splitlines()
        assert lines[-1].endswith(" []")
        done = {(cmd, cfg) for cmd, cfg, code, pairs, _ in
                map(str.split, lines[:-1]) if code == "0"
                and (cmd != "simulate" or int(pairs) > 0)}
        names = [Path(cfg).name for cfg in configs]
        assert done == {("rate", name) for name in names} | {
            ("sweep", name) for name in names if name != "coverage.ini"} | {
            ("simulate", "coverage.ini"), ("simulate", "mobile.ini"),
            ("coverage", "coverage.ini")}

    def test_commands_match_on_other_interpreters(self):
        # rate and sweep on every shipped config and coverage on coverage.ini
        # give the running interpreter's exit codes and stdout bytes under
        # each of 3.10, 3.12 and 3.13 on the PATH (3.12+ take the _sha2
        # branch of the built-in sha256). A launcher that starts no
        # interpreter is not one
        flat = [*self.rate_and_sweep_runs(), "coverage", str(CONFIGS / "coverage.ini")]
        probe = ("import contextlib, io, os, sys\n"
                 "print('started', flush=True)\n"
                 "import cvqkd.cli\n"
                 "for cmd, cfg in zip(sys.argv[1::2], sys.argv[2::2]):\n"
                 "    out = io.StringIO()\n"
                 "    with contextlib.redirect_stdout(out):\n"
                 "        code = cvqkd.cli.main([cmd, '--config', cfg])\n"
                 "    print(cmd, os.path.basename(cfg), code, repr(out.getvalue()))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        run = lambda exe: subprocess.run([exe, "-B", "-c", probe, *flat], env=env,
                                         capture_output=True, text=True)
        want = run(sys.executable)
        assert want.returncode == 0, want.stderr
        assert [line.split()[2] for line in want.stdout.splitlines()[1:]] == [
            "0"] * (len(flat) // 2)
        ran = []
        for name in ("python3.10", "python3.12", "python3.13"):
            exe = shutil.which(name)
            got = exe and run(exe)
            if not got or not got.stdout.startswith("started\n"):
                continue
            assert (got.returncode, got.stdout) == (0, want.stdout), (name, got.stderr)
            ran.append(name)
        if not ran:
            pytest.skip("no python3.10, python3.12 or python3.13 on the PATH")

    def test_single_chunk_simulate_starts_no_pool(self, tmp_path):
        # a block of one chunk is drawn and reduced inline; one of several
        # chunks goes to a thread pool, unless --dump writes and reduces its
        # slices in order, in one pass
        probe = ("import sys, cvqkd.cli\n"
                 "codes = [cvqkd.cli.main(['simulate', '--config', sys.argv[2], "
                 "'--out', sys.argv[1]] + sys.argv[3:])]\n"
                 + LOADED.format(names=("concurrent",)))
        text = (CONFIGS / "coverage.ini").read_text(encoding="utf-8")
        lines = {}
        for pulses, *dump in (("30000",), ("500000",), ("500000", "--dump", os.devnull)):
            path = tmp_path / f"{pulses}.ini"
            path.write_text(text.replace("pulses = 500000", f"pulses = {pulses}"),
                            encoding="utf-8")
            lines[(pulses, *dump)] = fresh_interpreter(
                probe, str(tmp_path / "row.csv"), str(path), *dump)
        assert lines[("30000",)] == "[0] []"
        assert lines[("500000", "--dump", os.devnull)] == "[0] []"
        if _workers() > 1:
            assert "'concurrent.futures'" in lines[("500000",)]

    def test_package_import_loads_no_numpy(self):
        # the package holds only __version__: importing it loads no cvqkd
        # submodule, no numpy and no scipy
        probe = ("import sys, cvqkd\n"
                 "codes = [cvqkd.__version__]\n"
                 + LOADED.format(names=("cvqkd", "numpy", "scipy")))
        assert fresh_interpreter(probe) == f"{[__version__]} ['cvqkd']"

    def test_oracles_live_in_tests(self):
        # under src/cvqkd only channel.pointing_tau_exact imports scipy, and
        # the test oracles are defined in tests/oracles.py, not in src
        moved = {"EveState", "eve_joint_cm", "_chi_from_conditioning",
                 "IDENTITY_GUARD", "CovarianceMatrix", "condition_on_homodyne",
                 "condition_on_heterodyne", "fading_probability_quadrature",
                 "RateReport", "mutual_information", "holevo", "holevo_los",
                 "asymptotic_rate", "_report", "microwave_los_rate",
                 "composable_rate", "_finite_rate", "_rate_row"}

        def scan(path):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            importers = set()

            def visit(node, owner):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.Import):
                        modules = [alias.name for alias in child.names]
                    elif isinstance(child, ast.ImportFrom):
                        modules = [child.module or ""]
                    else:
                        modules = []
                    if any(name.split(".")[0] == "scipy" for name in modules):
                        importers.add(owner)
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                        visit(child, f"{owner}.{child.name}")
                    else:
                        visit(child, owner)

            visit(tree, path.stem)
            defined = {node.name for node in ast.walk(tree) if isinstance(
                node, (ast.FunctionDef, ast.ClassDef))} | {
                node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)}
            return importers, defined

        importers, defined = set(), set()
        for path in sorted((ROOT / "src" / "cvqkd").glob("*.py")):
            found = scan(path)
            importers |= found[0]
            defined |= found[1]
        assert importers == {"channel.pointing_tau_exact"}
        assert defined & moved == set()
        assert moved <= scan(ROOT / "tests" / "oracles.py")[1]


class TestWarningCodes:
    def test_readme_table_lists_exactly_the_codes(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("The `warnings` column holds")[1].split("###")[0]
        listed = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
        assert sorted(listed) == sorted(WARNING_CODES)

    def test_every_raised_code_is_listed(self):
        raised = set()
        for module in (ROOT / "src" / "cvqkd").glob("*.py"):
            raised.update(re.findall(r"\"(\w+_(?:floored|clamped))\"",
                                     module.read_text(encoding="utf-8")))
        assert raised == set(WARNING_CODES)

    def test_raisers_are_defined(self):
        # each `module.name` of the table's "Raised by" column is a top-level
        # function or class of that module
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("The `warnings` column holds")[1].split("###")[0]
        cells = re.findall(r"^\| `\w+` \| ([^|]+) \|", table, flags=re.MULTILINE)
        assert len(cells) == len(WARNING_CODES)
        named = {pair for cell in cells for pair in re.findall(r"`(\w+)\.(\w+)`", cell)}
        assert len(named) >= len(WARNING_CODES)
        for module, name in sorted(named):
            tree = ast.parse((ROOT / "src" / "cvqkd" / f"{module}.py").read_text(
                encoding="utf-8"))
            assert name in {node.name for node in tree.body
                            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}, \
                f"{module}.{name}"

    def test_microwave_floor_is_reported(self, tmp_path):
        code, blob = run_cli(
            tmp_path,
            MICROWAVE.format(trust=3, security="standard", distance="40 m"),
            ["rate"])
        assert code == 0
        row = read_csv(blob)[0]
        assert float(row["tau_lo"]) == 1e-12
        assert row["warnings"] == "tau_lo_floored"

    def test_tlo_mobile_simulate_is_silent(self, tmp_path, capsys):
        # about 17 % of pulses at 5 m have tau underflow to 0, where the TLO
        # noise Theta_el / tau is infinite; those pulses are post-selected
        # away and raise no numpy warning
        text = mobile().replace("lo = llo", "lo = tlo")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, blob = run_cli(tmp_path, text, ["simulate", "--seed", "4"])
        assert code == 0
        assert read_csv(blob)[0]["reason"] == ""
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""


class TestExitCodes:
    def test_config_error_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(fiber(trust=3, security="los"))
        assert main(["rate", "--config", str(path)]) == 1
        assert "los-requires-trusted-receiver" in capsys.readouterr().err

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["rate", "--config", str(tmp_path / "nope.ini")]) == 1
        capsys.readouterr()

    def test_missing_section_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nosweep.ini"
        path.write_text(fiber().replace("[sweep]", "[simulate2]")
                        .replace("variable = loss_db", "")
                        .replace("start = 0", "").replace("stop = 20", "")
                        .replace("points = 5", ""))
        # mangled sweep section now trips the unknown-section check
        assert main(["sweep", "--config", str(path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_unwritable_dump_is_exit_1(self, tmp_path, capsys, fmt):
        # like an unwritable --out: a usage error, not a failed point
        path = tmp_path / "ok.ini"
        path.write_text(fiber())
        dump = tmp_path / "no_such_dir" / "pairs.csv"
        assert main(["simulate", "--config", str(path), "--format", fmt,
                     "--dump", str(dump)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and str(dump) in err

    def test_bad_flag_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "ok.ini"
        path.write_text(fiber())
        assert main(["rate", "--config", str(path),
                     "--format", "yaml"]) == 1
        capsys.readouterr()


class TestBlockDump:
    def test_fixed_channel_dump(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(fiber())
        dump = tmp_path / "block.csv"
        code = main(["simulate", "--config", str(path), "--seed", "3",
                     "--out", str(tmp_path / "out.csv"),
                     "--dump", str(dump)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(dump.read_text())))
        assert rows[0] == ["index", "pilot_flag", "x", "y", "tau_sample",
                           "bin"]
        assert len(rows) - 1 == 20000 * 2  # heterodyne: two pairs per pulse
        taus = {row[4] for row in rows[1:]}
        assert len(taus) == 1  # constant channel
        assert {row[1] for row in rows[1:]} == {"0"}
        assert {row[5] for row in rows[1:]} == {"-1"}
        assert [row[0] for row in rows[1:4]] == ["0", "1", "2"]

    def test_mobile_dump_carries_fading(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(mobile())
        dump = tmp_path / "block.csv"
        code = main(["simulate", "--config", str(path), "--seed", "3",
                     "--out", str(tmp_path / "out.csv"),
                     "--dump", str(dump)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(dump.read_text())))[1:]
        assert len(rows) == 20000 * 2
        taus = np.array([float(row[4]) for row in rows])
        bins = np.array([int(row[5]) for row in rows])
        assert len(np.unique(taus)) > 1000  # fading varies pulse to pulse
        assert np.all(taus[0::2] == taus[1::2])  # shared within a pulse
        assert bins.min() == -1 and bins.max() >= 0

    def test_failed_mobile_row_writes_no_dump(self, tmp_path):
        # seed 4 deflects the one pulse out of the window: the row fails
        # after its one pass has written the dump, and the dump, a file this
        # run created, is removed
        text = set_key((CONFIGS / "mobile.ini").read_text(encoding="utf-8"),
                       "simulate", "pulses", "1")
        dump = tmp_path / "d.csv"
        code, out = run_cli(tmp_path, text, ["simulate", "--seed", "4",
                                             "--dump", str(dump)])
        assert code == 2
        assert read_csv(out)[0]["reason"] == (
            "ValueError: post-selection removed every pair")
        assert not dump.exists()

    def test_overflowing_row_writes_no_dump(self, tmp_path):
        # mu = 5e303 is in its domain, but the slices' sums of x^2 add up past
        # the largest double: the row fails in its join, and the dump it
        # created is removed
        text = set_key(set_key((CONFIGS / "coverage.ini").read_text(encoding="utf-8"),
                               "protocol", "mu", "5e303"), "simulate", "pulses", "20000")
        dump = tmp_path / "d.csv"
        code, out = run_cli(tmp_path, text, ["simulate", "--dump", str(dump)])
        assert code == 2
        assert read_csv(out)[0]["reason"] == "OverflowError: intermediate overflow in fsum"
        assert not dump.exists()

    @pytest.mark.parametrize("target", ["file", "fifo"])
    def test_failed_mobile_row_keeps_what_was_at_the_dump_path(self, tmp_path, target):
        # the failing row of test_failed_mobile_row_writes_no_dump: a file the
        # user had, or a FIFO, is written but never removed
        text = set_key((CONFIGS / "mobile.ini").read_text(encoding="utf-8"),
                       "simulate", "pulses", "1")
        dump = tmp_path / "d.csv"
        if target == "file":
            dump.write_bytes(b"kept\n")
        else:
            os.mkfifo(dump)
        # a reader opened first lets the dump's open return at once; the
        # one-pulse dump fits in the pipe's buffer
        reader = os.open(dump, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out = run_cli(tmp_path, text, ["simulate", "--seed", "4",
                                                 "--dump", str(dump)])
            written = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 2
        assert read_csv(out)[0]["reason"] == (
            "ValueError: post-selection removed every pair")
        assert (dump.is_file() if target == "file" else dump.is_fifo())
        assert (dump.read_bytes() if target == "file" else written).startswith(
            b"index,pilot_flag,x,y,tau_sample,bin\n")


class TestNoDeadCode:
    """Every top-level function and class of src/cvqkd is used by code of the
    package itself (a name in a docstring does not count), or is an oracle
    that the acceptance gate imports, listed here. Every method and property
    of a class is named by the package or the gate, and every field that a
    record's __init__ sets is read by the package, the gate or the tests."""

    GATE_ORACLES = {
        ("channel", "fading_pdf"), ("channel", "pointing_tau_exact"),
        ("cli", "evaluate_rate_point"),
        ("cli", "run_sweep"), ("gaussian", "symplectic_spectrum"),
        ("noise", "xi_from_photons"), ("rates", "holevo_standard"),
        ("rates", "holevo_untrusted_closed_form"),
        ("simulate", "defade_block"), ("simulate", "estimator_coverage_experiment"),
        ("simulate", "simulate_fading_block"),
    }
    # members that Python or argparse call, not by name
    HOOKS = {("cli", "_Parser", "error")}

    @staticmethod
    def uncalled() -> set:
        """(module, name) of each top-level definition that no other
        top-level statement of the package names, as a variable or an
        attribute; a definition's references to itself do not count."""
        defined, users = set(), {}
        for path in sorted((ROOT / "src" / "cvqkd").glob("*.py")):
            module = path.stem
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                scope = (module, None)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    scope = (module, node.name)
                    defined.add(scope)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        users.setdefault(sub.id, set()).add(scope)
                    elif isinstance(sub, ast.Attribute):
                        users.setdefault(sub.attr, set()).add(scope)
        return {(module, name) for module, name in defined
                if not users.get(name, set()) - {(module, name)}}

    def test_every_definition_has_a_caller_or_is_a_gate_oracle(self):
        assert self.uncalled() == self.GATE_ORACLES

    def test_cli_takes_two_row_passes_from_simulate(self):
        # the slice records, stream keys and reducers stay behind them
        tree = ast.parse((ROOT / "src" / "cvqkd" / "cli.py").read_text(encoding="utf-8"))
        assert [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "simulate" for alias in node.names] == [
            "simulate_estimators", "simulate_fading_estimators"]

    @staticmethod
    def sources() -> dict:
        return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
                for path in sorted((ROOT / "src" / "cvqkd").glob("*.py"))}

    @staticmethod
    def names(tree, load_only=False) -> Counter:
        """Variable and attribute names of tree, one count per use."""
        found = Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not load_only:
                found[node.id] += 1
            elif isinstance(node, ast.Attribute) and (
                    not load_only or isinstance(node.ctx, ast.Load)):
                found[node.attr] += 1
        return found

    def test_every_member_is_named(self):
        sources = self.sources()
        used = sum(map(self.names, sources.values()), Counter())
        gate = self.names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
            encoding="utf-8")))
        unnamed = set()
        for module, tree in sources.items():
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef):
                    continue
                for member in cls.body:
                    name = getattr(member, "name", "")
                    if not isinstance(member, ast.FunctionDef) or (
                            name.startswith("__") and name.endswith("__")):
                        continue
                    # uses in the member's own body do not count
                    if used[name] - self.names(member)[name] <= 0 and not gate[name]:
                        unnamed.add((module, cls.name, name))
        assert unnamed == self.HOOKS

    def test_every_record_field_is_read(self):
        sources = self.sources()
        read = sum((self.names(tree, load_only=True) for tree in (
            *sources.values(), *(ast.parse(path.read_text(encoding="utf-8"))
                                 for path in sorted((ROOT / "tests").glob("*.py"))))),
                   Counter())
        fields = set()
        for module, tree in sources.items():
            for init in ast.walk(tree):
                if not isinstance(init, ast.FunctionDef) or init.name != "__init__":
                    continue
                for call in ast.walk(init):
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) \
                            and call.func.attr == "update":
                        fields.update((module, keyword.arg) for keyword in call.keywords)
        assert len(fields) > 50
        assert {(module, field) for module, field in fields if not read[field]} == set()

    def test_streams_are_named_once(self):
        # the Philox stream bases are spelled on the line that names them;
        # every draw reads a name, so no two sites can disagree on a key
        spelled = [(path.stem, line.strip())
                   for path in sorted((ROOT / "src" / "cvqkd").glob("*.py"))
                   for line in path.read_text(encoding="utf-8").splitlines()
                   if "<< 40" in line]
        assert spelled == [("simulate", "X, NOISE, DEFLECTIONS, PILOTS, DEFADE = "
                                        "(k << 40 for k in range(5))")]

    def test_config_imports_nothing_from_rates(self):
        # config hands trust and security on as the values it validated;
        # the rate kernels read them as they are, so config needs no rates name
        tree = ast.parse((ROOT / "src" / "cvqkd" / "config.py").read_text(encoding="utf-8"))
        imported = [f"{node.module or ''}.{alias.name}" if isinstance(node, ast.ImportFrom)
                    else alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
        assert ".Record" in imported
        assert [name for name in imported if "rates" in name.split(".")] == []

    def test_gate_imports_every_listed_oracle(self):
        gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
        imported = {(node.module.removeprefix("cvqkd."), alias.name)
                    for node in ast.walk(gate)
                    if isinstance(node, ast.ImportFrom) and node.module
                    for alias in node.names}
        assert self.GATE_ORACLES <= imported
