"""Scenario resolution and the batch command line: grammar, rejection rules,
derived-header echoes, output formats, provenance, exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqkd import __version__
from cvqkd.cli import WARNING_CODES, _sweep_grid, main, scenario_echo, scenario_hash
from cvqkd.config import ConfigError, parse_quantity, resolve_scenario

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
    """A ValueError from the physics of a block is a ConfigError."""

    CASES = {
        "nep": ("fiber_fixed_loss.ini", "nep = 6 pW/rtHz", "nep = 0 pW/rtHz"),
        "temperature": ("microwave.ini", "t = 290 K", "t = 0 K"),
        "gain": ("microwave.ini", "g = 10", "g = 0"),
        "sky_aperture": ("wireless_fixed.ini", "a_r = 1 cm\nn_b = 0.019",
                         "a_r = 0 cm\nomega_fov = 1e-4 sr\ndlambda = 0.1 pm\n"
                         "b_sky = 0.15"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_1_without_traceback(self, tmp_path, capsys, case):
        assert_config_error(tmp_path, capsys, shipped(*self.CASES[case]),
                            "invalid [physics] block")

    def test_overflow_is_a_config_error(self, tmp_path, capsys):
        text = shipped("fiber_fixed_loss.ini", "nep = 6 pW/rtHz", "nep = 1e200 W/rtHz")
        assert_config_error(tmp_path, capsys, text,
                            "invalid [physics] block: OverflowError")

    def test_eps_pe_above_one_half(self, tmp_path, capsys):
        assert_config_error(tmp_path, capsys,
                            shipped("fiber_fixed_loss.ini", "eps = 2^-33", "eps = 0.7"),
                            "invalid [protocol] block: eps_pe must lie in (0, 0.5]")
        assert_config_error(tmp_path, capsys,
                            shipped("coverage.ini", "eps_pe = 0.01", "eps_pe = 0.7"),
                            "invalid [coverage] block: eps_pe must lie in (0, 0.5]")


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


class TestPositiveModulation:
    """Rule positive-modulation: mu > 1. With mu = 1 the modulation variance
    mu - 1 is 0, and every rate row used to be a NaN row (exit 2)."""

    @pytest.mark.parametrize("config, line", [("fiber_fixed_loss.ini", "mu = 10\n"),
                                              ("microwave.ini", "mu = 21\n"),
                                              ("mobile.ini", "mu = 10\n")])
    def test_mu_one_rejected(self, tmp_path, capsys, config, line):
        assert_config_error(tmp_path, capsys, shipped(config, line, "mu = 1\n"),
                            "(rule: positive-modulation)")


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


class TestDisclosedPairs:
    """Rule min-disclosed-pairs: the estimators need nu * pulses >= 2."""

    HOMODYNE = fiber().replace("protocol = heterodyne", "protocol = homodyne")

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


def fresh_interpreter(probe: str, *args: str) -> str:
    """Stdout of probe run in a new interpreter with src on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe, *args], check=True,
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

    def test_rate_and_sweep_load_no_numpy(self, tmp_path):
        # the closed-form commands run on the standard library alone: rate on
        # every shipped config and sweep on every one with a [sweep] section
        # (coverage.ini has none) exit 0 and leave no numpy or scipy module
        configs = sorted(CONFIGS.glob("*.ini"))
        runs = [("rate", str(cfg)) for cfg in configs] + [
            ("sweep", str(cfg)) for cfg in configs
            if "[sweep]" in cfg.read_text(encoding="utf-8")]
        assert len(runs) == 2 * len(configs) - 1
        probe = ("import sys, cvqkd.cli\n"
                 "codes = [cvqkd.cli.main([cmd, '--config', cfg, '--out', "
                 "sys.argv[1]]) for cmd, cfg in zip(sys.argv[2::2], "
                 "sys.argv[3::2])]\n"
                 + LOADED.format(names=("numpy", "scipy")))
        flat = [arg for run in runs for arg in run]
        assert fresh_interpreter(probe, str(tmp_path / "rows.csv"), *flat) \
            == f"{[0] * len(runs)} []"

    def test_package_import_loads_no_numpy(self):
        # the gaussian and simulate names resolve on first use (PEP 562)
        probe = ("import sys, cvqkd\n"
                 "codes = []\n"
                 + LOADED.format(names=("numpy", "scipy")) + "\n"
                 "from cvqkd import simulate_block, symplectic_spectrum\n"
                 "import cvqkd.gaussian, cvqkd.simulate\n"
                 "print(simulate_block is cvqkd.simulate.simulate_block,\n"
                 "      symplectic_spectrum is cvqkd.gaussian.symplectic_spectrum,\n"
                 "      cvqkd.entropic_h is cvqkd.gaussian.entropic_h,\n"
                 "      'numpy' in sys.modules, hasattr(cvqkd, 'no_such_name'))")
        assert fresh_interpreter(probe).splitlines() == [
            "[] []", "True True True True False"]


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
