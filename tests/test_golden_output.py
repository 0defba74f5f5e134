"""Golden output: the exit code and the sha256 of stdout for every shipped
config x {rate, sweep, simulate, coverage} x {csv, json}, run in-process with
--seed 5, plus config variants that reach every floor path (small blocks,
zero background, a long mobile sweep, a far microwave link), optical
line-of-sight rows and tau = 1 rows, and the sha256
of the file that `simulate --dump` writes on fixed heterodyne and homodyne
links, a microwave link, and mobile links with and without pilots
(DUMP_GOLDEN).

A change that keeps the rows must keep every digest. A change that alters
rows on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden_output.py

pastes it over GOLDEN (and DUMP_GOLDEN), and declares in CHANGES.md which rows moved and by
how much.
"""

import csv
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cvqkd.cli import WARNING_CODES, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COMMANDS = ("rate", "sweep", "simulate", "coverage")
FORMATS = ("csv", "json")
SEED = "5"


def _small_block(config, lo, trust):
    edits = [("m = 1e6", "m = 2e3"), ("trust = 3", f"trust = {trust}")]
    if lo == "tlo":
        edits.append(("lo = llo", "lo = tlo"))
    return config, edits


LONG_MOBILE_SWEEP = ("stop = 10\npoints = 10", "stop = 60\npoints = 30")

# name -> (shipped config, [(old, new) text edits])
VARIANTS = {
    **{f"fiber-m2e3-{lo}-trust{trust}": _small_block(
        "fiber_fixed_loss.ini", lo, trust)
       for lo in ("llo", "tlo") for trust in (1, 2, 3)},
    **{f"wireless-m2e3-{lo}-trust{trust}": _small_block(
        "wireless_fixed.ini", lo, trust)
       for lo in ("llo", "tlo") for trust in (1, 2)},
    "fiber-nb0-trust1": ("fiber_fixed_loss.ini",
                         [("n_b = 0.002", "n_b = 0"), ("trust = 3", "trust = 1")]),
    "fiber-nb0-tlo-trust2": ("fiber_fixed_loss.ini",
                             [("n_b = 0.002", "n_b = 0"), ("trust = 3", "trust = 2"),
                              ("lo = llo", "lo = tlo")]),
    "wireless-nb0-trust1": ("wireless_fixed.ini",
                            [("n_b = 0.019", "n_b = 0"), ("trust = 3", "trust = 1")]),
    **{f"fiber-los-trust{trust}": ("fiber_fixed_loss.ini", [
        ("trust = 3\nsecurity = standard", f"trust = {trust}\nsecurity = los")])
       for trust in (1, 2)},
    "wireless-los-trust1": ("wireless_fixed.ini", [
        ("trust = 3\nsecurity = standard", "trust = 1\nsecurity = los")]),
    # tau = 1: unit receiver efficiency at zero loss, Eve untrusted
    **{f"fiber-identity-{kind[:3]}": ("fiber_fixed_loss.ini", [
        ("protocol = heterodyne", f"protocol = {kind}"),
        ("eta_eff = 0.7", "eta_eff = 1"), ("loss_db = 2", "loss_db = 0")])
       for kind in ("homodyne", "heterodyne")},
    "mobile-long-sweep": ("mobile.ini", [LONG_MOBILE_SWEEP]),
    "mobile-long-sweep-tlo-trust2": ("mobile.ini",
                                     [LONG_MOBILE_SWEEP, ("lo = llo", "lo = tlo"),
                                      ("trust = 1", "trust = 2")]),
    "mobile-m2e3-trust3": ("mobile.ini",
                           [LONG_MOBILE_SWEEP, ("m = 1e6", "m = 2e3"),
                            ("trust = 1", "trust = 3")]),
    "mobile-nb0": ("mobile.ini", [("n_b = 0.019", "n_b = 0")]),
    # 20 disclosed pulses floor the window's worst case: tau_lb_floored on
    # rate, sweep and simulate rows
    "mobile-m20": ("mobile.ini", [("m = 1e6", "m = 20"), ("m_pl = 5e5", "m_pl = 0")]),
    # simulate rows whose empirical bounds floor tau' (tau_lo_floored)
    "coverage-pulses2": ("coverage.ini", [("pulses = 500000", "pulses = 2")]),
    "microwave-40m-simulate": ("microwave.ini",
                               [("distance = 4.4 cm", "distance = 40 m"),
                                ("points = 56", "points = 56\n\n[simulate]\n"
                                                "pulses = 20000")]),
    "microwave-40m": ("microwave.ini", [("distance = 4.4 cm", "distance = 40 m")]),
    "microwave-40m-los": ("microwave.ini",
                          [("distance = 4.4 cm", "distance = 40 m"),
                           ("trust = 3\nsecurity = standard",
                            "trust = 2\nsecurity = los")]),
    "microwave-m2e3-los": ("microwave.ini",
                           [("m = 5e6", "m = 2e3"),
                            ("trust = 3\nsecurity = standard",
                             "trust = 2\nsecurity = los")]),
    # tau = 1: unit receiver efficiency inside the best range, plob unbounded
    "microwave-identity": ("microwave.ini", [("eta_eff = 0.8", "eta_eff = 1")]),
    "microwave-identity-los": ("microwave.ini",
                               [("eta_eff = 0.8", "eta_eff = 1"),
                                ("trust = 3\nsecurity = standard",
                                 "trust = 2\nsecurity = los")]),
}


# simulate --dump runs: name -> (shipped config, [(old, new) text edits])
DUMPS = {
    "coverage-dump": ("coverage.ini", []),
    "mobile-pilot-dump": ("mobile.ini", [("pulses = 200000",
                                          "pulses = 200000\npilot_rate = 0.1")]),
    # one pair per pulse
    "coverage-homodyne-dump": ("coverage.ini", [("protocol = heterodyne",
                                                 "protocol = homodyne")]),
    # |x|, |y| up to about 15; tau = 0.8 prints as 0.80000000000000004
    "microwave-dump": ("microwave.ini", [("points = 56",
                                          "points = 56\n\n[simulate]\n"
                                          "pulses = 20000")]),
    "mobile-dump": ("mobile.ini", [("pulses = 200000", "pulses = 20000")]),
}


def config_text(name: str) -> str:
    """Text of a shipped config (by stem) or of a named variant."""
    if name in VARIANTS or name in DUMPS:
        base, edits = {**VARIANTS, **DUMPS}[name]
        text = (CONFIGS / base).read_text(encoding="utf-8")
        for old, new in edits:
            assert text.count(old) == 1, (name, old)
            text = text.replace(old, new)
        return text
    return (CONFIGS / f"{name}.ini").read_text(encoding="utf-8")


def cases() -> list:
    names = sorted(p.stem for p in CONFIGS.glob("*.ini")) + sorted(VARIANTS)
    return [f"{name}:{command}:{fmt}" for name in names
            for command in COMMANDS for fmt in FORMATS]


def case_output(case: str, workdir: Path) -> tuple:
    """(exit code, stdout) of one in-process invocation."""
    name, command, fmt = case.split(":")
    path = workdir / f"{name}.ini"
    path.write_text(config_text(name), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([command, "--config", str(path), "--format", fmt,
                     "--seed", SEED])
    return code, out.getvalue()


def run_case(case: str, workdir: Path) -> tuple:
    """(exit code, sha256 of stdout) of one in-process invocation."""
    code, out = case_output(case, workdir)
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def run_dump(name: str, workdir: Path) -> tuple:
    """(exit code, sha256 of the dump file) of one in-process simulate."""
    path = workdir / f"{name}.ini"
    path.write_text(config_text(name), encoding="utf-8")
    dump = workdir / f"{name}.csv"
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["simulate", "--config", str(path), "--seed", SEED,
                     "--dump", str(dump)])
    with open(dump, "rb") as handle:
        return code, hashlib.file_digest(handle, "sha256").hexdigest()


DUMP_GOLDEN = {
    'coverage-dump':
        (0, 'abd65199614a34b4cd0e58415dcaf70ea2f8649b594653a7c6936220744896db'),
    'mobile-pilot-dump':
        (0, '9e8de534c7bda4da05d8e97296122c62ed25ed0e1804f8dd055a541da745c70b'),
    'coverage-homodyne-dump':
        (0, '456fb81c28b8db861c47da519022593ab3b8f1246dd9d79b1d256c25ccf90174'),
    'microwave-dump':
        (0, '261aa949d7a37e18b66036aaad7dcda170784b82546cebe546f9875f252611e0'),
    'mobile-dump':
        (0, 'eda580fca794de615b6654c8940f9788c2b8fcabf622435ab6761ddbfb8ecc85'),
}


GOLDEN = {
    'coverage:rate:csv':
        (0, 'a4d8914868c4c3bf6c6890b348c90adb67a91758f793168d2a8ef255065aa462'),
    'coverage:rate:json':
        (0, '11f2052d21393d3433b62c988ad6026b042dc29284daa9bc233d979b4a816b85'),
    'coverage:sweep:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'coverage:sweep:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'coverage:simulate:csv':
        (0, 'f833569b78ebd3bb32b15ad7721d9ae3b8e5238d4671f512c9ed0e0a294abdde'),
    'coverage:simulate:json':
        (0, '0361385aac13af019328251219c36d59768d1a8be9a125b958d28d3c15252a78'),
    'coverage:coverage:csv':
        (0, 'd770d485c374d2663c8ebe00ea35788d97a82074f2b337da2450f86cbcf15540'),
    'coverage:coverage:json':
        (0, '9a9bd20ec0a4ff55e494a3334f17658a46e161e21ee1489d8418bb1a63ba4c66'),
    'fiber_fixed_loss:rate:csv':
        (0, 'a4d8914868c4c3bf6c6890b348c90adb67a91758f793168d2a8ef255065aa462'),
    'fiber_fixed_loss:rate:json':
        (0, '11f2052d21393d3433b62c988ad6026b042dc29284daa9bc233d979b4a816b85'),
    'fiber_fixed_loss:sweep:csv':
        (0, '9697a9f756f1a24477978085e9df8f73214be1e9a6be18849845be9b75e91b65'),
    'fiber_fixed_loss:sweep:json':
        (0, 'aecf385efbeaf51d394b2d3c69142ebce912c999066d94da05c666ad67b00c88'),
    'fiber_fixed_loss:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber_fixed_loss:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber_fixed_loss:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber_fixed_loss:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave:rate:csv':
        (0, '80007303b9764efdc42d61d3361137aaba5c922ed0a6f166bba48a81a1bdc8d1'),
    'microwave:rate:json':
        (0, '2fe30ffaf9f9e1a023fc010a7b0e93991ec1ab0ba906d4160837b52c06fe139a'),
    'microwave:sweep:csv':
        (0, '667d4cbe29726246a50b93395e7f244077ce38881a64b3dddf59b310986ddbc6'),
    'microwave:sweep:json':
        (0, '2d5ccb6e6ac3ee538fc759d6c542690c64b6f1afc70a9a66523eb3aefc6cf07c'),
    'microwave:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile:rate:csv':
        (0, '282c94575bd6291159954e9cfbb1d47d51ea8c58b04ce1cac80eda9a4e6ebb0b'),
    'mobile:rate:json':
        (0, 'c8106c18a36e51925dd7b0e9243b4370977533e0945613c1022788a71f28cbde'),
    'mobile:sweep:csv':
        (0, '0e97b3b12c01a371e0e0af9856ac88348f1194784875d8d322662fee700870c8'),
    'mobile:sweep:json':
        (0, '58808a3525941add33a031e5df2631a03657614df2f16623ea1ffd1dedaa0d7e'),
    'mobile:simulate:csv':
        (0, '8b176d5c1ac3a1f7248578b1f08c14587164b873c4a4f1a96bc1bd7a741e26d3'),
    'mobile:simulate:json':
        (0, 'a734cbd661c5e3a3f47818976ce115afe896d89a9926dd483133e3fb4495d1bf'),
    'mobile:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless_fixed:rate:csv':
        (0, '82a0c5c9fe27c1dfeb00273c609d24b08bd800e14d2dca0c5b9dd13dc93b7e47'),
    'wireless_fixed:rate:json':
        (0, '5c004a13f2437cf51ec038b2031c1d332f840d40e681544509da8c9aff43069e'),
    'wireless_fixed:sweep:csv':
        (0, 'a65d0b1e7125af9aae4957646f60aeacacc460139695bad59ceee776f1b043b0'),
    'wireless_fixed:sweep:json':
        (0, 'f7c402aae9b3c2f02cef0d2ced54e4edb00457155c863c04b0146662ee56aae6'),
    'wireless_fixed:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless_fixed:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless_fixed:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless_fixed:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless_general:rate:csv':
        (0, '8d2663df952b6705bf7c57fca383d74c14f96f541424d7ae95f2fc312e67bd9a'),
    'wireless_general:rate:json':
        (0, '9a46e1540f2e27068f6035a9eddcf41740690571973bfc01d09021335a03626f'),
    'wireless_general:sweep:csv':
        (0, '042968a40c811b0ee0dd38072407e22ef4b97a8323b2e32ef5e2c7e5ec1ef344'),
    'wireless_general:sweep:json':
        (0, '8b6d5d2fbc8010de0f52d8ca5d3b129e227522727082cc652aa9144c133e70c6'),
    'wireless_general:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless_general:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless_general:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless_general:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'coverage-pulses2:rate:csv':
        (0, 'a4d8914868c4c3bf6c6890b348c90adb67a91758f793168d2a8ef255065aa462'),
    'coverage-pulses2:rate:json':
        (0, '11f2052d21393d3433b62c988ad6026b042dc29284daa9bc233d979b4a816b85'),
    'coverage-pulses2:sweep:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'coverage-pulses2:sweep:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'coverage-pulses2:simulate:csv':
        (0, 'a8304ae9722aea8d655e35833fb731f039679d3ddc511fd8a608bceadd746cd1'),
    'coverage-pulses2:simulate:json':
        (0, 'ec1010e59179a49a90c5a9e791c5a10fee3d9c4acf0ec2749ad741d1f0ba2745'),
    'coverage-pulses2:coverage:csv':
        (0, 'd770d485c374d2663c8ebe00ea35788d97a82074f2b337da2450f86cbcf15540'),
    'coverage-pulses2:coverage:json':
        (0, '9a9bd20ec0a4ff55e494a3334f17658a46e161e21ee1489d8418bb1a63ba4c66'),
    'fiber-identity-het:rate:csv':
        (0, 'f82daf26eaf8c79787735b4be81e48531edf0b678a3fc6a9351801e9ccd1bf53'),
    'fiber-identity-het:rate:json':
        (0, '295ff16b7198429759683c160d4a903e4159752441fb756b0964789d00d76ba3'),
    'fiber-identity-het:sweep:csv':
        (0, 'c65da249bd3d71068b1702acf5ce65108c3e8bd54ccbe8910baea5e588514c6e'),
    'fiber-identity-het:sweep:json':
        (0, 'dae5d959d21413ce42c6f0332e9c8aa1ff091ee5748a00261070ded2b953cf26'),
    'fiber-identity-het:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-identity-het:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-identity-het:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-identity-het:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-identity-hom:rate:csv':
        (0, '9b5074e38aeb9e4c7b027d114037886e47cfc8412a6d09dadaf195afebdd5e0d'),
    'fiber-identity-hom:rate:json':
        (0, '83994c1fce932875e17b9e23a83505a9c5341417a48af893daeaa7f1f3708d60'),
    'fiber-identity-hom:sweep:csv':
        (0, '9126df9c9b6397d106b497e3dd33e67949b7a69afc6d36a257c3e2b773618005'),
    'fiber-identity-hom:sweep:json':
        (0, '1f8eb390e6743cee4331f39eb0ebfe9abb2e13f917b51bcc073459fdeca7ea31'),
    'fiber-identity-hom:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-identity-hom:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-identity-hom:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-identity-hom:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-los-trust1:rate:csv':
        (0, 'b34949dfdd0ba006f92b7951ca6e191fdd845a41a708fb460aed292604e9210d'),
    'fiber-los-trust1:rate:json':
        (0, 'b08f0d36ac44b7f74421ca8d1d98a0f0cef0f961edfd6acd8b0369bbc7fe5e74'),
    'fiber-los-trust1:sweep:csv':
        (0, '6ebb5f973fe773ce02e649fa599990adcfb19c63a79bb0f0074e73f917abc15b'),
    'fiber-los-trust1:sweep:json':
        (0, '5d8be8341cf596c968b769b1bc5e4721c45b14a6614759c44c4997fb549a93e6'),
    'fiber-los-trust1:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-los-trust1:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-los-trust1:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-los-trust1:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-los-trust2:rate:csv':
        (0, '6b49343bdb3838d66f86831df324ae117918facb552282ddd11c18b010798387'),
    'fiber-los-trust2:rate:json':
        (0, '7b359f46836f63e3b1a1300c1e3d915721bfed208d07cf5e4bb3a04d92dcc255'),
    'fiber-los-trust2:sweep:csv':
        (0, '0490f8ba2dda0440f05ffbc0528f781dacb3610aa52330347e3cf0eb39e11b71'),
    'fiber-los-trust2:sweep:json':
        (0, '10dd32e4268ca21ab20cffce3988e040fef77ce22c803cc1926a6514ebdbfc62'),
    'fiber-los-trust2:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-los-trust2:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-los-trust2:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-los-trust2:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust1:rate:csv':
        (0, '5e7f9cbc58bc8c493ad2ee8922a980236b84ff8c903e7b91c7336b70533c0464'),
    'fiber-m2e3-llo-trust1:rate:json':
        (0, 'fdb8f07a95f82cf69699bb70cd6997de55dc85929cab4392ce675d2ea2a2b182'),
    'fiber-m2e3-llo-trust1:sweep:csv':
        (0, 'a896b0ab14471ddb5fd143b9c877406024ddfd32b3e01684cd41dc75156ecaa6'),
    'fiber-m2e3-llo-trust1:sweep:json':
        (0, 'f5afc0cfe560c6586b6818d50b3a453910b0f9298f23c8db46246e88408a0582'),
    'fiber-m2e3-llo-trust1:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust1:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust1:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust1:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust2:rate:csv':
        (0, '144a6615a3605ebb492d92abf08a7c8447e9ca952bebce49f6e8848522080c11'),
    'fiber-m2e3-llo-trust2:rate:json':
        (0, '9bcfa60a6af1e582ee4695cd766c9adae9167d09862f39b12313ae2822a84549'),
    'fiber-m2e3-llo-trust2:sweep:csv':
        (0, '964035341af8bab5a58fbb063cdb9efd2491d0260f86a93c15f7b55fb5dbec11'),
    'fiber-m2e3-llo-trust2:sweep:json':
        (0, '1b7c489c4db7d8f15cb914e8330a6e49fc4fcd0542fe1f5f4899e9ea43b42cf9'),
    'fiber-m2e3-llo-trust2:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust2:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust2:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust2:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust3:rate:csv':
        (0, '42c6650cc4f518e65ff307f06083a6ecfec680cee5566bd78291efe28dd0619b'),
    'fiber-m2e3-llo-trust3:rate:json':
        (0, '591c2ecdae5d606b10b1a1df41aae1a75bead5b79379b6fe47bb7fa096c049fa'),
    'fiber-m2e3-llo-trust3:sweep:csv':
        (0, '6c132c78fb65d6ca0a067499153c95cdd04af81a607d0bb93878d9b1afea5f18'),
    'fiber-m2e3-llo-trust3:sweep:json':
        (0, 'a424f86e5beb8391a2007d71daa2b18f0aca11713c4b47015de53299d660da89'),
    'fiber-m2e3-llo-trust3:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust3:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust3:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-llo-trust3:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust1:rate:csv':
        (0, '86181577c86c50341c1a3c924ce197441e32ab45e58dba1bb0575add2626b93d'),
    'fiber-m2e3-tlo-trust1:rate:json':
        (0, '93831faafddc1cd03f9787c0b1db094c95656e15a433e83b08d8f0b8c397a50f'),
    'fiber-m2e3-tlo-trust1:sweep:csv':
        (0, '7b5665f47610ff525be947d2a482d4614b6c4ecfef4246725457175939a0ec8d'),
    'fiber-m2e3-tlo-trust1:sweep:json':
        (0, '9311a85b6bf033eca78add0ff317a980ebd229b611d4c54f340011cd5da59ecf'),
    'fiber-m2e3-tlo-trust1:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust1:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust1:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust1:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust2:rate:csv':
        (0, '52b6bb5b2b8187ada50a6fcc3cf0b7edd8ad394d05176facfc4e6c2af17773e4'),
    'fiber-m2e3-tlo-trust2:rate:json':
        (0, '1191b31aacc3da26636b0ac7019e4fc19df366896400d5d052b451585ff04f20'),
    'fiber-m2e3-tlo-trust2:sweep:csv':
        (0, '956719370078f97221c31ed3fc78f284b13118ffad108abd83b04dea59450788'),
    'fiber-m2e3-tlo-trust2:sweep:json':
        (0, '34ef790b767d69f0e6dd8c8bd2a6aa876eba1897043ec0302253f9808477178b'),
    'fiber-m2e3-tlo-trust2:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust2:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust2:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust2:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust3:rate:csv':
        (0, 'b1a8feb610d22e88de89ecc60697ced3509464654c9fbe9fad4f1dc75cdb6731'),
    'fiber-m2e3-tlo-trust3:rate:json':
        (0, '6d19043e65695f26f47057d811cc7263b9783b94f1ba5ea311028f2bf129754e'),
    'fiber-m2e3-tlo-trust3:sweep:csv':
        (0, '8835cb80433534e1eab081fb91fa881d2ee541397613652a934b2248ce0b9017'),
    'fiber-m2e3-tlo-trust3:sweep:json':
        (0, 'c3a32d544bb753824915e58cbde28b36d7b4a42b23a3178873d5e06b012c0212'),
    'fiber-m2e3-tlo-trust3:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust3:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust3:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-m2e3-tlo-trust3:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-nb0-tlo-trust2:rate:csv':
        (0, '8526c063dc1da90a3f0120092bd57db617c95f1f6f40f08d43efcbcbe504b528'),
    'fiber-nb0-tlo-trust2:rate:json':
        (0, 'ee9e605c1a7317854427a53bb74245a7cf4ee05f4b2a24126c25f46c00629718'),
    'fiber-nb0-tlo-trust2:sweep:csv':
        (0, 'e7290762a3e1aea513860837fd2780311d08d1c13f6ebb49f38e9b408d1e116d'),
    'fiber-nb0-tlo-trust2:sweep:json':
        (0, '91c749ee887f89568f38b03a287e899567c2a842b6d331e4d6de6898d1ddd816'),
    'fiber-nb0-tlo-trust2:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-nb0-tlo-trust2:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-nb0-tlo-trust2:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-nb0-tlo-trust2:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-nb0-trust1:rate:csv':
        (0, '60483d598a0d10fc88d0fde4332fe3435f2c373cb94ba0ddeb8c5c60ac7e12a9'),
    'fiber-nb0-trust1:rate:json':
        (0, '1bca01c044a4c9bbc54675813110bc0aa16acf6116e3339ee9d33149782fd235'),
    'fiber-nb0-trust1:sweep:csv':
        (0, 'b87c7524879a71525cadd344006fdfd56838a9404799569a410479abbbe38a32'),
    'fiber-nb0-trust1:sweep:json':
        (0, '7aa4ea6472ea44a135669b0ae488b68bacc039536edb1234a1794a3721a9e98b'),
    'fiber-nb0-trust1:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-nb0-trust1:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-nb0-trust1:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fiber-nb0-trust1:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m:rate:csv':
        (0, 'c705ba0b2eccd5542486891f130ec6dd902a392945e422e45e29d5c890a75c27'),
    'microwave-40m:rate:json':
        (0, '866534bcfd90dd6fd31c994a897e12d0f6a2e69a91b9b79b941e1232e8ab97cc'),
    'microwave-40m:sweep:csv':
        (0, '667d4cbe29726246a50b93395e7f244077ce38881a64b3dddf59b310986ddbc6'),
    'microwave-40m:sweep:json':
        (0, '2d5ccb6e6ac3ee538fc759d6c542690c64b6f1afc70a9a66523eb3aefc6cf07c'),
    'microwave-40m:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m-los:rate:csv':
        (0, '8e62133f21673931e6264765c2c93b44824d5f25852c41d2d216046fc9991593'),
    'microwave-40m-los:rate:json':
        (0, '760720f18d6bd6f84b11ee06591bac4c44058fd69471b1c3628747b6d3eaf41b'),
    'microwave-40m-los:sweep:csv':
        (0, '51b87d233bfb16b47ebf4681f319f2d11af8feb73e88fc42814906740280c250'),
    'microwave-40m-los:sweep:json':
        (0, '6f2bd2c4f6cf73eaa79bfbaa4b237cac8a5c9d2ececa0708d8365de7b467594d'),
    'microwave-40m-los:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m-los:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m-los:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m-los:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m-simulate:rate:csv':
        (0, 'c705ba0b2eccd5542486891f130ec6dd902a392945e422e45e29d5c890a75c27'),
    'microwave-40m-simulate:rate:json':
        (0, '866534bcfd90dd6fd31c994a897e12d0f6a2e69a91b9b79b941e1232e8ab97cc'),
    'microwave-40m-simulate:sweep:csv':
        (0, '667d4cbe29726246a50b93395e7f244077ce38881a64b3dddf59b310986ddbc6'),
    'microwave-40m-simulate:sweep:json':
        (0, '2d5ccb6e6ac3ee538fc759d6c542690c64b6f1afc70a9a66523eb3aefc6cf07c'),
    'microwave-40m-simulate:simulate:csv':
        (0, 'f2392a9a587471b2839b346546d72ed38f90f38d220a788bd5b56e93cf35495c'),
    'microwave-40m-simulate:simulate:json':
        (0, '13a73a89f87206abedc99c38c706255fd53c999b3622cc01b851cd7236dc9aba'),
    'microwave-40m-simulate:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m-simulate:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-identity:rate:csv':
        (0, '04d0d6858ac836dbca40b3903cecb88a5a62d34fb9f030ee05e2ddca480ac63e'),
    'microwave-identity:rate:json':
        (0, 'bb5a700b0f082d0464640582ec10779334352b237ade77180a530511a9148e43'),
    'microwave-identity:sweep:csv':
        (0, '2fb5481292b5f09112ae33654a0b264b22f2fa318e82422a27d931c788ac2fb2'),
    'microwave-identity:sweep:json':
        (0, '33869bf8cb5198f38e27d78e5c8a3f0b7db6131105a477914fad19480f227835'),
    'microwave-identity:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-identity:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-identity:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-identity:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-identity-los:rate:csv':
        (0, 'f5abc747b1dd79465f73e789aaa7f614ee3eec9100450f362b8dcf20956a007b'),
    'microwave-identity-los:rate:json':
        (0, '5747b38815f17b5a180ca32d586fafb3653ba49f7c8cb0591183440e01bc8c0d'),
    'microwave-identity-los:sweep:csv':
        (0, '423fd432424fcdbaf4933ec8651e543926a9819423cfefba8d345a1dc4edc86c'),
    'microwave-identity-los:sweep:json':
        (0, 'de3a6ae019ab35dc05877d4b1f9f1872c2a5d5f4f7cd605743bd2d26c55f622b'),
    'microwave-identity-los:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-identity-los:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-identity-los:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-identity-los:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-m2e3-los:rate:csv':
        (0, 'c65f457ba6456187fa67c375ce0b4bc8dfdd29f289a8c03b698c5587c7a5b93d'),
    'microwave-m2e3-los:rate:json':
        (0, 'f303ff98dfc3099c4697c1feaabd6e4758ea8f05576a0e5c228b5b4c4c9dd8cc'),
    'microwave-m2e3-los:sweep:csv':
        (0, 'fe5efbf7e13e02beced72d1c7b5e27e2dcccc518963f7fbc352c34aa1f945597'),
    'microwave-m2e3-los:sweep:json':
        (0, 'a1533f7aec421c1a5fce8068ee7712ee49d381b9d67193fb42689818c3bbc914'),
    'microwave-m2e3-los:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-m2e3-los:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-m2e3-los:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-m2e3-los:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-long-sweep:rate:csv':
        (0, '282c94575bd6291159954e9cfbb1d47d51ea8c58b04ce1cac80eda9a4e6ebb0b'),
    'mobile-long-sweep:rate:json':
        (0, 'c8106c18a36e51925dd7b0e9243b4370977533e0945613c1022788a71f28cbde'),
    'mobile-long-sweep:sweep:csv':
        (0, 'b3ac40a788093937e8bcd1b18de67bcc2b462cc5d3a590e766f8d01b2623f954'),
    'mobile-long-sweep:sweep:json':
        (0, '0362e51dd4934fba80e09ab4258b430894ce83b6ea7ba27abd06134d23f75ae1'),
    'mobile-long-sweep:simulate:csv':
        (0, '8b176d5c1ac3a1f7248578b1f08c14587164b873c4a4f1a96bc1bd7a741e26d3'),
    'mobile-long-sweep:simulate:json':
        (0, 'a734cbd661c5e3a3f47818976ce115afe896d89a9926dd483133e3fb4495d1bf'),
    'mobile-long-sweep:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-long-sweep:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-long-sweep-tlo-trust2:rate:csv':
        (0, '936d875174eacd9593f25a418523b769538ed8ac8fd0c335857d29c378e8af97'),
    'mobile-long-sweep-tlo-trust2:rate:json':
        (0, '051645ca2fccc9bafdcaff0accb5dedcc3e4a51cdb187fd5a84d8ccdc5e43ca4'),
    'mobile-long-sweep-tlo-trust2:sweep:csv':
        (0, 'b005fb33ebc8814f1426249cb7fbc4595155798edb5b3286d5c2bbb4bc93e66c'),
    'mobile-long-sweep-tlo-trust2:sweep:json':
        (0, '76ea4673a53bd9abbc9a9b2ca1057b8f0a2e1f803187cf4927db714df8731ba9'),
    'mobile-long-sweep-tlo-trust2:simulate:csv':
        (0, 'f68d5f329dfc60c88e955835ecb0b16eedc3100bbc657e7d508b30a076b4e25c'),
    'mobile-long-sweep-tlo-trust2:simulate:json':
        (0, '178296bb886d599805838b7025025ed82f79faae8a686bdc7a085ee0cb7ff9ab'),
    'mobile-long-sweep-tlo-trust2:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-long-sweep-tlo-trust2:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-m20:rate:csv':
        (0, 'a7bf0e9fa73e51ec5e6279e74e114f49ce9352259e387d4011366c446481ce7c'),
    'mobile-m20:rate:json':
        (0, '2196491c29dcecbcd2d296f221340b6a41e2de86a5eae6f0e808ec2bbda0ae54'),
    'mobile-m20:sweep:csv':
        (0, '9672ceb3f992e6320d88f220770b68e36cd6293ce8d35080cbe55bdfa298b0c1'),
    'mobile-m20:sweep:json':
        (0, '9948420ea0572e57d2eeb9ca2a069fbb47e4bbfe26a499c2cee52a331320261e'),
    'mobile-m20:simulate:csv':
        (0, '168d7462ee68cff06224ff012e10f794e88572969074905d99354e71a3868c56'),
    'mobile-m20:simulate:json':
        (0, 'f4e07b491831b243455e633071128700cbcb3e4a7613282e69c7aa5d0922e231'),
    'mobile-m20:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-m20:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-m2e3-trust3:rate:csv':
        (0, '99f2203dbf211f5729ff1eeb2d15ce48bf604748431958ca733b2b7e77992ea4'),
    'mobile-m2e3-trust3:rate:json':
        (0, '8a59d7a75784d7eb4cb4a45459014db637fa96037984195e3d8284c352eb091e'),
    'mobile-m2e3-trust3:sweep:csv':
        (0, '7fa5525b1a78c3d4e447b972ab326dd630a3f1eef0defa3398085274ec59608b'),
    'mobile-m2e3-trust3:sweep:json':
        (0, '3de26f6fde248d7e028f3e399e712c64bc572c1edb7e414bc9cb5341542504ea'),
    'mobile-m2e3-trust3:simulate:csv':
        (0, 'b60afd631070586cb23dbcf8cc1c339a621c9c6cb441ccd5cad8e46c165ed15c'),
    'mobile-m2e3-trust3:simulate:json':
        (0, 'a3330732f480299a7fe51b0d93c11fea503394b152ba3e553388f62e6cb6e7eb'),
    'mobile-m2e3-trust3:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-m2e3-trust3:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-nb0:rate:csv':
        (0, 'e9b6422cce7a277c7f15395cc4d5edffbc766dbe564aee335c8bea771d916d09'),
    'mobile-nb0:rate:json':
        (0, 'b23fb717e9128dfbb7eb25f5e4b86ff6e5d91c76ae214c7c49c26c2cbb4d9c17'),
    'mobile-nb0:sweep:csv':
        (0, 'fbe27b91ff6848888888b782fe0a1f70fb13e149c5fc6e76719f75d82205b08a'),
    'mobile-nb0:sweep:json':
        (0, '31bf542f03860dd9c76ccb0dbda66e5e1bc9b2dfc1b2fbdb3c1235a064371370'),
    'mobile-nb0:simulate:csv':
        (0, '6444e0ca84b11cbe7274dc7208afe372d1a512d759100a9190207ab2bce7acd6'),
    'mobile-nb0:simulate:json':
        (0, 'd925880b81c2e54931a9288371ce5b82a3b2a9dd26e35b9a30f0d0617338c5bd'),
    'mobile-nb0:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-nb0:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-los-trust1:rate:csv':
        (0, '834552b796f92f33f38ee18eba45d3fcf11e2f39bdf4b38a32f17c1bb990ef7f'),
    'wireless-los-trust1:rate:json':
        (0, '2b3551daf1ae60ae7f65b9ba73dc6aa997b7ae239251758339391470ae59093d'),
    'wireless-los-trust1:sweep:csv':
        (0, '175e91f299f739f69cc4a8a5748ce56214ce9523483a712bb93576e4b0cb99f6'),
    'wireless-los-trust1:sweep:json':
        (0, 'e9ff645e65fb23efe9b957fb8b5c811e9bf9184af0b95e5d5f426543735a1f46'),
    'wireless-los-trust1:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-los-trust1:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-los-trust1:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-los-trust1:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-llo-trust1:rate:csv':
        (0, 'fea1d30f241b1132ab9c4cc8048b7ab24562a6ae201b64f41d532d93d4fd0809'),
    'wireless-m2e3-llo-trust1:rate:json':
        (0, '7e954d2ce9e209e7ac474a233b09cad3967550976cc8e92d567479d37775abed'),
    'wireless-m2e3-llo-trust1:sweep:csv':
        (0, '23e4cfb098920c889f81040bcd8d984a1bc6915e93cb22a4e904af31cd409bd8'),
    'wireless-m2e3-llo-trust1:sweep:json':
        (0, '61e111bc8c25d0477fa1e35380cc06fc49d114b49fde177e1b02793b492970a8'),
    'wireless-m2e3-llo-trust1:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-llo-trust1:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-llo-trust1:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-llo-trust1:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-llo-trust2:rate:csv':
        (0, '5a1a711459df35a97dc7eca063f3cefc5853ff5020a000abc44b6ead025ac8d2'),
    'wireless-m2e3-llo-trust2:rate:json':
        (0, '575a9b52168df1263794840d677102d0bc508cb8d43b503e698e8aaf6c5b5e48'),
    'wireless-m2e3-llo-trust2:sweep:csv':
        (0, 'cf87c56c7317a0625cdbf0d04123da6b14d54d78150bd3dbdd82018fb32539cd'),
    'wireless-m2e3-llo-trust2:sweep:json':
        (0, 'a184f7a55d70f581dc3d969b912b96082450f421d88bb60768e5f0cbd2fc6d1c'),
    'wireless-m2e3-llo-trust2:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-llo-trust2:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-llo-trust2:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-llo-trust2:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-tlo-trust1:rate:csv':
        (0, '217d4ced4e8869b85d0d263644a66dcd586952b6162851ff1c96caf27fd4cc70'),
    'wireless-m2e3-tlo-trust1:rate:json':
        (0, '2c40ef3c7b70c8f055f122817a0e8e8d79d95696795018709cfeb49a2cc18a84'),
    'wireless-m2e3-tlo-trust1:sweep:csv':
        (0, 'dbe52cab59162b85b509d8f686a3a91382caf795e9fb7a547b640f66f8abfd55'),
    'wireless-m2e3-tlo-trust1:sweep:json':
        (0, '9afeb1dadf2273fdd2413a39e16d78c8073aed0723dda030d8b8e547d7a7beea'),
    'wireless-m2e3-tlo-trust1:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-tlo-trust1:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-tlo-trust1:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-tlo-trust1:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-tlo-trust2:rate:csv':
        (0, '1e21c30e7390836026eb1180777b252d51ff8af4647f69d8475a4057c7f84d9b'),
    'wireless-m2e3-tlo-trust2:rate:json':
        (0, 'a8280e67d1c47b3246dc77531757c2cb8108cdec7eb77a35a7038a054af02f1b'),
    'wireless-m2e3-tlo-trust2:sweep:csv':
        (0, 'e966c19092db6d8b079aa0bfad03694c21db207423159883a18f941a52685c32'),
    'wireless-m2e3-tlo-trust2:sweep:json':
        (0, '0c73189e436a6ddb575fb13f866b756ed1efd30df21862dce0e22a9b8228202e'),
    'wireless-m2e3-tlo-trust2:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-tlo-trust2:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-tlo-trust2:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-tlo-trust2:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-nb0-trust1:rate:csv':
        (0, '202676273f05de7ff008228531f486d835b86f4245f38964dc8b65ec087de39a'),
    'wireless-nb0-trust1:rate:json':
        (0, '4b7474d8fef0d475924ee4d8f41ffc591ff23be7f84b675bf2a25ddd37910812'),
    'wireless-nb0-trust1:sweep:csv':
        (0, '0474316982dd2c32a2af4f1e3958cd3616887d59fd107985bc7ef1a8e15c523f'),
    'wireless-nb0-trust1:sweep:json':
        (0, 'e3877c96527d97a80acab25c1aa04e7c4401dbd5addb99a9f4cc5b5c4da41a90'),
    'wireless-nb0-trust1:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-nb0-trust1:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-nb0-trust1:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-nb0-trust1:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


@pytest.mark.parametrize("case", cases())
def test_output_matches_golden(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[case]


def test_table_covers_exactly_the_cases():
    assert sorted(GOLDEN) == sorted(cases())


def test_every_warning_code_is_reached(tmp_path):
    # a listed code that no case raises documents a path no input reaches
    missing = set(WARNING_CODES)
    for case in cases():
        if not missing:
            break
        if case.endswith(":csv"):
            for row in csv.DictReader(io.StringIO(case_output(case, tmp_path)[1])):
                missing -= set(row["warnings"].split(";"))
    assert missing == set()


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_dump_matches_golden(name, tmp_path):
    assert run_dump(name, tmp_path) == DUMP_GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GOLDEN = {\n")
        for case in cases():
            code, digest = run_case(case, Path(tmp))
            sys.stdout.write(f"    {case!r}:\n        ({code}, {digest!r}),\n")
        sys.stdout.write("}\nDUMP_GOLDEN = {\n")
        for name in DUMPS:
            code, digest = run_dump(name, Path(tmp))
            sys.stdout.write(f"    {name!r}:\n        ({code}, {digest!r}),\n")
        sys.stdout.write("}\n")
