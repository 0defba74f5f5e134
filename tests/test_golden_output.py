"""Golden output: the exit code and the sha256 of stdout for every shipped
config x {rate, sweep, simulate, coverage} x {csv, json}, run in-process with
--seed 5, plus config variants that reach every floor path (small blocks,
zero background, a long mobile sweep, a far microwave link).

A change that keeps the rows must keep every digest. A change that alters
rows on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden_output.py

pastes it over GOLDEN, and declares in CHANGES.md which rows moved and by
how much.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cvqkd.cli import main

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
    "mobile-long-sweep": ("mobile.ini", [LONG_MOBILE_SWEEP]),
    "mobile-long-sweep-tlo-trust2": ("mobile.ini",
                                     [LONG_MOBILE_SWEEP, ("lo = llo", "lo = tlo"),
                                      ("trust = 1", "trust = 2")]),
    "mobile-m2e3-trust3": ("mobile.ini",
                           [LONG_MOBILE_SWEEP, ("m = 1e6", "m = 2e3"),
                            ("trust = 1", "trust = 3")]),
    "mobile-nb0": ("mobile.ini", [("n_b = 0.019", "n_b = 0")]),
    "microwave-40m": ("microwave.ini", [("distance = 4.4 cm", "distance = 40 m")]),
    "microwave-40m-los": ("microwave.ini",
                          [("distance = 4.4 cm", "distance = 40 m"),
                           ("trust = 3\nsecurity = standard",
                            "trust = 2\nsecurity = los")]),
    "microwave-m2e3-los": ("microwave.ini",
                           [("m = 5e6", "m = 2e3"),
                            ("trust = 3\nsecurity = standard",
                             "trust = 2\nsecurity = los")]),
}


def config_text(name: str) -> str:
    """Text of a shipped config (by stem) or of a named variant."""
    if name in VARIANTS:
        base, edits = VARIANTS[name]
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


def run_case(case: str, workdir: Path) -> tuple:
    """(exit code, sha256 of stdout) of one in-process invocation."""
    name, command, fmt = case.split(":")
    path = workdir / f"{name}.ini"
    path.write_text(config_text(name), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([command, "--config", str(path), "--format", fmt,
                     "--seed", SEED])
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


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
        (0, '0e77b1e9067c9b356bcd77755c52f8a57c010483b90ac82c292ce73e89a11e06'),
    'coverage:simulate:json':
        (0, 'ff1205093ed9174682b28e64ecbef898d8321ee5ad91ec307c8d8773b58abb81'),
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
        (0, '63e1faa77a1a35c192bcfa44b6deee0cfc17c39dafa9a592477d791844b52de8'),
    'mobile:simulate:json':
        (0, '48d10fa377b7b575b59c93e8163880a07aa65eadaefd5e2df423025395418223'),
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
    'fiber-m2e3-llo-trust1:rate:csv':
        (0, '5e7f9cbc58bc8c493ad2ee8922a980236b84ff8c903e7b91c7336b70533c0464'),
    'fiber-m2e3-llo-trust1:rate:json':
        (0, 'fdb8f07a95f82cf69699bb70cd6997de55dc85929cab4392ce675d2ea2a2b182'),
    'fiber-m2e3-llo-trust1:sweep:csv':
        (0, '2e9939e855585c0cb0a014ad670f934f067d6294adaa868f96d903f3136341d3'),
    'fiber-m2e3-llo-trust1:sweep:json':
        (0, '9d8e7e05ec0c5de736d8ab021a5cfc41a7e57e5e1873c5ea685c1ea173c76406'),
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
        (0, '41d2d0c0f42c01b7b8902557959957620ec13e39e5dec16a425f13f2c5f9bb58'),
    'fiber-m2e3-tlo-trust1:sweep:json':
        (0, '16a2949dce46ec4f0217c842a26e4b508ac4ca08d547f7bb0d89dacce670c315'),
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
        (0, '8d209959c5beb74a119bd644a207f8170becf5444c71d44f23946da40a57120e'),
    'microwave-40m-los:rate:json':
        (0, 'a92fb992c115aeb4941ae369488f90a892ec7bc30118798470a90621113c6edd'),
    'microwave-40m-los:sweep:csv':
        (0, 'f2572f1121a101c9121458ca0c2c24ef13031a8668a3c941d86adb863d9f97d3'),
    'microwave-40m-los:sweep:json':
        (0, '741df237a0b15f1e80b272a1a81c6661f5b8d9bc306f4a76c08c5774ce67e6fc'),
    'microwave-40m-los:simulate:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m-los:simulate:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m-los:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-40m-los:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'microwave-m2e3-los:rate:csv':
        (0, 'd23b35be6e393f851ce389a6b997af5c095d42999c95b8e47195cf20c9e77dc4'),
    'microwave-m2e3-los:rate:json':
        (0, '0e3812b3524139bb469424b80364bec14a075b941b853adaba57048b00fb3586'),
    'microwave-m2e3-los:sweep:csv':
        (0, 'e20ce5b1ac035b002f293a4d88ae306d4d2c5ac711968b33086dd685face97e1'),
    'microwave-m2e3-los:sweep:json':
        (0, '76eec91d741a22673ab38a8f0300c5eb550d05f51e80cbc6100ca2a4ffbe4cd2'),
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
        (0, '63e1faa77a1a35c192bcfa44b6deee0cfc17c39dafa9a592477d791844b52de8'),
    'mobile-long-sweep:simulate:json':
        (0, '48d10fa377b7b575b59c93e8163880a07aa65eadaefd5e2df423025395418223'),
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
        (0, '9ae14003237ab2c7e3304fbab762cca82d9f662a4dd42885ab246e5ac9cf2850'),
    'mobile-long-sweep-tlo-trust2:simulate:json':
        (0, 'a81b6ce7b4ae63ec07c14650c7a94d46d2628d09b53a658c8197376394424adb'),
    'mobile-long-sweep-tlo-trust2:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-long-sweep-tlo-trust2:coverage:json':
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
        (0, 'a942882b986d0db8713e2a2c003d331645e9774ffdcf82e5d79bc0ca5bd9e10a'),
    'mobile-m2e3-trust3:simulate:json':
        (0, 'c718f70bcef33f8dcbd1f03402e1d3c8f24c2525360ebc9b5ef1f9a17947063e'),
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
        (0, '4d2dafb7b9e42812ac0ecf469fd3a904e77d918ea80f6012ae55d1ddd821d1e0'),
    'mobile-nb0:simulate:json':
        (0, 'c1cdce82ea0e527518e1e62d920298cd603a28704a18e4601ade04cdba96c0cd'),
    'mobile-nb0:coverage:csv':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mobile-nb0:coverage:json':
        (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'wireless-m2e3-llo-trust1:rate:csv':
        (0, 'fea1d30f241b1132ab9c4cc8048b7ab24562a6ae201b64f41d532d93d4fd0809'),
    'wireless-m2e3-llo-trust1:rate:json':
        (0, '7e954d2ce9e209e7ac474a233b09cad3967550976cc8e92d567479d37775abed'),
    'wireless-m2e3-llo-trust1:sweep:csv':
        (0, '4edff49bc74e8347734c2383de6cd6f80a0c85c432bdc5ece5600612ef56e95a'),
    'wireless-m2e3-llo-trust1:sweep:json':
        (0, '86f7d720bc21d99825a3302be4ffd7749fea79a92c96dc4f8a528138f313c5c9'),
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
        (0, '4576ab67f45791b5937a74a6b2a051bf36f06ad0a88cbe726c035d5c5bdaeaf3'),
    'wireless-m2e3-tlo-trust1:sweep:json':
        (0, 'b39a9ceeddb20b6951355983478b231fd05560c96018a9cdae243741085d6bd3'),
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
        (0, '399f6e4cc21878fcd28fcb549ccc6beed4476c1ced9b023fc8b412b5b952c1df'),
    'wireless-nb0-trust1:sweep:json':
        (0, '5b2fb204083f11dda1743c34098db6501937671bd81398d4b10bde73edf3a9de'),
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GOLDEN = {\n")
        for case in cases():
            code, digest = run_case(case, Path(tmp))
            sys.stdout.write(f"    {case!r}:\n        ({code}, {digest!r}),\n")
        sys.stdout.write("}\n")
