"""Invariants of the rate rows over random valid fixed-loss and optical-fixed
points: trust ordering, line-of-sight over standard security, composable
below asymptotic, fixed-loss rates that do not rise with loss, and
standard-security rates below the repeaterless ceiling. Also: arbitrary
values in a config's [physics] and [protocol] keys resolve to a Scenario or
fail with a ConfigError, never another exception, and a resolved config
evaluates at some abscissa unless it lies in the region of a pinned
rate-kernel fault."""

import configparser
import math
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqkd.channel import diffraction_transmissivity, microwave_transmissivity, spot_size
from cvqkd.cli import evaluate_rate_point
from cvqkd.config import _KEY_TABLE, ConfigError, Scenario, resolve_scenario
from cvqkd.finite_size import TAU_FLOOR
from cvqkd.rates import ChannelPoint, TrustLevel
from oracles import asymptotic_rate
from test_cli import set_key

TEMPLATE = """
[scenario]
channel = {channel}
protocol = {protocol}
lo = {lo}
trust = {trust}
security = {security}
attack = collective

[physics]
lambda = 800 nm
eta_eff = {eta_eff}
w = 100 MHz
nep = 6 pW/rtHz
l_w = 1.6 kHz
p_lo = {p_lo} mW
c = 5 MHz
dt_lo = 10 ns
n_b = {n_b}
{geometry}

[protocol]
n_total = {n_total}
m = {m}
d = 32
beta = {beta}
p_ec = 0.9
eps = 2^-33
mu = {mu}
"""

GEOMETRY = {"fixed-loss": "", "optical-fixed": "w0 = 1 mm\na_r = 1 cm"}

# (trust, security) pairs ordered from the weakest to the strongest Eve
STANDARD = ((1, "standard"), (2, "standard"), (3, "standard"))
LOS = ((1, "los"), (2, "los"))

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=120)


@st.composite
def links(draw, channel):
    """Physics and protocol of one valid link, trust and security left open."""
    n_total = 10.0 ** draw(st.floats(6.0, 10.0))
    return {
        "channel": channel,
        "protocol": draw(st.sampled_from(("homodyne", "heterodyne"))),
        "lo": draw(st.sampled_from(("llo", "tlo"))),
        "eta_eff": draw(st.floats(0.3, 1.0)),
        "p_lo": draw(st.floats(1.0, 100.0)),
        "n_b": draw(st.floats(0.0, 0.05)),
        "geometry": GEOMETRY[channel],
        "n_total": repr(n_total),
        "m": repr(n_total * draw(st.floats(0.01, 0.5))),
        "beta": draw(st.floats(0.9, 0.99)),
        "mu": draw(st.floats(2.0, 40.0)),
    }


ABSCISSA = {"fixed-loss": st.floats(0.0, 25.0),
            "optical-fixed": st.floats(1.0, 100.0)}
POINTS = st.sampled_from(sorted(GEOMETRY)).flatmap(
    lambda channel: st.tuples(links(channel), ABSCISSA[channel]))

# Line-of-sight counterexample to R(Eve-1) >= R(Eve-2): m is 1.2 % of a
# 1e6-pulse block, so the worst-case noise n_hi = 0.30 exceeds the
# modulation (mu - 1) / 2 = 0.5 in Eve-1's leakage mode but not in Eve-2's.
LOS_COUNTEREXAMPLE = (
    {"channel": "fixed-loss", "protocol": "homodyne", "lo": "tlo",
     "eta_eff": 0.3046875, "p_lo": 1.0, "n_b": 0.0, "geometry": "",
     "n_total": "1000000.0", "m": "11718.75", "beta": 0.9375, "mu": 2.0},
    0.0)


def row(link: dict, trust: int, security: str, x: float) -> dict:
    scenario = resolve_scenario(TEMPLATE.format(trust=trust, security=security,
                                                **link))
    out = evaluate_rate_point(scenario, x, clamp=False)
    assert out["reason"] == "", out["reason"]
    return out


def assert_trust_ordering(link: dict, x: float, levels: tuple) -> None:
    rows = [row(link, trust, security, x) for trust, security in levels]
    for col in ("rate_asym_raw", "rate_raw"):
        for weaker, stronger in zip(rows[1:], rows):
            assert at_most(weaker[col], stronger[col]), col


def at_most(a: float, b: float) -> bool:
    """a <= b up to round-off."""
    return a <= b + 1e-12 + 1e-9 * abs(b)


@pytest.mark.parametrize("channel", sorted(GEOMETRY))
class TestRateInvariants:
    @PROPERTY
    @given(data=st.data())
    def test_trust_ordering_standard(self, channel, data):
        # R(Eve-1) >= R(Eve-2) >= R(Eve-3): a more trusted receiver hands Eve
        # less of the noise
        assert_trust_ordering(data.draw(links(channel)),
                              data.draw(ABSCISSA[channel]), STANDARD)

    @PROPERTY
    @given(data=st.data())
    def test_los_dominates_standard(self, channel, data):
        link, x = data.draw(links(channel)), data.draw(ABSCISSA[channel])
        for trust in (1, 2):
            std = row(link, trust, "standard", x)
            los = row(link, trust, "los", x)
            for col in ("rate_asym_raw", "rate_raw"):
                assert at_most(std[col], los[col]), col

    @PROPERTY
    @given(data=st.data(), trust=st.sampled_from((1, 2, 3)))
    def test_composable_below_asymptotic(self, channel, data, trust):
        # compared where a key exists: the prefactor n p_ec / N < 1 shrinks
        # a negative raw rate towards 0, so raw negative values do not order
        link, x = data.draw(links(channel)), data.draw(ABSCISSA[channel])
        out = row(link, trust, "standard", x)
        assert at_most(max(out["rate_raw"], 0.0), max(out["rate_asym_raw"], 0.0))
        assert at_most(out["r_pe"], out["rate_asym_raw"])


class TestLineOfSightTrustOrdering:
    @pytest.mark.xfail(strict=True, reason="the line-of-sight Holevo bound "
                       "grows with the thermal photons in Eve's leakage mode "
                       "once they exceed the modulation (theta ~ omega - mu), "
                       "and Eve-1's mode holds more of them than Eve-2's; "
                       "see the FOUND line in CHANGES.md")
    @PROPERTY
    @given(point=POINTS)
    @example(point=LOS_COUNTEREXAMPLE)
    def test_trust_ordering_los(self, point):
        assert_trust_ordering(*point, LOS)


class TestFixedLossMonotone:
    @PROPERTY
    @given(link=links("fixed-loss"), trust=st.sampled_from((1, 2, 3)),
           losses=st.lists(st.floats(0.0, 25.0), min_size=2, max_size=2))
    def test_rate_does_not_rise_with_loss(self, link, trust, losses):
        # compared where a key exists: as the loss grows, a negative raw rate
        # tends to 0 from below, so it rises (see CHANGES.md)
        low, high = sorted(losses)
        near = row(link, trust, "standard", low)
        far = row(link, trust, "standard", high)
        assert at_most(max(far["rate_raw"], 0.0), max(near["rate_raw"], 0.0))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NOISE = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
CEILING = settings(derandomize=True, database=None, deadline=None,
                   max_examples=300)


class TestRepeaterlessCeiling:
    """No standard-security rate exceeds the repeaterless capacity of the
    channel that Eve controls (Pirandola et al., Nat. Commun. 8, 15043
    (2017)): -log2(1 - eta_ch) for the pure-loss channel, which bounds every
    thermal-loss channel of the same eta_ch, and plob_thermal_bound(tau, n_th)
    for the microwave link. Line-of-sight rows are outside this ceiling by
    design: that model gives Eve a leakage mode, not all the lost light, and
    its rows do exceed the bound."""

    @CEILING
    @given(eta_ch=st.floats(1e-4, 1.0, exclude_max=True),
           eta_eff=st.floats(0.05, 1.0), n_b=NOISE, n_ex=NOISE,
           sigma_x2=st.floats(1e-2, 1e3), nu_det=st.sampled_from((1, 2)))
    def test_standard_rate_below_pure_loss_capacity(self, eta_ch, eta_eff, n_b, n_ex,
                                                    sigma_x2, nu_det):
        ch = ChannelPoint(eta_ch=eta_ch, eta_eff=eta_eff, n_b=n_b, n_ex=n_ex,
                          nu_det=nu_det, mu=1.0 + sigma_x2)
        ceiling = -math.log2(1.0 - eta_ch)
        for trust in TrustLevel:
            assert asymptotic_rate(ch, trust, "standard", 1.0).rate <= ceiling

    @CEILING
    @given(protocol=st.sampled_from(("homodyne", "heterodyne")),
           eta_eff=st.floats(0.05, 1.0), t=st.floats(1.0, 1e3), g=st.floats(1.0, 100.0),
           sigma_x2=st.floats(1e-2, 1e3), z=st.floats(1e-3, 1.0))
    def test_microwave_rate_below_plob(self, protocol, eta_eff, t, g, sigma_x2, z):
        text = (CONFIGS / "microwave.ini").read_text(encoding="utf-8")
        for section, key, value in (("scenario", "protocol", protocol),
                                    ("physics", "eta_eff", eta_eff), ("physics", "t", t),
                                    ("physics", "g", g), ("protocol", "mu", 1.0 + sigma_x2)):
            text = set_key(text, section, key, str(value))
        out = evaluate_rate_point(resolve_scenario(text), z, clamp=False)
        assert out["reason"] == "", out["reason"]
        if math.isfinite(out["plob"]):
            assert out["rate_asym_raw"] <= out["plob"]


FUZZ_EXAMPLES = 120  # per shipped config

# numbers as floats, integers and base^exponent powers, or any text at all
VALUES = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.tuples(st.integers(-20, 20), st.floats(-400.0, 400.0)).map(
        lambda power: f"{power[0]}^{power[1]}"),
    st.text(),
)
DECADES = st.floats(-15.0, 15.0).map(lambda exponent: 10.0 ** exponent)
# values inside each domain of the key table
INSIDE = {
    "> 0": DECADES,
    ">= 0": st.one_of(st.just(0.0), DECADES),
    "> 1": DECADES.map(lambda value: 1.0 + value),
    ">= 1": st.integers(1, 100),
    "in (0, 1]": st.floats(0.0, 1.0, exclude_min=True),
    "in (0, 1)": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "in (0, 1/2]": st.floats(0.0, 0.5, exclude_min=True),
    "a power of two >= 2": st.integers(1, 10).map(lambda power: 2 ** power),
    None: st.sampled_from(("true", "false")),
}
EDITED = ("physics", "protocol")
SPLIT_EPSILONS = {"eps_pe", "eps_s", "eps_h", "eps_cor"}


def edit_keys(config: str) -> dict:
    """Per edited section, the key table's keys that apply to the config's
    channel, whether or not the config holds them, with their domains. Keys
    that clash with the config's epsilons are left out (eps_* where it gives
    eps, eps where it gives eps_*)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string((CONFIGS / config).read_text(encoding="utf-8"))
    channel = parser.get("scenario", "channel")
    held = set(parser.options("protocol"))
    clash = SPLIT_EPSILONS if "eps" in held else {"eps"} if held & SPLIT_EPSILONS else set()
    return {section: {key: domain for name, key, channels, _, _, domain, _ in _KEY_TABLE
                      if name == section and channel in channels and key not in clash}
            for section in EDITED}


def edits_for(config: str):
    """Non-empty dicts of edits to the config's [physics] and [protocol] keys:
    values inside each key's domain, so that many edited configs resolve, and
    in about half of the examples one key set to any value at all."""
    keys = edit_keys(config)

    def inside(section):
        return st.lists(st.sampled_from(sorted(keys[section])), min_size=1, unique=True).flatmap(
            lambda drawn: st.fixed_dictionaries(
                {key: INSIDE[keys[section][key]].map(str) for key in drawn}))

    def with_any(edits, any_edit):
        if any_edit is not None:
            (section, key), value = any_edit
            edits[EDITED.index(section)][key] = value
        return edits

    anywhere = st.sampled_from([(section, key) for section in EDITED
                                for key in sorted(keys[section])])
    return st.builds(with_any, st.tuples(*map(inside, EDITED)),
                     st.one_of(st.none(), st.tuples(anywhere, VALUES)))


def noise_photons(scenario: Scenario) -> float:
    """Largest noise term of the link in photons per pulse: setup noise,
    background or thermal photons."""
    p, d = scenario.physics, scenario.derived
    return max(d.get("theta_el", 0.0), d.get("theta_ph", 0.0), d.get("n_th", 0.0),
               p.get("n_b", 0.0), p.get("n_other", 0.0))


def lowest_tau(scenario: Scenario, x: float) -> float:
    """Lowest transmissivity that the rows estimate at abscissa x: tau, and
    on a mobile link the lower window edge f_th times the on-axis tau."""
    p = scenario.physics
    if scenario.channel == "fixed-loss":
        return min(10.0 ** (-x / 10.0), p["eta_eff"])
    if scenario.channel == "microwave":
        return p["eta_eff"] * microwave_transmissivity(p["g"], p["a_r"], x)
    tau = p["eta_eff"] * diffraction_transmissivity(scenario.beam, x, p["a_r"],
                                                    p.get("eta_atm", 1.0))
    return scenario.f_th * tau if scenario.channel == "optical-mobile" else tau


def aperture_share(scenario: Scenario, x: float) -> float:
    """2 a_R^2 / w_z^2: the far-field share of the beam that the aperture
    collects at distance x."""
    return 2.0 * scenario.physics["a_r"] ** 2 / spot_size(scenario.beam, x) ** 2


# The rate-kernel faults that TestKernelFaults pins, as (reasons, region): a
# resolved config may fail at every abscissa with one of the reasons only
# where the region holds at each abscissa.
HOLEVO = ("ValueError: entropic_h domain error", "ValueError: math domain error")
KERNEL_FAULTS = (
    # the Holevo closed forms lose Eve's conditional eigenvalues to cancellation
    # under noise or modulation far above the paper's
    (HOLEVO,
     lambda scenario, x: noise_photons(scenario) >= 1e3 or scenario.sigma_x2 >= 1e6),
    # a tau that underflows past the normal floats leaves no channel (or no
    # fading window) to estimate
    (HOLEVO + ("ValueError: tau exceeds eta_eff", "ValueError: eta_ch must lie in (0, 1]",
               "ValueError: tau must lie in (0, 1]", "ValueError: need 0 < tau_min < tau_max",
               "ValueError: nbar smaller than the channel share"),
     lambda scenario, x: lowest_tau(scenario, x) < sys.float_info.min),
    # 1 - Lambda_0 in the fading fit loses its digits to cancellation
    (("ValueError: fading fit undefined",),
     lambda scenario, x: scenario.channel == "optical-mobile"
     and aperture_share(scenario, x) < 1e-8),
    # the library refuses, by design, a post-selection window less likely than
    # P_DELTA_MIN; its reason is the region
    (("ValueError: post-selection window has negligible probability",),
     lambda scenario, x: True),
)


def kernel_fault(scenario: Scenario, reason: str) -> bool:
    """Whether reason, met at every abscissa, is a pinned rate-kernel fault in
    its region."""
    return any(reason.startswith(reasons) and all(map(partial(region, scenario),
                                                      abscissas(scenario)))
               for reasons, region in KERNEL_FAULTS)


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.ini")))
class TestConfigFuzz:
    """A config either fails with a ConfigError or gives rows that some
    abscissa can evaluate: a resolved config whose [point] and both sweep ends
    fail with the same ValueError holds a value that is invalid everywhere,
    which is a config error (exit 1), not NaN rows (exit 2)."""

    def test_scenario_or_config_error(self, config):
        @settings(derandomize=True, database=None, deadline=None,
                  max_examples=FUZZ_EXAMPLES)
        @given(edits=edits_for(config))
        @example(edits=({"sigma_p": "0 mrad"}, {}))
        @example(edits=({"w0": "0 mm"}, {}))
        @example(edits=({"a_r": "-1 cm"}, {}))
        # finite keys in their domains whose rows were NaN with no reason
        @example(edits=({"l_w": "1e308"}, {}))
        @example(edits=({"nep": "1e150 W/rtHz"}, {}))
        @example(edits=({"n_b": "1e308"}, {}))
        @example(edits=({"t": "1e308"}, {}))
        @example(edits=({}, {"eps": "5e-324"}))
        def check(edits):
            try:
                scenario = resolve_scenario(edited(config, edits))
            except ConfigError:
                return
            assert isinstance(scenario, Scenario)
            rows = [evaluate_rate_point(scenario, x, clamp=False) for x in abscissas(scenario)]
            # a row without a reason evaluated: its rates are numbers
            assert all(math.isfinite(row["r_pe"]) and math.isfinite(row["rate_raw"])
                       for row in rows if not row["reason"]), rows
            reasons = {row["reason"] for row in rows}
            if len(reasons) == 1:
                reason = reasons.pop()
                assert not reason.startswith("ValueError") or kernel_fault(scenario, reason), \
                    reason

        check()


def edited(config: str, edits: tuple) -> str:
    """A shipped config with its [physics] and [protocol] keys set from the
    two dicts of edits."""
    text = (CONFIGS / config).read_text(encoding="utf-8")
    for section, values in zip(EDITED, edits):
        for key, value in values.items():
            text = set_key(text, section, key, value)
    return text


def abscissas(scenario: Scenario) -> tuple:
    """The [point] and both sweep ends."""
    return (scenario.point[1],) + (scenario.sweep[1:3] if scenario.sweep else ())


def rate_reasons(scenario: Scenario) -> set:
    """Row reasons at the [point] and at both sweep ends."""
    return {evaluate_rate_point(scenario, x, clamp=False)["reason"]
            for x in abscissas(scenario)}


# One resolved config per rate-kernel fault of KERNEL_FAULTS, under a fixed
# test id: a mended fault's pin leaves with its id, and the others keep theirs
KERNEL_FAULT_CASES = {
    "edits0": ("fiber_fixed_loss.ini", ({"nep": "1 W/rtHz"}, {})),
    "edits1": ("wireless_general.ini", ({"nep": "1 W/rtHz"}, {"m": "1"})),
    "edits3": ("coverage.ini", ({"n_b": "0"}, {"mu": "1e10"})),
    "edits4": ("mobile.ini", ({"eta_atm": "5e-324"}, {})),
    "edits5": ("mobile.ini", ({"w0": "1 km"}, {})),
    "edits6": ("mobile.ini", ({"sigma_p": "10 rad"}, {})),
}


@pytest.mark.parametrize("config, edits", KERNEL_FAULT_CASES.values(),
                         ids=[f"{config}-{key}"
                              for key, (config, _) in KERNEL_FAULT_CASES.items()])
class TestKernelFaults:
    """Resolved configs whose rows fail at every abscissa inside the rate
    kernels, where no key domain can pre-empt the fault (FOUND lines in
    CHANGES.md). Under huge setup noise or modulation the Holevo closed forms
    lose Eve's conditional eigenvalues to cancellation; a subnormal tau
    leaves no fading window; the mobile fading fit loses 1 - Lambda_0 to
    cancellation once the aperture takes under 1e-8 of the beam; and the
    library refuses a post-selection window less likely than 1e-6.
    TestConfigFuzz exempts these reasons only inside these regions."""

    @pytest.mark.xfail(strict=True, reason="rate-kernel faults, see CHANGES.md")
    def test_some_abscissa_evaluates(self, config, edits):
        assert "" in rate_reasons(resolve_scenario(edited(config, edits)))

    def test_fault_lies_in_its_region(self, config, edits):
        scenario = resolve_scenario(edited(config, edits))
        (reason,) = rate_reasons(scenario)
        assert kernel_fault(scenario, reason), reason


def test_tau_below_floor_evaluates():
    # tau' is floored at min(TAU_FLOOR, tau), never above tau: a fiber link
    # with eta_eff = 1e-13 evaluates at every abscissa, its worst case at the
    # model tau with the floor's warning
    scenario = resolve_scenario(edited("fiber_fixed_loss.ini", ({"eta_eff": "1e-13"}, {})))
    for x in abscissas(scenario):
        row = evaluate_rate_point(scenario, x, clamp=False)
        assert row["reason"] == ""
        assert row["tau_lo"] == row["tau"] < TAU_FLOOR
        assert "tau_lo_floored" in row["warnings"].split(";")
