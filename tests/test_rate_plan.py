"""The rate plan of cvqkd.cli against the record-per-point composition that it
replaces (tests/oracles.py): every column of every row equal by repr, NaN
rows with the same reason, over the shipped configs and every scenario
choice that the config rules allow. And what the plan saves, counted rather
than timed: a sweep builds no point, estimator or rate record per row, and
the scenario-level finite-size terms once; its rows are cell tuples, and the
CSV writer formats only their two text cells one by one."""

import functools
import inspect
import itertools
import os
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd import Record, cli, config, finite_size, simulate
from cvqkd.cli import RATE_COLUMNS, evaluate_rate_point, run_sweep
from cvqkd.config import ConfigError, resolve_scenario
from oracles import rate_row_oracle
from test_cli import set_key
from test_properties import KERNEL_FAULT_CASES, abscissas, edited

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = sorted(path.name for path in CONFIGS.glob("*.ini"))


def variants(config: str) -> list:
    """(name, scenario) for every trust, security, LO, detection, attack and
    AEP prefactor choice on the shipped config that resolves; f_et is 0.2
    under general attacks and 0 under collective ones, and the name of an
    improved_aep = true variant ends in -improved_aep."""
    text = (CONFIGS / config).read_text(encoding="utf-8")
    microwave = resolve_scenario(text).channel == "microwave"
    out = []
    for trust, security, lo, protocol, attack, improved in itertools.product(
            "123", ("standard", "los"), (None,) if microwave else ("tlo", "llo"),
            ("homodyne", "heterodyne"), ("collective", "general"), (False, True)):
        edit = text
        for key, value in (("trust", trust), ("security", security), ("lo", lo),
                           ("protocol", protocol), ("attack", attack)):
            if value is not None:
                edit = set_key(edit, "scenario", key, value)
        edit = set_key(edit, "protocol", "f_et", "0.2" if attack == "general" else "0")
        edit = set_key(edit, "protocol", "improved_aep", str(improved).lower())
        try:
            scenario = resolve_scenario(edit)
        except ConfigError:
            continue
        out.append((f"{config}-{trust}-{security}-{lo}-{protocol}-{attack}"
                    + ("-improved_aep" if improved else ""), scenario))
    return out


VARIANTS = [case for config in SHIPPED for case in variants(config)]


def span(scenario) -> tuple:
    """The [sweep] range, or 0 to twice the [point] where there is none."""
    if scenario.sweep is not None:
        return scenario.sweep[1:3]
    return 0.0, 2.0 * scenario.point[1]


def assert_rows_match(scenario, x: float) -> dict:
    for clamp in (False, True):
        row, want = evaluate_rate_point(scenario, x, clamp), rate_row_oracle(scenario, x, clamp)
        assert row.keys() == want.keys()
        for column in want:
            assert repr(row[column]) == repr(want[column]), (column, x)
    return row


def test_every_shipped_config_has_variants():
    # both attacks, both securities, all three trust levels and both AEP
    # prefactors resolve somewhere
    assert {name.split(".ini")[0] for name, _ in VARIANTS} == {c[:-4] for c in SHIPPED}
    choices = {(s.trust, s.security, s.attack, s.nu_det, s.improved_aep) for _, s in VARIANTS}
    assert {c[0] for c in choices} == {1, 2, 3}
    assert {c[1] for c in choices} == {"standard", "los"}
    assert {c[2] for c in choices} == {"collective", "general"}
    assert {c[3] for c in choices} == {1, 2}
    assert {c[4] for c in choices} == {False, True}


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(case=st.sampled_from(VARIANTS), share=st.floats(0.0, 1.0))
def test_rows_match_the_oracle_across_each_sweep(case, share):
    _, scenario = case
    start, stop = span(scenario)
    assert_rows_match(scenario, start + share * (stop - start))


@pytest.mark.parametrize("name, scenario",
                         [case for case in VARIANTS if case[1].channel == "fixed-loss"],
                         ids=[case[0] for case in VARIANTS if case[1].channel == "fixed-loss"])
def test_clamped_eta_ch_rows_match(name, scenario):
    # below the receiver's own loss, -10 log10(0.7) = 1.55 dB, eta_ch is capped at 1
    for x in (0.0, 0.8, 1.5):
        assert "eta_ch_clamped" in assert_rows_match(scenario, x)["warnings"]


FLOORED = (
    # (config, edits, abscissae, the floor's warning)
    ("microwave.ini", ({}, {}), (40.0, 100.0), "tau_lo_floored"),
    ("fiber_fixed_loss.ini", ({"eta_eff": "1e-13"}, {}), (0.0, 20.0), "tau_lo_floored"),
    ("wireless_fixed.ini", ({}, {"m": "1"}), (1.0, 45.0, 100.0), "tau_lo_floored"),
    ("mobile.ini", ({}, {"m": "20", "m_pl": "0"}), (1.0, 5.0, 10.0), "tau_lb_floored"),
)


@pytest.mark.parametrize("config, edits, xs, code", FLOORED,
                         ids=[f"{case[0]}-{case[3]}" for case in FLOORED])
def test_floored_rows_match(config, edits, xs, code):
    for trust, security in ((1, "standard"), (2, "standard"), (3, "standard"), (2, "los")):
        text = edited(config, edits)
        text = set_key(set_key(text, "scenario", "trust", str(trust)),
                       "scenario", "security", security)
        try:
            scenario = resolve_scenario(text)
        except ConfigError:
            continue
        for x in xs:
            assert code in assert_rows_match(scenario, x)["warnings"].split(";")


@pytest.mark.parametrize("config, edits", KERNEL_FAULT_CASES.values(),
                         ids=list(KERNEL_FAULT_CASES))
def test_kernel_fault_rows_match(config, edits):
    scenario = resolve_scenario(edited(config, edits))
    start, stop = span(scenario)
    for x in (*abscissas(scenario), start + 0.37 * (stop - start)):
        assert assert_rows_match(scenario, x)["reason"]


# --- what a sweep builds ------------------------------------------------------

SWEEPS = {"fixed-loss": "fiber_fixed_loss.ini", "optical-fixed": "wireless_general.ini",
          "microwave": "microwave.ini", "optical-mobile": "mobile.ini"}
# FadingModel is the mobile model point, one per row by design
PER_ROW = ("ChannelPoint", "RateReport", "FadingLattice", "FadingEstimatorSet")


def record_classes() -> set:
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def counting(counts: Counter, name: str, fn):
    """fn, each call counted in counts[name]."""
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def counted_sweep(monkeypatch, config: str, points: int) -> Counter:
    """Records built and scenario terms evaluated by one sweep of the config
    over points abscissae, per class or function name."""
    scenario = resolve_scenario(set_key((CONFIGS / config).read_text(encoding="utf-8"),
                                        "sweep", "points", str(points)))
    counts = Counter()
    for cls in record_classes():
        if "__init__" in cls.__dict__:
            monkeypatch.setattr(cls, "__init__", counting(counts, cls.__name__, cls.__init__))
    for name in ("general_attack_extension", "total_epsilon"):
        fn = getattr(finite_size, name)
        for module in (cli, config, finite_size):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(counts, name, fn))
    rows = run_sweep(scenario, clamp=False)
    monkeypatch.undo()
    assert len(rows) == points
    return counts


@pytest.mark.parametrize("channel", sorted(SWEEPS))
def test_sweep_builds_no_record_per_row(monkeypatch, channel):
    few, many = (counted_sweep(monkeypatch, SWEEPS[channel], points) for points in (20, 200))
    for name in PER_ROW:
        assert many[name] == few[name], name


@pytest.mark.parametrize("channel", sorted(SWEEPS))
def test_sweep_sums_the_epsilon_budget_once(monkeypatch, channel):
    # the general-attack terms are priced once at p_Delta = 1 on a constant
    # channel; on the mobile link p_Delta, and so the terms, move with z_max
    counts = counted_sweep(monkeypatch, SWEEPS[channel], 200)
    general = resolve_scenario((CONFIGS / SWEEPS[channel]).read_text(
        encoding="utf-8")).attack == "general"
    assert counts["total_epsilon"] == 1
    assert counts["general_attack_extension"] == (1 if general else 0)


@pytest.mark.parametrize("channel", sorted(SWEEPS))
def test_sweep_memoises_one_finite_size_entry(channel):
    # the terms are memoised by p_Delta, which a mobile sweep moves every row
    scenario = resolve_scenario(set_key((CONFIGS / SWEEPS[channel]).read_text(
        encoding="utf-8"), "sweep", "points", "200"))
    plan = cli._rate_plan(scenario, clamp=False)
    for x in cli._grid(scenario, "sweep"):
        assert plan(x)[-1] == ""
    memos = [cell.cell_contents for cell in plan.__closure__
             if hasattr(cell.cell_contents, "cache_info")]
    assert len(memos) == 1
    info = memos[0].cache_info()
    assert info.currsize == 1
    assert info.misses == (200 if channel == "optical-mobile" else 1)


def test_mobile_noise_law_and_lattice_built_once(monkeypatch):
    # a mobile plan binds one noise law for all its rows; a simulate row
    # builds one law and one lattice, whose edges the bins, n_star and the
    # de-fading share
    import numpy as np

    from cvqkd import noise

    counts = Counter()
    for module in (cli, finite_size, noise):
        monkeypatch.setattr(module, "noise_map", counting(counts, "noise_map", noise.noise_map))
    monkeypatch.setattr(np, "linspace", counting(counts, "linspace", np.linspace))
    text = (CONFIGS / "mobile.ini").read_text(encoding="utf-8")
    rows = run_sweep(resolve_scenario(set_key(text, "sweep", "points", "200")), clamp=False)
    assert len(rows) == 200 and not any(row["reason"] for row in rows)
    assert counts == {"noise_map": 1}
    counts.clear()
    scenario = resolve_scenario(set_key(text, "simulate", "pulses", "2000"))
    row = cli._simulation_row(scenario, scenario.point[1], seed=3, dump=None)
    assert row[-1] == ""
    assert counts == {"noise_map": 1, "linspace": 1}
    assert not [name for name, member in vars(finite_size.FadingEstimatorSet).items()
                if isinstance(member, functools.cached_property)]
    assert "fading" not in inspect.signature(finite_size.FadingEstimatorSet).parameters


@pytest.mark.parametrize("dump", [False, True])
def test_mobile_row_assigns_each_bin_once(monkeypatch, tmp_path, dump):
    # the dump's bins are the ones the de-fading uses
    counts = Counter()
    assign = finite_size.FadingLattice.assign
    monkeypatch.setattr(finite_size.FadingLattice, "assign",
                        counting(counts, "assign", assign))
    text = (CONFIGS / "mobile.ini").read_text(encoding="utf-8")
    scenario = resolve_scenario(set_key(text, "simulate", "pulses", "2000"))
    row = cli._simulation_row(scenario, scenario.point[1], seed=3,
                              dump=str(tmp_path / "block.csv") if dump else None)
    assert row[-1] == ""
    assert counts == {"assign": 1}


@pytest.mark.parametrize("dump", [False, True])
@pytest.mark.parametrize("config", ["coverage.ini", "mobile.ini"])
def test_row_builds_each_stream_once(monkeypatch, config, dump):
    # a dump is written from the row's one pass, not drawn again: each
    # (seed, stream) key is built once, the pair streams at every chunk start
    keys = []
    stream_rng = simulate.stream_rng
    monkeypatch.setattr(simulate, "stream_rng", lambda seed, stream: (
        keys.append((seed, stream)), stream_rng(seed, stream))[1])
    scenario = resolve_scenario((CONFIGS / config).read_text(encoding="utf-8"))
    row = cli._simulation_row(scenario, scenario.point[1], seed=3,
                              dump=os.devnull if dump else None)
    assert row[-1] == ""
    pairs = scenario.nu_det * scenario.simulate["pulses"]
    assert len(keys) == len(set(keys))
    assert {(3, base + start) for base in (simulate.X, simulate.NOISE)
            for start in range(0, pairs, simulate.CHUNK)} <= set(keys)
    if config == "coverage.ini":  # 4 chunks of x and of noise
        assert (pairs, len(keys)) == (1_000_000, 8)
    else:  # and one deflection, pilot and de-fading stream each
        assert {(3, simulate.DEFLECTIONS), (3, simulate.PILOTS),
                (4, simulate.DEFADE)} <= set(keys)


@pytest.mark.parametrize("text", [
    *((CONFIGS / config).read_text(encoding="utf-8") for config in SHIPPED),
    *(edited(config, edits) for config, edits in KERNEL_FAULT_CASES.values())],
    ids=[*SHIPPED, *KERNEL_FAULT_CASES])
def test_plan_rows_are_cell_tuples(text):
    # the plan's rows and the guard's NaN rows alike
    scenario = resolve_scenario(text)
    start, stop = span(scenario)
    for clamp in (False, True):
        for row in cli._rate_rows(scenario, (start, stop, *abscissas(scenario)), clamp):
            assert type(row) is tuple
            assert len(row) == len(RATE_COLUMNS) + 1


@pytest.mark.parametrize("channel", sorted(SWEEPS))
def test_csv_writer_formats_only_the_text_cells(monkeypatch, tmp_path, channel):
    calls = Counter()
    format_cell = cli._format_cell

    def counted(value):
        calls[type(value)] += 1
        return format_cell(value)

    monkeypatch.setattr(cli, "_format_cell", counted)
    text = (CONFIGS / SWEEPS[channel]).read_text(encoding="utf-8")
    path, out = tmp_path / "sweep.ini", tmp_path / "out.csv"
    header = len(RATE_COLUMNS) + 1 + 2 * len(cli.PROVENANCE_COLUMNS)
    for points in (20, 200):
        calls.clear()
        path.write_text(set_key(text, "sweep", "points", str(points)), encoding="utf-8")
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        # the header and provenance cells once, then warnings and reason per row
        assert sum(calls.values()) == header + 2 * points
        assert calls[float] == 0
