"""The benchmark's workloads: scenario files derived from the shipped
``configs/*.ini`` and the ``cvqkd`` invocations that run on them.

Every workload is a fixed list of invocations (a *round*). The seed only
changes ``--seed`` values and the Monte Carlo streams, never the grids or the
number of rows, so every round attempts the same operations and the traced
call counts repeat exactly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

# Coverage round k of an invocation seeded s uses the stream seed s + 977 k.
# The Monte Carlo seeds of one round of invocations differ by less than this
# stride, so no two coverage rounds share a stream.
COVERAGE_STRIDE = 977


@dataclass
class Invocation:
    """One ``cvqkd`` call: command, generated scenario file and flags."""

    name: str
    command: str                 # rate | sweep | simulate | coverage
    sections: dict               # section -> key -> value text
    fmt: str = "csv"
    seed: int = 0
    jobs: int = 1
    dump: bool = False
    may_fail: bool = False       # rows may hit the known passive-Eve fault
    same_as: str | None = None   # output must equal this invocation's bytes
    family: str = ""             # curves sharing one grid, for orderings
    items_are_pulses: bool = False

    @property
    def config_name(self) -> str:
        return f"{self.name}.ini"

    @property
    def scenario(self) -> dict:
        return self.sections["scenario"]

    @property
    def channel(self) -> str:
        return self.scenario["channel"]

    @property
    def nu_det(self) -> int:
        return 1 if self.scenario["protocol"].startswith("hom") else 2

    @property
    def rows(self) -> int:
        if self.command == "sweep":
            return int(self.sections["sweep"]["points"])
        return 1

    @property
    def pulses(self) -> int:
        if self.command == "coverage":
            cov = self.sections["coverage"]
            return int(cov["rounds"]) * int(cov["pulses"])
        if self.command == "simulate":
            return int(self.sections["simulate"]["pulses"])
        return 0

    @property
    def items(self) -> int:
        return self.pulses if self.items_are_pulses else self.rows

    def argv(self, workdir: Path, out: Path | None = None,
             dump: Path | None = None, jobs: int | None = None) -> list:
        args = [self.command, "--config", str(workdir / self.config_name),
                "--format", self.fmt, "--seed", str(self.seed)]
        jobs = self.jobs if jobs is None else jobs
        if jobs != 1:
            args += ["--jobs", str(jobs)]
        if out is not None:
            args += ["--out", str(out)]
        if dump is not None:
            args += ["--dump", str(dump)]
        return args


@dataclass
class Workload:
    name: str
    invocations: list
    setup_samples: int           # fresh-interpreter set-up samples per round
    warm_repeats: int = 1        # in-process repeats per invocation


def load_config(path: Path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as handle:
        parser.read_file(handle)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def render(sections: dict) -> str:
    parts = []
    for name, values in sections.items():
        parts.append(f"[{name}]")
        parts.extend(f"{key} = {value}" for key, value in values.items())
        parts.append("")
    return "\n".join(parts)


def derive(base: dict, drop=(), **changes) -> dict:
    """Copy of a scenario with ``section__key=value`` changes applied and
    the ``drop`` sections removed."""
    out = {s: dict(v) for s, v in base.items() if s not in drop}
    for spec, value in changes.items():
        section, key = spec.split("__")
        out.setdefault(section, {})[key] = str(value)
    return out


def _stream_base(seed: int) -> int:
    """Distinct Monte Carlo base seed per workload seed."""
    return 1000 + (seed * 2654435761) % (1 << 31)


def _curves(cfg: dict, seed: int) -> Workload:
    fiber = derive(cfg["fiber_fixed_loss"], drop=("point",),
                   sweep__start=0, sweep__stop=20, sweep__points=400)
    ofix = derive(cfg["wireless_fixed"], drop=("point",),
                  sweep__start=1, sweep__stop=100, sweep__points=400)
    general = derive(cfg["wireless_general"], drop=("point",),
                     sweep__start=1, sweep__stop=60, sweep__points=400)
    micro = derive(cfg["microwave"], drop=("point",),
                   sweep__start=0.04, sweep__stop=0.15, sweep__points=400)
    mobile = derive(cfg["mobile"], drop=("point", "simulate"),
                    sweep__start=1, sweep__stop=10, sweep__points=130)

    def sweep(name, base, family, trust, security="standard", **kw):
        sections = derive(base, scenario__trust=trust,
                          scenario__security=security, **kw)
        return Invocation(name=name, command="sweep", sections=sections,
                          seed=seed, family=family)

    invs = [
        sweep("fiber_e1_std", fiber, "fiber", 1),
        sweep("fiber_e2_std", fiber, "fiber", 2),
        sweep("fiber_e3_std", fiber, "fiber", 3),
        sweep("fiber_e1_los", fiber, "fiber", 1, "los"),
        sweep("fiber_e2_los", fiber, "fiber", 2, "los"),
        sweep("fiber_e3_std_hom_tlo", fiber, "fiber_hom_tlo", 3,
              scenario__protocol="homodyne", scenario__lo="tlo"),
        sweep("ofix_e1_std", ofix, "ofix", 1),
        sweep("ofix_e2_std", ofix, "ofix", 2),
        sweep("ofix_e3_std", ofix, "ofix", 3),
        sweep("ofix_e1_los", ofix, "ofix", 1, "los"),
        sweep("ofix_e2_los", ofix, "ofix", 2, "los"),
        sweep("ofix_e3_general", general, "ofix_general", 3),
        sweep("mw_e3_std", micro, "mw", 3),
        sweep("mw_e2_los", micro, "mw", 2, "los"),
        sweep("mob_e1_std", mobile, "mob", 1),
        sweep("mob_e2_std", mobile, "mob", 2),
        sweep("mob_e3_std", mobile, "mob", 3),
        sweep("mob_e1_los", mobile, "mob", 1, "los"),
        sweep("mob_e2_los", mobile, "mob", 2, "los"),
    ]
    invs[6].may_fail = True
    # the process-pool path, whose rows must equal the serial sweep's
    jobs2 = Invocation(name="ofix_e3_std_jobs2", command="sweep",
                       sections=invs[8].sections, seed=seed, jobs=2,
                       family="ofix_jobs2", same_as="ofix_e3_std")
    invs.insert(9, jobs2)
    return Workload("curves", invs, setup_samples=4)


def _points(cfg: dict, seed: int) -> Workload:
    base = _stream_base(seed)
    invs = []

    def rate(name, sections, fmt="csv", **kw):
        invs.append(Invocation(name=name, command="rate",
                               sections=derive(sections, **kw), fmt=fmt,
                               seed=seed))

    # every shipped config as it is
    for i, name in enumerate(("fiber_fixed_loss", "wireless_fixed",
                              "wireless_general", "mobile", "microwave",
                              "coverage")):
        rate(f"shipped_{name}", cfg[name], "json" if i % 2 else "csv")
    fiber, ofix = cfg["fiber_fixed_loss"], cfg["wireless_fixed"]
    mobile, micro = cfg["mobile"], cfg["microwave"]
    # trust x security x detection x local oscillator x attack x format
    variants = [
        ("fiber", fiber, 1, "standard", "homodyne", "tlo", "csv"),
        ("fiber", fiber, 2, "standard", "heterodyne", "tlo", "json"),
        ("fiber", fiber, 3, "standard", "homodyne", "llo", "csv"),
        ("fiber", fiber, 1, "los", "heterodyne", "llo", "json"),
        ("fiber", fiber, 2, "los", "homodyne", "tlo", "csv"),
        ("ofix", ofix, 2, "standard", "homodyne", "llo", "json"),
        ("ofix", ofix, 1, "los", "heterodyne", "tlo", "csv"),
        ("ofix", ofix, 2, "los", "homodyne", "llo", "json"),
        ("mob", mobile, 2, "standard", "heterodyne", "tlo", "csv"),
        ("mob", mobile, 3, "standard", "homodyne", "llo", "json"),
        ("mob", mobile, 1, "los", "homodyne", "tlo", "csv"),
        ("mob", mobile, 2, "los", "heterodyne", "llo", "json"),
        ("fiber", fiber, 3, "standard", "heterodyne", "tlo", "json"),
        ("fiber", fiber, 1, "standard", "heterodyne", "llo", "csv"),
        ("ofix", ofix, 3, "standard", "homodyne", "tlo", "csv"),
        ("ofix", ofix, 1, "standard", "heterodyne", "llo", "json"),
        ("ofix", ofix, 1, "los", "homodyne", "tlo", "json"),
        ("mob", mobile, 1, "standard", "homodyne", "llo", "json"),
        ("mob", mobile, 3, "standard", "heterodyne", "tlo", "csv"),
    ]
    for tag, sections, trust, security, protocol, lo, fmt in variants:
        rate(f"{tag}_e{trust}_{security}_{protocol[:3]}_{lo}", sections, fmt,
             scenario__trust=trust, scenario__security=security,
             scenario__protocol=protocol, scenario__lo=lo)
    rate("ofix_e3_general_tlo", cfg["wireless_general"], "csv",
         scenario__lo="tlo")
    rate("mob_e3_general", mobile, "json", scenario__trust=3,
         scenario__attack="general", protocol__f_et=0.2)
    rate("mw_e2_los", micro, "json", scenario__trust=2,
         scenario__security="los")
    rate("mw_e3_std_hom", micro, "csv", scenario__protocol="homodyne")
    rate("fiber_e3_general", fiber, "json", scenario__attack="general",
         protocol__f_et=0.2)
    # Monte Carlo blocks with the raw pairs written out
    sim_fixed = derive(cfg["coverage"], drop=("coverage",),
                       simulate__pulses=30000)
    sim_mobile = derive(mobile, simulate__pulses=30000,
                        simulate__pilot_rate=0.05)
    invs.append(Invocation(name="simulate_fixed_dump", command="simulate",
                           sections=sim_fixed, seed=base, dump=True))
    invs.append(Invocation(name="simulate_mobile_dump", command="simulate",
                           sections=sim_mobile, seed=base + 1, dump=True,
                           fmt="json"))
    # a repeated invocation must reproduce its output byte for byte
    first_json = next(inv for inv in invs if inv.fmt == "json")
    invs.append(Invocation(name=f"{first_json.name}_again", command="rate",
                           sections=first_json.sections, fmt="json",
                           seed=seed, same_as=first_json.name))
    return Workload("points", invs, setup_samples=6, warm_repeats=3)


def _coverage(cfg: dict, seed: int) -> Workload:
    base = _stream_base(seed)
    fixed = derive(cfg["coverage"], drop=("simulate",))
    micro = derive(cfg["microwave"], drop=("sweep",))
    settings = [
        ("cov_fixed_2db", fixed, "loss_db", 2, 0.01, 20000, 700),
        ("cov_fixed_6db", fixed, "loss_db", 6, 0.05, 5000, 2500),
        ("cov_fixed_12db", fixed, "loss_db", 12, 0.02, 50000, 280),
        ("cov_mw_44mm", micro, "distance", "4.4 cm", 0.01, 20000, 700),
        ("cov_mw_100mm", micro, "distance", "10 cm", 0.05, 10000, 1400),
    ]
    invs = []
    for j, (name, sections, key, x, eps_pe, pulses, rounds) in \
            enumerate(settings):
        invs.append(Invocation(
            name=name, command="coverage", fmt="json", seed=base + j,
            items_are_pulses=True,
            sections=derive(sections, **{f"point__{key}": x},
                            coverage__rounds=rounds, coverage__pulses=pulses,
                            coverage__eps_pe=eps_pe)))
    for j, (name, sections) in enumerate((("sim_fixed_1e6", fixed),
                                          ("sim_mw_1e6", micro)),
                                         start=len(settings)):
        invs.append(Invocation(
            name=name, command="simulate", fmt="json", seed=base + j,
            items_are_pulses=True,
            sections=derive(sections, drop=("coverage",),
                            simulate__pulses=1000000)))
    assert len(invs) < COVERAGE_STRIDE
    return Workload("coverage", invs, setup_samples=6)


BUILDERS = {"curves": _curves, "points": _points, "coverage": _coverage}

SHIPPED = ("coverage", "fiber_fixed_loss", "microwave", "mobile",
           "wireless_fixed", "wireless_general")


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Generate the workload's scenario files into workdir."""
    cfg = {n: load_config(root / "configs" / f"{n}.ini") for n in SHIPPED}
    workload = BUILDERS[name](cfg, seed)
    names = [inv.name for inv in workload.invocations]
    if len(set(names)) != len(names):
        raise ValueError("invocation names must be unique")
    for inv in workload.invocations:
        (workdir / inv.config_name).write_text(render(inv.sections),
                                               encoding="utf-8")
    return workload
