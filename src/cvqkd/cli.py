"""Batch front-end: resolve a scenario file, evaluate single points, sweeps,
or simulator experiments, and emit CSV/JSON rows with full provenance.

Rows are tuples of cells in column order, from the rate plan or simulator
to the writers; run_sweep and evaluate_rate_point give rate rows by column.

Exit codes: 0 all points evaluated, 2 some points failed (NaN rows carry the
reason), 1 configuration or usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from numbers import Integral

try:  # the built-in sha256 (3.12+, then 3.10-3.11): hashlib loads OpenSSL
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .channel import (
    FadingModel,
    diffraction_transmissivity,
    microwave_transmissivity,
)
from .config import SWEEP_VARIABLE, ConfigError, Scenario, resolve_scenario
from .finite_size import (
    background_bound,
    composable_terms,
    general_attack_extension,
    mobile_worst_case,
    sufficient_statistics_coverage,
    total_epsilon,
    window_bounds,
    worst_case_bounds,
)
from .noise import noise_map, setup_noise_from_thetas
from .rates import (
    check_point,
    estimated_point,
    microwave_los_holevo,
    plob_thermal_bound,
    point_holevo,
    point_mutual_information,
)

RESULT_SCHEMA = "cvqkd-results/1"

RATE_COLUMNS = ("eta_ch", "tau", "mi", "chi", "r_pe", "rate_asym_raw",
                "rate_asym", "rate_raw", "rate", "plob", "epsilon", "tau_lo",
                "tau_hi", "n_hi", "p_delta", "warnings", "reason")
SIM_COLUMNS = ("pulses", "m_p", "tau_model", "nbar_model", "tau_hat",
               "sigma_z2_hat", "n_hat", "tau_lo", "tau_hi", "n_hi",
               "warnings", "reason")
SIM_MOBILE_COLUMNS = ("pulses", "kept_pairs", "p_delta_model", "p_delta_emp",
                      "tau_min", "n_star_model", "defade_var_model", "tau_hat",
                      "n_hat", "defade_var", "warnings", "reason")
COVERAGE_COLUMNS = ("rounds", "pulses", "eps_pe", "w", "tau_low_failures",
                    "tau_high_failures", "n_failures", "tau_low_rate",
                    "tau_high_rate", "n_rate", "warnings", "reason")
PROVENANCE_COLUMNS = ("scenario_hash", "seed", "version")
# the closed list of codes a warnings cell may hold (README, "CLI")
WARNING_CODES = ("eta_ch_clamped", "tau_lo_floored", "tau_lb_floored")
# command -> the sections it reads, checked in this order
COMMAND_SECTIONS = {"rate": ("point",), "sweep": ("sweep",),
                    "simulate": ("simulate", "point"),
                    "coverage": ("coverage", "point")}

NAN = float("nan")

# channel -> name of the abscissa column
ABSCISSA = {channel: {"loss_db": "loss_db", "distance": "distance_m",
                      "z_max": "z_max_m"}[variable]
            for channel, variable in SWEEP_VARIABLE.items()}


def scenario_echo(scenario: Scenario) -> dict:
    prm = scenario.params
    echo = {"channel": scenario.channel, "nu_det": scenario.nu_det,
            "lo": scenario.lo_kind, "trust": scenario.trust,
            "security": scenario.security, "attack": scenario.attack,
            "improved_aep": scenario.improved_aep,
            "physics": dict(sorted(scenario.physics.items())),
            "protocol": {"n_total": prm.n_total, "m": prm.m, "beta": prm.beta,
                         "p_ec": prm.p_ec, "eps_pe": prm.eps_pe, "eps_s": prm.eps_s,
                         "eps_h": prm.eps_h, "eps_cor": prm.eps_cor, "mu": prm.mu,
                         "d": prm.d, "m_pl": prm.m_pl, "f_et": prm.f_et},
            "derived": dict(sorted(scenario.derived.items()))}
    if scenario.channel == "optical-mobile":
        echo["f_th"] = scenario.f_th
        echo["bins"] = scenario.bins
    return echo


def scenario_hash(scenario: Scenario, echo: dict = None) -> str:
    """sha256 prefix of the scenario echo; pass the echo if already built."""
    blob = json.dumps(echo or scenario_echo(scenario), sort_keys=True).encode()
    return sha256(blob).hexdigest()[:12]


def _model_point(scenario: Scenario, x: float) -> dict:
    """Model operating point at abscissa x.

    Every channel gives eta_ch, tau and the warnings raised so far. The
    constant channels add the model noise nbar (and the setup photons n_ex
    on optical links); optical-mobile adds the FadingModel, whose fading
    window its callers bound (finite_size.window_bounds for a rate row,
    mobile_worst_case for a simulated block).
    """
    p = scenario.physics
    eta_eff = p["eta_eff"]
    if scenario.channel == "optical-mobile":
        fading = FadingModel.from_geometry(scenario.beam, x, p["a_r"],
                                           p["sigma_p"],
                                           eta_eff, p.get("eta_atm", 1.0))
        return {"eta_ch": fading.eta / eta_eff, "tau": fading.eta,
                "fading": fading, "warnings": []}
    warnings = []
    if scenario.channel == "fixed-loss":
        eta_ch = 10.0 ** (-x / 10.0) / eta_eff
        if eta_ch > 1.0:
            eta_ch = 1.0
            warnings.append("eta_ch_clamped")
    elif scenario.channel == "optical-fixed":
        eta_ch = diffraction_transmissivity(scenario.beam, x, p["a_r"],
                                            p.get("eta_atm", 1.0))
    else:
        eta_ch = microwave_transmissivity(p["g"], p["a_r"], x)
    tau = eta_ch * eta_eff
    if scenario.channel == "microwave":
        return {"eta_ch": eta_ch, "tau": tau, "nbar": scenario.derived["n_th"],
                "warnings": warnings}
    n_ex = setup_noise_from_thetas(scenario.derived["theta_el"],
                                   scenario.derived["theta_ph"],
                                   scenario.lo_kind, tau,
                                   n_other=p.get("n_other", 0.0))
    return {"eta_ch": eta_ch, "tau": tau, "n_ex": n_ex,
            "nbar": eta_eff * p["n_b"] + n_ex, "warnings": warnings}


def _window_args(scenario: Scenario) -> dict:
    """The keyword arguments of window_bounds that a mobile scenario fixes;
    mobile_worst_case takes them too, with n_b and n_other in place of the
    noise law that window_bounds takes from _mobile_noise_map."""
    derived = scenario.derived
    return {"th_el": derived["theta_el"], "th_ph": derived["theta_ph"],
            "lo_kind": scenario.lo_kind, "eta_eff": scenario.physics["eta_eff"],
            "sigma_x2": scenario.sigma_x2, "nu_det": scenario.nu_det,
            "f_th": scenario.f_th}


def _mobile_noise_map(scenario: Scenario):
    """Per-pulse noise photons nbar(tau) of a mobile link: noise.noise_map at
    the scenario's values, the law of the fading window's bounds, bound once
    per rate plan."""
    p = scenario.physics
    return noise_map(scenario.derived["theta_el"], scenario.derived["theta_ph"],
                     scenario.lo_kind, p["eta_eff"], p["n_b"], p.get("n_other", 0.0))


def _rate_plan(scenario: Scenario, clamp: bool):
    """x -> rate row, its cells in the order of the abscissa and RATE_COLUMNS:
    model rate, worst-case rate, composable rate, clamped at 0 if clamp. Every
    scenario-level quantity is resolved here, once per rate or sweep call; a
    row runs _model_point, then the scalar kernels of rates and finite_size
    on its model and worst-case point fields, with ChannelPoint's checks."""
    p, prm = scenario.physics, scenario.params
    channel, trust, los = scenario.channel, scenario.trust, scenario.security == "los"
    mobile, microwave = channel == "optical-mobile", channel == "microwave"
    eta_eff, n_b, nu, mu, beta = (p["eta_eff"], p.get("n_b", 0.0),
                                  scenario.nu_det, prm.mu, prm.beta)
    sx2, m_p, w = scenario.sigma_x2, nu * prm.m, prm.w
    th_el, th_ph = scenario.derived.get("theta_el"), scenario.derived.get("theta_ph")
    split_noise = not (mobile or microwave) and trust != 3
    eps_total, n_transmit = total_epsilon(prm), (mu - 1.0) / 2.0
    window = functools.partial(window_bounds, prm, noise=_mobile_noise_map(scenario),
                               **_window_args(scenario)) if mobile else None

    # at the first row that reaches it, so that a fault fails rows where it
    # arises; the constant channels evaluate it once, at p_Delta = 1, and a
    # mobile sweep, whose p_Delta moves with every row, keeps only the last
    @functools.lru_cache(maxsize=1)
    def finite(p_delta: float) -> tuple:
        """The composable_terms of the configured attack and the epsilon column."""
        terms = None
        if scenario.attack == "general":
            terms = general_attack_extension(prm, n_transmit, eps_total, p_delta=p_delta)
        return (*composable_terms(prm, p_delta, scenario.improved_aep, terms),
                eps_total if terms is None else terms.eps_prime)

    def chi_of(point: tuple, n_th: float) -> float:
        if microwave and los:
            return microwave_los_holevo(point[0] * eta_eff, sx2, n_th, nu)
        return point_holevo(*point, trust, los)

    def row(x: float) -> tuple:
        pt = _model_point(scenario, x)
        eta_ch, tau, warnings = pt["eta_ch"], pt["tau"], pt["warnings"]
        asym, plob, p_delta, n_b_hi, n_lo = NAN, NAN, 1.0, 0.0, NAN
        if mobile:
            _, p_delta, tau_lo, n_hi, n_b_hi, codes = window(pt["fading"])
            tau_hi = NAN
            warnings.extend(codes)
        else:
            nbar = pt["nbar"]
            if microwave:
                model = estimated_point(tau, eta_eff, nbar, 0.0, nu, mu)
            else:
                model = (eta_ch, eta_eff, n_b, pt["n_ex"], nu, mu)
                check_point(*model)
            chi = chi_of(model, nbar)
            asym = beta * point_mutual_information(*model) - chi
            tau_lo, tau_hi, n_hi, n_lo, floored = worst_case_bounds(
                tau, nbar, sx2, 2.0 * nbar + nu, m_p, w)
            if floored:
                warnings.append("tau_lo_floored")
            if split_noise:
                n_b_hi = background_bound(n_hi, th_el, th_ph, scenario.lo_kind,
                                          tau_lo, tau_hi, eta_eff)

        wc = estimated_point(tau_lo, eta_eff, n_hi, 0.0 if trust == 3 else n_b_hi,
                             nu, mu)
        chi = chi_of(wc, n_lo)
        mi = point_mutual_information(*wc)
        r_pe = beta * mi - chi
        if microwave:
            # the ceiling is unbounded at tau = 1, and JSON has no inf
            tau_hi, plob = NAN, plob_thermal_bound(tau, nbar) if tau < 1.0 else NAN

        prefactor, aep, tail, epsilon = finite(p_delta)
        rate = prefactor * (r_pe - aep + tail)
        # a clamped rate is max(0, rate), NaN passing through
        return (x, eta_ch, tau, mi, chi, r_pe, asym,
                0.0 if clamp and asym <= 0.0 else asym, rate,
                0.0 if clamp and rate <= 0.0 else rate, plob, epsilon, tau_lo,
                tau_hi, n_hi, p_delta, ";".join(warnings), "")

    return row


def _guarded_row(evaluate, columns: tuple, x: float) -> tuple:
    """evaluate(x), the cells of the abscissa and columns; a failure becomes
    a NaN row whose reason names the exception."""
    try:
        return evaluate(x)
    except OSError:  # an unwritable --dump path is a usage error (exit 1)
        raise
    except Exception as exc:  # per-point failures must not kill the sweep
        return (x, *[NAN] * (len(columns) - 2), "", f"{type(exc).__name__}: {exc}")


def _rate_rows(scenario: Scenario, grid, clamp: bool) -> list:
    """Rate rows at the abscissae of grid, from one rate plan."""
    plan = _rate_plan(scenario, clamp)
    return [_guarded_row(plan, RATE_COLUMNS, x) for x in grid]


def evaluate_rate_point(scenario: Scenario, x: float, clamp: bool) -> dict:
    """One complete rate row at abscissa x, by column; failures become NaN rows."""
    return dict(zip((ABSCISSA[scenario.channel], *RATE_COLUMNS),
                    _rate_rows(scenario, (x,), clamp)[0]))


def _dump_block(path: str, write):
    """write(handle) on the binary file at path, the dump of a block; a row that
    fails (ValueError, ArithmeticError) removes the file if this call made it."""
    existed = os.path.lexists(path)
    try:
        with open(path, "wb") as handle:
            return write(handle)
    except (ValueError, ArithmeticError):
        if not existed and os.path.isfile(path):
            os.remove(path)
        raise


def _simulation_row(scenario: Scenario, x: float, seed: int,
                    dump: str) -> tuple:
    from .simulate import simulate_estimators, simulate_fading_estimators

    pulses, nu = scenario.simulate["pulses"], scenario.nu_det
    pt = _model_point(scenario, x)
    if scenario.channel == "optical-mobile":
        p = scenario.physics
        fs = mobile_worst_case(scenario.params, pt["fading"], n_b=p["n_b"],
                               n_other=p.get("n_other", 0.0), bins=scenario.bins,
                               **_window_args(scenario))

        def row(handle) -> tuple:
            snap, kept, defade_var = simulate_fading_estimators(
                pt["fading"], fs, nu, scenario.sigma_x2, pulses, seed,
                scenario.simulate.get("pilot_rate", 0.0), handle)
            return (x, pulses, kept, fs.p_delta, kept / (nu * pulses), fs.lattice.tau_min,
                    fs.n_star, fs.lattice.tau_min * scenario.sigma_x2 + 2.0 * fs.n_star + nu,
                    snap.tau_hat, snap.n_hat, defade_var, ";".join(fs.warnings), "")
    else:
        tau, nbar, warnings = pt["tau"], pt["nbar"], pt["warnings"]

        def row(handle) -> tuple:
            snap = simulate_estimators(tau, nbar, nu, scenario.sigma_x2, pulses, seed, handle)
            tau_lo, tau_hi, n_hi, _, floored = worst_case_bounds(
                snap.tau_hat, max(snap.n_hat, 0.0), scenario.sigma_x2, snap.sigma_z2_hat,
                snap.m_p, scenario.params.w)
            if floored:
                warnings.append("tau_lo_floored")
            return (x, pulses, snap.m_p, tau, nbar, snap.tau_hat, snap.sigma_z2_hat,
                    snap.n_hat, tau_lo, tau_hi, n_hi, ";".join(warnings), "")
    return _dump_block(dump, row) if dump else row(None)


def _coverage_row(scenario: Scenario, x: float, seed: int) -> tuple:
    cov = scenario.coverage
    pt = _model_point(scenario, x)
    report = sufficient_statistics_coverage(
        pt["tau"], pt["nbar"], scenario.nu_det, scenario.sigma_x2,
        cov["pulses"], cov["rounds"], cov["eps_pe"], seed)
    return (x, report.rounds, cov["pulses"], report.eps_pe, report.w,
            report.tau_low_failures, report.tau_high_failures, report.n_failures,
            report.tau_low_rate, report.tau_high_rate, report.n_rate,
            ";".join(pt["warnings"]), "")


def _sweep_grid(start: float, stop: float, points: int) -> list:
    """numpy.linspace(start, stop, points), bit for bit, by its own formula:
    start + i * step (i / div * delta where step underflows to 0), with the
    last point set to stop."""
    div = max(points - 1, 1)
    delta = stop - start
    step = delta / div
    grid = [(i * step if step else i / div * delta) + start
            for i in range(points)]
    if points > 1:
        grid[-1] = stop
    return grid


def _grid(scenario: Scenario, command: str) -> list:
    """The abscissae of a command: the [sweep] grid, or the one [point]."""
    for section in COMMAND_SECTIONS[command]:
        if getattr(scenario, section) is None:
            raise ConfigError(f"the {command} command needs a [{section}] section "
                              "(rule: command-needs-section)")
    if command != "sweep":
        return [scenario.point[1]]
    _, start, stop, points = scenario.sweep
    return _sweep_grid(start, stop, points)


def run_sweep(scenario: Scenario, clamp: bool) -> list:
    """Rate rows over the configured grid, in abscissa order, by column."""
    columns = (ABSCISSA[scenario.channel], *RATE_COLUMNS)
    return [dict(zip(columns, row))
            for row in _rate_rows(scenario, _grid(scenario, "sweep"), clamp)]


def _format_cell(value) -> str:
    """One CSV cell. A string is quoted by csv's QUOTE_MINIMAL rule for a
    CR LF line terminator: if it holds a comma, a double quote, a line feed
    or a carriage return, with its quotes doubled. An integer prints as
    one, anything else as %.17g."""
    if isinstance(value, str):
        if "," in value or '"' in value or "\n" in value or "\r" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return str(int(value))
    return "%.17g" % float(value)


def emit_csv(rows: list, columns: tuple, out, provenance: dict) -> None:
    """Header and one line per row of cells, in one write. Each row type
    signature gets one %-template: %.17g for a float cell, %s of _format_cell
    for any other. The provenance cells, the same on every row, follow the
    columns and are formatted once, into the templates."""
    tail = "".join("," + _format_cell(v) for v in provenance.values()) + "\n"
    lines = [",".join(map(_format_cell, (*columns, *provenance))) + "\n"]
    templates = {}
    for row in rows:
        shape = tuple(map(type, row))
        if shape not in templates:
            templates[shape] = (",".join("%.17g" if t is float else "%s" for t in shape)
                                + tail.replace("%", "%%"),
                                [i for i, t in enumerate(shape) if t is not float])
        template, text = templates[shape]
        cells = list(row)
        for i in text:
            cells[i] = _format_cell(cells[i])
        lines.append(template % tuple(cells))
    out.write("".join(lines))


def _json_cell(value):
    if type(value) is float:  # JSON has no NaN or infinity: they become null
        return value if math.isfinite(value) else None
    if isinstance(value, str):
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    value = float(value)
    return value if math.isfinite(value) else None


def _json_echo(value):
    """The scenario echo with each non-finite float null, as _json_cell does
    for rows; scenario_hash keeps hashing the echo itself."""
    if isinstance(value, dict):
        return {key: _json_echo(item) for key, item in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def emit_json(rows: list, columns: tuple, echo: dict, provenance: dict,
              command: str, out) -> None:
    """The JSON document; each row ends with the provenance cells."""
    tail = [_json_cell(v) for v in provenance.values()]
    payload = {
        "schema": RESULT_SCHEMA,
        "version": provenance["version"],
        "command": command,
        "seed": provenance["seed"],
        "scenario_hash": provenance["scenario_hash"],
        "scenario": _json_echo(echo),
        "columns": [*columns, *provenance],
        "rows": [[*map(_json_cell, row), *tail] for row in rows],
    }
    json.dump(payload, out, sort_keys=True, indent=1, allow_nan=False)
    out.write("\n")


def _emit(rows, base_columns, scenario, args, command) -> None:
    echo = scenario_echo(scenario)
    provenance = dict(zip(PROVENANCE_COLUMNS, (scenario_hash(scenario, echo),
                                               args.seed, __version__)))
    columns = (ABSCISSA[scenario.channel], *base_columns)
    sink = open(args.out, "w", encoding="utf-8", newline="") if args.out \
        else io.StringIO()
    try:
        if args.format == "csv":
            emit_csv(rows, columns, sink, provenance)
        else:
            emit_json(rows, columns, echo, provenance, command, sink)
        if not args.out:
            sys.stdout.write(sink.getvalue())
    finally:
        if args.out:
            sink.close()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{message} (rule: usage)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing is stateless)."""
    parser = _Parser(prog="cvqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("rate", "evaluate the configured [point]"),
                       ("sweep", "evaluate the configured [sweep]"),
                       ("simulate", "Monte Carlo block at the [point]"),
                       ("coverage", "estimator-bound coverage at the [point]")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--seed", type=int, default=0)
    sub.choices["sweep"].add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; has no effect (sweeps run in one process)")
    sub.choices["simulate"].add_argument(
        "--dump", default=None, metavar="PATH",
        help="write the raw simulated pairs (index, pilot_flag, x, y, "
             "tau_sample, bin) as CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with open(args.config, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"cannot read {args.config} as UTF-8: {exc} "
                                  "(rule: config-encoding)") from exc
        scenario = resolve_scenario(text)
        grid = _grid(scenario, args.command)
        mobile = scenario.channel == "optical-mobile"
        if args.command in ("rate", "sweep"):
            evaluate, base = _rate_plan(scenario, True), RATE_COLUMNS
        elif args.command == "simulate":
            evaluate = functools.partial(_simulation_row, scenario, seed=args.seed,
                                         dump=args.dump)
            base = SIM_MOBILE_COLUMNS if mobile else SIM_COLUMNS
        elif mobile:  # coverage on a fading link
            raise ConfigError("coverage applies to the constant-transmissivity "
                              "channels (rule: coverage-constant-channel)")
        else:
            evaluate = functools.partial(_coverage_row, scenario, seed=args.seed)
            base = COVERAGE_COLUMNS
        rows = [_guarded_row(evaluate, base, x) for x in grid]
        _emit(rows, base, scenario, args, args.command)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if any(row[-1] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
