"""Batch front-end: resolve a scenario file, evaluate single points, sweeps,
or simulator experiments, and emit CSV/JSON rows with full provenance.

Exit codes: 0 all points evaluated, 2 some points failed (NaN rows carry the
reason), 1 configuration or usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
from numbers import Integral

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
    worst_case_bounds,
    worst_case_estimators,
)
from .noise import setup_noise_from_thetas
from .rates import (
    SecurityType,
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
WARNING_CODES = ("eta_ch_clamped", "tau_lo_floored", "n_b_hi_floored",
                 "tau_lb_floored", "n_b_ub_floored")

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
    return hashlib.sha256(blob).hexdigest()[:12]


def _model_point(scenario: Scenario, x: float) -> dict:
    """Model operating point at abscissa x.

    Every channel gives eta_ch, tau and the warnings raised so far. The
    constant channels add the model noise nbar (and the setup photons n_ex
    on optical links); optical-mobile adds the FadingModel and its
    worst-case FadingEstimatorSet "fs" over the post-selection window.
    """
    p = scenario.physics
    eta_eff = p["eta_eff"]
    if scenario.channel == "optical-mobile":
        fading = FadingModel.from_geometry(scenario.beam, x, p["a_r"],
                                           p["sigma_p"],
                                           eta_eff, p.get("eta_atm", 1.0))
        fs = mobile_worst_case(scenario.params, fading,
                               scenario.derived["theta_el"],
                               scenario.derived["theta_ph"], scenario.lo_kind,
                               eta_eff, p["n_b"], scenario.sigma_x2,
                               scenario.nu_det, f_th=scenario.f_th,
                               bins=scenario.bins,
                               n_other=p.get("n_other", 0.0))
        return {"eta_ch": fading.eta / eta_eff, "tau": fading.eta,
                "fading": fading, "fs": fs, "warnings": list(fs.warnings)}
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


def _rate_plan(scenario: Scenario):
    """x -> rate row: model rate, worst-case rate, composable rate. Every
    scenario-level quantity is resolved here, once per rate or sweep call; a
    row runs _model_point, then the scalar kernels of rates and finite_size
    on its model and worst-case point fields, with ChannelPoint's checks."""
    p, prm = scenario.physics, scenario.params
    channel, trust = scenario.channel, scenario.trust_level
    mobile, microwave = channel == "optical-mobile", channel == "microwave"
    los = scenario.security_type is SecurityType.LOS
    eta_eff, n_b, nu, mu, beta = (p["eta_eff"], p.get("n_b", 0.0),
                                  scenario.nu_det, prm.mu, prm.beta)
    sx2, m_p, w = scenario.sigma_x2, nu * prm.m, prm.w
    th_el, th_ph = scenario.derived.get("theta_el"), scenario.derived.get("theta_ph")
    split_noise = not (mobile or microwave) and trust != 3
    eps_total, n_transmit = total_epsilon(prm), (mu - 1.0) / 2.0

    # at the first row that reaches it, so that a fault fails rows where it
    # arises; the constant channels evaluate it once, at p_Delta = 1
    @functools.cache
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

    def row(x: float) -> dict:
        pt = _model_point(scenario, x)
        eta_ch, tau, warnings = pt["eta_ch"], pt["tau"], pt["warnings"]
        asym, plob, p_delta, n_b_hi, n_lo = NAN, NAN, 1.0, 0.0, NAN
        if mobile:
            fs = pt["fs"]
            tau_lo, tau_hi, n_hi, n_b_hi = fs.tau_lb, NAN, fs.n_ub, fs.n_b_ub
            p_delta = fs.p_delta
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
                # the best-case setup share sits at the bound that minimises it
                n_ex_bc = setup_noise_from_thetas(th_el, th_ph, scenario.lo_kind,
                                                  tau_hi if scenario.lo_kind == "tlo"
                                                  else tau_lo)
                n_b_hi, floored = background_bound(n_hi, n_ex_bc, eta_eff)
                if floored:
                    warnings.append("n_b_hi_floored")

        wc = estimated_point(tau_lo, eta_eff, n_hi, 0.0 if trust == 3 else n_b_hi,
                             nu, mu)
        chi = chi_of(wc, n_lo)
        mi = point_mutual_information(*wc)
        r_pe = beta * mi - chi
        if microwave:
            # the ceiling is unbounded at tau = 1, and JSON has no inf
            tau_hi, plob = NAN, plob_thermal_bound(tau, nbar) if tau < 1.0 else NAN

        prefactor, aep, tail, epsilon = finite(p_delta)
        return {"eta_ch": eta_ch, "tau": tau, "mi": mi, "chi": chi, "r_pe": r_pe,
                "rate_asym_raw": asym, "rate_raw": prefactor * (r_pe - aep + tail),
                "plob": plob, "epsilon": epsilon, "p_delta": p_delta,
                "tau_lo": tau_lo, "tau_hi": tau_hi, "n_hi": n_hi,
                "warnings": ";".join(warnings), "reason": ""}

    return row


def _guarded_row(evaluate, columns: tuple, scenario: Scenario, x: float) -> dict:
    """evaluate(x) with the abscissa column set; a failure becomes a NaN row
    whose reason names the exception."""
    try:
        row = evaluate(x)
    except OSError:  # an unwritable --dump path is a usage error (exit 1)
        raise
    except Exception as exc:  # per-point failures must not kill the sweep
        row = {col: NAN for col in columns}
        row["warnings"] = ""
        row["reason"] = f"{type(exc).__name__}: {exc}"
    row[ABSCISSA[scenario.channel]] = x
    return row


def _rate_rows(scenario: Scenario, grid, clamp: bool) -> list:
    """Rate rows at the abscissae of grid, from one rate plan."""
    plan = _rate_plan(scenario)
    rows = [_guarded_row(plan, RATE_COLUMNS, scenario, x) for x in grid]
    for row in rows:
        for raw, column in (("rate_asym_raw", "rate_asym"), ("rate_raw", "rate")):
            row[column] = _clamp(row[raw]) if clamp else row[raw]
    return rows


def evaluate_rate_point(scenario: Scenario, x: float, clamp: bool) -> dict:
    """One complete rate row at abscissa x; failures become NaN rows."""
    return _rate_rows(scenario, (x,), clamp)[0]


def _clamp(value: float) -> float:
    """max(0, value), NaN passing through."""
    return 0.0 if value <= 0.0 else value


def _mobile_noise_map(scenario: Scenario):
    """Per-pulse noise photons nbar(tau) of a mobile link: the rows use the
    same law as FadingEstimatorSet.noise; gate criterion 7 imports this one."""
    p = scenario.physics
    background = p["eta_eff"] * p["n_b"]
    return lambda tau: background + setup_noise_from_thetas(
        scenario.derived["theta_el"], scenario.derived["theta_ph"],
        scenario.lo_kind, tau, p.get("n_other", 0.0))


def _dump_block(block, bins, path: str, tau_const: float = None) -> None:
    """Write one simulated block as CSV, one row per disclosed pair."""
    from .simulate import write_dump

    with open(path, "wb") as handle:
        write_dump(handle, block.pilot_mask, block.x, block.y, tau_const
                   if block.tau_samples is None else block.tau_samples, bins)


def _simulation_row(scenario: Scenario, x: float, seed: int,
                    dump: str) -> dict:
    import numpy as np

    from .simulate import defade_block, simulate_block, simulate_fading_block

    pulses = scenario.simulate["pulses"]
    pt = _model_point(scenario, x)
    if scenario.channel == "optical-mobile":
        fs = pt["fs"]
        block = simulate_fading_block(
            pt["fading"], fs.noise, scenario.nu_det, scenario.sigma_x2, pulses,
            seed, pilot_rate=scenario.simulate.get("pilot_rate", 0.0))
        if dump:
            _dump_block(block, fs.lattice.assign(block.tau_samples), dump)
        faded = defade_block(block, fs.lattice, seed + 1)
        snap = faded.estimators()
        keep = slice(None) if faded.pilot_mask is None else ~faded.pilot_mask
        return {"pulses": pulses, "kept_pairs": faded.pairs,
                "p_delta_model": fs.p_delta,
                "p_delta_emp": faded.pairs / block.pairs,
                "tau_min": fs.lattice.tau_min, "n_star_model": fs.n_star,
                "defade_var_model": fs.lattice.tau_min * scenario.sigma_x2
                + 2.0 * fs.n_star + scenario.nu_det,
                "tau_hat": snap.tau_hat, "n_hat": snap.n_hat,
                "defade_var": float(np.mean(faded.y[keep] ** 2)),
                "warnings": ";".join(pt["warnings"]), "reason": ""}
    tau, nbar, warnings = pt["tau"], pt["nbar"], pt["warnings"]
    block = simulate_block(tau, nbar, scenario.nu_det, scenario.sigma_x2,
                           pulses, seed)
    if dump:
        _dump_block(block, -1, dump, tau_const=tau)
    snap = block.estimators()
    est = worst_case_estimators(snap.tau_hat, max(snap.n_hat, 0.0),
                                scenario.sigma_x2, snap.sigma_z2_hat,
                                snap.m_p, scenario.params.w)
    warnings.extend(est.warnings)
    return {"pulses": pulses, "m_p": snap.m_p, "tau_model": tau,
            "nbar_model": nbar, "tau_hat": snap.tau_hat,
            "sigma_z2_hat": snap.sigma_z2_hat, "n_hat": snap.n_hat,
            "tau_lo": est.tau_lo, "tau_hi": est.tau_hi, "n_hi": est.n_hi,
            "warnings": ";".join(warnings), "reason": ""}


def _coverage_row(scenario: Scenario, x: float, seed: int) -> dict:
    cov = scenario.coverage
    pt = _model_point(scenario, x)
    report = sufficient_statistics_coverage(
        pt["tau"], pt["nbar"], scenario.nu_det, scenario.sigma_x2,
        cov["pulses"], cov["rounds"], cov["eps_pe"], seed)
    return {"rounds": report.rounds, "eps_pe": report.eps_pe, "w": report.w,
            "tau_low_failures": report.tau_low_failures,
            "tau_high_failures": report.tau_high_failures,
            "n_failures": report.n_failures, "pulses": cov["pulses"],
            "tau_low_rate": report.tau_low_rate,
            "tau_high_rate": report.tau_high_rate, "n_rate": report.n_rate,
            "warnings": ";".join(pt["warnings"]), "reason": ""}


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


def run_sweep(scenario: Scenario, clamp: bool) -> list:
    """Rate rows over the configured grid, in abscissa order, in one process."""
    if scenario.sweep is None:
        raise ConfigError("the sweep command needs a [sweep] section")
    _, start, stop, points = scenario.sweep
    return _rate_rows(scenario, _sweep_grid(start, stop, points), clamp)


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
    """Header and one line per row. The provenance cells, the same on every
    row, follow the columns and are formatted once."""
    tail = "".join("," + _format_cell(v) for v in provenance.values()) + "\n"
    out.write(",".join(map(_format_cell, (*columns, *provenance))) + "\n")
    for row in rows:
        out.write(",".join(["%.17g" % v if type(v) is float
                            else _format_cell(v)
                            for v in map(row.__getitem__, columns)]) + tail)


def _json_cell(value):
    if type(value) is float:
        return None if value != value else value
    if isinstance(value, str):
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


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
        "scenario": echo,
        "columns": [*columns, *provenance],
        "rows": [[_json_cell(row[col]) for col in columns] + tail
                 for row in rows],
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
        raise ConfigError(message)


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
        cmd.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; has no effect "
                              "(sweeps run in one process)")
        cmd.add_argument("--clamp", choices=("on", "off"), default="on")
    sub.choices["simulate"].add_argument(
        "--dump", default=None, metavar="PATH",
        help="write the raw simulated pairs (index, pilot_flag, x, y, "
             "tau_sample, bin) as CSV")
    return parser


def _need_point(scenario: Scenario) -> float:
    if scenario.point is None:
        raise ConfigError("this command needs a [point] section")
    return scenario.point[1]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with open(args.config, encoding="utf-8") as handle:
            scenario = resolve_scenario(handle.read())
        clamp = args.clamp == "on"
        if args.command == "rate":
            rows = [evaluate_rate_point(scenario, _need_point(scenario), clamp)]
            base = RATE_COLUMNS
        elif args.command == "sweep":
            rows = run_sweep(scenario, clamp)
            base = RATE_COLUMNS
        elif args.command == "simulate":
            if scenario.simulate is None:
                raise ConfigError("the simulate command needs a [simulate] "
                                  "section")
            base = SIM_MOBILE_COLUMNS if scenario.channel == "optical-mobile" \
                else SIM_COLUMNS
            rows = [_guarded_row(functools.partial(
                _simulation_row, scenario, seed=args.seed, dump=args.dump),
                base, scenario, _need_point(scenario))]
        else:
            if scenario.coverage is None:
                raise ConfigError("the coverage command needs a [coverage] "
                                  "section")
            x = _need_point(scenario)
            if scenario.channel == "optical-mobile":
                raise ConfigError("coverage applies to the constant-transmissivity "
                                  "channels")
            base = COVERAGE_COLUMNS
            rows = [_guarded_row(functools.partial(_coverage_row, scenario,
                                                   seed=args.seed),
                                 base, scenario, x)]
        _emit(rows, base, scenario, args, args.command)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if any(row.get("reason") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
