"""Batch front-end: resolve a scenario file, evaluate single points, sweeps,
or simulator experiments, and emit CSV/JSON rows with full provenance.

Exit codes: 0 all points evaluated, 2 some points failed (NaN rows carry the
reason), 1 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict
from numbers import Integral

from . import __version__
from .channel import (
    BeamConfig,
    FadingModel,
    diffraction_transmissivity,
    microwave_transmissivity,
)
from .config import ConfigError, Scenario, resolve_scenario
from .finite_size import (
    background_bound,
    composable_rate,
    composable_rate_general,
    general_attack_extension,
    mobile_worst_case,
    total_epsilon,
    worst_case_estimators,
)
from .noise import setup_noise_from_thetas
from .rates import (
    ChannelPoint,
    SecurityType,
    TrustLevel,
    asymptotic_rate,
    holevo_los_from_coefficients,
    microwave_los_cm,
    mutual_information,
    plob_thermal_bound,
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


def _abscissa_name(scenario: Scenario) -> str:
    from .config import SWEEP_VARIABLE

    variable = SWEEP_VARIABLE[scenario.channel]
    return {"loss_db": "loss_db", "distance": "distance_m",
            "z_max": "z_max_m"}[variable]


def scenario_echo(scenario: Scenario) -> dict:
    echo = {"channel": scenario.channel, "nu_det": scenario.nu_det,
            "lo": scenario.lo_kind, "trust": scenario.trust,
            "security": scenario.security, "attack": scenario.attack,
            "improved_aep": scenario.improved_aep,
            "physics": dict(sorted(scenario.physics.items())),
            "protocol": asdict(scenario.params),
            "derived": dict(sorted(scenario.derived.items()))}
    if scenario.channel == "optical-mobile":
        echo["f_th"] = scenario.f_th
        echo["bins"] = scenario.bins
    return echo


def scenario_hash(scenario: Scenario) -> str:
    blob = json.dumps(scenario_echo(scenario), sort_keys=True).encode()
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
        beam = BeamConfig(wavelength=p["lambda"], waist=p["w0"])
        fading = FadingModel.from_geometry(beam, x, p["a_r"], p["sigma_p"],
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
        beam = BeamConfig(wavelength=p["lambda"], waist=p["w0"])
        eta_ch = diffraction_transmissivity(beam, x, p["a_r"],
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


def _finite_rate(scenario: Scenario, r_pe: float, p_delta: float) -> tuple:
    """Composable rate and the epsilon column for the configured attack."""
    prm = scenario.params
    if scenario.attack == "general":
        terms = general_attack_extension(prm, (prm.mu - 1.0) / 2.0,
                                         total_epsilon(prm), p_delta=p_delta)
        rate = composable_rate_general(r_pe, prm, terms, p_delta=p_delta,
                                       improved_prefactor=scenario.improved_aep)
        return rate, terms.eps_prime
    rate = composable_rate(r_pe, prm, p_delta=p_delta,
                           improved_prefactor=scenario.improved_aep)
    return rate, total_epsilon(prm)


def _rate_row(scenario: Scenario, x: float) -> dict:
    """Rate row at abscissa x: model rate, worst-case rate, composable rate."""
    p = scenario.physics
    prm = scenario.params
    nu, sx2 = scenario.nu_det, scenario.sigma_x2
    trust = TrustLevel(scenario.trust)
    security = SecurityType(scenario.security)
    los_microwave = scenario.channel == "microwave" and security is SecurityType.LOS
    pt = _model_point(scenario, x)
    eta_ch, tau, warnings = pt["eta_ch"], pt["tau"], pt["warnings"]
    eta_eff = p["eta_eff"]
    asym, plob, p_delta, n_b_hi = NAN, NAN, 1.0, 0.0

    if scenario.channel == "optical-mobile":
        fs = pt["fs"]
        tau_lo, tau_hi, n_hi, n_b_hi = fs.tau_lb, NAN, fs.n_ub, fs.n_b_ub
        p_delta = fs.p_delta
    else:
        nbar = pt["nbar"]
        if scenario.channel == "microwave":
            model = ChannelPoint.from_estimates(tau, eta_eff, nbar, 0.0, nu, prm.mu)
        else:
            model = ChannelPoint(eta_ch=eta_ch, eta_eff=eta_eff, n_b=p["n_b"],
                                 n_ex=pt["n_ex"], nu_det=nu, mu=prm.mu)
        if los_microwave:
            asym = prm.beta * mutual_information(model) - \
                holevo_los_from_coefficients(*microwave_los_cm(tau, sx2, nbar), nu)
        else:
            asym = asymptotic_rate(model, trust, security, prm.beta).rate
        est = worst_case_estimators(tau, nbar, sx2, 2.0 * nbar + nu, nu * prm.m,
                                    prm.w)
        warnings.extend(est.warnings)
        tau_lo, tau_hi, n_hi = est.tau_lo, est.tau_hi, est.n_hi
        if scenario.channel != "microwave" and scenario.trust != 3:
            # the best-case setup share sits at the bound that minimises it
            n_ex_bc = setup_noise_from_thetas(
                scenario.derived["theta_el"], scenario.derived["theta_ph"],
                scenario.lo_kind, est.tau_hi if scenario.lo_kind == "tlo" else tau_lo)
            n_b_hi, floored = background_bound(n_hi, n_ex_bc, eta_eff)
            if floored:
                warnings.append("n_b_hi_floored")

    wc = ChannelPoint.from_estimates(tau_lo, eta_eff, n_hi,
                                     0.0 if scenario.trust == 3 else n_b_hi, nu,
                                     prm.mu)
    if los_microwave:
        mi = mutual_information(wc)
        chi = holevo_los_from_coefficients(
            *microwave_los_cm(tau_lo, sx2, est.n_lo), nu)
    else:
        rep = asymptotic_rate(wc, trust, security, prm.beta)
        mi, chi = rep.mutual_information, rep.holevo
    r_pe = prm.beta * mi - chi
    if scenario.channel == "microwave":
        tau_hi, plob = NAN, plob_thermal_bound(tau, nbar)

    rate_raw, epsilon = _finite_rate(scenario, r_pe, p_delta)
    return {"eta_ch": eta_ch, "tau": tau, "mi": mi, "chi": chi, "r_pe": r_pe,
            "rate_asym_raw": asym, "rate_raw": rate_raw, "plob": plob,
            "epsilon": epsilon, "p_delta": p_delta, "tau_lo": tau_lo,
            "tau_hi": tau_hi, "n_hi": n_hi, "warnings": ";".join(warnings),
            "reason": ""}


def _guarded_row(evaluate, columns: tuple, scenario: Scenario, x: float,
                 *args) -> dict:
    """evaluate(scenario, x, *args) with the abscissa column set; a failure
    becomes a NaN row whose reason names the exception."""
    try:
        row = evaluate(scenario, x, *args)
    except Exception as exc:  # per-point failures must not kill the sweep
        row = {col: NAN for col in columns}
        row["warnings"] = ""
        row["reason"] = f"{type(exc).__name__}: {exc}"
    row[_abscissa_name(scenario)] = x
    return row


def evaluate_rate_point(scenario: Scenario, x: float, clamp: bool) -> dict:
    """One complete rate row at abscissa x; failures become NaN rows."""
    row = _guarded_row(_rate_row, RATE_COLUMNS, scenario, x)
    row["rate_asym"] = _clamp(row["rate_asym_raw"]) if clamp \
        else row["rate_asym_raw"]
    row["rate"] = _clamp(row["rate_raw"]) if clamp else row["rate_raw"]
    return row


def _clamp(value: float) -> float:
    if isinstance(value, float) and math.isnan(value):
        return value
    return max(0.0, value)


def _mobile_noise_map(scenario: Scenario):
    """Per-pulse noise photons nbar(tau) of a mobile link."""
    p = scenario.physics
    background = p["eta_eff"] * p["n_b"]
    return lambda tau: background + setup_noise_from_thetas(
        scenario.derived["theta_el"], scenario.derived["theta_ph"],
        scenario.lo_kind, tau, p.get("n_other", 0.0))


def _dump_block(block, bins, path: str, tau_const: float = None) -> None:
    """Write one simulated block as CSV, one row per disclosed pair,
    formatting 1024 rows per write so that extra memory stays small."""
    import numpy as np

    tau = block.tau_samples if block.tau_samples is not None \
        else np.full(block.pairs, tau_const)
    pilot = block.pilot_mask if block.pilot_mask is not None \
        else np.zeros(block.pairs, dtype=bool)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("index,pilot_flag,x,y,tau_sample,bin\n")
        for start in range(0, block.pairs, 1024):
            stop = min(start + 1024, block.pairs)
            table = np.column_stack((np.arange(start, stop), pilot[start:stop],
                                     block.x[start:stop], block.y[start:stop],
                                     tau[start:stop], bins[start:stop]))
            handle.write("%d,%d,%.17g,%.17g,%.17g,%d\n" * (stop - start)
                         % tuple(table.ravel().tolist()))


def _simulation_row(scenario: Scenario, x: float, seed: int,
                    dump: str) -> dict:
    import numpy as np

    from .simulate import defade_block, simulate_block, simulate_fading_block

    pulses = scenario.simulate["pulses"]
    pt = _model_point(scenario, x)
    if scenario.channel == "optical-mobile":
        fs = pt["fs"]
        block = simulate_fading_block(
            pt["fading"], _mobile_noise_map(scenario), scenario.nu_det,
            scenario.sigma_x2, pulses, seed,
            pilot_rate=scenario.simulate.get("pilot_rate", 0.0))
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
        _dump_block(block, np.full(block.pairs, -1), dump, tau_const=tau)
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


def evaluate_simulation(scenario: Scenario, x: float, seed: int,
                        dump: str = None) -> dict:
    """Monte Carlo block at abscissa x against its model values."""
    columns = SIM_MOBILE_COLUMNS if scenario.channel == "optical-mobile" \
        else SIM_COLUMNS
    return _guarded_row(_simulation_row, columns, scenario, x, seed, dump)


def _coverage_row(scenario: Scenario, x: float, seed: int) -> dict:
    from .simulate import sufficient_statistics_coverage

    cov = scenario.coverage
    pt = _model_point(scenario, x)
    report = sufficient_statistics_coverage(
        pt["tau"], pt["nbar"], scenario.nu_det, scenario.sigma_x2,
        cov["pulses"], cov["rounds"], cov["eps_pe"], seed)
    return {**asdict(report), "pulses": cov["pulses"],
            "tau_low_rate": report.tau_low_rate,
            "tau_high_rate": report.tau_high_rate, "n_rate": report.n_rate,
            "warnings": ";".join(pt["warnings"]), "reason": ""}


def evaluate_coverage(scenario: Scenario, x: float, seed: int) -> dict:
    """Estimator-bound coverage experiment at abscissa x.

    A fading channel is a configuration error, raised before evaluation.
    """
    if scenario.channel == "optical-mobile":
        raise ConfigError("coverage applies to the constant-transmissivity "
                          "channels")
    return _guarded_row(_coverage_row, COVERAGE_COLUMNS, scenario, x, seed)


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
    return [evaluate_rate_point(scenario, x, clamp)
            for x in _sweep_grid(start, stop, points)]


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return str(int(value))
    return "%.17g" % float(value)


def emit_csv(rows: list, columns: tuple, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[col]) for col in columns])


def _json_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


def emit_json(rows: list, columns: tuple, scenario: Scenario, seed: int,
              command: str, out) -> None:
    payload = {
        "schema": RESULT_SCHEMA,
        "version": __version__,
        "command": command,
        "seed": seed,
        "scenario_hash": scenario_hash(scenario),
        "scenario": scenario_echo(scenario),
        "columns": list(columns),
        "rows": [[_json_cell(row[col]) for col in columns] for row in rows],
    }
    json.dump(payload, out, sort_keys=True, indent=1, allow_nan=False)
    out.write("\n")


def _emit(rows, base_columns, scenario, args, command) -> None:
    sc_hash = scenario_hash(scenario)
    for row in rows:
        row["scenario_hash"] = sc_hash
        row["seed"] = args.seed
        row["version"] = __version__
    columns = (_abscissa_name(scenario),) + tuple(base_columns) \
        + PROVENANCE_COLUMNS
    sink = open(args.out, "w", encoding="utf-8", newline="") if args.out \
        else io.StringIO()
    try:
        if args.format == "csv":
            emit_csv(rows, columns, sink)
        else:
            emit_json(rows, columns, scenario, args.seed, command, sink)
        if not args.out:
            sys.stdout.write(sink.getvalue())
    finally:
        if args.out:
            sink.close()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
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
            rows = [evaluate_simulation(scenario, _need_point(scenario),
                                        args.seed, dump=args.dump)]
            base = SIM_MOBILE_COLUMNS if scenario.channel == "optical-mobile" \
                else SIM_COLUMNS
        else:
            if scenario.coverage is None:
                raise ConfigError("the coverage command needs a [coverage] "
                                  "section")
            rows = [evaluate_coverage(scenario, _need_point(scenario),
                                      args.seed)]
            base = COVERAGE_COLUMNS
        _emit(rows, base, scenario, args, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if any(row.get("reason") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
