"""Reference implementations that the tests compare the shipped closed forms
against. No command calls them.

* `eve_joint_cm` builds Eve's Gaussian dilation (Weedbrook et al., Rev. Mod.
  Phys. 84, 621 (2012)) as explicit covariance matrices, and
  `_chi_from_conditioning` takes chi(E:y) from their symplectic spectra
  before and after Bob's measurement: the eigenvalue path that
  `cvqkd.rates.point_holevo` replaces with invariants.
* `CovarianceMatrix` validates a matrix and checks the bona fide condition.
* `fading_probability_quadrature` integrates the fading density that
  `cvqkd.channel.fading_probability` integrates in closed form.
* `rate_row_oracle` composes a rate row from ChannelPoint and RateReport
  records, one per point and rate (`asymptotic_rate`, `microwave_los_rate`,
  `composable_rate`), and bounds a mobile row's fading window through a
  FadingLattice with its own setup-noise terms (`_window_oracle`): the
  composition that the rate plan of `cvqkd.cli` replaces with scalar
  kernels and `cvqkd.finite_size.window_bounds`.
* `sufficient_statistics_oracle` draws each coverage round's (T_hat,
  sigma_z2_hat) from numpy's Philox chi-square and normal variates: the
  sampler that `cvqkd.finite_size._sufficient_statistics` replaces with
  standard-library draws.
* `simulate_block` draws a whole constant-channel block, x and the noise
  each chunk at once (`serial_normals`), and keeps it: the block that
  `cvqkd.simulate.simulate_estimators` reduces on threads, or in order in
  a `--dump` row's one pass.
* `empirical_estimators` reduces whole arrays of disclosed pairs over the
  SLICE-sized slices of a streamed row: the reference for the rows that
  `cvqkd.simulate.simulate_estimators` and `slice_estimators` reduce as
  they draw.
* `emit_csv_oracle` and `emit_json_oracle` write rows by column, one cell at
  a time: the writers that `cvqkd.cli.emit_csv` and `emit_json` replace with
  cell tuples and one %-template per row type signature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.integrate import quad

from cvqkd import Record
from cvqkd.channel import FadingModel, _log_ratio_density, fading_probability
from cvqkd.cli import (
    ABSCISSA,
    NAN,
    RATE_COLUMNS,
    RESULT_SCHEMA,
    _json_cell,
    _model_point,
)
from cvqkd.finite_size import (
    P_DELTA_MIN,
    FadingLattice,
    _check_block,
    composable_terms,
    general_attack_extension,
    total_epsilon,
    worst_case_bounds,
)
from cvqkd.gaussian import (
    I2,
    Z2,
    _as_matrix,
    entropic_h,
    symplectic_spectrum,
    two_mode_blocks,
)
from cvqkd.noise import setup_noise_from_thetas
from cvqkd.rates import (
    BONA_FIDE_TOL,
    ChannelPoint,
    TrustLevel,
    bob_variance,
    holevo_standard,
    microwave_los_holevo,
    plob_thermal_bound,
    point_holevo,
)
from cvqkd.simulate import (
    CHUNK,
    NOISE,
    SLICE,
    X,
    EstimatorSnapshot,
    SimBlock,
    chunk_sums,
    combine_chunks,
    map_chunks,
    stream_rng,
)

IDENTITY_GUARD = 1e-12


# --- covariance matrices ----------------------------------------------------

class CovarianceMatrix:
    """Validated covariance matrix wrapper.

    Symmetry is enforced on construction; the bona fide condition (every
    symplectic eigenvalue >= 1 - 1e-9) is checked only where a bona fide
    state is claimed, via :meth:`require_physical`. Conditional intermediates
    produced by measurements are not states and skip that check.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = _as_matrix(entries)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2

    def symplectic_spectrum(self) -> np.ndarray:
        return symplectic_spectrum(self.entries)

    def require_physical(self, tol: float = BONA_FIDE_TOL) -> "CovarianceMatrix":
        spectrum = self.symplectic_spectrum()
        if spectrum.min() < 1.0 - tol:
            raise ValueError(f"covariance matrix is not bona fide: min eigenvalue {spectrum.min()}")
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return f"CovarianceMatrix(n_modes={self.n_modes})"


def condition_on_homodyne(V_e, C, b: float) -> np.ndarray:
    """Eve's covariance matrix after Bob's homodyne of the q quadrature.

    V_e is Eve's reduced matrix, C the Bob-Eve cross block of shape
    (2, 2n_E), and b Bob's quadrature variance. The q-only projector
    Pi = diag(1, 0) makes the update V_e - (1/b) C^T Pi C.
    """
    V_e = _as_matrix(V_e)
    C = np.asarray(C, dtype=float)
    if b <= 0.0:
        raise ValueError("Bob variance must be positive")
    pi = np.diag([1.0, 0.0])
    return V_e - (C.T @ pi @ C) / b


def condition_on_heterodyne(V_e, C, b: float) -> np.ndarray:
    """Eve's covariance matrix after Bob's heterodyne: V_e - C^T C / (b + 1)."""
    V_e = _as_matrix(V_e)
    C = np.asarray(C, dtype=float)
    if b <= -1.0:
        raise ValueError("Bob variance must exceed -1")
    return V_e - (C.T @ C) / (b + 1.0)


# --- Eve's dilation ---------------------------------------------------------

@dataclass(frozen=True)
class EveState:
    """Eve's two output modes and their coupling to Bob's mode."""

    b: float
    omega: float
    gamma: float
    theta: float
    psi: float
    phi: float

    @property
    def v_eve(self):
        return two_mode_blocks(self.phi * I2, self.omega * I2, self.psi * Z2)

    @property
    def cross(self):
        return np.hstack([self.theta * I2, self.gamma * Z2])

    @property
    def joint(self):
        return two_mode_blocks(self.b * I2, self.v_eve, self.cross)


def eve_joint_cm(ch: ChannelPoint, trust: TrustLevel) -> EveState:
    """Assemble Eve's dilation for the requested trust level.

    This is the matrix path that `holevo_standard` replaces with
    invariants; it remains as the oracle of that closed form. Its entries
    grow like omega ~ 2 n_E / (1 - eta), so round-off ruins its spectra as
    eta -> 1. Raises for an identity channel (eta_ch = 1 for the passive
    level, tau = 1 otherwise), where the dilation degenerates.
    """
    trust = TrustLevel(trust)
    tau = ch.tau
    mu = ch.mu
    b = bob_variance(tau, ch.nbar, mu)
    if trust is TrustLevel.PASSIVE:
        if ch.eta_ch >= 1.0 - IDENTITY_GUARD:
            raise ValueError("identity channel: passive-Eve dilation undefined at eta_ch = 1")
        omega = 2.0 * ch.n_b / (1.0 - ch.eta_ch) + 1.0
        gamma = math.sqrt(ch.eta_eff * (1.0 - ch.eta_ch) * (omega ** 2 - 1.0))
        theta = math.sqrt(tau * (1.0 - ch.eta_ch)) * (omega - mu)
        psi = math.sqrt(ch.eta_ch * (omega ** 2 - 1.0))
        phi = ch.eta_ch * omega + (1.0 - ch.eta_ch) * mu
    else:
        if tau >= 1.0 - IDENTITY_GUARD:
            raise ValueError("identity channel: Eve dilation undefined at tau = 1")
        if trust is TrustLevel.TRUSTED_NOISE:
            omega = 2.0 * ch.eta_eff * ch.n_b / (1.0 - tau) + 1.0
        else:
            omega = 2.0 * ch.nbar / (1.0 - tau) + 1.0
        gamma = math.sqrt((1.0 - tau) * (omega ** 2 - 1.0))
        theta = math.sqrt(tau * (1.0 - tau)) * (omega - mu)
        psi = math.sqrt(tau * (omega ** 2 - 1.0))
        phi = tau * omega + (1.0 - tau) * mu
    return EveState(b=b, omega=omega, gamma=gamma, theta=theta, psi=psi, phi=phi)


def _chi_from_conditioning(v_eve, cross, b: float, nu_det: int) -> float:
    """chi(E:y) from the spectra of Eve's matrix before and after Bob's
    measurement (the eigenvalue oracle of `holevo_standard`)."""
    nu = symplectic_spectrum(v_eve)
    if nu_det == 1:
        cond = condition_on_homodyne(v_eve, cross, b)
    else:
        cond = condition_on_heterodyne(v_eve, cross, b)
    nu_cond = symplectic_spectrum(cond)
    return float(sum(map(entropic_h, nu)) - sum(map(entropic_h, nu_cond)))


# --- pointing-error fading --------------------------------------------------

def fading_probability_quadrature(tau_lo: float, tau_hi: float,
                                  fading: FadingModel) -> float:
    """Consistency path for `fading_probability`: integrate the pdf.

    Integrates the density of s = ln(eta/tau) over t = ln s. At short range
    nearly all the mass sits within an ulp of tau = eta (s ~ 1e-20), on an
    integrable spike of the density in s; in t it is a smooth bump.
    """
    if not 0.0 < tau_lo <= tau_hi <= fading.eta * (1.0 + 1e-12):
        raise ValueError("need 0 < tau_lo <= tau_hi <= eta")
    s_lo = math.log(fading.eta / min(tau_hi, fading.eta))
    s_hi = math.log(fading.eta / tau_lo)
    if s_hi <= s_lo:
        return 0.0

    def integrand(t: float) -> float:
        s = math.exp(t)
        return _log_ratio_density(s, fading) * s if s > 0.0 else 0.0

    val, _ = quad(integrand, math.log(s_lo) if s_lo > 0.0 else -math.inf,
                  math.log(s_hi), limit=400)
    return val


# --- the rate-row composition -----------------------------------------------

class RateReport(Record):
    def __init__(self, rate: float, mutual_information: float, holevo: float):
        self.__dict__.update(rate=rate, mutual_information=mutual_information,
                             holevo=holevo)


def mutual_information(ch: ChannelPoint) -> float:
    """Alice-Bob mutual information I = (nu_det/2) log2(1 + sigma_x^2/chi_n),
    with equivalent noise chi_n = (2 nbar + nu_det) / tau."""
    chi_noise = (2.0 * ch.nbar + ch.nu_det) / ch.tau
    return ch.nu_det / 2.0 * math.log2(1.0 + ch.sigma_x2 / chi_noise)


def holevo_los(ch: ChannelPoint, trust: TrustLevel) -> float:
    """Line-of-sight :func:`cvqkd.rates.point_holevo` of a ChannelPoint."""
    return point_holevo(ch.eta_ch, ch.eta_eff, ch.n_b, ch.n_ex, ch.nu_det, ch.mu,
                        TrustLevel(trust), los=True)


def holevo(ch: ChannelPoint, trust: TrustLevel, security: str) -> float:
    """chi(E:y) under the config's security, "standard" or "los"."""
    if security == "los":
        return holevo_los(ch, trust)
    return holevo_standard(ch, trust)


def _report(ch: ChannelPoint, beta: float, chi: float) -> RateReport:
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    mi = mutual_information(ch)
    return RateReport(rate=beta * mi - chi, mutual_information=mi, holevo=chi)


def asymptotic_rate(ch: ChannelPoint, trust: TrustLevel, security: str,
                    beta: float) -> RateReport:
    """R = beta * I(x:y) - chi(E:y), not clamped at zero."""
    return _report(ch, beta, holevo(ch, trust, security))


def microwave_los_rate(ch: ChannelPoint, n_th: float, beta: float) -> RateReport:
    """Line-of-sight rate of a thermal-modulated microwave link: I(x:y) of
    the point, and chi of the leakage mode at n_th thermal photons."""
    chi = microwave_los_holevo(ch.tau, ch.sigma_x2, n_th, ch.nu_det)
    return _report(ch, beta, chi)


def composable_rate(r_pe: float, params, p_delta: float = 1.0,
                    improved_prefactor: bool = False, terms=None) -> float:
    """R = (n p_Delta p_ec / N) [R_pe - Delta_aep / sqrt(n p_Delta)
    + (Theta - Phi) / (n p_Delta)] from the composable_terms."""
    prefactor, aep, tail = composable_terms(params, p_delta, improved_prefactor, terms)
    return prefactor * (r_pe - aep + tail)


def _finite_rate(scenario, r_pe: float, p_delta: float) -> tuple:
    """Composable rate and the epsilon column for the configured attack."""
    prm = scenario.params
    terms = None
    if scenario.attack == "general":
        terms = general_attack_extension(prm, (prm.mu - 1.0) / 2.0,
                                         total_epsilon(prm), p_delta=p_delta)
    rate = composable_rate(r_pe, prm, p_delta=p_delta,
                           improved_prefactor=scenario.improved_aep, terms=terms)
    return rate, total_epsilon(prm) if terms is None else terms.eps_prime


def _window_oracle(scenario, fading: FadingModel, warnings: list) -> tuple:
    """(tau_lb, n_ub, n_b_ub, p_Delta) of the mobile fading window
    [f_th eta, eta], its tau_lb floor appended to warnings: a FadingLattice, the
    worst- and best-case setup photons n_ex_wc and n_ex_bc (TLO at tau_min
    and 1, LLO at 1 and tau_min), worst_case_bounds at (tau_min, n_wc) with
    m_Delta = nu m p_Delta disclosed pairs, and n_b_ub = (n_ub - n_ex_bc) / eta_eff."""
    p, prm, nu = scenario.physics, scenario.params, scenario.nu_det
    th_el, th_ph = scenario.derived["theta_el"], scenario.derived["theta_ph"]
    lo_kind, tau_max = scenario.lo_kind, fading.eta
    if not 0.0 < scenario.f_th < 1.0:
        raise ValueError("f_th must lie in (0, 1)")
    if nu not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")
    lattice = FadingLattice(scenario.f_th * tau_max, tau_max, scenario.bins)
    tau_min = lattice.tau_min
    p_delta = fading_probability(tau_min, tau_max, fading)
    if p_delta < P_DELTA_MIN:
        raise ValueError("post-selection window has negligible probability; "
                         "reduce the range or lower f_th")
    tau_wc, tau_bc = (tau_min, 1.0) if lo_kind == "tlo" else (1.0, tau_min)
    n_ex_wc = setup_noise_from_thetas(th_el, th_ph, lo_kind, tau_wc,
                                      p.get("n_other", 0.0))
    n_ex_bc = setup_noise_from_thetas(th_el, th_ph, lo_kind, tau_bc)
    n_wc = p["eta_eff"] * p["n_b"] + n_ex_wc
    tau_lb, _, n_ub, _, floored = worst_case_bounds(
        tau_min, n_wc, scenario.sigma_x2, 2.0 * n_wc + nu, nu * prm.m * p_delta, prm.w)
    if floored:
        warnings.append("tau_lb_floored")
    return tau_lb, n_ub, (n_ub - n_ex_bc) / p["eta_eff"], p_delta


def _rate_row(scenario, x: float) -> dict:
    """Rate row at abscissa x: model rate, worst-case rate, composable rate."""
    p = scenario.physics
    prm = scenario.params
    nu, sx2 = scenario.nu_det, scenario.sigma_x2
    trust, security = scenario.trust, scenario.security
    los_microwave = scenario.channel == "microwave" and security == "los"
    pt = _model_point(scenario, x)
    eta_ch, tau, warnings = pt["eta_ch"], pt["tau"], pt["warnings"]
    eta_eff = p["eta_eff"]
    asym, plob, p_delta, n_b_hi, n_lo = NAN, NAN, 1.0, 0.0, NAN

    if scenario.channel == "optical-mobile":
        tau_lo, n_hi, n_b_hi, p_delta = _window_oracle(scenario, pt["fading"], warnings)
        tau_hi = NAN
    else:
        nbar = pt["nbar"]
        if scenario.channel == "microwave":
            model = ChannelPoint.from_estimates(tau, eta_eff, nbar, 0.0, nu, prm.mu)
        else:
            model = ChannelPoint(eta_ch=eta_ch, eta_eff=eta_eff, n_b=p["n_b"],
                                 n_ex=pt["n_ex"], nu_det=nu, mu=prm.mu)
        asym = (microwave_los_rate(model, nbar, prm.beta) if los_microwave
                else asymptotic_rate(model, trust, security, prm.beta)).rate
        tau_lo, tau_hi, n_hi, n_lo, floored = worst_case_bounds(
            tau, nbar, sx2, 2.0 * nbar + nu, nu * prm.m, prm.w)
        if floored:
            warnings.append("tau_lo_floored")
        if scenario.channel != "microwave" and scenario.trust != 3:
            # the best-case setup share sits at the bound that minimises it
            n_ex_bc = setup_noise_from_thetas(
                scenario.derived["theta_el"], scenario.derived["theta_ph"],
                scenario.lo_kind, tau_hi if scenario.lo_kind == "tlo" else tau_lo)
            n_b_hi = (n_hi - n_ex_bc) / eta_eff

    wc = ChannelPoint.from_estimates(tau_lo, eta_eff, n_hi,
                                     0.0 if scenario.trust == 3 else n_b_hi, nu,
                                     prm.mu)
    rep = microwave_los_rate(wc, n_lo, prm.beta) if los_microwave \
        else asymptotic_rate(wc, trust, security, prm.beta)
    mi, chi, r_pe = rep.mutual_information, rep.holevo, rep.rate
    if scenario.channel == "microwave":
        tau_hi, plob = NAN, plob_thermal_bound(tau, nbar) if tau < 1.0 else NAN

    rate_raw, epsilon = _finite_rate(scenario, r_pe, p_delta)
    return {"eta_ch": eta_ch, "tau": tau, "mi": mi, "chi": chi, "r_pe": r_pe,
            "rate_asym_raw": asym, "rate_raw": rate_raw, "plob": plob,
            "epsilon": epsilon, "p_delta": p_delta, "tau_lo": tau_lo,
            "tau_hi": tau_hi, "n_hi": n_hi, "warnings": ";".join(warnings),
            "reason": ""}


def rate_row_oracle(scenario, x: float, clamp: bool = False) -> dict:
    """The rate row at abscissa x as `cvqkd.cli.evaluate_rate_point` gives
    it, composed from one record per point, estimate and rate."""
    try:
        row = _rate_row(scenario, x)
    except Exception as exc:
        row = {col: NAN for col in RATE_COLUMNS}
        row["warnings"] = ""
        row["reason"] = f"{type(exc).__name__}: {exc}"
    row[ABSCISSA[scenario.channel]] = x
    row["rate_asym"] = _clamp(row["rate_asym_raw"]) if clamp else row["rate_asym_raw"]
    row["rate"] = _clamp(row["rate_raw"]) if clamp else row["rate_raw"]
    return row


def _clamp(value: float) -> float:
    """max(0, value), NaN passing through."""
    return 0.0 if value <= 0.0 else value


def sufficient_statistics_oracle(tau: float, nbar: float, nu_det: int,
                                 sigma_x2: float, pulses: int, rounds: int,
                                 seed: int) -> np.ndarray:
    """(rounds, 2) array of (T_hat, sigma_z2_hat) from the law of
    `_sufficient_statistics`, Sxx ~ sigma_x^2 chi^2(m), T_hat = sqrt(tau) +
    sigma_z N(0, 1) / sqrt(Sxx), RSS ~ sigma_z^2 chi^2(m - 1), with numpy's
    Philox stream (seed, 6 << 40) in place of the standard library."""
    from cvqkd.simulate import stream_rng

    m, sigma_z2 = nu_det * pulses, 2.0 * nbar + nu_det
    rng = stream_rng(seed, 6 << 40)
    sxx = sigma_x2 * rng.chisquare(m, rounds)
    t_hat = math.sqrt(tau) + np.sqrt(sigma_z2 / sxx) * rng.standard_normal(rounds)
    return np.column_stack((t_hat, sigma_z2 * rng.chisquare(m - 1, rounds) / m))


def serial_normals(seed: int, stream_base: int, scale, count: int) -> np.ndarray:
    """scale N(0, 1), count of them, as a plain serial loop over the
    CHUNK-sized index ranges, chunk [start, stop) drawn at once from stream
    stream_base + start."""
    out = np.empty(count)
    for start in range(0, count, CHUNK):
        stop = min(start + CHUNK, count)
        out[start:stop] = stream_rng(seed, stream_base + start).standard_normal(
            stop - start)
    return out * scale


def simulate_block(tau: float, nbar: float, nu_det: int, sigma_x2: float,
                   pulses: int, seed: int) -> SimBlock:
    """y = sqrt(tau) x + z with var x = sigma_x2, var z = 2 nbar + nu_det,
    nu_det pairs per pulse, kept whole (16 bytes per pair): x and z each
    drawn over the block from the pair streams (seed, X + start) and
    (seed, NOISE + start)."""
    _check_block(tau, nbar, nu_det, sigma_x2, pulses)
    pairs, sigma_z = nu_det * pulses, math.sqrt(2.0 * nbar + nu_det)
    x = serial_normals(seed, X, math.sqrt(sigma_x2), pairs)
    return SimBlock(x, math.sqrt(tau) * x + serial_normals(seed, NOISE, sigma_z, pairs), nu_det)


def empirical_estimators(x, y, nu_det: int) -> EstimatorSnapshot:
    """Maximum-likelihood estimates from disclosed quadrature pairs (arrays):
    T_hat = sum(xy)/sum(x^2), sigma_z2_hat the mean squared residual,
    tau_hat = T_hat^2 and n_hat = (sigma_z2_hat - nu_det)/2, by chunk_sums
    over the slices of a streamed simulate row, bit for bit, and combine_chunks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("x and y must be equal-length 1-d arrays with >= 2 entries")
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")
    return combine_chunks(map_chunks(lambda a, b: [
        chunk_sums(x[s:s + SLICE], y[s:s + SLICE]) for s in range(a, b, SLICE)],
        x.size), x.size, nu_det)


# --- the per-cell writers -----------------------------------------------------

def _format_cell_oracle(value) -> str:
    """One CSV cell: a string quoted as csv's QUOTE_MINIMAL quotes it, an
    integer as one, anything else as %.17g."""
    if isinstance(value, str):
        if "," in value or '"' in value or "\n" in value or "\r" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return str(int(value))
    return "%.17g" % float(value)


def emit_csv_oracle(rows: list, columns: tuple, out, provenance: dict) -> None:
    """Header and one line per row, rows as dicts by column, a write per line."""
    tail = "".join("," + _format_cell_oracle(v) for v in provenance.values()) + "\n"
    out.write(",".join(map(_format_cell_oracle, (*columns, *provenance))) + "\n")
    for row in rows:
        out.write(",".join(["%.17g" % v if type(v) is float
                            else _format_cell_oracle(v)
                            for v in map(row.__getitem__, columns)]) + tail)


def emit_json_oracle(rows: list, columns: tuple, echo: dict, provenance: dict,
                     command: str, out) -> None:
    """The JSON document, rows as dicts by column."""
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
