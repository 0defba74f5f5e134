"""Output checks, computed apart from the program.

Every check compares a row against a closed form written here from the
paper's formulas, or against a property the method must have. None of them
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from scipy.special import gammainc

_UNITS = {"": 1.0, "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}


def quantity(text: str) -> float:
    """'2^-33', '1e7', '4.4 cm', '800 nm' as a float in SI units."""
    parts = str(text).split()
    number, unit = parts[0], (parts[1].lower() if len(parts) > 1 else "")
    if "^" in number:
        base, exponent = number.split("^")
        value = float(base) ** float(exponent)
    else:
        value = float(number)
    return value * _UNITS[unit]


@dataclass(frozen=True)
class Protocol:
    n_total: float
    m: float
    m_pl: float
    d: int
    beta: float
    p_ec: float
    eps_pe: float
    eps_s: float
    eps_h: float
    eps_cor: float
    mu: float
    improved: bool

    @classmethod
    def from_sections(cls, sections: dict) -> "Protocol":
        p = sections["protocol"]
        eps = quantity(p["eps"]) if "eps" in p else None

        def pick(key):
            return quantity(p[key]) if key in p else eps

        return cls(n_total=quantity(p["n_total"]), m=quantity(p["m"]),
                   m_pl=quantity(p.get("m_pl", "0")), d=int(quantity(p["d"])),
                   beta=quantity(p["beta"]), p_ec=quantity(p["p_ec"]),
                   eps_pe=pick("eps_pe"), eps_s=pick("eps_s"),
                   eps_h=pick("eps_h"), eps_cor=pick("eps_cor"),
                   mu=quantity(p["mu"]),
                   improved=p.get("improved_aep", "false").lower()
                   in ("true", "yes", "on", "1"))


def read_rows(blob: bytes, fmt: str) -> list:
    """Result rows as dicts of floats (strings for text columns)."""
    text = blob.decode("utf-8")
    if fmt == "json":
        payload = json.loads(text)
        rows = [dict(zip(payload["columns"], r)) for r in payload["rows"]]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for row in rows:
        parsed = {}
        for key, value in row.items():
            if key in ("warnings", "reason", "scenario_hash", "version"):
                parsed[key] = value
            elif value is None:
                parsed[key] = math.nan
            else:
                parsed[key] = float(value)
        out.append(parsed)
    return out


def failed(row: dict) -> bool:
    return bool(row.get("reason"))


def entropy_h(x: float) -> float:
    """Bosonic entropy h(x) of a symplectic eigenvalue x >= 1."""
    plus, minus = (x + 1.0) / 2.0, (x - 1.0) / 2.0
    out = plus * math.log2(plus)
    if minus > 0.0:
        out -= minus * math.log2(minus)
    return out


def untrusted_holevo(tau: float, nbar: float, mu: float, nu_det: int) -> float:
    """chi(E:y) from the purified two-mode Alice-Bob state.

    V_AB = [[mu I, c Z], [c Z, b I]] with b = tau (mu - 1) + 2 nbar + 1 and
    c^2 = tau (mu^2 - 1); its symplectic eigenvalues follow from
    Delta = mu^2 + b^2 - 2 c^2 and D = mu b - c^2 (Weedbrook et al.,
    Rev. Mod. Phys. 84, 621 (2012)).
    """
    b = tau * (mu - 1.0) + 2.0 * nbar + 1.0
    c2 = tau * (mu * mu - 1.0)
    delta = mu * mu + b * b - 2.0 * c2
    det = mu * b - c2
    root = math.sqrt(max(delta * delta - 4.0 * det * det, 0.0))
    nu_plus = math.sqrt((delta + root) / 2.0)
    nu_minus = math.sqrt(max((delta - root) / 2.0, 1.0))
    if nu_det == 1:
        cond = math.sqrt(mu * (mu - c2 / b))
    else:
        cond = mu - c2 / (b + 1.0)
    return entropy_h(nu_plus) + entropy_h(nu_minus) - entropy_h(cond)


def collective_rate(r_pe: float, prm: Protocol, p_delta: float) -> tuple:
    """Composable collective-attack rate and its scale, from the paper.

    R = (n p p_ec / N) [R_pe - Delta_aep / sqrt(n p) + Theta / (n p)] with
    n = N - m - m_pl, Delta_aep = 4 log2(2 sqrt(d) + 1)
    sqrt(log2(18 / (p_ec^2 eps_s^4))) (prefactor log2(sqrt(d) + 2) when
    improved) and Theta = log2[p_ec (1 - eps_s^2 / 3)] + 2 log2(sqrt(2) eps_h).
    """
    n_eff = (prm.n_total - prm.m - prm.m_pl) * p_delta
    prefactor = math.log2(math.sqrt(prm.d) + 2.0) if prm.improved \
        else math.log2(2.0 * math.sqrt(prm.d) + 1.0)
    aep = 4.0 * prefactor * math.sqrt(
        math.log2(18.0 / (prm.p_ec ** 2 * prm.eps_s ** 4)))
    theta = (math.log2(prm.p_ec * (1.0 - prm.eps_s ** 2 / 3.0))
             + 2.0 * math.log2(math.sqrt(2.0) * prm.eps_h))
    scale = n_eff * prm.p_ec / prm.n_total
    rate = scale * (r_pe - aep / math.sqrt(n_eff) + theta / n_eff)
    return rate, scale * (abs(r_pe) + aep / math.sqrt(n_eff))


def close(a: float, b: float, rel: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale) + 1e-300


class Checker:
    """Collects the failures of every check made in a run."""

    def __init__(self):
        self.errors = []

    def expect(self, ok: bool, where: str, what: str) -> None:
        if not ok and len(self.errors) < 200:
            self.errors.append(f"{where}: {what}")

    # --- rate rows ---------------------------------------------------------

    def rate_rows(self, inv, rows: list) -> None:
        prm = Protocol.from_sections(inv.sections)
        scen = inv.scenario
        trust, security = int(scen["trust"]), scen["security"]
        attack, nu = scen["attack"], inv.nu_det
        self.expect(len(rows) == inv.rows, inv.name,
                    f"{len(rows)} rows, expected {inv.rows}")
        eps_collective = (2.0 * prm.p_ec * prm.eps_pe + prm.eps_cor
                          + prm.eps_s + prm.eps_h)
        for i, row in enumerate(rows):
            where = f"{inv.name} row {i}"
            if failed(row):
                self.failed_rate_row(inv, row, where)
                continue
            mi, chi, r_pe = row["mi"], row["chi"], row["r_pe"]
            tau_lo, n_hi = row["tau_lo"], row["n_hi"]
            mi_expect = nu / 2.0 * math.log2(
                1.0 + (prm.mu - 1.0) * tau_lo / (2.0 * n_hi + nu))
            self.expect(close(mi, mi_expect, 1e-12), where,
                        f"mi {mi!r} != {mi_expect!r}")
            self.expect(close(r_pe, prm.beta * mi - chi, 1e-12,
                              prm.beta * mi), where,
                        f"r_pe {r_pe!r} != beta mi - chi")
            coll, scale = collective_rate(r_pe, prm, row["p_delta"])
            if attack == "collective":
                self.expect(close(row["rate_raw"], coll, 1e-10, scale), where,
                            f"rate_raw {row['rate_raw']!r} != {coll!r}")
                self.expect(close(row["epsilon"], eps_collective, 1e-12),
                            where, f"epsilon {row['epsilon']!r}")
            else:
                self.expect(max(row["rate_raw"], 0.0) <= max(coll, 0.0)
                            and (coll <= 0.0 or row["rate_raw"] < coll),
                            where, f"general rate {row['rate_raw']!r} not "
                            f"below collective {coll!r}")
            self.expect(row["rate"] == max(row["rate_raw"], 0.0), where,
                        "rate != max(rate_raw, 0)")
            if trust == 3 and security == "standard":
                chi_cf = untrusted_holevo(tau_lo, n_hi, prm.mu, nu)
                self.expect(close(chi, chi_cf, 1e-8, 1e-9), where,
                            f"chi {chi!r} != closed form {chi_cf!r}")
            # PLOB bounds an Eve who holds the whole thermal environment,
            # which line-of-sight security denies her.
            if inv.channel == "microwave" and security == "standard":
                self.expect(row["rate_asym_raw"] <= row["plob"] + 1e-12,
                            where, "rate_asym_raw above PLOB")

    def failed_rate_row(self, inv, row: dict, where: str) -> None:
        """Only the passive-Eve round-off fault may fail a row."""
        reason = row["reason"]
        known = ("not bona fide" in reason
                 or "entropic_h domain error" in reason)
        self.expect(inv.may_fail and known, where, f"failed: {reason}")
        if inv.may_fail and inv.channel == "optical-fixed":
            p = inv.sections["physics"]
            w0, lam = quantity(p["w0"]), quantity(p["lambda"])
            a_r = quantity(p["a_r"])
            z = row["distance_m"]
            wz2 = w0 ** 2 * (1.0 + (z * lam / (math.pi * w0 ** 2)) ** 2)
            loss = math.exp(-2.0 * a_r ** 2 / wz2)  # 1 - eta_ch
            self.expect(1e-13 <= loss <= 1e-7, where,
                        f"failure outside the known window, 1-eta_ch={loss}")

    def orderings(self, invs: list, results: dict) -> None:
        """Eve-1 >= Eve-2 >= Eve-3 and LoS >= standard on shared grids."""
        by_family = {}
        for inv in invs:
            if inv.command != "sweep" or inv.same_as:
                continue
            key = (int(inv.scenario["trust"]), inv.scenario["security"])
            by_family.setdefault(inv.family, {})[key] = results[inv.name]
        pairs = (((1, "standard"), (2, "standard")),
                 ((2, "standard"), (3, "standard")),
                 ((1, "los"), (1, "standard")),
                 ((2, "los"), (2, "standard")),
                 ((1, "los"), (2, "los")),
                 ((2, "los"), (3, "standard")))
        for family, curves in by_family.items():
            for hi, lo in pairs:
                if hi not in curves or lo not in curves:
                    continue
                for i, (a, b) in enumerate(zip(curves[hi], curves[lo])):
                    if failed(a) or failed(b):
                        continue
                    self.expect(a["rate"] >= b["rate"] - 1e-12,
                                f"{family} row {i}",
                                f"rate {hi} {a['rate']!r} < {lo} {b['rate']!r}")

    # --- Monte Carlo rows --------------------------------------------------

    def simulate_row(self, inv, row: dict, dump: np.ndarray | None) -> None:
        where = inv.name
        pulses = inv.pulses
        nu = inv.nu_det
        self.expect(not failed(row), where, f"failed: {row.get('reason')}")
        if failed(row):
            return
        if dump is not None:
            self.expect(dump.shape[0] == nu * pulses, where,
                        f"dump holds {dump.shape[0]} pairs, expected "
                        f"{nu * pulses}")
        if inv.channel == "optical-mobile":
            p_model, p_emp = row["p_delta_model"], row["p_delta_emp"]
            sigma = math.sqrt(p_model * (1.0 - p_model) / pulses)
            self.expect(abs(p_emp - p_model) <= 4.0 * sigma, where,
                        f"p_delta_emp {p_emp} more than 4 sigma from "
                        f"{p_model}")
            if dump is not None:
                kept = int(np.count_nonzero(dump[:, 5] >= 0))
                self.expect(kept == row["kept_pairs"], where,
                            f"dump keeps {kept} pairs, row {row['kept_pairs']}")
            return
        self.expect(row["tau_lo"] <= row["tau_model"] <= row["tau_hi"], where,
                    "tau_model outside [tau_lo, tau_hi]")
        self.expect(row["n_hi"] >= row["nbar_model"], where,
                    "n_hi below nbar_model")
        self.expect(row["m_p"] == nu * pulses, where, "m_p != nu * pulses")
        if dump is not None:
            x, y = dump[:, 2], dump[:, 3]
            t_hat = float(np.dot(x, y) / np.dot(x, x))
            resid = y - t_hat * x
            sz2 = float(np.dot(resid, resid) / x.size)
            self.expect(close(row["tau_hat"], t_hat * t_hat, 1e-9), where,
                        f"tau_hat {row['tau_hat']!r} != {t_hat * t_hat!r} "
                        "from the dump")
            self.expect(close(row["sigma_z2_hat"], sz2, 1e-9), where,
                        f"sigma_z2_hat {row['sigma_z2_hat']!r} != {sz2!r} "
                        "from the dump")

    def coverage_row(self, inv, row: dict, echo: dict) -> None:
        where = inv.name
        self.expect(not failed(row), where, f"failed: {row.get('reason')}")
        if failed(row):
            return
        cov = inv.sections["coverage"]
        rounds, pulses = int(cov["rounds"]), int(cov["pulses"])
        eps = quantity(cov["eps_pe"])
        self.expect(row["rounds"] == rounds and row["pulses"] == pulses,
                    where, "rounds or pulses differ from the scenario")
        w = NormalDist().inv_cdf(1.0 - eps)
        self.expect(close(row["w"], w, 1e-9), where, f"w {row['w']} != {w}")
        limit = eps + 3.0 * math.sqrt(eps * (1.0 - eps) / rounds)
        for col in ("tau_low", "tau_high", "n"):
            self.expect(row[f"{col}_rate"] == row[f"{col}_failures"] / rounds,
                        where, f"{col}_rate != {col}_failures / rounds")
        for col in ("tau_low_rate", "tau_high_rate"):
            self.expect(row[col] <= limit, where,
                        f"{col} {row[col]} above {limit}")
        # The noise bound's failure probability follows from the chi-square
        # law of the residual sum of squares; it exceeds eps_pe for short
        # blocks, so n_rate is held to that law instead.
        p_n = noise_failure_probability(inv, echo, rounds, pulses, w)
        band = 5.0 * math.sqrt(p_n * (1.0 - p_n) / rounds) + 0.5 / rounds
        self.expect(abs(row["n_rate"] - p_n) <= band, where,
                    f"n_rate {row['n_rate']} more than 5 sigma from {p_n}")


def point_nbar(inv, echo: dict) -> float:
    """Noise photons nbar at the configured point, from the scenario echo."""
    physics, derived = echo["physics"], echo["derived"]
    if inv.channel == "microwave":
        return derived["n_th"]
    eta_eff = physics["eta_eff"]
    loss_db = quantity(inv.sections["point"]["loss_db"])
    tau = min(10.0 ** (-loss_db / 10.0), eta_eff)
    if echo["lo"] == "tlo":
        n_ex = derived["theta_el"] / tau
    else:
        n_ex = derived["theta_el"] + derived["theta_ph"] * tau
    n_ex += physics.get("n_other", 0.0)
    return eta_eff * physics["n_b"] + n_ex


def noise_failure_probability(inv, echo: dict, rounds: int, pulses: int,
                              w: float) -> float:
    """P(nbar' < nbar) per round for nbar' = max(n_hat, 0) + w s / sqrt(2m).

    s = RSS / m with RSS / sigma_z^2 ~ chi^2(m - 1) and n_hat = (s - nu)/2;
    nbar' grows with s, so the round fails iff s is below one threshold.
    """
    nu = inv.nu_det
    nbar = point_nbar(inv, echo)
    m = nu * pulses
    slope = w / math.sqrt(2.0 * m)
    if slope * nu >= nbar:
        threshold = nbar / slope
    else:
        threshold = (nbar + nu / 2.0) / (0.5 + slope)
    sigma_z2 = 2.0 * nbar + nu
    return float(gammainc((m - 1) / 2.0, m * threshold / (2.0 * sigma_z2)))
