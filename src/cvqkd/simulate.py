"""Monte Carlo simulation of the Gaussian pulse-by-pulse channel model.

Randomness uses the counter-based Philox generator keyed by (seed, stream)
so that independent streams are reproducible and order-stable: blocks are
generated in fixed-size chunks keyed by their pulse-index range, which
keeps the output bit-identical however the chunks are scheduled. Philox
serves only this per-pulse path; the O(1)-per-round coverage sampler
(finite_size.sufficient_statistics_coverage, re-exported here) draws from
the standard library's random module and needs no numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import Record
from .channel import FadingModel, pointing_tau_approx, sample_deflections
from .finite_size import (  # noqa: F401 (sufficient_statistics_coverage is re-exported)
    _MASK64,
    CoverageReport,
    EstimatorSnapshot,
    FadingLattice,
    _check_block,
    _coverage_report,
    empirical_estimators,
    map_chunks,
    sufficient_statistics_coverage,
)


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for an explicitly keyed stream."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunked_normals(seed: int, stream_base: int, scale, count: int,
                     gain=0.0, base=None) -> np.ndarray:
    """scale N(0, 1) (+ gain base), drawn in place in pulse-index-keyed chunks
    (see map_chunks); scale and gain are scalars or arrays of length count."""
    out = np.empty(count)
    scale, gain = np.broadcast_to(scale, count), np.broadcast_to(gain, count)

    def fill(start, stop):
        chunk = out[start:stop]
        stream_rng(seed, stream_base + start).standard_normal(out=chunk)
        chunk *= scale[start:stop]
        if base is not None:
            chunk += gain[start:stop] * base[start:stop]

    map_chunks(fill, count)
    return out


class SimBlock(Record):
    """Disclosed-variable view of one simulated block.

    x holds Alice's quadrature amplitudes and y Bob's outcomes, one row per
    disclosed pair (nu_det pairs per pulse). tau_samples / bins are per-pair
    fading metadata when applicable; pilot_mask marks pilot pairs.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, nu_det: int,
                 tau_samples: np.ndarray = None, bins: np.ndarray = None,
                 pilot_mask: np.ndarray = None):
        self.__dict__.update(x=x, y=y, nu_det=nu_det, tau_samples=tau_samples,
                             bins=bins, pilot_mask=pilot_mask)

    @property
    def pairs(self) -> int:
        return self.x.size

    def estimators(self) -> EstimatorSnapshot:
        keep = slice(None) if self.pilot_mask is None else ~self.pilot_mask
        return empirical_estimators(self.x[keep], self.y[keep], self.nu_det)


def _pairs(seed: int, sigma_x2: float, sigma_z, gain, pairs: int) -> tuple:
    """(x, y): x ~ N(0, sigma_x2) from stream 0 and y = gain x + sigma_z
    N(0, 1) from stream 1 << 40; sigma_z and gain are scalars or per pair."""
    x = _chunked_normals(seed, 0, math.sqrt(sigma_x2), pairs)
    return x, _chunked_normals(seed, 1 << 40, sigma_z, pairs, gain, x)


def simulate_block(tau: float, nbar: float, nu_det: int, sigma_x2: float,
                   pulses: int, seed: int) -> SimBlock:
    """Simulate y = sqrt(tau) x + z with var x = sigma_x2, var z = 2 nbar + nu_det.

    Produces nu_det disclosed pairs per pulse (heterodyne reveals both
    quadratures of each pulse).
    """
    _check_block(tau, nbar, nu_det, sigma_x2, pulses)
    x, y = _pairs(seed, sigma_x2, math.sqrt(2.0 * nbar + nu_det), math.sqrt(tau),
                  nu_det * pulses)
    return SimBlock(x=x, y=y, nu_det=nu_det)


def simulate_fading_block(fading: FadingModel, n_of_tau, nu_det: int,
                          sigma_x2: float, pulses: int, seed: int,
                          pilot_rate: float = 0.0) -> SimBlock:
    """Simulate a beam-wandering block with per-pulse transmissivity.

    The deflection radius is drawn from the Weibull law, mapped through the
    tau(r) approximation, and the noise photons follow the per-tau model
    n_of_tau (e.g. a local-LO setup-noise curve plus background).
    """
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")
    if sigma_x2 <= 0.0 or pulses < 1:
        raise ValueError("sigma_x2 must be positive and pulses >= 1")
    if not 0.0 <= pilot_rate < 1.0:
        raise ValueError("pilot_rate must lie in [0, 1)")
    rng = stream_rng(seed, 2 << 40)
    r = sample_deflections(fading.sigma_p, pulses, rng)
    tau_pulse = pointing_tau_approx(r, fading)
    # a far-deflected pulse's tau underflows, so its TLO noise Theta_el / tau
    # is infinite; post-selection discards the pulse
    with np.errstate(divide="ignore", over="ignore"):
        n_pulse = np.asarray(n_of_tau(tau_pulse), dtype=float)
        sigma_z = np.sqrt(2.0 * np.repeat(n_pulse, nu_det) + nu_det)
    if n_pulse.shape != tau_pulse.shape or np.any(n_pulse < 0.0):
        raise ValueError("n_of_tau must map tau samples to non-negative photons")

    tau_pair = np.repeat(tau_pulse, nu_det)
    x, y = _pairs(seed, sigma_x2, sigma_z, np.sqrt(tau_pair), nu_det * pulses)
    pilot_mask = None
    if pilot_rate > 0.0:
        pilot_pulse = stream_rng(seed, 3 << 40).random(pulses) < pilot_rate
        pilot_mask = np.repeat(pilot_pulse, nu_det)
    return SimBlock(x=x, y=y, nu_det=nu_det, tau_samples=tau_pair,
                    pilot_mask=pilot_mask)


def defade_block(block: SimBlock, lattice: FadingLattice, seed: int) -> SimBlock:
    """Map a fading block onto the constant-transmissivity tau_min channel.

    Pairs outside [tau_min, tau_max] are post-selected away. Each kept pair
    in bin k (nominal transmissivity tau_k, the bin lower edge) becomes
    y~ = sqrt(tau_min / tau_k) y + sqrt(1 - tau_min / tau_k) xi with
    xi ~ N(0, nu_det), so every surviving pair looks like a tau_min pulse.
    Bins are assigned from the true sampled tau (ideal bright pilots).
    """
    if block.tau_samples is None:
        raise ValueError("block carries no fading metadata")
    bins = lattice.assign(block.tau_samples)
    keep = bins >= 0
    if not np.any(keep):
        raise ValueError("post-selection removed every pair")
    ratio = lattice.tau_min / lattice.lower_edges[bins[keep]]
    xi = _chunked_normals(seed, 4 << 40, math.sqrt(block.nu_det), ratio.size)
    y_tilde = np.sqrt(ratio) * block.y[keep] + np.sqrt(1.0 - ratio) * xi
    pilot = None if block.pilot_mask is None else block.pilot_mask[keep]
    return SimBlock(x=block.x[keep], y=y_tilde, nu_det=block.nu_det,
                    tau_samples=np.full(int(keep.sum()), lattice.tau_min),
                    bins=bins[keep], pilot_mask=pilot)


def estimator_coverage_experiment(tau: float, nbar: float, nu_det: int,
                                  sigma_x2: float, pulses: int, rounds: int,
                                  eps_pe: float, seed: int) -> CoverageReport:
    """Count how often the worst-case bounds exclude the true channel.

    Each round simulates a fresh block, forms the empirical estimators and
    the confidence bounds at eps_pe, and records one-sided failures
    tau' > tau, tau'' < tau and nbar' < nbar.
    """
    if rounds < 1:
        raise ValueError("at least one round required")
    snaps = (simulate_block(tau, nbar, nu_det, sigma_x2, pulses,
                            seed=(seed + 977 * k) & _MASK64).estimators()
             for k in range(rounds))
    return _coverage_report(((s.t_hat, s.sigma_z2_hat) for s in snaps), tau,
                            nbar, nu_det, sigma_x2, pulses, rounds, eps_pe)


DUMP_CHUNK = 2048  # rows per write; keeps the temporaries under 1 MB
FULL, LEAD, UNITS, TRAIL = range(4)  # variants of a 4-digit group's word
K_MIN, K_MAX = -293, 341  # k = 16 - X for every finite double's exponent X


@functools.cache
def _dump_tables():
    """Words of 4-digit groups n at v * 10000 + n, NUL for zeros left of the
    first nonzero digit (v = LEAD; UNITS keeps the last) or right of the last
    (TRAIL); 10**j in int64; per k in K_MIN..K_MAX, the words of "e%+03d" %
    (16 - k) and 10**k = (t_hi + t_lo) 2**s, t_lo = 0 where 10**k is exact."""
    n = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], np.uint16)
    nul = np.stack((n < 0 * place, n < place, (n < place) & (place > 1),
                    n % (10 * place) == 0))
    text = np.where(nul, 0, (n // place % 10 + ord("0")).astype(np.uint8))
    ks = range(K_MIN, K_MAX + 1)
    suffix = b"".join((b"e%+03d" % (16 - k)).ljust(8, b"\0") for k in ks)
    scaled = []
    for k in ks:  # m = 10**k 2**(119 - s), in [2**119, 2**120)
        s = (10 ** k).bit_length() - 1 if k >= 0 else -(10 ** -k).bit_length()
        m = 10 ** k << 119 >> s if k >= 0 else (1 << 119 - s) // 10 ** -k
        scaled.append((float(m), float(m - int(float(m))), s))
    t_hi, t_lo, shift = np.array(scaled).T
    # bytes viewed and written back in native order: no byte-order dependence
    return (text.view(np.uint32).ravel(), 10 ** np.arange(19, dtype=np.int64),
            np.frombuffer(suffix, np.uint32).reshape(-1, 2), t_hi / 2 ** 119,
            t_lo / 2 ** 119, shift.astype(np.int64))


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0]


def _int_words(n: np.ndarray, sep: bytes, negative: np.ndarray) -> np.ndarray:
    """Fields of words on a new last axis: sep, "-" if negative, %d of |n|."""
    words = _dump_tables()[0]
    n = np.abs(n.astype(np.int64))
    groups = (len(str(int(n.max()))) + 3) // 4
    out = np.empty(n.shape + (1 + groups,), np.uint32)
    out[..., 0] = np.where(negative, _word(sep + b"-"), _word(sep))
    for i in range(groups):  # i = 0 is the units group
        top = np.where(n < 10 ** (4 * i + 4), LEAD if i else UNITS, FULL)
        out[..., -1 - i] = words.take(n // 10 ** (4 * i) % 10000 + 10000 * top)
    return out


def _scaled_digits(a: np.ndarray) -> tuple:
    """(D, X, sure) for finite a > 0: X = floor(log10(a)), D = a 10**(16 - X)
    rounded half to even, exact where t_lo = 0 (Dekker's product of a 2**s
    and t_hi), else off by under 1e-13 and not sure within 1e-9 of a tie,
    10**16 or 10**17."""
    _, _, _, t_hi, t_lo, shift = _dump_tables()
    exp = np.floor(np.log10(a)).astype(np.int64)
    for again in (True, False):  # log10 can be one off next to 10**X
        i = 16 - exp - K_MIN
        b, b_lo, m = t_hi[i], t_lo[i], np.ldexp(a, shift[i])  # m is exact
        hi = m * b
        m_hi, b_hi = m * 134217729.0, b * 134217729.0  # Veltkamp splits
        m_hi, b_hi = m_hi - (m_hi - m), b_hi - (b_hi - b)
        m_lo, b_mid = m - m_hi, b - b_hi
        lo = (((m_hi * b_hi - hi) + m_hi * b_mid + m_lo * b_hi)
              + m_lo * b_mid) + m * b_lo
        d16, d17 = (hi - 1e16) + lo, (hi - 1e17) + lo  # D below / too big
        move = (d17 >= 0).astype(np.int64) - (d16 < 0)
        if not (again and move.any()):
            break
        exp += move
    units = np.rint(lo)  # hi >= 2**53 is even where D >= 10**16
    sure = (b_lo == 0) | ((np.abs(lo - units) < 0.5 - 1e-9)
                          & (np.abs(d16) > 1e-9) & (np.abs(d17) > 1e-9))
    return hi.astype(np.int64) + units.astype(np.int64), exp, sure & (move == 0)


def _float_words(v: np.ndarray, sep: bytes) -> np.ndarray:
    """Fields of words on a new last axis: sep, then %.17g of v. Python
    formats inf, nan and the values whose rounding is not sure."""
    words, p10, suffix = _dump_tables()[:3]
    ok, zero = np.isfinite(v), v == 0
    digits, exp, sure = _scaled_digits(np.where(ok & ~zero, np.abs(v), 1.0))
    ok &= sure & (digits < 10 ** 17)  # Python rounds 9.99..95 up to 10**X
    digits[zero] = 0
    fixed = ok & (exp >= -4) & (exp <= 16)
    k = np.where(fixed, 16 - exp, 16)  # digits after the point, 0..20
    whole, frac = np.divmod(digits, p10[np.minimum(k, 17)])
    over = np.maximum(k - 12, 0)  # 20 fraction digits: 12 in f_hi, 8 in f_lo
    f_hi, f_lo = np.divmod(frac, p10[over])
    f_hi, f_lo = f_hi * p10[12 - k + over], f_lo * p10[12 - over]  # 12 each
    groups = (int(k[ok].max()) + 3) // 4 if ok.any() else 0
    sci = ok & ~fixed
    tail = 1 + int(np.abs(exp[sci]).max() >= 100) if sci.any() else 0
    head = _int_words(whole, sep, ok & np.signbit(v))
    point = head.shape[-1]
    odd = [("%.17g" % value).encode() for value in v[~ok].tolist()]
    width = max([point + groups + tail] + [(len(t) + 3) // 4 for t in odd])
    out = np.zeros(v.shape + (1 + width,), np.uint32)
    out[..., :point] = head
    out[..., point] = np.where(frac != 0, _word(b"."), 0)
    zero_after = True
    for j in reversed(range(groups)):  # trailing fraction zeros go
        g = (f_hi, f_lo)[j // 3] // 10 ** (8 - 4 * (j % 3)) % 10000
        out[..., point + 1 + j] = words.take(g + 10000 * TRAIL * zero_after)
        zero_after &= g == 0
    if tail:
        out[..., point + 1 + groups:][..., :tail] = np.where(
            sci[..., None], suffix[16 - exp - K_MIN, :tail], 0)
    if odd:  # NUL-padded by the bytes dtype
        out[~ok, 1:] = np.array(odd, f"S{4 * width}").view(
            np.uint32).reshape(-1, width)
    return out


def write_dump(handle, pilot, x, y, tau, bins) -> None:
    """Write the pairs to the binary handle as CSV: a header, then a line
    index,pilot_flag,x,y,tau_sample,bin per pair (%d and %.17g, byte for
    byte); tau and bins may be scalars, pilot None."""
    handle.write(b"index,pilot_flag,x,y,tau_sample,bin\n")
    pilot = False if pilot is None else pilot
    pilot, tau, bins = (np.broadcast_to(c, len(x)) for c in (pilot, tau, bins))
    for start in range(0, len(x), DUMP_CHUNK):
        rows = slice(start, start + DUMP_CHUNK)
        index = np.arange(start, start + len(x[rows]))
        # no name holds the fields or the matrix: each copy frees the last
        handle.write(np.hstack([f.reshape(len(index), -1) for f in (
            _int_words(index, b"", False), _int_words(pilot[rows], b",", False),
            _float_words(np.column_stack((x[rows], y[rows], tau[rows])), b","),
            _int_words(bins[rows], b",", bins[rows] < 0),
            np.full((len(index), 1), _word(b"\n")))]).tobytes().translate(
                None, b"\0"))
