"""Monte Carlo simulation of the Gaussian pulse-by-pulse channel model.

Randomness uses the counter-based Philox generator keyed by (seed, stream):
a block is drawn in CHUNK-sized chunks keyed by their pair-index range, so it
is bit-identical however the chunks are scheduled. This module owns that
chunk law and every stream key: only _normals keys a stream by pair index,
and only _pair_slices draws pairs, SLICE at a time, as (pilot, x, y, tau,
bins) records of a constant or a fading law (fading_slices). A row's pass
is one call per channel, given its --dump handle or None: simulate_estimators
(on threads, or in order as dumped writes) or simulate_fading_estimators.
No block is kept but by simulate_fading_block and defade_block.
The O(1)-per-round coverage sampler of finite_size uses random, not numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Callable

import numpy as np

from . import Record
from .channel import FadingModel, pointing_tau_approx, sample_deflections
from .finite_size import _MASK64, CoverageReport, FadingLattice, _check_block, _coverage_report

# Philox stream bases of x, its noise, deflections, pilot flags, de-fading
X, NOISE, DEFLECTIONS, PILOTS, DEFADE = (k << 40 for k in range(5))


class EstimatorSnapshot(Record):
    """Point estimates from m_p disclosed pairs."""

    def __init__(self, t_hat: float, sigma_z2_hat: float, tau_hat: float,
                 n_hat: float, m_p: int):
        self.__dict__.update(t_hat=t_hat, sigma_z2_hat=sigma_z2_hat,
                             tau_hat=tau_hat, n_hat=n_hat, m_p=m_p)


CHUNK = 1 << 18  # pairs per Monte Carlo chunk: the unit of the streams and threads
SLICE = 1 << 14  # pairs drawn and reduced at once: 128 KB a column, in cache


def _workers() -> int:
    """CPUs this process may run on (1 where the OS cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def map_chunks(fn: Callable, count: int) -> list:
    """fn(start, stop) over the CHUNK-sized ranges of range(count), in order;
    inline for one chunk or CPU, else on a thread pool closed before return."""
    starts = range(0, count, CHUNK)
    stops = [min(start + CHUNK, count) for start in starts]
    workers = min(len(starts), _workers())
    if workers <= 1:
        return list(map(fn, starts, stops))
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, starts, stops))


@np.errstate(over="ignore", invalid="ignore")  # combine_chunks rejects what overflows
def chunk_sums(x, y) -> tuple:
    """(Sxx, Sxy, RSS, t) of one slice of pairs, x and y float arrays: sums
    by np.add.reduce, so that no BLAS or thread count enters, and RSS the
    residual sum of squares about the slice's own slope t = Sxy / Sxx."""
    sxx, sxy = (x * x).sum(), (x * y).sum()
    t = sxy / sxx if sxx else 0.0
    residual = t * x
    residual -= y  # -(y - t x), exactly, with no second temporary
    residual *= residual
    return sxx, sxy, residual.sum(), t


@np.errstate(over="ignore", invalid="ignore")
def combine_chunks(chunks: list, m: int, nu_det: int) -> EstimatorSnapshot:
    """The estimators of m pairs from chunks, each the list of the chunk_sums
    of its SLICE-sized slices in pair order: fsums Sxx and Sxy, T_hat = Sxy /
    Sxx, and the residual sums combined exactly by the pairwise update of
    Chan, Golub & LeVeque (Am. Stat. 37, 242, 1983), RSS = fsum_s [RSS_s +
    (t_s - T_hat)^2 Sxx_s]. sigma_z2_hat = RSS / m; both must be finite."""
    sums = [s for chunk in chunks for s in chunk]
    sxx, sxy = math.fsum(s[0] for s in sums), math.fsum(s[1] for s in sums)
    t_hat = sxy / sxx
    s2 = math.fsum(rss + (t - t_hat) ** 2 * c_xx for c_xx, _, rss, t in sums) / m
    if not math.isfinite(t_hat) or not math.isfinite(s2):
        raise ValueError(f"estimators not finite: T_hat {t_hat}, sigma_z2_hat {s2}")
    return EstimatorSnapshot(t_hat, s2, t_hat * t_hat, (s2 - nu_det) / 2.0, m)


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for an explicitly keyed stream."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _normals(seed: int, base: int, at: int) -> Callable:
    """n -> the next n N(0, 1) of a draw keyed as the pairs are, from draw at (a
    chunk's start) on: draw i from stream base + (its CHUNK's start)."""
    rng = None

    def draw(n: int) -> np.ndarray:
        nonlocal at, rng
        out, a = np.empty(n), 0
        while a < n:
            if at % CHUNK == 0:
                rng = stream_rng(seed, base + at)
            b = min(n, a + CHUNK - at % CHUNK)
            rng.standard_normal(out=out[a:b])
            at, a = at + b - a, b
        return out

    return draw


def _pair_slices(seed: int, sigma_x: float, law: Callable, start: int, stop: int):
    """(pilot, x, y, tau, bins) of the pairs [start, stop), start a chunk's,
    SLICE at a time: law(size) gives (pilot, tau, bins, gain, sigma_z) of the
    slice, x = sigma_x N(0, 1) and y = gain x + sigma_z N(0, 1) from the pair
    streams X and NOISE (_normals), each slice drawn on from the last (the
    bits of one draw of each chunk) when it is asked for."""
    x_normals, z_normals = _normals(seed, X, start), _normals(seed, NOISE, start)
    for a in range(start, stop, SLICE):
        pilot, tau, bins, gain, sigma_z = law(min(SLICE, stop - a))
        x = x_normals(min(SLICE, stop - a))
        x *= sigma_x
        y = z_normals(x.size)
        y *= sigma_z
        y += gain * x
        yield pilot, x, y, tau, bins


class SimBlock(Record):
    """A whole fading block, before or after de-fading (simulate_fading_block,
    defade_block): Alice's x and Bob's y, nu_det pairs per pulse, with the
    pairs' sampled tau_samples and pilot_mask."""

    def __init__(self, x: np.ndarray, y: np.ndarray, nu_det: int,
                 tau_samples: np.ndarray = None, pilot_mask: np.ndarray = None):
        self.__dict__.update(x=x, y=y, nu_det=nu_det, tau_samples=tau_samples,
                             pilot_mask=pilot_mask)


def simulate_estimators(tau: float, nbar: float, nu_det: int, sigma_x2: float,
                        pulses: int, seed: int, dump) -> EstimatorSnapshot:
    """Empirical estimators of a block y = sqrt(tau) x + z with var x =
    sigma_x2 and var z = 2 nbar + nu_det, nu_det disclosed pairs per pulse
    (heterodyne reveals both quadratures of each pulse). No block is kept:
    each slice is drawn and reduced to its chunk_sums while it is in cache,
    one chunk per worker, and combine_chunks joins them; or, with a dump
    handle (not None), in order as dumped writes (None, x, y, tau, -1) of
    each pair (slice_estimators): the same bits."""
    _check_block(tau, nbar, nu_det, sigma_x2, pulses)
    pairs, scalars = nu_det * pulses, (None, tau, -1, math.sqrt(tau), math.sqrt(2 * nbar + nu_det))
    if pairs < 2:
        raise ValueError("at least two disclosed pairs required")
    slices = functools.partial(_pair_slices, seed, math.sqrt(sigma_x2), lambda size: scalars)
    if dump is not None:
        return slice_estimators(dumped(dump, slices(0, pairs)), nu_det)[0]
    return combine_chunks(map_chunks(lambda a, b: [
        chunk_sums(x, y) for _, x, y, _, _ in slices(a, b)], pairs), pairs, nu_det)


def fading_slices(fading: FadingModel, n_of_tau, nu_det: int, sigma_x2: float,
                  pulses: int, seed: int, pilot_rate: float, lattice: FadingLattice):
    """(pilot, x, y, tau, bins) of each slice of a beam-wandering block, in
    order: per pulse, tau(r) of a Weibull deflection r (stream DEFLECTIONS),
    noise photons n_of_tau(tau), a pilot at pilot_rate (stream PILOTS, None at
    0) and a bin in lattice (or None), per quadrature; y = sqrt(tau) x + z."""
    if nu_det not in (1, 2) or sigma_x2 <= 0.0 or pulses < 1 or not 0.0 <= pilot_rate < 1.0:
        raise ValueError("need nu_det 1 or 2, sigma_x2 > 0, pulses >= 1, pilot_rate in [0, 1)")
    deflections, pilots = stream_rng(seed, DEFLECTIONS), stream_rng(seed, PILOTS)

    def law(size: int) -> tuple:
        tau = pointing_tau_approx(sample_deflections(
            fading.sigma_p, size // nu_det, deflections), fading)
        # a far-deflected pulse's tau underflows, so its TLO noise Theta_el / tau
        # is infinite; post-selection discards the pulse
        with np.errstate(divide="ignore", over="ignore"):
            n = np.asarray(n_of_tau(tau), dtype=float)
            sigma_z = np.sqrt(2.0 * np.repeat(n, nu_det) + nu_det)
        if n.shape != tau.shape or np.any(n < 0.0):
            raise ValueError("n_of_tau must map tau samples to non-negative photons")
        pilot = np.repeat(pilots.random(tau.size) < pilot_rate, nu_det) if pilot_rate else None
        tau = np.repeat(tau, nu_det)
        return pilot, tau, None if lattice is None else lattice.assign(tau), np.sqrt(tau), sigma_z

    return _pair_slices(seed, math.sqrt(sigma_x2), law, 0, nu_det * pulses)


def simulate_fading_block(fading: FadingModel, n_of_tau, nu_det: int,
                          sigma_x2: float, pulses: int, seed: int,
                          pilot_rate: float = 0.0) -> SimBlock:
    """The whole beam-wandering block of fading_slices, its slices joined."""
    pilot, x, y, tau, _ = zip(*fading_slices(fading, n_of_tau, nu_det, sigma_x2,
                                             pulses, seed, pilot_rate, None))
    return SimBlock(x=np.concatenate(x), y=np.concatenate(y), nu_det=nu_det,
                    tau_samples=np.concatenate(tau),
                    pilot_mask=np.concatenate(pilot) if pilot_rate else None)


def simulate_fading_estimators(fading: FadingModel, window, nu_det: int, sigma_x2: float,
                               pulses: int, seed: int, pilot_rate: float, dump) -> tuple:
    """(estimators, kept pairs, mean disclosed y~^2) of a beam-wandering block
    post-selected in window (a FadingEstimatorSet), in one ordered pass: its
    fading_slices, written to a dump handle (dumped) unless None, de-faded on
    stream seed + 1 (_defaded) and reduced (slice_estimators)."""
    slices = fading_slices(fading, window.noise, nu_det, sigma_x2, pulses, seed, pilot_rate,
                           window.lattice)
    slices = slices if dump is None else dumped(dump, slices)
    return slice_estimators(_defaded(window.lattice, slices, seed + 1, nu_det), nu_det)


def _defaded(lattice: FadingLattice, slices, seed: int, nu_det: int):
    """(pilot, x, y~) of the in-window pairs of each (pilot, x, y, tau, bins)
    of slices, bins assigned from the true tau: in bin k (lower edge tau_k),
    y~ = sqrt(r) y + sqrt(1 - r) xi, r = tau_min / tau_k, xi ~ N(0, nu_det)
    by kept-pair index (_normals), so every kept pair looks like a tau_min pulse."""
    normals = _normals(seed, DEFADE, 0)
    for pilot, x, y, _, bins in slices:
        keep = bins >= 0
        ratio = lattice.tau_min / lattice.lower_edges[bins[keep]]
        xi = normals(ratio.size) * math.sqrt(nu_det)
        yield (None if pilot is None else pilot[keep], x[keep],
               np.sqrt(ratio) * y[keep] + np.sqrt(1.0 - ratio) * xi)


def defade_block(block: SimBlock, lattice: FadingLattice, seed: int) -> SimBlock:
    """Map a fading block onto the constant-transmissivity tau_min channel:
    _defaded of the block as one slice. Pairs outside [tau_min, tau_max] are
    post-selected away."""
    if block.tau_samples is None:
        raise ValueError("block carries no fading metadata")
    whole = [(block.pilot_mask, block.x, block.y, None, lattice.assign(block.tau_samples))]
    pilot, x, y = next(_defaded(lattice, whole, seed, block.nu_det))
    if not x.size:
        raise ValueError("post-selection removed every pair")
    return SimBlock(x=x, y=y, nu_det=block.nu_det, pilot_mask=pilot)


@np.errstate(over="ignore", invalid="ignore")  # the slices drawn for it too
def slice_estimators(slices, nu_det: int) -> tuple:
    """(estimators, pairs, mean disclosed y^2) of ordered (pilot, x, y, ...)
    slices: each slice's disclosed pairs, pilots (a mask or None) left out,
    reduced to chunk_sums and a sum of y^2 as drawn, joined by combine_chunks
    and fsum."""
    sums, squares, kept, m = [], [], 0, 0
    for pilot, x, y, *_ in slices:
        kept += x.size
        if pilot is not None:
            x, y = x[~pilot], y[~pilot]
        m += x.size
        sums.append(chunk_sums(x, y))
        squares.append((y * y).sum())
    if m < 2:
        raise ValueError("at least two disclosed pairs required" if kept else
                         "post-selection removed every pair")
    return combine_chunks([sums], m, nu_det), kept, math.fsum(squares) / m


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
    snaps = (simulate_estimators(tau, nbar, nu_det, sigma_x2, pulses,
                                 (seed + 977 * k) & _MASK64, None)
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
    (TRAIL); of ",", "-" and %d of n < 100 at n + 100 * negative; 10**j in
    int64; per k in K_MIN..K_MAX, the words of "e%+03d" % (16 - k) and 10**k =
    (t_hi + t_lo) 2**s, t_lo = 0 where 10**k is exact."""
    n = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], np.uint16)
    nul = np.stack((n < 0 * place, n < place, (n < place) & (place > 1),
                    n % (10 * place) == 0))
    text = np.where(nul, 0, (n // place % 10 + ord("0")).astype(np.uint8))
    small = b"".join((b",%s%d" % (s, i)).ljust(4, b"\0") for s in (b"", b"-") for i in range(100))
    ks = range(K_MIN, K_MAX + 1)
    suffix = b"".join((b"e%+03d" % (16 - k)).ljust(8, b"\0") for k in ks)
    scaled = []
    for k in ks:  # m = 10**k 2**(119 - s), in [2**119, 2**120)
        s = (10 ** k).bit_length() - 1 if k >= 0 else -(10 ** -k).bit_length()
        m = 10 ** k << 119 >> s if k >= 0 else (1 << 119 - s) // 10 ** -k
        scaled.append((float(m), float(m - int(float(m))), s))
    t_hi, t_lo, shift = np.array(scaled).T
    # bytes viewed and written back in native order: no byte-order dependence
    return (text.view(np.uint32).ravel(), np.frombuffer(small, np.uint32),
            10 ** np.arange(19, dtype=np.int64), np.frombuffer(suffix, np.uint32).reshape(-1, 2),
            t_hi / 2 ** 119, t_lo / 2 ** 119, shift.astype(np.int32))


def _word(text: bytes) -> np.ndarray:
    """text in native words, NUL-padded to at least one."""
    return np.frombuffer(text.ljust(max(4, len(text) + -len(text) % 4), b"\0"), np.uint32)


def _int_words(n: np.ndarray, sep: bytes, negative) -> tuple:
    """(width, fill) of the fields of n: fill(out), out of shape n.shape +
    (width,), writes the words of sep, "-" if negative and %d of |n|, in one
    word where sep is "," and |n| < 100, and with no word for sep and sign
    where sep is empty and no n is negative."""
    words, small = _dump_tables()[:2]
    n = np.abs(n, dtype=np.int64)
    if sep == b"," and n.max() < 100:
        return 1, lambda out: np.copyto(out[..., 0], small.take(n + 100 * negative))
    lead, groups = 1 if sep or np.any(negative) else 0, (len(str(int(n.max()))) + 3) // 4

    def fill(out):
        if lead:
            out[..., 0] = np.where(negative, _word(sep + b"-"), _word(sep))
        for i in range(groups):  # i = 0 is the units group
            q = n // 10 ** (4 * i)
            r = q // 10000 if i + 1 < groups else 0  # the groups left of it
            out[..., -1 - i] = words.take(q - r * 10000 + (r == 0) * (LEAD if i else UNITS) * 10000)

    return lead + groups, fill


def _scaled_digits(a: np.ndarray) -> tuple:
    """(D, X, sure) for finite a > 0: X = floor(log10(a)), D = a 10**(16 - X)
    rounded half to even, exact where t_lo = 0 (Dekker's product of a 2**s
    and t_hi), else off by under 1e-13 and not sure within 1e-9 of a tie,
    10**16 or 10**17."""
    *_, t_hi, t_lo, shift = _dump_tables()
    exp = np.floor(np.log10(a)).astype(np.int64)
    for again in (True, False):  # log10 can be one off next to 10**X
        i = (16 - K_MIN) - exp
        b, b_lo, m = t_hi.take(i), t_lo.take(i), np.ldexp(a, shift.take(i))  # m is exact
        hi = m * b
        m_hi, b_hi = m * 134217729.0, b * 134217729.0  # Veltkamp splits
        m_hi -= m_hi - m
        b_hi -= b_hi - b
        m_lo, b_mid = m - m_hi, b - b_hi
        lo = (((m_hi * b_hi - hi) + m_hi * b_mid + m_lo * b_hi)
              + m_lo * b_mid) + m * b_lo
        edge = hi.min() < 1e16 + 64 or hi.max() > 1e17 - 64  # else D is well inside
        d16, d17 = ((hi - 1e16) + lo, (hi - 1e17) + lo) if edge else (1.0, -1.0)  # D under / over
        move = np.subtract(d17 >= 0, d16 < 0, dtype=np.int64)
        if not (again and move.any()):
            break
        exp += move
    units = np.rint(lo)  # hi >= 2**53 is even where D >= 10**16
    sure = b_lo == 0  # else not within 1e-9 of a tie, 10**16 or 10**17
    if not sure.all():
        sure |= (np.abs(lo - units) < 0.5 - 1e-9) & (np.abs(d16) > 1e-9) & (np.abs(d17) > 1e-9)
    return hi.astype(np.int64) + units.astype(np.int64), exp, sure & (move == 0)


def _float_words(v: np.ndarray, sep: bytes) -> tuple:
    """(width, fill) of the fields of v, as _int_words: sep, then %.17g of v.
    Python formats inf, nan and the values whose rounding is not sure."""
    words, _, p10, suffix = _dump_tables()[:4]
    ok, zero = np.isfinite(v), v == 0
    digits, exp, sure = _scaled_digits(np.where(ok & ~zero, np.abs(v), 2.0))  # 2: not 10**X
    ok &= sure & (digits < 10 ** 17)  # Python rounds 9.99..95 up to 10**X
    np.putmask(digits, zero, 0)
    fixed = ok & (exp >= -4) & (exp <= 16)
    k = np.where(fixed, 16 - exp, 16)  # digits after the point, 0..20
    whole, frac = np.divmod(digits, p10[np.minimum(k, 17)])
    point, head = _int_words(whole, sep, ok & np.signbit(v))
    groups = (int(k.max(where=ok, initial=0)) + 3) // 4
    sci = ok & ~fixed  # 16 digits after the point: the suffix may take a fifth group's word
    tail = 1 + int(np.abs(exp[sci]).max() >= 100) if sci.any() else 0
    suffixes = suffix[(16 - K_MIN) - exp[sci], :tail]
    odd = [sep + b"%.17g" % value for value in v[~ok].tolist()] if not ok.all() else []
    width = max([point + 1 + max(groups, tail and 4 + tail)] + [(len(t) + 3) // 4 for t in odd])

    def fill(out):
        head(out[..., :point])
        over = np.maximum(k - 12, 0)  # 20 fraction digits: 12 in f_hi, 8 in f_lo
        f_hi, f_lo = np.divmod(frac, p10[over])
        f_hi, f_lo = f_hi * p10[12 - k + over], f_lo * p10[8 - over]
        q_hi, q_lo = f_hi // 10000, f_lo // 10000
        top = q_hi // 10000
        parts = (top, q_hi - top * 10000, f_hi - q_hi * 10000, q_lo, f_lo - q_lo * 10000)
        trail = 10000 * TRAIL
        for j in reversed(range(groups)):  # trailing fraction zeros go
            out[..., point + 1 + j] = words.take(parts[j] + trail)
            trail = np.where(parts[j] == 0, trail, 0)  # TRAIL while every later group is 0
        out[..., point] = np.where(trail, 0, _word(b"."))
        out[..., point + 1 + groups:] = 0
        out[sci, point + 5:point + 5 + tail] = suffixes
        out[~ok] = np.array(odd, f"S{4 * width}").view(np.uint32).reshape(-1, width)  # NUL-padded

    return width, fill


def _span(column) -> int:
    """Rows one value fills: 2 where column repeats in pairs, bit for bit."""
    bits = column.view(f"u{column.itemsize}")
    return 2 if len(bits) % 2 == 0 and np.array_equal(bits[::2], bits[1::2]) else 1


def dumped(handle, chunks):
    """Each of chunks, an ordered iterable of (pilot, x, y, tau, bins), passed
    on once its pairs are written to the binary handle as CSV: a header, then
    a line index,pilot_flag,x,y,tau_sample,bin per pair (%d and %.17g, byte
    for byte), indexed across the chunks; tau and bins may be scalars, pilot
    None. Python formats a run of scalar columns once a chunk, a column that
    repeats in pairs is formatted once a pulse, and alike columns together."""
    handle.write(b"index,pilot_flag,x,y,tau_sample,bin\n")
    ints, floats = (lambda v: _int_words(v, b",", v < 0)), (lambda v: _float_words(v, b","))
    taus = lambda v: _float_words(v, b",")  # never with x and y: its zeros and exponents cost
    index, buffer = 0, bytearray()  # one buffer, kept while the group size holds
    for chunk in chunks:
        pilot, x, *_ = chunk
        cells = [((fmt, _span(c)), c) if np.ndim(c) else ((None, 1), p % c) for c, fmt, p in zip(
            (False if pilot is None else pilot, *chunk[1:]), (ints, floats, floats, taus, ints),
            (b",%d", b",%.17g", b",%.17g", b",%.17g", b",%d"))] + [((None, 1), b"\n")]
        runs = [(kind, [c for _, c in cs] if kind[0] else _word(b"".join(c for _, c in cs)))
                for kind, cs in itertools.groupby(cells, lambda cell: cell[0])]
        for start in range(0, len(x), DUMP_CHUNK):
            n = min(DUMP_CHUNK, len(x) - start)
            fields = [(1, 1, _int_words(np.arange(index, index + n)[:, None], b"", False))] + [
                (span, len(cs), fmt(np.column_stack([c[start:start + n:span] for c in cs])))
                if fmt else (1, 1, (cs.size, functools.partial(np.copyto, src=cs)))
                for (fmt, span), cs in runs]
            size = 4 * n * sum(columns * width for _, columns, (width, _) in fields)
            buffer = buffer if len(buffer) == size else bytearray(size)
            line, col = np.frombuffer(buffer, np.uint32).reshape(n, -1), 0
            for span, columns, (width, fill) in fields:
                block = line[:, col:col + columns * width].reshape(-1, span, columns, width)
                fill(block[:, 0])
                block[:, 1:] = block[:, :1]  # the pulse's other row
                col += columns * width
            del fields  # its arrays go before the next group's and the text
            handle.write(buffer.translate(None, b"\0"))
            index += n
        yield chunk
