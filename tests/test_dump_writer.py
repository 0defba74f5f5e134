"""The `simulate --dump` writer (`simulate.dumped`) against Python's own
%-formatting in the running interpreter: its number formatters against
"%.17g" and "%d" value by value, and whole dumps against the %-format
writer that it replaced, which is kept here as the oracle."""

import io
import math
import os
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqkd.simulate
from cvqkd.channel import BeamConfig, FadingModel
from cvqkd.finite_size import FadingLattice
from cvqkd.simulate import (
    DUMP_CHUNK,
    SLICE,
    _float_words,
    _int_words,
    _scaled_digits,
    dumped,
    fading_slices,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=400)


def percent_dump(pilot, x, y, tau, bins) -> bytes:
    """The %-format writer that dumped replaced, 1024 rows per write."""
    out = io.StringIO()
    out.write("index,pilot_flag,x,y,tau_sample,bin\n")
    for start in range(0, len(x), 1024):
        stop = min(start + 1024, len(x))
        table = np.column_stack((np.arange(start, stop), pilot[start:stop],
                                 x[start:stop], y[start:stop],
                                 tau[start:stop], bins[start:stop]))
        out.write("%d,%d,%.17g,%.17g,%.17g,%d\n" * (stop - start)
                  % tuple(table.ravel().tolist()))
    return out.getvalue().encode("utf-8")


def written(field, shape: tuple) -> list:
    """The text of each field of a word formatter's (width, fill) for values
    of the given shape, written over stale bytes, as in a reused buffer."""
    width, fill = field
    out = np.full(shape + (width,), 0xFFFFFFFF, np.uint32)
    fill(out)
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    return text.split(",")[1:]


def assert_g17(values):
    v = np.array([float(v) for v in values])[:, None]
    assert written(_float_words(v, b","), v.shape) == ["%.17g" % v for v in v[:, 0]]


def ties(exponent: int, count: int, rng) -> list:
    """Doubles N / 2**(17 - exponent), N odd, with decimal exponent
    `exponent`: 18 significant digits ending in 5, half way between two
    17-digit decimals."""
    shift = 17 - exponent
    lo = math.ceil(10.0 ** exponent * 2 ** shift)
    hi = min(10 ** (exponent + 1) * 2 ** shift, 2 ** 53)
    odd = rng.integers(lo // 2, hi // 2, size=count) * 2 + 1
    return [math.ldexp(int(n), -shift) for n in odd]


class TestFloatFormatter:
    @PROPERTY
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=40))
    def test_any_double(self, values):
        assert_g17(values)

    @PROPERTY
    @given(st.lists(st.floats(min_value=1e-5, max_value=1e17), min_size=1,
                    max_size=40), st.booleans())
    def test_fixed_notation_range(self, values, negate):
        assert_g17([-v if negate else v for v in values])

    # doubles in [1e16, 1e17) are even integers, with no 18th digit
    @pytest.mark.parametrize("exponent", range(-4, 16))
    def test_half_way_ties_round_to_even(self, exponent):
        values = ties(exponent, 2000, np.random.default_rng(exponent + 100))
        assert all(len(Decimal(v).as_tuple().digits) == 18
                   and Decimal(v).as_tuple().digits[-1] == 5 for v in values)
        assert_g17(values)
        assert_g17([-v for v in values])

    def test_powers_of_ten_and_neighbours(self):
        # every decimal exponent of a double; the largest double below
        # 1e-305 (and a dozen other powers) rounds up to the power itself
        values = []
        for j in range(-323, 309):
            p = float(f"1e{j}")
            values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
        assert_g17(values)
        assert_g17([-v for v in values])

    def test_fixed_and_exponent_boundaries(self):
        # %.17g switches to exponent notation below 1e-4 and from 1e17 on
        values = [1e-4, 9.9999999999999991e-05, 0.0001000000000000001,
                  1e-5, 9.99999999999999e-05, 99999999999999984.0,
                  1e16, 9999999999999998.0, 1e17, 1.0000000000000002e17,
                  0.99999999999999989, 9.9999999999999982, 0.5, 1.0, 10.0,
                  0.80000000000000004, 123456789012345678.0]
        assert_g17(values)
        assert_g17([-v for v in values])

    def test_zeros_infinities_and_extremes(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                  -2.2250738585072014e-308, 2.225073858507201e-308,
                  1.7976931348623157e308, 3e-5, 1.2345678901234567e-300,
                  2.0 ** -20, 1e100, 1e-100, 123456789012345678.0]
        assert_g17(values)
        # mixed with fixed-notation values in one column
        assert_g17(values + [0.1, 12.5, -3.75] + values[::-1])

    def test_python_formats_almost_nothing(self):
        # the digits of finite doubles are formed in numpy; only a rounding
        # within 1e-9 of a tie under an inexact power of ten is left to
        # Python, and exact ties in fixed notation are decided exactly
        rng = np.random.default_rng(11)
        bits = rng.integers(1, 0x7FF0 << 48, size=20000, dtype=np.int64)
        sure = _scaled_digits(bits.view(np.float64))[2]
        assert sure.sum() >= 19990
        assert _scaled_digits(np.array(ties(5, 500, rng)))[2].all()
        # next to a power of ten, log10 can be one off and the exponent is
        # fixed; only exact powers under an inexact 10**k stay unsure
        powers = [float(f"1e{j}") for j in range(-323, 309)]
        near = [math.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
        assert (~_scaled_digits(np.array(powers + near))[2]).sum() <= 6

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2 ** 63, size=20000, dtype=np.int64)
        assert_g17(bits.view(np.float64).tolist())
        scaled = rng.standard_normal(20000) * 10.0 ** rng.integers(-6, 18, 20000)
        assert_g17(scaled.tolist())


class TestIntFormatter:
    def test_group_boundaries(self):
        values = [0, 1, -1, 2 ** 63 - 1, -(2 ** 63 - 1)]
        for k in range(19):
            values += [10 ** k - 1, 10 ** k, 10 ** k + 1]
        values += [-v for v in values]
        n = np.array(values, dtype=np.int64)
        assert written(_int_words(n, b",", n < 0), n.shape) == ["%d" % v for v in values]

    def test_bools(self):
        assert written(_int_words(np.array([True, False, True]), b",", False),
                       (3,)) == ["1", "0", "1"]

    def test_no_word_for_an_empty_separator_and_sign(self):
        # the dump's index column: its groups' words alone, a sign its own
        n = np.array([0, 9999, 10000, 123456789], dtype=np.int64)[:, None]
        width, fill = _int_words(n, b"", False)
        assert (width, _int_words(n, b"", n > 0)[0], _int_words(n, b",", False)[0]) == (3, 4, 4)
        out = np.full(n.shape + (width,), 0xFFFFFFFF, np.uint32)
        fill(out)
        assert [line.tobytes().translate(None, b"\0") for line in out] == [
            b"%d" % v for v in n[:, 0]]


def block(count: int, seed: int, fading: bool):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(count) * 3.2
    y = rng.standard_normal(count) * 2.7
    if fading:
        tau = np.repeat(rng.random((count + 1) // 2) ** 8, 2)[:count]
        tau[::97] = 0.0  # an underflowed far-deflected pulse
        pilot = np.repeat(rng.random((count + 1) // 2) < 0.1, 2)[:count]
        bins = rng.integers(-1, 121, size=count)
    else:
        tau = np.broadcast_to(0.5848931924611134, count)
        pilot = np.zeros(count, dtype=bool)
        bins = np.broadcast_to(-1, count)
    return pilot, x, y, tau, bins


class TestWholeDump:
    @pytest.mark.parametrize("count", sorted({
        1, 4095, 4096, 4097, 3 * 4096 + 7, DUMP_CHUNK - 1, DUMP_CHUNK,
        DUMP_CHUNK + 1, 3 * DUMP_CHUNK + 7}))
    @pytest.mark.parametrize("fading", (False, True))
    def test_matches_percent_writer(self, count, fading):
        columns = block(count, count, fading)
        out = io.BytesIO()
        list(dumped(out, [columns]))
        assert out.getvalue() == percent_dump(*columns)
        # chunks of any length, DUMP_CHUNK-aligned or not, index on, and
        # each is passed on as it was given, once written
        split = io.BytesIO()
        chunks = [tuple(c[a:b] for c in columns)
                  for a, b in ((0, count // 3), (count // 3, count))]
        for given_chunk, passed in zip(chunks, dumped(split, chunks), strict=True):
            assert passed is given_chunk
        assert split.getvalue() == out.getvalue()

    @pytest.mark.parametrize("count", (0, 1, DUMP_CHUNK, 3 * DUMP_CHUNK + 7))
    def test_scalar_columns_match_percent_writer(self, count):
        # the fixed-link call (pilot None, scalar tau and bin), and each
        # scalar column next to per-pulse ones
        pilot, x, y, tau, bins = block(count, count + 1, True)
        for cols in ((None, x, y, 0.5848931924611134, -1), (None, x, y, tau, 7),
                     (pilot, x, y, 5e-324, bins), (pilot, x, y, math.inf, -12345)):
            flags = np.zeros(count, dtype=bool) if cols[0] is None else cols[0]
            out = io.BytesIO()
            list(dumped(out, [cols]))
            assert out.getvalue() == percent_dump(
                flags, x, y, *(np.broadcast_to(c, count) for c in cols[3:]))

    def test_empty_block_writes_the_header(self):
        out = io.BytesIO()
        list(dumped(out, [block(0, 0, True)]))
        assert out.getvalue() == percent_dump(*block(0, 0, True))


def mobile_chunks(pairs: int, nu_det: int, pilot_rate: float) -> list:
    """The (pilot, x, y, tau, bins) slices of a mobile block of at least pairs
    pairs, whole pulses, as a mobile simulate row passes them to dumped."""
    fading = FadingModel.from_geometry(BeamConfig(wavelength=800e-9, waist=1e-3), 5.0, 1e-2,
                                       1.745e-3, 0.7)
    lattice = FadingLattice(tau_min=0.8 * fading.eta, tau_max=fading.eta, bins=50)
    return list(fading_slices(fading, lambda t: 0.02 + 0.01 * t, nu_det, 9.0,
                              -(-pairs // nu_det), 3, pilot_rate, lattice))


def joined(chunks: list) -> tuple:
    """One chunk's columns for percent_dump: the chunks' joined, pilot None as
    zeros."""
    pilot, x, y, tau, bins = (np.concatenate(c) if c[0] is not None else None
                              for c in zip(*chunks))
    return np.zeros(x.size, bool) if pilot is None else pilot, x, y, tau, bins


class TestPulseColumns:
    """On a mobile link, tau_sample, bin and pilot_flag repeat for the pairs of
    a heterodyne pulse: dumped formats them once per pulse, with the bytes of
    the %-format writer."""

    @pytest.mark.parametrize("pairs", (DUMP_CHUNK - 1, DUMP_CHUNK + 1, SLICE + 3))
    @pytest.mark.parametrize("nu_det", (1, 2))
    @pytest.mark.parametrize("pilot_rate", (0.0, 0.05))
    def test_mobile_dump_matches_percent_writer(self, pairs, nu_det, pilot_rate):
        chunks = mobile_chunks(pairs, nu_det, pilot_rate)
        assert (chunks[0][0] is None) == (pilot_rate == 0.0)
        out = io.BytesIO()
        assert all(passed is given for passed, given in zip(dumped(out, chunks), chunks,
                                                            strict=True))
        assert out.getvalue() == percent_dump(*joined(chunks))

    @pytest.mark.parametrize("pair", ((0.0, -0.0), (math.nan, math.nan)))
    def test_pairs_repeat_bit_for_bit(self, pair):
        # a pair that is equal but prints apart (0 and -0), or is not equal
        # to itself, is not a pulse's; nor is a column of odd length
        pilot, x, y, tau, bins = block(2 * DUMP_CHUNK + 6, 5, True)
        tau = np.repeat(tau[::2], 2)
        tau[10:12] = pair
        for cols in ((pilot, x, y, tau, bins), tuple(c[:-1] for c in (pilot, x, y, tau, bins))):
            out = io.BytesIO()
            list(dumped(out, [cols]))
            assert out.getvalue() == percent_dump(*cols)

    @pytest.mark.parametrize("nu_det", (1, 2))
    def test_tau_is_formatted_once_per_pulse(self, monkeypatch, nu_det):
        # x and y once per pair, tau once per pulse: a count of the values
        # given to the float formatter, so no timer is needed
        formatted = []
        real = cvqkd.simulate._float_words
        monkeypatch.setattr(cvqkd.simulate, "_float_words",
                            lambda v, sep: formatted.append(v.size) or real(v, sep))
        chunks = mobile_chunks(3 * DUMP_CHUNK + 2, nu_det, 0.05)
        list(dumped(io.BytesIO(), chunks))
        pairs = sum(c[1].size for c in chunks)
        assert sum(formatted) == 2 * pairs + pairs // nu_det


class TestTemporaries:
    @pytest.mark.parametrize("link", ("constant", "heterodyne", "homodyne"))
    def test_one_slice_stays_under_a_megabyte(self, link):
        # DUMP_CHUNK keeps the writer's own allocations, above the chunk's
        # arrays, under 1 MB: its group buffer, temporaries and text
        chunk = ((None, *block(SLICE, 7, False)[1:3], 0.3, -1) if link == "constant" else
                 mobile_chunks(SLICE, 2 if link == "heterodyne" else 1, 0.05)[0])
        assert chunk[1].size == SLICE
        with open(os.devnull, "wb") as sink:
            list(dumped(sink, [chunk]))  # the tables are cached once
            tracemalloc.start()
            try:
                list(dumped(sink, [chunk]))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20
