"""Tests for numerology, preamble construction, framing and IQ file I/O."""

import warnings

import numpy as np
import pytest

from ldacs_sync import (
    build_frame,
    energy_template,
    generate_preamble,
    make_numerology,
    read_iq,
    write_iq,
)
from ldacs_sync.sigmodel import _qpsk, used_subcarriers


# A per-symbol builder: one draw, one IFFT and one windowed block per OFDM
# symbol, added into the output one block at a time.  The row-wise builders
# in sigmodel must match it bit for bit.


def _useful_reference(k_indices, rng, num):
    re = rng.integers(0, 2, size=k_indices.size) * 2 - 1
    im = rng.integers(0, 2, size=k_indices.size) * 2 - 1
    spec = np.zeros(num.n_total, dtype=np.complex128)
    spec[np.mod(k_indices, num.n_total)] = (re + 1j * im) / np.sqrt(2.0)
    x = np.fft.ifft(spec)
    return x / np.sqrt(np.mean(np.abs(x) ** 2))


def _block_reference(useful, num):
    block = np.concatenate([useful[-num.n_cp :], useful, useful[: num.n_win]])
    t = (np.arange(num.n_win) + 0.5) / num.n_win
    ramp = 0.5 * (1.0 - np.cos(np.pi * t))
    block[: num.n_win] *= ramp
    block[-num.n_win :] *= ramp[::-1]
    return block


def _preamble_reference(num, seed):
    rng = np.random.default_rng(seed)
    used = used_subcarriers(num)
    u1 = _useful_reference(used[used % 4 == 0], rng, num)
    u2 = _useful_reference(used[used % 2 == 0], rng, num)
    hop = num.n_cp + num.n_total
    out = np.zeros(2 * hop + num.n_win, dtype=np.complex128)
    for i, u in enumerate((u1, u2)):
        b = _block_reference(u, num)
        out[i * hop : i * hop + b.size] += b
    return out


def _frame_reference(num, pre, n_payload_symbols, lead_gap, seed):
    rng = np.random.default_rng(seed)
    used = used_subcarriers(num)
    hop = num.n_cp + num.n_total
    out = np.zeros(lead_gap + (2 + n_payload_symbols) * hop + num.n_win, dtype=np.complex128)
    out[lead_gap : lead_gap + pre.size] += pre
    for p in range(n_payload_symbols):
        b = _block_reference(_useful_reference(used, rng, num), num)
        off = lead_gap + (2 + p) * hop
        out[off : off + b.size] += b
    return out, lead_gap


class TestNumerology:
    def test_default_values(self, num):
        assert num.n_ov == 4
        assert num.n_fft_base == 64
        assert num.l_quarter == 64
        assert num.n_total == 256
        assert num.n_used == 50
        assert num.n_cp == 44
        assert num.n_win == 32
        assert num.d_template == 256
        assert num.m_consec == 16
        assert num.delta_search == 224
        assert num.sample_rate_hz == pytest.approx(2.5e6)
        assert num.subcarrier_spacing_hz == pytest.approx(9765.625)
        assert num.n_symbol == num.n_cp + num.n_total == 300
        L = num.l_quarter
        assert num.lookback == max(4 * L, num.d_template + 2 * L) - 1 == 383
        # SyncState's one tail rule: the look-back it holds before the
        # symbol-1 CFO reading also covers a trigger run that straddles a push
        assert num.n_symbol - num.sto_search_gap >= num.m_consec - 1
        with pytest.raises(AttributeError):
            num.n_cp = 5

    def test_whole_rows_per_lag(self, num):
        # the kernels' screen sums rows of m_consec samples and pairs each
        # row with the rows L and 2L before it
        assert num.l_quarter % num.m_consec == 0

    def test_used_subcarriers_symmetric(self, num):
        from ldacs_sync.sigmodel import used_subcarriers

        used = used_subcarriers(num)
        assert len(used) == num.n_used
        assert 0 not in used
        assert set(used.tolist()) == {k for k in range(-25, 26) if k != 0}

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_fft", 128),
            ("n_cp", 0),
            ("n_fft_base", 128),
            ("n_win", 64),
            ("n_ov", 2),
            ("d_template", 128),
            ("m_consec", 8),
            ("delta_search", 112),
        ],
    )
    def test_nothing_can_be_overridden(self, key, value):
        with pytest.raises(TypeError):
            make_numerology(**{key: value})


class TestPreamble:
    # the useful parts [n_cp, n_symbol) and [n_symbol + n_cp, 2 * n_symbol)
    # lie between the window ramps

    def test_lengths(self, num, pre):
        assert pre.shape == (2 * num.n_symbol + num.n_win,)
        assert pre.dtype == np.complex128

    def test_symbol1_quarter_periodicity(self, num):
        for seed in (1, 2, 7, 19):
            pre = generate_preamble(num, seed=seed)
            u1 = pre[num.n_cp : num.n_symbol]
            L = num.l_quarter
            for q in range(1, 4):
                assert np.max(np.abs(u1[q * L : (q + 1) * L] - u1[:L])) < 1e-12

    def test_symbol2_half_periodicity(self, num):
        for seed in (1, 2, 7, 19):
            pre = generate_preamble(num, seed=seed)
            u2 = pre[num.n_symbol + num.n_cp : 2 * num.n_symbol]
            half = num.n_total // 2
            assert np.max(np.abs(u2[half:] - u2[:half])) < 1e-12

    def test_useful_parts_unit_power(self, num, pre):
        for start in (num.n_cp, num.n_symbol + num.n_cp):
            u = pre[start : start + num.n_total]
            assert np.mean(np.abs(u) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_cyclic_prefix_copies_tail(self, num, pre):
        # the prefix's first n_win samples are ramped; the rest is an exact copy
        u1 = pre[num.n_cp : num.n_symbol]
        cp1 = pre[num.n_win : num.n_cp]
        assert np.array_equal(cp1, u1[num.n_win - num.n_cp :])

    def test_deterministic_per_seed(self, num):
        a = generate_preamble(num, seed=5)
        b = generate_preamble(num, seed=5)
        c = generate_preamble(num, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_matches_per_symbol_build(self, num, seed):
        assert np.array_equal(generate_preamble(num, seed), _preamble_reference(num, seed))


class TestEnergyTemplate:
    def test_shape_and_positivity(self, num, template):
        assert template.shape == (num.d_template,)
        assert np.all(template >= 0.0)
        assert template.dtype == np.float64

    def test_anchor_matches_layout(self, num, pre, template):
        # the last sample of symbol 2's useful part, before the tail ramp
        assert num.anchor == 2 * num.n_symbol - 1 == 599
        mag2 = np.abs(pre) ** 2
        assert template[0] == mag2[num.anchor]
        assert template[-1] == mag2[num.anchor - num.d_template + 1]

    def test_scale_quadratic_in_amplitude(self, num, pre):
        t1 = energy_template(pre, num)
        t2 = energy_template(2.0 * pre, num)
        assert np.allclose(t2, 4.0 * t1, rtol=1e-12)


class TestQpsk:
    @pytest.mark.parametrize("rows, n", [(0, 5), (1, 0), (1, 13), (1, 25), (2, 50), (5, 50)])
    def test_table_gives_the_arithmetic_bits(self, rows, n):
        # _qpsk looks its values up; they are the bits of the arithmetic
        # form on the same draw, and the generator moves on alike
        for seed in range(40):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            bits = ref_rng.integers(0, 2, size=(rows, 2, n)) * 2 - 1
            ref = (bits[:, 0] + 1j * bits[:, 1]) / np.sqrt(2.0)
            got = _qpsk(rng, rows, n)
            assert got.dtype == ref.dtype and got.shape == ref.shape == (rows, n)
            assert got.tobytes() == ref.tobytes()
            assert rng.random() == ref_rng.random()


class TestFrame:
    def test_lead_gap_and_length(self, num, pre):
        samples, n0 = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=9)
        assert n0 == 500
        sym = num.n_cp + num.n_total
        # preamble block plus two payload symbols overlap-added on the same hop
        assert samples.size == 500 + 4 * sym + num.n_win

    def test_zero_payload(self, num, pre):
        samples, n0 = build_frame(num, pre, n_payload_symbols=0, lead_gap=100, seed=9)
        assert samples.size == 100 + pre.size
        assert np.allclose(samples[100:], pre)
        assert np.max(np.abs(samples[:100])) == 0.0

    def test_payload_useful_parts_unit_power(self, num, pre):
        samples, n0 = build_frame(num, pre, n_payload_symbols=3, lead_gap=0, seed=3)
        sym = num.n_cp + num.n_total
        for k in range(2, 5):  # payload symbols follow the two preamble symbols
            u = samples[k * sym + num.n_cp : k * sym + num.n_cp + num.n_total]
            assert np.mean(np.abs(u) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_frame_deterministic(self, num, pre):
        a, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=50, seed=4)
        b, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=50, seed=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_payload_symbols", [0, 1, 2, 5])
    @pytest.mark.parametrize("lead_gap", [0, 1, 700])
    def test_matches_per_symbol_build(self, num, pre, n_payload_symbols, lead_gap):
        for seed in range(21):
            samples, n0 = build_frame(num, pre, n_payload_symbols, lead_gap, seed)
            ref, ref_n0 = _frame_reference(num, pre, n_payload_symbols, lead_gap, seed)
            assert np.array_equal(samples, ref)
            assert n0 == ref_n0


class TestIqFiles:
    def test_roundtrip(self, tmp_path, rng):
        x = (rng.normal(size=257) + 1j * rng.normal(size=257)).astype(np.complex128)
        path = tmp_path / "x.fc32"
        write_iq(path, x)
        y = read_iq(path)
        assert y.dtype == np.complex128
        assert np.allclose(y, x, atol=1e-6)  # float32 quantization

    def test_layout_interleaved_le_float32(self, tmp_path):
        x = np.array([1.0 + 2.0j, -3.0 + 0.5j])
        path = tmp_path / "x.fc32"
        write_iq(path, x)
        raw = np.fromfile(path, dtype="<f4")
        assert raw.tolist() == [1.0, 2.0, -3.0, 0.5]

    def test_roundtrip_keeps_every_float32_bit(self, tmp_path, recwarn):
        inf, nan = np.inf, np.nan
        x = np.array(
            [complex(1, inf), complex(inf, 1), complex(2, nan), complex(3, -0.0), complex(-0.0, -0.0)]
        )
        path = tmp_path / "x.fc32"
        write_iq(path, x)
        y = read_iq(path)
        assert y.dtype == np.complex128
        want = x.astype(np.complex64).view(np.uint32)
        assert np.array_equal(y.astype(np.complex64).view(np.uint32), want)
        assert np.array_equal(np.fromfile(path, dtype="<u4"), want)
        assert np.array_equal(np.signbit(y.imag), [False, False, False, True, True])
        assert np.array_equal(np.isnan(y.imag), [False, False, True, False, False])
        assert np.array_equal(np.isinf(y.real), [False, True, False, False, False])
        assert len(recwarn) == 0

    def test_overflow_rejected_naming_the_sample(self, tmp_path):
        # a finite part beyond the float32 range would be written as inf
        top = float(np.finfo(np.float32).max)
        inf, nan = np.inf, np.nan
        path = tmp_path / "x.fc32"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, at in (([1e39 + 0j], 0), ([1, complex(inf, nan), complex(-0.0, -2 * top)], 2)):
                with pytest.raises(ValueError, match=rf"sample {at}\b.*float32 range"):
                    write_iq(path, np.array(x))
                assert not path.exists()
            # parts that round to the largest float32 are written as it
            edge = top * (1 + 2.0**-25)
            write_iq(path, np.array([complex(edge, -edge), complex(inf, -inf)]))
        assert read_iq(path).tolist() == [complex(top, -top), complex(inf, -inf)]

    def test_rejects_odd_file(self, tmp_path):
        path = tmp_path / "bad.fc32"
        path.write_bytes(b"\x00" * 4)  # one float, not a complex pair
        with pytest.raises(ValueError):
            read_iq(path)
