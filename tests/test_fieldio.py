import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fringescale import (
    CorruptHeaderError,
    TruncatedPayloadError,
    UnsupportedFormatError,
    field_from_array,
    read_field,
    read_image,
    read_pgm,
    write_field,
    write_ppm,
)
from fringescale.fieldio import atomic_write_text


def fgrid_bytes(w, h, values, mask=None):
    """Hand-rolled writer used as the serialization oracle."""
    out = f"FGRID 1 {w} {h} {1 if mask is not None else 0}\n".encode()
    for v in values:
        out += struct.pack("<d", v)
    if mask is not None:
        out += bytes(int(b) for b in mask)
    return out


def copied_fgrid_bytes(f):
    """The FGRID encoding built by copying: header + tobytes() of the
    values + the mask cast to uint8."""
    has_mask = f.mask is not None
    out = f"FGRID 1 {f.grid.width} {f.grid.height} {int(has_mask)}\n".encode()
    out += f.values.astype("<f8").tobytes()
    if has_mask:
        out += f.mask.astype(np.uint8).tobytes()
    return out


class TestFgridRoundTrip:
    def test_matches_hand_rolled_bytes(self, tmp_path):
        vals = [float(i) - 31.5 for i in range(80)]
        f = field_from_array(np.array(vals).reshape(8, 10))
        p = tmp_path / "a.fgrid"
        write_field(p, f)
        assert p.read_bytes() == fgrid_bytes(10, 8, vals)

    def test_mask_section_matches(self, tmp_path):
        vals = np.arange(64, dtype=float).reshape(8, 8)
        mask = np.arange(64).reshape(8, 8) % 2 == 0
        vals[~mask] = 0.0
        f = field_from_array(vals, mask)
        p = tmp_path / "m.fgrid"
        write_field(p, f)
        assert p.read_bytes() == fgrid_bytes(8, 8, vals.ravel(), mask.ravel())

    def test_round_trip_bit_exact(self, tmp_path, rng):
        vals = rng.normal(size=(9, 13)) * 10.0 ** rng.integers(-300, 300, (9, 13))
        f = field_from_array(vals)
        p = tmp_path / "rt.fgrid"
        write_field(p, f)
        back = read_field(p)
        assert back.grid == f.grid
        # compare the raw bit patterns, not just values
        assert np.array_equal(f.values.view(np.uint64), back.values.view(np.uint64))

    def test_special_values_survive(self, tmp_path):
        vals = np.zeros((8, 8))
        vals[0, 0] = -0.0
        vals[0, 1] = 5e-324          # smallest subnormal
        vals[0, 2] = -5e-324
        vals[0, 3] = np.finfo(np.float64).max
        vals[0, 4] = np.finfo(np.float64).tiny
        vals[0, 5] = -np.finfo(np.float64).max
        p = tmp_path / "s.fgrid"
        write_field(p, field_from_array(vals))
        back = read_field(p)
        assert np.array_equal(vals.view(np.uint64), back.values.view(np.uint64))
        assert np.signbit(back.values[0, 0])

    def test_mask_round_trip(self, tmp_path):
        vals = np.ones((8, 8))
        mask = np.ones((8, 8), dtype=bool)
        mask[3:5, 2:7] = False
        vals[~mask] = 0.0
        p = tmp_path / "mask.fgrid"
        write_field(p, field_from_array(vals, mask))
        back = read_field(p)
        assert np.array_equal(back.mask, mask)
        assert np.array_equal(back.values, vals)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64),
                    min_size=64, max_size=64))
    def test_any_finite_payload_round_trips(self, tmp_path_factory, vals):
        p = tmp_path_factory.mktemp("h") / "x.fgrid"
        arr = np.array(vals).reshape(8, 8)
        write_field(p, field_from_array(arr))
        back = read_field(p)
        assert np.array_equal(arr.view(np.uint64), back.values.view(np.uint64))


class TestFgridWriterBytes:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("strided", [False, True])
    def test_matches_copied_encoding(self, tmp_path, rng, masked, strided):
        # strided: the field is built from crop views strided on both axes
        big = rng.normal(size=(64, 90))
        big_mask = rng.random((64, 90)) > 0.3
        big[~big_mask] = 0.0
        crop = np.s_[5:57:2, 7:80:3] if strided else np.s_[5:31, 7:32]
        assert big[crop].flags.c_contiguous is False
        f = field_from_array(big[crop], big_mask[crop] if masked else None)
        p = tmp_path / "a.fgrid"
        write_field(p, f)
        assert p.read_bytes() == copied_fgrid_bytes(f)
        back = read_field(p)
        assert np.array_equal(back.values, big[crop])
        assert np.array_equal(back.valid(), big_mask[crop] if masked else f.valid())


class TestFgridErrors:
    def _write(self, tmp_path, data):
        p = tmp_path / "bad.fgrid"
        p.write_bytes(data)
        return p

    def test_no_newline(self, tmp_path):
        p = self._write(tmp_path, b"FGRID 1 8 8 0" + b" " * 80)
        with pytest.raises(CorruptHeaderError) as ei:
            read_field(p)
        assert ei.value.offset == 64

    def test_wrong_magic(self, tmp_path):
        p = self._write(tmp_path, b"GRIDF 1 8 8 0\n" + b"\0" * 512)
        with pytest.raises(CorruptHeaderError) as ei:
            read_field(p)
        assert ei.value.offset == 0

    def test_wrong_version(self, tmp_path):
        p = self._write(tmp_path, b"FGRID 2 8 8 0\n" + b"\0" * 512)
        with pytest.raises(CorruptHeaderError):
            read_field(p)

    def test_non_integer_field(self, tmp_path):
        p = self._write(tmp_path, b"FGRID 1 8 eight 0\n" + b"\0" * 512)
        with pytest.raises(CorruptHeaderError):
            read_field(p)

    def test_bad_mask_flag(self, tmp_path):
        p = self._write(tmp_path, b"FGRID 1 8 8 2\n" + b"\0" * 1024)
        with pytest.raises(CorruptHeaderError):
            read_field(p)

    def test_truncated_payload_reports_length(self, tmp_path):
        data = fgrid_bytes(8, 8, [0.0] * 64)[:-9]
        p = self._write(tmp_path, data)
        with pytest.raises(TruncatedPayloadError) as ei:
            read_field(p)
        assert ei.value.offset == len(data)

    def test_truncated_mask_section(self, tmp_path):
        data = fgrid_bytes(8, 8, [0.0] * 64, [1] * 64)[:-1]
        p = self._write(tmp_path, data)
        with pytest.raises(TruncatedPayloadError):
            read_field(p)

    def test_bad_mask_byte_offset(self, tmp_path):
        mask = [1] * 64
        mask[10] = 7
        data = fgrid_bytes(8, 8, [0.0] * 64, mask)
        p = self._write(tmp_path, data)
        with pytest.raises(UnsupportedFormatError) as ei:
            read_field(p)
        header_len = len(b"FGRID 1 8 8 1\n")
        assert ei.value.offset == header_len + 8 * 64 + 10

    def test_nan_payload_rejected(self, tmp_path):
        vals = [0.0] * 64
        vals[5] = float("nan")
        p = self._write(tmp_path, fgrid_bytes(8, 8, vals))
        with pytest.raises(UnsupportedFormatError) as ei:
            read_field(p)
        header_len = len(b"FGRID 1 8 8 0\n")
        assert ei.value.offset == header_len + 8 * 5

    def test_nonzero_masked_pixel_rejected(self, tmp_path):
        vals = [0.0] * 64
        vals[3] = 1.0
        mask = [1] * 64
        mask[3] = 0
        p = self._write(tmp_path, fgrid_bytes(8, 8, vals, mask))
        with pytest.raises(UnsupportedFormatError):
            read_field(p)

    def test_offset_in_message(self, tmp_path):
        data = fgrid_bytes(8, 8, [0.0] * 64)[:-9]
        p = self._write(tmp_path, data)
        with pytest.raises(TruncatedPayloadError, match="byte offset"):
            read_field(p)


class TestPgm:
    def test_8bit_scaling(self, tmp_path):
        # frozen: {0, 255, 128, 64} / 255
        raster = bytes([0, 255, 128, 64] * 16)
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n8 8\n255\n" + raster)
        f = read_pgm(p)
        assert f.grid.shape == (8, 8)
        assert f.values[0, 0] == 0.0
        assert f.values[0, 1] == 1.0
        assert f.values[0, 2] == pytest.approx(128 / 255)
        assert f.values[0, 3] == pytest.approx(64 / 255)

    def test_16bit_big_endian(self, tmp_path):
        vals = (np.arange(64) * 1000).astype(">u2")
        p = tmp_path / "b.pgm"
        p.write_bytes(b"P5 8 8 65535\n" + vals.tobytes())
        f = read_pgm(p)
        assert f.values[0, 1] == pytest.approx(1000 / 65535)
        assert f.values[7, 7] == pytest.approx(63000 / 65535)

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n8 # inline\n8\n255\n" + bytes(64))
        f = read_pgm(p)
        assert f.grid.shape == (8, 8)

    def test_plain_pgm_rejected(self, tmp_path):
        p = tmp_path / "p2.pgm"
        p.write_bytes(b"P2\n8 8\n255\n" + b"0 " * 64)
        with pytest.raises(UnsupportedFormatError):
            read_pgm(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n8 8\n255\n" + bytes(63))
        with pytest.raises(TruncatedPayloadError):
            read_pgm(p)

    def test_maxval_out_of_range(self, tmp_path):
        p = tmp_path / "mv.pgm"
        p.write_bytes(b"P5\n8 8\n70000\n" + bytes(128))
        with pytest.raises(CorruptHeaderError):
            read_pgm(p)


class TestReadImage:
    def test_dispatches_by_magic(self, tmp_path):
        f = field_from_array(np.ones((8, 8)))
        pf = tmp_path / "f.fgrid"
        write_field(pf, f)
        assert read_image(pf).values[0, 0] == 1.0
        pg = tmp_path / "g.pgm"
        pg.write_bytes(b"P5\n8 8\n255\n" + bytes([255] * 64))
        assert read_image(pg).values[0, 0] == 1.0

    def test_unknown_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(UnsupportedFormatError):
            read_image(p)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_image(tmp_path / "absent.fgrid")


class TestPpm:
    def test_header_and_payload(self, tmp_path):
        rgb = np.zeros((8, 10, 3), dtype=np.uint8)
        rgb[0, 0] = (1, 2, 3)
        p = tmp_path / "o.ppm"
        write_ppm(p, rgb)
        data = p.read_bytes()
        assert data.startswith(b"P6\n10 8\n255\n")
        assert data[12:15] == bytes([1, 2, 3])
        assert len(data) == 12 + 8 * 10 * 3

    def test_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "o.ppm", np.zeros((8, 8), dtype=np.uint8))

    def test_round_trip(self, tmp_path, rng):
        rgb = rng.integers(0, 256, size=(9, 11, 3), dtype=np.uint8)
        p = tmp_path / "r.ppm"
        write_ppm(p, rgb[:, ::-1])  # a reversed view is written as shown
        data = p.read_bytes()
        header = b"P6\n11 9\n255\n"
        assert data[:len(header)] == header
        back = np.frombuffer(data, dtype=np.uint8, offset=len(header))
        assert np.array_equal(back.reshape(9, 11, 3), rgb[:, ::-1])


class TestAtomicity:
    def test_no_temp_left_behind(self, tmp_path):
        f = field_from_array(np.ones((8, 8)))
        write_field(tmp_path / "a.fgrid", f)
        assert sorted(q.name for q in tmp_path.iterdir()) == ["a.fgrid"]

    def test_text_round_trip(self, tmp_path):
        p = tmp_path / "t.txt"
        text = "level,segment,x,y\n0.5,0,1.25,2.5\nα = 3\n"
        atomic_write_text(p, text)
        assert p.read_text(encoding="utf-8") == text
        assert sorted(q.name for q in tmp_path.iterdir()) == ["t.txt"]

    def test_overwrite_replaces(self, tmp_path):
        p = tmp_path / "a.fgrid"
        write_field(p, field_from_array(np.ones((8, 8))))
        write_field(p, field_from_array(np.zeros((8, 8))))
        assert read_field(p).values[0, 0] == 0.0
