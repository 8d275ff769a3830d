"""Serialization battery: every writer is deterministic and every value
survives a write/read cycle bit for bit."""

import math
import struct

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipme.core import (GridSpec, Params, ScalarField, SnapshotFormatError,
                       run_manifest)
from ipme import io

GRID3 = GridSpec.box((0.0, 0.0), (1.0, 1.0), (3, 3))

finite = st.floats(allow_nan=False, allow_infinity=False)
SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308]
# 1-d, 2-d and 3-d grids at h = 1/48 and h = 0.07
GRIDS = [GridSpec(n=n, h=(h,) * len(n), origin=(-0.5,) * len(n))
         for h in (1.0 / 48.0, 0.07) for n in ((13,), (4, 5), (3, 4, 5))]


def field_of(values, quantity="v", t=0.5, grid=GRID3):
    return ScalarField(grid=grid, values=np.asarray(values, dtype=float),
                       t=t, quantity=quantity)


class TestSnapshotRoundtrip:

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), grid=st.sampled_from(GRIDS),
           t=st.floats(0.0, 1e9))
    @example(data=None, grid=GRIDS[1], t=0.5)
    def test_bytes_roundtrip_is_exact(self, data, grid, t):
        if data is None:
            # every special value, cycled over a 2-d grid
            vals = np.resize(SPECIALS, grid.size)
        else:
            vals = np.array(data.draw(st.lists(
                finite | st.sampled_from(SPECIALS), min_size=grid.size,
                max_size=grid.size)), dtype=float)
        field = field_of(vals, t=t, grid=grid)
        raw = io.snapshot_bytes(field)
        back = io.parse_snapshot(raw)
        assert back.grid == field.grid
        assert back.t == field.t
        assert back.quantity == "v"
        assert np.array_equal(back.values.view(np.int64),
                              field.values.view(np.int64))
        assert io.snapshot_bytes(back) == raw

    @settings(max_examples=30, deadline=None)
    @given(vals=st.lists(finite.map(abs), min_size=9, max_size=9))
    def test_pressure_fields_roundtrip(self, vals):
        field = field_of(vals, quantity="u")
        back = io.parse_snapshot(io.snapshot_bytes(field))
        assert back.quantity == "u"
        assert np.array_equal(back.values, field.values.reshape(3, 3))

    def test_file_roundtrip_and_byte_identity(self, tmp_path):
        field = field_of(np.linspace(-1.0, 1.0, 9) ** 3)
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        io.write_snapshot(str(a), field)
        io.write_snapshot(str(b), io.read_snapshot(str(a)))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == io.snapshot_bytes(field)

    def test_layout_is_header_then_row_major_f8(self, tmp_path):
        vals = np.arange(9.0).reshape(3, 3)
        raw = io.snapshot_bytes(field_of(vals))
        head, _, body = raw.partition(b"\n")
        assert head == (b"# ipme v2 d=2 n=3,3 h=0.5,0.5 origin=0.0,0.0 "
                        b"t=0.5 quantity=v")
        assert body == struct.pack("<9d", *range(9))
        path = tmp_path / "s.snap"
        path.write_bytes(raw)
        assert np.array_equal(np.fromfile(path, "<f8", offset=len(head) + 1),
                              np.arange(9.0))

    def test_body_is_the_c_ordered_little_endian_values(self, tmp_path):
        rng = np.random.default_rng(3)
        cube = GridSpec.box((0.0,) * 3, (1.0,) * 3, (3, 4, 5))
        square = GridSpec.box((0.0, 0.0), (1.0, 1.0), (6, 6))
        a = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-30, 30, (6, 6))
        a[0, :3] = [-0.0, 5e-324, -1.7976931348623157e308]
        b = np.where(rng.random((3, 4, 5)) < 0.5, rng.random((3, 4, 5)), -0.0)
        for vals in (a, a.T, np.asfortranarray(a), a[::-1],
                     b, np.asfortranarray(b), b[:, ::-1]):
            for layout in (vals, vals.astype(">f8")):
                grid = square if layout.ndim == 2 else cube
                field = field_of(np.zeros(grid.size), grid=grid)
                # the writer takes the values in whatever layout it finds
                field.values = layout
                raw = io.snapshot_bytes(field)
                body = raw.partition(b"\n")[2]
                assert body == layout.astype("<f8").tobytes()
                path = tmp_path / "s.snap"
                io.write_snapshot(str(path), field)
                assert path.read_bytes() == raw

    def test_read_values_are_writable(self, tmp_path):
        path = tmp_path / "s.snap"
        io.write_snapshot(str(path), field_of(np.arange(9.0)))
        for back in (io.read_snapshot(str(path)),
                     io.parse_snapshot(path.read_bytes())):
            assert back.values.flags.writeable and back.values.flags.aligned
            back.values[1, 1] = -2.0

    def test_legacy_text_reads_to_the_same_bits(self, tmp_path):
        vals = np.array(SPECIALS + [1.0 / 3.0, 2.0 ** 53, 0.1, 1e16])[:9]
        field = field_of(vals, t=0.125)
        text = ("# ipme v1 d=2 n=3,3 h=0.5,0.5 origin=0.0,0.0 t=0.125 "
                "quantity=v\n" + "".join(repr(float(v)) + "\n" for v in vals))
        path = tmp_path / "old.snap"
        path.write_text(text)
        back = io.read_snapshot(str(path))
        assert back.grid == field.grid and back.t == 0.125
        assert np.array_equal(back.values.view(np.int64),
                              field.values.view(np.int64))
        # and is written back as v2
        assert io.snapshot_bytes(back) == io.snapshot_bytes(field)


class TestSnapshotLength:
    """A v2 body is exactly 8 bytes per node: a cut or padded file is an
    error, not a different field."""

    def raw(self):
        return io.snapshot_bytes(field_of(np.arange(9.0)))

    @pytest.mark.parametrize("cut,got", [(-1, 71), (-8, 64), (-72, 0),
                                         (1, 73), (8, 80)])
    def test_wrong_body_length_rejected(self, cut, got):
        raw = self.raw()
        data = raw[:cut] if cut < 0 else raw + b"\0" * cut
        with pytest.raises(SnapshotFormatError) as info:
            io.parse_snapshot(data, name="s.snap")
        assert str(info.value) == (
            f"s.snap: body is {got} bytes, expected 72 (9 float64 values)")

    def test_header_without_newline_rejected(self):
        head = self.raw().partition(b"\n")[0]
        with pytest.raises(SnapshotFormatError) as info:
            io.parse_snapshot(head, name="s.snap")
        assert str(info.value) == (
            "s.snap: header has no newline; body is 0 bytes, expected 72 "
            "(9 float64 values)")

    def test_cut_file_rejected_on_read(self, tmp_path):
        path = tmp_path / "cut.snap"
        path.write_bytes(self.raw()[:-3])
        with pytest.raises(SnapshotFormatError, match="cut.snap: body is 69"):
            io.read_snapshot(str(path))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_body_rejected(self, bad):
        raw = bytearray(self.raw())
        raw[-16:-8] = struct.pack("<d", bad)
        with pytest.raises(SnapshotFormatError,
                           match="s.snap: field values must be finite"):
            io.parse_snapshot(bytes(raw), name="s.snap")

    def test_negative_pressure_body_rejected(self):
        raw = bytearray(io.snapshot_bytes(field_of(np.zeros(9),
                                                   quantity="u")))
        raw[-8:] = struct.pack("<d", -1.0)
        with pytest.raises(SnapshotFormatError,
                           match="s.snap: u field must be nonnegative"):
            io.parse_snapshot(bytes(raw), name="s.snap")


class TestSnapshotParsing:
    """Header checks for both formats, and the legacy v1 text reader."""

    def header(self):
        return ("# ipme v1 d=2 n=3,3 h=0.5,0.5 origin=0.0,0.0 t=0.5 "
                "quantity=v")

    def parse(self, text, name="<snapshot>"):
        return io.parse_snapshot(text.encode(), name=name)

    def test_empty_text_rejected(self):
        with pytest.raises(SnapshotFormatError, match="empty"):
            self.parse("")

    def test_missing_magic_rejected(self):
        with pytest.raises(SnapshotFormatError, match="header"):
            self.parse("values\n0.0\n")

    def test_bad_header_token_rejected(self):
        text = "# ipme v1 d=2 nonsense\n" + "0.0\n" * 9
        with pytest.raises(SnapshotFormatError, match="bad header token"):
            self.parse(text)

    def test_header_key_order_enforced(self):
        head = ("# ipme v1 n=3,3 d=2 h=0.5,0.5 origin=0.0,0.0 t=0.5 "
                "quantity=v")
        with pytest.raises(SnapshotFormatError, match="header keys"):
            self.parse(head + "\n" + "0.0\n" * 9)

    def test_dimension_mismatch_rejected(self):
        head = "# ipme v1 d=3 n=3,3 h=0.5,0.5 origin=0.0,0.0 t=0.5 quantity=v"
        with pytest.raises(SnapshotFormatError, match="lengths"):
            self.parse(head + "\n" + "0.0\n" * 9)

    def test_unknown_quantity_rejected(self):
        text = self.header().replace("quantity=v", "quantity=w")
        with pytest.raises(SnapshotFormatError, match="quantity tag"):
            self.parse(text + "\n" + "0.0\n" * 9)

    def test_value_count_enforced(self):
        with pytest.raises(SnapshotFormatError, match="expected 9"):
            self.parse(self.header() + "\n" + "0.0\n" * 8)
        with pytest.raises(SnapshotFormatError, match="more than 9"):
            self.parse(self.header() + "\n" + "0.0\n" * 10)

    def test_unparsable_value_rejected(self):
        body = "0.0\n" * 4 + "zero\n" + "0.0\n" * 4
        with pytest.raises(SnapshotFormatError, match="bad value"):
            self.parse(self.header() + "\n" + body)

    @pytest.mark.parametrize("magic", ["v1", "v2"])
    @pytest.mark.parametrize("h,origin", [("nan,0.5", "0.0,0.0"),
                                          ("0.5,0.5", "inf,0.0")])
    def test_non_finite_grid_rejected(self, h, origin, magic):
        head = (f"# ipme {magic} d=2 n=3,3 h={h} origin={origin} t=0.5 "
                f"quantity=v")
        body = "0.0\n" * 9 if magic == "v1" else "\0" * 72
        with pytest.raises(SnapshotFormatError, match="finite"):
            self.parse(head + "\n" + body)

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, t):
        # `ipme asym` would otherwise sort and fit on such a time
        text = self.header().replace("t=0.5", f"t={t}")
        with pytest.raises(SnapshotFormatError, match="time must be finite"):
            self.parse(text + "\n" + "0.0\n" * 9)
        raw = io.snapshot_bytes(field_of(np.zeros(9))).replace(
            b"t=0.5", f"t={t}".encode(), 1)
        with pytest.raises(SnapshotFormatError, match="time must be finite"):
            io.parse_snapshot(raw)

    def test_field_constraints_still_apply(self):
        # a parsed pressure field goes through the same nonnegativity
        # police as a constructed one
        text = self.header().replace("quantity=v", "quantity=u") + "\n" + \
            "0.0\n-1.0\n" + "0.0\n" * 7
        with pytest.raises(SnapshotFormatError, match="negative"):
            self.parse(text)

    @pytest.mark.parametrize("body,message", [
        ("0.0\n" * 8, "s.snap:9: got 8 values, expected 9"),
        ("0.0\n" * 8 + "   \n", "s.snap:10: got 8 values, expected 9"),
        ("", "s.snap:1: got 0 values, expected 9"),
        ("0.0\n" * 10, "s.snap:11: more than 9 values"),
        ("0.0\n" * 9 + "\n \n1.0\n", "s.snap:13: more than 9 values"),
        ("0.0\n" * 4 + "zero\n" + "0.0\n" * 4, "s.snap:6: bad value 'zero'"),
        ("\n" + "0.0\n" * 4 + " x1 \n" + "0.0\n" * 4,
         "s.snap:7: bad value 'x1'"),
        ("0.0 1.0\n" + "0.0\n" * 8, "s.snap:2: bad value '0.0 1.0'"),
    ])
    def test_body_errors_name_the_offending_line(self, body, message):
        with pytest.raises(SnapshotFormatError) as info:
            self.parse(self.header() + "\n" + body, name="s.snap")
        assert str(info.value) == message

    def test_blank_lines_ignored(self):
        text = self.header() + "\n\n" + "0.0\n" * 4 + "\n" + "0.0\n" * 5
        back = self.parse(text)
        assert np.array_equal(back.values, np.zeros((3, 3)))

    def test_legacy_file_cut_inside_its_last_value_rejected(self):
        # cut to ...0.1234, the last line would read as another number
        text = ("# ipme v1 d=1 n=5 h=0.25 origin=0.0 t=0.0 quantity=u\n"
                "0.0\n0.1\n0.2\n0.3\n0.123456789\n")
        assert self.parse(text).values[-1] == 0.123456789
        with pytest.raises(SnapshotFormatError) as info:
            self.parse(text[:-6], name="s.snap")
        assert str(info.value) == (
            "s.snap:6: no newline after the last line; the file is cut")


class TestManifest:

    def manifest(self):
        params = Params(m=2.0, eps=1e-3, delta=1e-4)
        return run_manifest(params, GRID3, "dirichlet", t_end=0.5,
                            note="quartic bump, zero lateral data")

    def test_roundtrip_preserves_structure(self, tmp_path):
        man = self.manifest()
        path = tmp_path / "run.yaml"
        io.write_manifest(str(path), man)
        assert io.read_manifest(str(path)) == man

    def test_exponent_floats_read_back_as_floats(self, tmp_path):
        # repr writes 1e-05, 3e-06 and 1e+20 without a dot, which a YAML
        # 1.1 reader takes for strings, and nan and inf as plain words; a
        # breaching run can record a nan error statistic
        man = run_manifest(Params(m=2.0, eps=1e-05), GRID3, "dirichlet",
                           stage_diffs=[3e-06, 1e+20, math.inf, -math.inf],
                           error_stat={"rel": math.nan})
        path = tmp_path / "run.yaml"
        io.write_manifest(str(path), man)
        assert "eps: 1.0e-05\n" in path.read_text()
        for back in (io.read_manifest(str(path)),
                     yaml.safe_load(path.read_text())):
            assert math.isnan(back["error_stat"].pop("rel"))
            assert back == dict(man, error_stat={})

    def test_nested_lists_read_back_as_lists(self, tmp_path):
        # a solve records its (eps, delta) stage pairs as a list of pairs
        man = run_manifest(Params(m=2.0), GRID3, "dirichlet",
                           stage_pairs=[[0.1, 0.01], [0.01, 0.01]])
        path = tmp_path / "run.yaml"
        io.write_manifest(str(path), man)
        assert "stage_pairs: [[0.1, 0.01], [0.01, 0.01]]\n" in \
            path.read_text()
        assert io.read_manifest(str(path))["stage_pairs"] == [
            [0.1, 0.01], [0.01, 0.01]]

    def test_writer_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        io.write_manifest(str(a), self.manifest())
        io.write_manifest(str(b), self.manifest())
        assert a.read_bytes() == b.read_bytes()

    def test_emitted_text_is_plain_yaml(self):
        text = io.manifest_text(self.manifest())
        data = yaml.safe_load(text)
        assert data["format"] == "ipme-manifest v1"
        assert data["grid"]["n"] == [3, 3]

    @pytest.mark.parametrize("read", [yaml.safe_load, io.load_yaml])
    def test_awkward_strings_quoted(self, read):
        # 'true' to '0x10' read back as True, 1.5, 100000.0, None, True,
        # None and 16 when written bare; the last two hold a newline and a
        # tab
        strings = ["a: b #c", "", "ok", "true", "1.5", "1e5", "null", "yes",
                   "~", "0x10", "a\nb", "a\tb"]
        man = {f"s{i}": s for i, s in enumerate(strings)}
        man["listed"] = strings
        text = io.manifest_text(man)
        assert read(text) == man
        assert "s2: ok\n" in text and "s3: 'true'\n" in text

    def test_empty_mapping_survives_reparse(self, tmp_path):
        # a single-rung ladder records monotonicity as an empty mapping
        man = self.manifest()
        man.update(monotonicity={}, ladder_diffs=[],
                   nested={"inner": {}, "x": 1.5})
        path = tmp_path / "run.yaml"
        io.write_manifest(str(path), man)
        text = path.read_text()
        assert "monotonicity: {}\n" in text
        back = io.read_manifest(str(path))
        assert back == man
        assert io.manifest_text(back) == text

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(SnapshotFormatError, match="mapping"):
            io.read_manifest(str(path))


class TestTraceCsv:

    def test_roundtrip_exact(self, tmp_path):
        header = ["t", "r_inner", "r_outer", "empty"]
        rows = [[0.25, 0.1234567890123456, 0.5, 0],
                [0.5, 1e-300, 2.0 / 3.0, 1]]
        path = tmp_path / "trace.csv"
        io.write_trace_csv(str(path), header, rows)
        back_header, back_rows = io.read_trace_csv(str(path))
        assert back_header == header
        for want, got in zip(rows, back_rows):
            assert got == [float(v) for v in want]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SnapshotFormatError, match="empty"):
            io.read_trace_csv(str(path))
