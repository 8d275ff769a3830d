"""Serialization battery: every writer is deterministic and every value
survives a write/read cycle bit for bit."""

import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ipme.core import (GridSpec, Params, ScalarField, SnapshotFormatError,
                       run_manifest)
from ipme import io

GRID3 = GridSpec.box((0.0, 0.0), (1.0, 1.0), (3, 3))

finite = st.floats(allow_nan=False, allow_infinity=False)


def field_of(values, quantity="v", t=0.5, grid=GRID3):
    return ScalarField(grid=grid, values=np.asarray(values, dtype=float),
                       t=t, quantity=quantity)


class TestSnapshotRoundtrip:

    @settings(max_examples=60, deadline=None)
    @given(vals=st.lists(finite, min_size=9, max_size=9),
           t=st.floats(0.0, 1e9))
    def test_text_roundtrip_is_exact(self, vals, t):
        field = field_of(vals, t=t)
        text = io.snapshot_text(field)
        back = io.parse_snapshot_text(text)
        assert back.grid == field.grid
        assert back.t == field.t
        assert back.quantity == "v"
        assert np.array_equal(back.values, field.values.reshape(3, 3))
        # shortest-repr floats make the writer idempotent
        assert io.snapshot_text(back) == text

    @settings(max_examples=30, deadline=None)
    @given(vals=st.lists(finite.map(abs), min_size=9, max_size=9))
    def test_pressure_fields_roundtrip(self, vals):
        field = field_of(vals, quantity="u")
        back = io.parse_snapshot_text(io.snapshot_text(field))
        assert back.quantity == "u"
        assert np.array_equal(back.values, field.values.reshape(3, 3))

    def test_file_roundtrip_and_byte_identity(self, tmp_path):
        field = field_of(np.linspace(-1.0, 1.0, 9) ** 3)
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        io.write_snapshot(str(a), field)
        io.write_snapshot(str(b), io.read_snapshot(str(a)))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == io.snapshot_text(field)

    def test_values_stored_row_major(self):
        vals = np.arange(9.0).reshape(3, 3)
        lines = io.snapshot_text(field_of(vals)).splitlines()
        assert lines[1:] == [repr(float(v)) for v in range(9)]


    def test_body_bytes_match_per_value_repr(self, tmp_path):
        # the body is one shortest round-trip repr per value, the same
        # bytes as formatting each value on its own, although the writer
        # formats each distinct bit pattern once; the file holds the same
        rng = np.random.default_rng(3)
        specials = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 0.0, -1.5e300, 2.0 ** 53]
        zeros = np.array([0.0, -0.0, 0.0, -0.0, 0.25, -0.0, 0.0, 0.25, -0.0])
        x = np.linspace(-1.0, 1.0, 9)
        # floor plateau, a ramp, a ceiling plateau: symmetric in x and y
        plateau = np.clip(2.0 - 3.0 * np.hypot(*np.meshgrid(x, x)), 0.1, 1.0)
        assert np.array_equal(plateau, plateau[::-1]) and \
            np.array_equal(plateau, plateau.T)
        line = GridSpec.box((0.0,), (1.0,), (13,))
        cube = GridSpec.box((0.0,) * 3, (1.0,) * 3, (3, 4, 5))
        for vals, grid in (
                (rng.standard_normal(9) * 10.0 ** rng.integers(-30, 30, 9),
                 GRID3),
                (rng.uniform(-1.0, 1.0, 9), GRID3),
                (specials[:9] + [1.0], GRID3),
                (zeros, GRID3),
                (plateau, GridSpec.box((-1.0, -1.0), (1.0, 1.0), (9, 9))),
                (np.arange(81.0) / 7.0, GridSpec.box((0.0, 0.0), (1.0, 1.0),
                                                     (9, 9))),
                (np.tile([0.5, -0.0, 0.0, 1.0 / 3.0], 4)[:13], line),
                (np.where(rng.random(60) < 0.5, rng.random(60), -0.0), cube)):
            vals = np.asarray(vals, dtype=float)[:grid.size]
            field = field_of(vals, grid=grid)
            text = io.snapshot_text(field)
            body = text.splitlines()[1:]
            assert body == [repr(float(v)) for v in field.values.ravel()]
            path = tmp_path / "s.snap"
            io.write_snapshot(str(path), field)
            assert path.read_bytes() == text.encode()


class TestSnapshotParsing:

    def header(self):
        return io.snapshot_text(field_of(np.zeros(9))).splitlines()[0]

    def test_empty_text_rejected(self):
        with pytest.raises(SnapshotFormatError, match="empty"):
            io.parse_snapshot_text("")

    def test_missing_magic_rejected(self):
        with pytest.raises(SnapshotFormatError, match="header"):
            io.parse_snapshot_text("values\n0.0\n")

    def test_bad_header_token_rejected(self):
        text = "# ipme v1 d=2 nonsense\n" + "0.0\n" * 9
        with pytest.raises(SnapshotFormatError, match="bad header token"):
            io.parse_snapshot_text(text)

    def test_header_key_order_enforced(self):
        head = ("# ipme v1 n=3,3 d=2 h=0.5,0.5 origin=0.0,0.0 t=0.5 "
                "quantity=v")
        with pytest.raises(SnapshotFormatError, match="header keys"):
            io.parse_snapshot_text(head + "\n" + "0.0\n" * 9)

    def test_dimension_mismatch_rejected(self):
        head = "# ipme v1 d=3 n=3,3 h=0.5,0.5 origin=0.0,0.0 t=0.5 quantity=v"
        with pytest.raises(SnapshotFormatError, match="lengths"):
            io.parse_snapshot_text(head + "\n" + "0.0\n" * 9)

    def test_unknown_quantity_rejected(self):
        text = self.header().replace("quantity=v", "quantity=w")
        with pytest.raises(SnapshotFormatError, match="quantity tag"):
            io.parse_snapshot_text(text + "\n" + "0.0\n" * 9)

    def test_value_count_enforced(self):
        with pytest.raises(SnapshotFormatError, match="expected 9"):
            io.parse_snapshot_text(self.header() + "\n" + "0.0\n" * 8)
        with pytest.raises(SnapshotFormatError, match="more than 9"):
            io.parse_snapshot_text(self.header() + "\n" + "0.0\n" * 10)

    def test_unparsable_value_rejected(self):
        body = "0.0\n" * 4 + "zero\n" + "0.0\n" * 4
        with pytest.raises(SnapshotFormatError, match="bad value"):
            io.parse_snapshot_text(self.header() + "\n" + body)

    @pytest.mark.parametrize("h,origin", [("nan,0.5", "0.0,0.0"),
                                          ("0.5,0.5", "inf,0.0")])
    def test_non_finite_grid_rejected(self, h, origin):
        head = (f"# ipme v1 d=2 n=3,3 h={h} origin={origin} t=0.5 "
                f"quantity=v")
        with pytest.raises(SnapshotFormatError, match="finite"):
            io.parse_snapshot_text(head + "\n" + "0.0\n" * 9)

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, t):
        # `ipme asym` would otherwise sort and fit on such a time
        text = self.header().replace("t=0.5", f"t={t}")
        with pytest.raises(SnapshotFormatError, match="time must be finite"):
            io.parse_snapshot_text(text + "\n" + "0.0\n" * 9)

    def test_field_constraints_still_apply(self):
        # a parsed pressure field goes through the same nonnegativity
        # police as a constructed one
        text = io.snapshot_text(field_of(np.zeros(9), quantity="u"))
        bad = text.replace("\n0.0", "\n-1.0", 1)
        with pytest.raises(SnapshotFormatError, match="negative"):
            io.parse_snapshot_text(bad)

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
            io.parse_snapshot_text(self.header() + "\n" + body, name="s.snap")
        assert str(info.value) == message

    def test_blank_lines_ignored(self):
        text = self.header() + "\n\n" + "0.0\n" * 4 + "\n" + "0.0\n" * 5
        back = io.parse_snapshot_text(text)
        assert np.array_equal(back.values, np.zeros((3, 3)))


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
