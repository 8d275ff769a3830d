"""Snapshot, manifest and trace serialization.

Snapshot format `ipme v2` (one file per field): a one-line text header

    # ipme v2 d=<d> n=<n1,..> h=<h1,..> origin=<o1,..> t=<t> quantity=<q>

then exactly prod(n) little-endian IEEE-754 binary64 values in row-major
node order, with nothing after them.  Header floats are Python's shortest
round-trip repr; quantity is one of u, rho, v, G.  The body is the
array's own bytes, so read(write(field)) reproduces every value bit for
bit, -0.0 and subnormals included, and a file whose body is not exactly
8 * prod(n) bytes is an error.  `np.fromfile(path, "<f8",
offset=len(header_line))` reads the body.

`read_snapshot` and `parse_snapshot` also read the legacy text format
`ipme v1`: the same header with magic `ipme v1`, then one repr value per
line, each ending in a newline.  A v1 file reads to the values it holds
and is written back as v2.

Manifests are YAML written by PyYAML's safe dumper: block mappings in
insertion order, lists as flow sequences.  They read back value for value
with `load_yaml`, the package's one YAML reader, and with `yaml.safe_load`.
Traces are RFC-4180 CSV.
"""

from __future__ import annotations

import csv
import os
import re

import numpy as np
import yaml

from .core import (DomainError, GridSpec, ScalarField, SnapshotFormatError,
                   QUANTITIES)

__all__ = [
    "write_snapshot", "read_snapshot", "snapshot_bytes", "parse_snapshot",
    "write_manifest", "read_manifest", "manifest_text", "load_yaml",
    "write_trace_csv", "read_trace_csv",
]

_MAGIC = "ipme v2"
_LEGACY_MAGIC = "ipme v1"
_HEADER_KEYS = ["d", "n", "h", "origin", "t", "quantity"]


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def _snapshot_parts(field: ScalarField) -> tuple:
    """The header line as bytes and the values as a C-ordered `<f8`
    array, a view of the field's own buffer when it already is one."""
    g = field.grid
    head = ("# {magic} d={d} n={n} h={h} origin={o} t={t} quantity={q}\n"
            .format(magic=_MAGIC, d=g.dim,
                    n=",".join(str(v) for v in g.n),
                    h=",".join(_fmt(v) for v in g.h),
                    o=",".join(_fmt(v) for v in g.origin),
                    t=_fmt(field.t), q=field.quantity))
    return head.encode("ascii"), np.ascontiguousarray(field.values,
                                                      dtype="<f8")


def snapshot_bytes(field: ScalarField) -> bytes:
    head, body = _snapshot_parts(field)
    return head + body.tobytes()


def write_snapshot(path: str, field: ScalarField) -> None:
    head, body = _snapshot_parts(field)
    with open(path, "wb") as f:
        f.write(head)
        f.write(body.data)


def read_snapshot(path: str) -> ScalarField:
    with open(path, "rb") as f:
        return parse_snapshot(f.read(), name=os.path.basename(path))


def parse_snapshot(data: bytes, name: str = "<snapshot>") -> ScalarField:
    """A v2 snapshot, or a legacy v1 text one, from the file's bytes."""
    if not data.startswith(f"# {_MAGIC} ".encode("ascii")):
        return _parse_legacy_text(data.decode("utf-8", "replace"), name)
    head, newline, body = data.partition(b"\n")
    grid, t, quantity = _parse_header(head.decode("ascii", "replace"),
                                      _MAGIC, name)
    want = 8 * grid.size
    if not newline or len(body) != want:
        cut = "" if newline else "header has no newline; "
        raise SnapshotFormatError(
            f"{name}: {cut}body is {len(body)} bytes, expected {want} "
            f"({grid.size} float64 values)")
    # a writable copy: frombuffer of bytes is read-only
    return _field(grid, np.frombuffer(body, dtype="<f8").copy(), t,
                  quantity, name)


def _field(grid, vals, t, quantity, name) -> ScalarField:
    try:
        return ScalarField(grid=grid, values=vals, t=t, quantity=quantity)
    except DomainError as exc:
        raise SnapshotFormatError(f"{name}: {exc}") from exc


def _parse_header(head: str, magic: str, name: str) -> tuple:
    """(grid, t, quantity) from the header line, magic included."""
    prefix = f"# {magic} "
    if not head.startswith(prefix):
        raise SnapshotFormatError(
            f"{name}:1: missing '# {_MAGIC}' (or legacy '# {_LEGACY_MAGIC}')"
            f" header")
    fields = {}
    order = []
    for tok in head[len(prefix):].split():
        if "=" not in tok:
            raise SnapshotFormatError(f"{name}:1: bad header token {tok!r}")
        key, val = tok.split("=", 1)
        fields[key] = val
        order.append(key)
    if order != _HEADER_KEYS:
        raise SnapshotFormatError(
            f"{name}:1: header keys {order} != {_HEADER_KEYS}")
    try:
        d = int(fields["d"])
        n = tuple(int(v) for v in fields["n"].split(","))
        h = tuple(float(v) for v in fields["h"].split(","))
        origin = tuple(float(v) for v in fields["origin"].split(","))
        t = float(fields["t"])
    except ValueError as exc:
        raise SnapshotFormatError(f"{name}:1: {exc}") from exc
    if len(n) != d or len(h) != d or len(origin) != d:
        raise SnapshotFormatError(
            f"{name}:1: d={d} but n/h/origin have lengths "
            f"{len(n)}/{len(h)}/{len(origin)}")
    quantity = fields["quantity"]
    if quantity not in QUANTITIES:
        raise SnapshotFormatError(
            f"{name}:1: unknown quantity tag {quantity!r}")
    try:
        grid = GridSpec(n=n, h=h, origin=origin)
    except DomainError as exc:
        raise SnapshotFormatError(f"{name}:1: {exc}") from exc
    return grid, t, quantity


def _parse_legacy_text(text: str, name: str) -> ScalarField:
    """A v1 text snapshot; errors name the offending line."""
    lines = text.splitlines()
    if not lines:
        raise SnapshotFormatError(f"{name}:1: empty snapshot")
    grid, t, quantity = _parse_header(lines[0], _LEGACY_MAGIC, name)
    # the v1 writer ended every value with a newline: without one the
    # file was cut, maybe inside its last value
    if not text.endswith("\n"):
        raise SnapshotFormatError(
            f"{name}:{len(lines)}: no newline after the last line; the "
            f"file is cut")
    return _field(grid, _parse_values(lines, grid.size, name), t, quantity,
                  name)


def _parse_values(lines: list, want: int, name: str) -> np.ndarray:
    """Line-by-line body parse that names the first offending line;
    blank lines are skipped."""
    vals = np.empty(want)
    count = 0
    for lineno, line in enumerate(lines[1:], start=2):
        s = line.strip()
        if not s:
            continue
        if count >= want:
            raise SnapshotFormatError(
                f"{name}:{lineno}: more than {want} values")
        try:
            vals[count] = float(s)
        except ValueError as exc:
            raise SnapshotFormatError(
                f"{name}:{lineno}: bad value {s!r}") from exc
        count += 1
    if count != want:
        raise SnapshotFormatError(
            f"{name}:{len(lines)}: got {count} values, expected {want}")
    return vals


# ── Manifests ────────────────────────────────────────────────────────────

# YAML 1.2 floats with no dot (1e-3, 1E+5), which YAML 1.1 reads as strings
_FLOAT_12 = re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that also reads YAML 1.2 floats like 1e-3 or 1.0e3."""


class _Dumper(getattr(yaml, "CSafeDumper", yaml.SafeDumper)):
    """Safe dumper that writes lists as flow sequences and quotes every
    string `_Loader` would read as a float."""


for _cls in (_Loader, _Dumper):
    _cls.add_implicit_resolver("tag:yaml.org,2002:float", _FLOAT_12,
                               list("-+.0123456789"))
for _seq in (list, tuple):
    _Dumper.add_representer(_seq, lambda dumper, v: dumper.represent_sequence(
        "tag:yaml.org,2002:seq", v, flow_style=True))


def load_yaml(stream):
    """Configs, overrides and manifests: YAML text or stream -> data."""
    return yaml.load(stream, Loader=_Loader)


def manifest_text(manifest: dict) -> str:
    """Block mappings in insertion order, flow sequences, PyYAML's float
    text (1.0e-05, .nan, -.inf) and no line wrapping."""
    if not isinstance(manifest, dict):
        raise DomainError("manifest root must be a mapping")
    # the C emitter takes only an int width
    return yaml.dump(manifest, Dumper=_Dumper, sort_keys=False,
                     width=2 ** 31 - 1)


def write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(manifest_text(manifest))


def read_manifest(path: str) -> dict:
    with open(path, "r") as f:
        try:
            data = load_yaml(f)
        except yaml.YAMLError as exc:
            raise SnapshotFormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SnapshotFormatError(f"{path}: manifest root must be a mapping")
    return data


# ── Traces ───────────────────────────────────────────────────────────────

def write_trace_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, (float, np.floating)) else v
                        for v in row])


def read_trace_csv(path: str) -> tuple:
    with open(path, "r", newline="") as f:
        r = csv.reader(f)
        rows = list(r)
    if not rows:
        raise SnapshotFormatError(f"{path}: empty trace")
    header = rows[0]
    # blank cells are legitimate (undefined first difference, say)
    data = [[None if v == "" else float(v) for v in row] for row in rows[1:]]
    return header, data
