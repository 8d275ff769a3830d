"""Snapshot, manifest and trace serialization.

Snapshot grammar (text, one file per field):

    # ipme v1 d=<d> n=<n1,..> h=<h1,..> origin=<o1,..> t=<t> quantity=<q>
    <value>
    ...

One decimal value per line, row-major node order, written with Python's
shortest round-trip float repr so that read(write(field)) reproduces every
value bit for bit.  quantity is one of u, rho, v, G.

The writer formats each distinct value once: solutions are mostly
plateaus (the floor outside the support, the lateral value beyond the
truncation ramp) and mirror images, so few of their values differ.
Values are told apart by their bit patterns, so -0.0 and 0.0 keep their
own text, and every line is the repr of its own value: the bytes are
those of formatting value by value.  `write_snapshot` streams the rows
that `snapshot_text` joins.

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
    "write_snapshot", "read_snapshot", "snapshot_text", "parse_snapshot_text",
    "write_manifest", "read_manifest", "manifest_text", "load_yaml",
    "write_trace_csv", "read_trace_csv",
]

_MAGIC = "ipme v1"


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def _snapshot_chunks(field: ScalarField):
    """The snapshot text in pieces: the header line, then each row of the
    last axis.  A table holds the text of each distinct bit pattern, and
    the rows are put together from it."""
    g = field.grid
    yield ("# {magic} d={d} n={n} h={h} origin={o} t={t} quantity={q}\n"
           .format(magic=_MAGIC, d=g.dim,
                   n=",".join(str(v) for v in g.n),
                   h=",".join(_fmt(v) for v in g.h),
                   o=",".join(_fmt(v) for v in g.origin),
                   t=_fmt(field.t), q=field.quantity))
    bits, where = np.unique(field.values.reshape(-1).view(np.int64),
                            return_inverse=True)
    text = np.array([repr(v) + "\n" for v in bits.view(float).tolist()],
                    dtype=object)
    for row in where.reshape(-1, g.n[-1]):
        yield "".join(text[row])


def snapshot_text(field: ScalarField) -> str:
    return "".join(_snapshot_chunks(field))


def write_snapshot(path: str, field: ScalarField) -> None:
    with open(path, "w", newline="\n") as f:
        f.writelines(_snapshot_chunks(field))


def parse_snapshot_text(text: str, name: str = "<snapshot>") -> ScalarField:
    lines = text.splitlines()
    if not lines:
        raise SnapshotFormatError(f"{name}:1: empty snapshot")
    head = lines[0]
    prefix = f"# {_MAGIC} "
    if not head.startswith(prefix):
        raise SnapshotFormatError(f"{name}:1: missing '# {_MAGIC}' header")
    fields = {}
    order = []
    for tok in head[len(prefix):].split():
        if "=" not in tok:
            raise SnapshotFormatError(f"{name}:1: bad header token {tok!r}")
        key, val = tok.split("=", 1)
        fields[key] = val
        order.append(key)
    expected = ["d", "n", "h", "origin", "t", "quantity"]
    if order != expected:
        raise SnapshotFormatError(
            f"{name}:1: header keys {order} != {expected}")
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

    # fast path for a well-formed body: one value on every line
    try:
        vals = np.fromiter(map(float, lines[1:]), dtype=float,
                           count=len(lines) - 1)
    except ValueError:
        vals = None
    if vals is None or vals.size != grid.size:
        vals = _parse_values(lines, grid.size, name)
    try:
        return ScalarField(grid=grid, values=vals, t=t, quantity=quantity)
    except DomainError as exc:
        raise SnapshotFormatError(f"{name}: {exc}") from exc


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


def read_snapshot(path: str) -> ScalarField:
    with open(path, "r") as f:
        return parse_snapshot_text(f.read(), name=os.path.basename(path))


# ── Manifests ────────────────────────────────────────────────────────────

# YAML 1.2 floats with no dot (1e-3, 1E+5), which YAML 1.1 reads as strings
_FLOAT_12 = re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")


class _Loader(yaml.SafeLoader):
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
