"""Shared pieces of the benchmark: locating the package under test,
counting checked operations, in-memory span tracing and machine facts.

Only the standard library is imported at module level, so the set-up
probe can import this file without paying for numpy or ipme.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
TRACES = os.path.join(HERE, "_traces")


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "ipme", "__init__.py"))


def use_source() -> None:
    """Import ipme from this checkout's src/, never from an installed copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for child interpreters: ipme from src/, one BLAS thread
    so a run is one process on one core at a time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Tally:
    """Attempted and failed operations (solves, commands, checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


# ── tracing ─────────────────────────────────────────────────────────────


class Tracer:
    """Spans kept in memory as parallel arrays: name id, start and end in
    ns, and the index of the enclosing span (-1 for a root).  Counters
    hold work counts observed at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: dict = {}
        self._stack = [-1]

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording one span per call; `observe(tracer, args, result)`
        runs after the span closes."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if observe is not None:
                observe(self, args, out)
            return out

        return traced

    def to_json(self) -> dict:
        return {"names": self.names, "name": list(self.name),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent), "counters": self.counters}


def patch_everywhere(orig, wrapped) -> None:
    """Rebind every ipme module attribute that is `orig` to `wrapped`, so
    calls through `from .x import f` bindings are seen as well."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ipme" or mod_name.startswith("ipme.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapped)


def summarize_spans(data: dict) -> dict:
    """Per span name: calls, inclusive ns and self ns (inclusive minus the
    time covered by direct children).  `outer_ns` counts only spans whose
    parent belongs to another layer (the name's first component), so a
    layer's time is the sum of its `outer_ns` without double counting."""
    names = data["names"]
    layer = [n.split(".")[0] for n in names]
    name = data["name"]
    dur = [e - s for s, e in zip(data["start"], data["end"])]
    parent = data["parent"]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = {n: {"calls": 0, "ns": 0, "self_ns": 0, "outer_ns": 0}
           for n in names}
    for i, d in enumerate(dur):
        row = out[names[name[i]]]
        row["calls"] += 1
        row["ns"] += d
        row["self_ns"] += d - child[i]
        p = parent[i]
        if p < 0 or layer[name[p]] != layer[name[i]]:
            row["outer_ns"] += d
    return out


def merge_summaries(parts: list) -> dict:
    out: dict = {}
    for part in parts:
        for n, row in part.items():
            acc = out.setdefault(n, {"calls": 0, "ns": 0, "self_ns": 0,
                                     "outer_ns": 0})
            for k in acc:
                acc[k] += row[k]
    return out


# ── resources and machine facts ────────────────────────────────────────


def peak_rss_mb(who: str) -> float:
    import resource
    kind = resource.RUSAGE_SELF if who == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(kind).ru_maxrss / 1024.0


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git; None when
    the checkout is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(os.path.join(git, ref))
    if sha:
        return sha
    for line in _read(os.path.join(git, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts() -> dict:
    import glob
    import hashlib
    import importlib.metadata
    import platform

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(idx, "level"))
        kind = _read(os.path.join(idx, "type"))
        tag = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[tag] = _read(os.path.join(idx, "size"))
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ipme", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"cpu": model or platform.processor(), "nproc": os.cpu_count(),
            "caches": caches, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": _git_commit(), "src_sha256": digest.hexdigest()[:16]}
