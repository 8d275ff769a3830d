"""Command-line surface: config parsing, --set overrides, the four
subcommands, exit codes, and the IPME-E diagnostic channel.

Everything drives `cli.main(argv)` in-process, except the import-graph
checks, which need a fresh interpreter; outputs land in pytest tmp dirs
and diagnostics are read back through capsys.
"""

import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from datetime import timedelta

import numpy as np
import pytest
import yaml
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from ipme import cli, exact, io, solver
from ipme.core import ConfigError, GridSpec, ScalarField


CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config loading


class TestLoadConfig:
    def test_empty_file_gives_empty_config(self, tmp_path):
        assert cli.load_config(write_cfg(tmp_path / "e.yaml", "")) == {}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            cli.load_config(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml(self, tmp_path):
        p = write_cfg(tmp_path / "bad.yaml", "problem: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            cli.load_config(p)

    def test_non_mapping_root(self, tmp_path):
        p = write_cfg(tmp_path / "seq.yaml", "- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping at top level"):
            cli.load_config(p)

    def test_unknown_key(self, tmp_path):
        p = write_cfg(tmp_path / "u.yaml", "probem: dirichlet\n")
        with pytest.raises(ConfigError, match="unknown config key 'probem'"):
            cli.load_config(p)

    def test_unknown_nested_key(self, tmp_path):
        p = write_cfg(tmp_path / "n.yaml", "grid: {q: 3}\n")
        with pytest.raises(ConfigError, match="unknown config key 'grid.q'"):
            cli.load_config(p)

    def test_dotted_key_is_unknown(self, tmp_path):
        p = write_cfg(tmp_path / "d.yaml", "data.kind: bump\n")
        with pytest.raises(ConfigError,
                           match="unknown config key 'data.kind'"):
            cli.load_config(p)

    def test_wrong_leaf_type(self, tmp_path):
        p = write_cfg(tmp_path / "t.yaml", "m: two\n")
        with pytest.raises(ConfigError, match="wrong type"):
            cli.load_config(p)

    def test_section_must_be_mapping(self, tmp_path):
        p = write_cfg(tmp_path / "s.yaml", "grid: 5\n")
        with pytest.raises(ConfigError, match="must be a mapping"):
            cli.load_config(p)


class TestApplyOverrides:
    def test_scalar_leaf_set_with_yaml_typing(self):
        cfg = cli.apply_overrides({}, ["m=3.0", "problem=maximal", "seed=7"])
        assert cfg["m"] == 3.0 and isinstance(cfg["m"], float)
        assert cfg["problem"] == "maximal"
        assert cfg["seed"] == 7 and isinstance(cfg["seed"], int)

    def test_dotted_path_creates_section(self):
        cfg = cli.apply_overrides({}, ["data.kind=bump", "data.height=0.5"])
        assert cfg["data"] == {"kind": "bump", "height": 0.5}

    def test_existing_value_replaced(self):
        cfg = cli.apply_overrides({"m": 2.0}, ["m=4.0"])
        assert cfg["m"] == 4.0

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="not key=value"):
            cli.apply_overrides({}, ["noequals"])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown override key"):
            cli.apply_overrides({}, ["nosuch=1"])

    def test_section_address_rejected(self):
        with pytest.raises(ConfigError, match="addresses a section"):
            cli.apply_overrides({}, ["grid=5"])

    def test_list_leaf_rejected(self):
        with pytest.raises(ConfigError, match="addresses a list"):
            cli.apply_overrides({}, ["grid.n=33"])

    def test_mapping_value_rejected(self):
        with pytest.raises(ConfigError, match="must be a scalar"):
            cli.apply_overrides({}, ["eps={a: 1}"])


class TestYaml12Floats:
    """Exponent floats without a dot or a sign (YAML 1.2) are numbers in
    config files and overrides alike."""

    def test_config_file(self, tmp_path):
        p = write_cfg(tmp_path / "f.yaml",
                      "m: 3\neps: 1e-3\ndelta: 2.5E+2\nc: 1.0e3\n"
                      "output: 1e-3x\n")
        cfg = cli.load_config(p)
        assert cfg["eps"] == 1e-3 and isinstance(cfg["eps"], float)
        assert cfg["delta"] == 250.0 and cfg["c"] == 1000.0
        assert cfg["m"] == 3 and isinstance(cfg["m"], int)
        assert cfg["output"] == "1e-3x"

    def test_override(self):
        cfg = cli.apply_overrides({}, ["eps=1e-3", "exact.a=-5e-1"])
        assert cfg["eps"] == 1e-3 and isinstance(cfg["eps"], float)
        assert cfg["exact"]["a"] == -0.5
        # a string leaf given a number is still a type error
        with pytest.raises(ConfigError, match="wrong type"):
            cli.apply_overrides({}, ["problem=1e3"])

    def test_plain_safe_load_is_untouched(self):
        assert yaml.safe_load("1e-3") == "1e-3"


# ---------------------------------------------------------------------------
# solve subcommand

SOLVE_YAML = """\
problem: dirichlet
m: 2.0
eps: 1.0e-2
delta: 1.0e-2
grid: {{lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}}
data: {{kind: bump, height: 0.5, radius: 0.6}}
boundary: {{kind: zero}}
t_end: 0.02
snapshot_times: [0.01, 0.02]
output: {out}
"""


class TestSolveCommand:
    def test_constant_data_is_stationary(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.yaml", """\
problem: dirichlet
m: 2.0
t_end: 0.01
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
data: {kind: constant, value: 0.3}
boundary: {kind: constant, value: 0.3}
output: %s
""" % out)
        assert cli.main(["solve", cfg]) == 0
        snap = io.read_snapshot(out / "u_0000.snap")
        assert np.all(snap.values == 0.3)

    def test_m_at_most_one_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "m.yaml", """\
problem: dirichlet
m: 0.5
t_end: 0.01
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
data: {kind: constant, value: 0.3}
boundary: {kind: constant, value: 0.3}
output: %s
""" % (tmp_path / "run"))
        assert cli.main(["solve", cfg]) == 1
        assert "m must exceed 1" in capsys.readouterr().err

    def test_shipped_regression_config(self, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(["solve", str(CONFIGS / "regression_tw.yaml"),
                       "--set", f"output={out}"])
        assert rc == 0
        man = yaml.safe_load((out / "manifest.yaml").read_text())
        assert man["error_stat"]["rel"] <= man["regression_threshold"]

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_every_shipped_config_solves(self, tmp_path, path):
        out = tmp_path / "run"
        assert cli.main(["solve", str(path), "--set", f"output={out}"]) == 0
        thr = cli.load_config(str(path)).get("regression_threshold")
        if thr is not None:
            man = yaml.safe_load((out / "manifest.yaml").read_text())
            assert man["regression_threshold"] == thr
            assert man["error_stat"]["rel"] <= thr

    @pytest.mark.parametrize("data,boundary,key", [
        ("{kind: constant, value: 0.3, t_offset: 2.0}", "{kind: zero}",
         "data.t_offset"),
        ("{kind: bump, height: 0.5, radius: 0.6, slope: 2.0, speed: 5.0}",
         "{kind: zero, value: 3.0}", "data.slope"),
        ("{kind: linear, slope: 1.0, radius: 0.2}", "{kind: zero}",
         "data.radius"),
        ("{kind: bump, height: 0.5, radius: 0.6}", "{kind: zero, value: 3.0}",
         "boundary.value"),
        ("{kind: barenblatt, R: 1.2, t_offset: 1.0}",
         "{kind: exact, value: 0.1}", "boundary.value")],
        ids=["constant", "bump", "linear", "zero", "exact"])
    def test_a_key_the_kind_does_not_read_writes_nothing(
            self, tmp_path, capsys, data, boundary, key):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "k.yaml", """\
problem: dirichlet
m: 2.0
t_end: 0.01
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
data: %s
boundary: %s
output: %s
""" % (data, boundary, out))
        assert cli.main(["solve", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E50:") and err.count("\n") == 1
        assert err == f"IPME-E50: a dirichlet run reads no {key!r}\n"
        assert not out.exists()

    def test_the_keys_each_kind_reads_are_accepted(self, tmp_path):
        # the constant boundary reads `value`, the one key its schema
        # section allows, so it has no unread key to reject
        for i, (data, boundary) in enumerate([
                ("{kind: constant, value: 0.3}",
                 "{kind: constant, value: 0.3}"),
                ("{kind: bump, height: 0.5, radius: 0.6}", "{kind: zero}"),
                ("{kind: linear, slope: 1.0}", "{kind: constant}")]):
            out = tmp_path / f"run{i}"
            cfg = write_cfg(tmp_path / f"k{i}.yaml", """\
problem: dirichlet
m: 2.0
t_end: 0.001
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [9, 9]}
data: %s
boundary: %s
output: %s
""" % (data, boundary, out))
            assert cli.main(["solve", cfg]) == 0
            assert (out / "manifest.yaml").exists()

    @pytest.mark.parametrize("override", [
        "t_end=.inf", "eps=.nan", "eps=.inf", "delta=.nan", "delta=.inf",
        "c=.nan", "c=.inf"])
    def test_non_finite_input_rejected(self, tmp_path, capsys, override):
        out = tmp_path / "run"
        rc = cli.main(["solve", str(CONFIGS / "regression_tw.yaml"),
                       "--set", f"output={out}", "--set", override])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E10:") and err.count("IPME-E") == 1
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    @pytest.mark.parametrize("overrides", [
        ["data.t_offset={}"], ["data.kind=bump", "data.height={}"],
        ["domain.kind=ball", "domain.radius={}"],
        ["problem=cauchy", "cauchy.r=1.0", "cauchy.M={}"]],
        ids=["t_offset", "height", "domain_radius", "cauchy_M"])
    def test_non_finite_data_rejected_before_use(self, tmp_path, capsys,
                                                 overrides, value):
        out = tmp_path / "run"
        argv = ["solve", str(CONFIGS / "barenblatt_dirichlet.yaml"),
                "--set", f"output={out}"]
        for o in overrides:
            argv += ["--set", o.format(value)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E10:") and err.count("IPME-E") == 1
        assert "finite" in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_nan_threshold_fails_the_gate(self, tmp_path, capsys):
        # a non-finite threshold is rejected with the other non-finite
        # leaves, before the solve, so no run directory is written
        rc = cli.main(["solve", str(CONFIGS / "regression_tw.yaml"),
                       "--set", f"output={tmp_path / 'run'}",
                       "--set", "regression_threshold=.nan"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "IPME-E10: regression_threshold must be finite, got nan\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_threshold_is_an_input_error(self, value, tmp_path,
                                                     capsys):
        # no statistic is within a threshold <= 0, so the run is refused
        # before the solve, and nothing is written
        rc = cli.main(["solve", str(CONFIGS / "regression_tw.yaml"),
                       "--set", f"output={tmp_path / 'run'}",
                       "--set", f"regression_threshold={value}"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"IPME-E10: regression_threshold must be positive, "
            f"got {value}\n")
        assert not (tmp_path / "run").exists()

    def test_nan_error_statistic_fails_the_gate(self, tmp_path, capsys,
                                                monkeypatch):
        # a statistic that is not a number is never within a threshold;
        # `cmd_solve` imports the solver when it runs, so the module's
        # attribute is the one to patch
        solve = solver.solve_dirichlet

        def poisoned(*args, **kwargs):
            report = solve(*args, **kwargs)
            report.final.values[1, 1] = np.nan
            return report
        monkeypatch.setattr(solver, "solve_dirichlet", poisoned)
        out = tmp_path / "run"
        rc = cli.main(["solve", str(CONFIGS / "regression_tw.yaml"),
                       "--set", f"output={out}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E13:") and err.count("IPME-E") == 1
        man = yaml.safe_load((out / "manifest.yaml").read_text())
        assert str(man["error_stat"]["rel"]) == "nan"

    def test_dirichlet_run_writes_snapshots_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.yaml", SOLVE_YAML.format(out=out))
        assert cli.main(["solve", cfg]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.yaml", "u_0000.snap", "u_0001.snap"]
        man = yaml.safe_load((out / "manifest.yaml").read_text())
        assert man["format"] == "ipme-manifest v1"
        assert man["problem"] == "dirichlet"
        assert man["snapshots"] == ["u_0000.snap", "u_0001.snap"]
        assert man["config"]["t_end"] == 0.02
        snap = io.read_snapshot(out / "u_0001.snap")
        assert snap.t == 0.02
        assert float(np.max(snap.values)) <= 0.5 + 1e-6

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.yaml", SOLVE_YAML.format(out=out))
        assert cli.main(["solve", cfg]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["solve", cfg]) == 0
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_set_overrides_reach_the_run(self, tmp_path):
        out = tmp_path / "a"
        out2 = tmp_path / "b"
        cfg = write_cfg(tmp_path / "s.yaml", SOLVE_YAML.format(out=out))
        rc = cli.main(["solve", cfg, "--set", f"output={out2}",
                       "--set", "m=3.0", "--set", "eps=1e-3"])
        assert rc == 0
        man = yaml.safe_load((out2 / "manifest.yaml").read_text())
        assert man["params"]["m"] == 3.0
        assert man["params"]["k"] == 2.0
        assert man["params"]["eps"] == 1e-3
        assert not out.exists()

    def test_stalled_continuation_exits_2(self, tmp_path):
        # a schedule whose first two stages barely differ makes the
        # stage-difference sequence grow, which the driver must report
        # the schedule's eps_list replaces a top-level eps
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "w.yaml", SOLVE_YAML.format(out=out)
                        .replace("eps: 1.0e-2\n", "")
                        + "schedule: {eps_list: [1.0e-1, 9.9e-2, 1.0e-3]}\n")
        assert cli.main(["solve", cfg]) == 2
        man = yaml.safe_load((out / "manifest.yaml").read_text())
        assert any("continuation-failure" in w for w in man["warnings"])

    def test_maximal_ladder_floor_in_manifest(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "m.yaml", SOLVE_YAML.format(out=out)
                        .replace("problem: dirichlet", "problem: maximal")
                        + "schedule: {n_list: [4, 8]}\n")
        assert cli.main(["solve", cfg]) == 0
        man = yaml.safe_load((out / "manifest.yaml").read_text())
        assert man["problem"] == "maximal"
        assert man["n_list"] == [4, 8]
        assert man["config"]["schedule"] == {"n_list": [4, 8]}
        assert "schedule" not in man
        assert man["ladder_floor"] == 0.125

    def test_params_record_the_last_stage(self, tmp_path):
        # the stages replace the default eps and delta, so the manifest
        # names the pair that made the output
        out = tmp_path / "run"
        assert cli.main(["solve", str(CONFIGS / "barenblatt_dirichlet.yaml"),
                         "--set", f"output={out}"]) == 0
        man = io.read_manifest(out / "manifest.yaml")
        assert man["stage_pairs"] == [[1.0e-2, 1.0e-3], [3.0e-3, 1.0e-3]]
        # the stages are recorded as pairs and in the config, not again
        assert "schedule" not in man
        assert man["params"]["eps"] == man["stage_pairs"][-1][0]
        assert man["params"]["delta"] == man["stage_pairs"][-1][1]

    @pytest.mark.parametrize("problem", ["dirichlet", "maximal"])
    @pytest.mark.parametrize("data,boundary,kind", [
        ("{kind: bump, height: 0.5, radius: 0.6}", "", "zero"),
        ("{kind: bump, height: 0.5, radius: 0.6}", "{kind: zero}", "zero"),
        ("{kind: constant, value: 0.3}", "{kind: constant, value: 0.3}",
         "constant"),
        ("{kind: barenblatt, R: 1.0}", "{kind: exact}", "exact")],
        ids=["none", "zero", "constant", "exact"])
    def test_manifest_records_the_boundary_kind(self, tmp_path, problem,
                                                data, boundary, kind):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "b.yaml", FUZZ_YAML.replace(
            "problem: dirichlet", f"problem: {problem}").replace(
            "data: {kind: bump, height: 0.5, radius: 0.6}", f"data: {data}")
            .replace("boundary: {kind: zero}", f"boundary: {boundary}"
                     if boundary else "")
            + ("schedule: {n_list: [1, 2]}\n" if problem == "maximal"
               else ""))
        assert cli.main(["solve", cfg, "--set", f"output={out}"]) == 0
        man = io.read_manifest(out / "manifest.yaml")
        assert man["boundary_kind"] == kind

    def test_cauchy_run_records_truncation_radius(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.yaml", """\
problem: cauchy
m: 2.0
eps: 1.0e-4
delta: 1.0e-2
grid: {lo: [-0.62, -0.62], hi: [0.62, 0.62], n: [49, 49]}
data: {kind: bump, height: 0.05, radius: 0.1}
cauchy: {M: 0.05, r: 0.3}
t_end: 0.05
snapshot_times: [0.025, 0.05]
schedule: {n_list: [128, 256]}
output: %s
""" % out)
        assert cli.main(["solve", cfg]) == 0
        man = yaml.safe_load((out / "manifest.yaml").read_text())
        assert man["problem"] == "cauchy"
        assert man["M"] == 0.05
        assert man["truncation_radius"] == 0.3
        assert man["ladder_floor"] == 1.0 / 256.0

    def test_exact_companion_records_error_stat(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "r.yaml", """\
problem: dirichlet
m: 2.0
eps: 1.0e-3
delta: 1.0e-3
grid: {lo: [-2.0, -2.0], hi: [2.0, 2.0], n: [33, 33]}
data: {kind: barenblatt, R: 1.0, t_offset: 1.0}
boundary: {kind: exact}
t_end: 0.05
regression_threshold: 0.5
output: %s
""" % out)
        assert cli.main(["solve", cfg]) == 0
        man = yaml.safe_load((out / "manifest.yaml").read_text())
        stat = man["error_stat"]
        assert 0.0 < stat["rel"] < 0.5
        assert stat["abs"] < stat["rel"]

    def test_regression_threshold_breach_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "r.yaml", """\
problem: dirichlet
m: 2.0
eps: 1.0e-3
delta: 1.0e-3
grid: {lo: [-2.0, -2.0], hi: [2.0, 2.0], n: [33, 33]}
data: {kind: barenblatt, R: 1.0, t_offset: 1.0}
boundary: {kind: exact}
t_end: 0.05
regression_threshold: 1.0e-12
output: %s
""" % out)
        assert cli.main(["solve", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E13:")
        assert "exceeds threshold" in err
        # the breaching run is still written out for inspection
        assert (out / "manifest.yaml").exists()
        assert (out / "u_0000.snap").exists()

    def test_breaching_run_manifest_records_the_seed(self, tmp_path, capsys):
        # a failing run's manifest is the one a passing run would write
        out = tmp_path / "run"
        rc = cli.main(["solve", str(CONFIGS / "regression_tw.yaml"),
                       "--set", f"output={out}", "--set", "seed=3",
                       "--set", "regression_threshold=1e-6"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E13:") and err.count("IPME-E") == 1
        man = io.read_manifest(str(out / "manifest.yaml"))
        assert man["config"]["seed"] == 3 and "seed" not in man
        assert man["regression_threshold"] == 1e-6

    def test_breaching_and_passing_manifests_hold_the_same_keys(self,
                                                                 tmp_path):
        # the breach is raised after the write, so the two manifests list
        # the same keys in the same order and differ only in the threshold
        # and in the config they embed
        mans = []
        for name, thr, rc in (("pass", "0.01", 0), ("fail", "1e-6", 1)):
            out = tmp_path / name
            assert cli.main(["solve", str(CONFIGS / "regression_tw.yaml"),
                             "--set", f"output={out}", "--set", "seed=3",
                             "--set", f"regression_threshold={thr}"]) == rc
            mans.append(io.read_manifest(str(out / "manifest.yaml")))
        passing, failing = mans
        assert list(failing) == list(passing)
        assert [k for k in passing if passing[k] != failing[k]] == [
            "regression_threshold", "config"]
        assert failing["error_stat"] == passing["error_stat"]
        assert failing["config"]["seed"] == passing["config"]["seed"] == 3

    @pytest.mark.parametrize("body", [
        """\
problem: dirichlet
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
data: {kind: bump, height: 0.5, radius: 0.4}
""",
        # the data preset has an exact companion, but a Cauchy run never
        # compares with it
        """\
problem: cauchy
eps: 1.0e-4
delta: 1.0e-2
grid: {lo: [-0.62, -0.62], hi: [0.62, 0.62], n: [33, 33]}
data: {kind: barenblatt, R: 0.1, t_offset: 1.0}
cauchy: {M: 0.05, r: 0.3}
schedule: {n_list: [128]}
"""], ids=["dirichlet-bump", "cauchy-barenblatt"])
    def test_threshold_without_error_statistic_is_rejected(
            self, tmp_path, capsys, body):
        # a run that records no error_stat cannot be gated by a threshold;
        # it is refused before the solve, so nothing is written
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "t.yaml", body + f"""\
m: 2.0
t_end: 0.01
regression_threshold: 1.0e-12
output: {out}
""")
        assert cli.main(["solve", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("IPME-E") == 1 and err.startswith("IPME-E50:")
        assert "regression_threshold" in err
        assert not out.exists()

    @pytest.mark.parametrize("data", [
        "{kind: linear, slope: 1.0}", "{kind: constant, value: 0.3}"],
        ids=["linear", "constant"])
    def test_exact_boundary_needs_a_companion(self, tmp_path, capsys, data):
        # u = s (x1 - lo) + s^2 t solves the equation, so holding the
        # initial linear data on the boundary would run another problem
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "b.yaml", f"""\
problem: dirichlet
m: 2.0
t_end: 0.2
grid: {{lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}}
data: {data}
boundary: {{kind: exact}}
output: {out}
""")
        assert cli.main(["solve", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("IPME-E") == 1 and err.startswith("IPME-E50:")
        assert "exact companion" in err
        assert not out.exists()

    @pytest.mark.parametrize("data,key", [
        ("{kind: barenblatt, R: 1.0, height: 0.5}", "height"),
        ("{kind: traveling-wave, speed: 1.0, t_offset: 1.0}", "t_offset"),
        ("{kind: separable-ball, radius: 0.5, slope: 1.0}", "slope"),
        ("{kind: separable-ball, R: 0.5}", "R")],
        ids=["barenblatt-height", "wave-t_offset", "ball-slope", "ball-R"])
    def test_companion_data_take_only_their_family_keys(
            self, tmp_path, capsys, data, key):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "d.yaml", f"""\
problem: dirichlet
m: 2.0
t_end: 0.01
grid: {{lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}}
data: {data}
boundary: {{kind: exact}}
output: {out}
""")
        assert cli.main(["solve", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("IPME-E") == 1 and err.startswith("IPME-E50:")
        assert repr(key) in err
        assert not out.exists()

    def test_cauchy_requires_M_and_r(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.yaml", """\
problem: cauchy
m: 2.0
t_end: 0.01
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
data: {kind: bump, height: 0.2, radius: 0.2}
output: %s
""" % (tmp_path / "run"))
        assert cli.main(["solve", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E50:")
        assert "cauchy.M and cauchy.r" in err

    def test_unknown_problem_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.yaml", """\
problem: neumann
m: 2.0
t_end: 0.01
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
data: {kind: constant, value: 0.3}
boundary: {kind: constant, value: 0.3}
output: %s
""" % (tmp_path / "run"))
        assert cli.main(["solve", cfg]) == 1
        assert capsys.readouterr().err == (
            "IPME-E50: unknown problem 'neumann'; known: dirichlet, "
            "maximal, cauchy\n")

    def test_config_error_goes_to_stderr_only(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path / "absent.yaml")]) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("IPME-E50: cannot read config")


# ---------------------------------------------------------------------------
# exact subcommand

EXACT_BB_YAML = """\
output: {out}
exact:
  family: barenblatt
  m: 2.0
  quantity: u
  R: 1.0
  times: [0.25, 0.3536, 0.5, 0.7071, 1.0, 1.4142, 2.0, 2.8284, 4.0]
grid: {{lo: [-2.0, -2.0], hi: [2.0, 2.0], n: [65, 65]}}
"""


# one valid `exact` section (the keys after family and m) and grid per
# family, each grid inside the family's domain
EXACT_FAMILY_CONFIGS = {
    "barenblatt": ("R: 1.0, quantity: rho, t: 1.0",
                   "{lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}"),
    "traveling-wave": ("speed: 1.5, offset: 0.2, times: [0.0, 0.25]",
                       "{lo: [0.0, 0.0], hi: [1.0, 1.0], n: [17, 17]}"),
    "separable-ball": ("a: 1.0, t0: 0.5, t: 1.0",
                       "{lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}"),
    "separable-annulus": ("a: 1.0, R1: 0.5, quantity: rho, t: 1.0",
                          "{lo: [0.62, -0.15], hi: [0.92, 0.15], n: [9, 9]}"),
    "neg-lambda-pos": ("a: 1.0, R: 0.3, t0: 2.0, times: [0.5, 1.0]",
                       "{lo: [0.4, 0.4], hi: [1.2, 1.2], n: [17, 17]}"),
    "neg-lambda-zero": ("R: 0.3, t0: 2.0, t: 1.0",
                        "{lo: [0.4, 0.4], hi: [1.2, 1.2], n: [17, 17]}"),
    "neg-lambda-neg": ("C: 2.5, t0: 2.0, quantity: rho, t: 1.0",
                       "{lo: [1.1, 1.1], hi: [1.7, 1.7], n: [17, 17]}"),
}


@pytest.fixture(scope="module")
def bb_snapshot_dir(tmp_path_factory):
    """Pressure snapshots of the m=2, R=1 source solution on a 65^2 box,
    at nine times doubling from 0.25 to 4."""
    root = tmp_path_factory.mktemp("bb")
    out = root / "snaps"
    cfg = write_cfg(root / "e.yaml", EXACT_BB_YAML.format(out=out))
    assert cli.main(["exact", cfg]) == 0
    return out


class TestExactCommand:
    def test_origin_node_value(self, bb_snapshot_dir):
        # u(0, t=1) = R^2 / (2(m+1)) = 1/6 for m=2, R=1
        snap = io.read_snapshot(bb_snapshot_dir / "u_0004.snap")
        assert snap.t == 1.0
        i = int(np.argmin(np.abs(np.linspace(-2.0, 2.0, 65))))
        assert snap.values[i, i] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_manifest_lists_all_snapshots(self, bb_snapshot_dir):
        man = yaml.safe_load((bb_snapshot_dir / "manifest.yaml").read_text())
        assert man["problem"] == "exact"
        assert man["family"] == "barenblatt"
        assert man["snapshots"] == [f"u_{i:04d}.snap" for i in range(9)]
        assert man["times"][0] == 0.25 and man["times"][-1] == 4.0

    def test_density_quantity_names_files(self, tmp_path):
        out = tmp_path / "rho"
        cfg = write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: barenblatt, m: 2.0, quantity: rho, R: 1.0, times: [1.0]}
grid: {lo: [-2.0, -2.0], hi: [2.0, 2.0], n: [33, 33]}
""" % out)
        assert cli.main(["exact", cfg]) == 0
        assert (out / "rho_0000.snap").exists()
        assert io.read_snapshot(out / "rho_0000.snap").quantity == "rho"

    def test_separable_ball_at_radius_0_4(self, tmp_path):
        # this radius once failed the profile-table endpoint check
        out = tmp_path / "ball"
        cfg = write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: separable-ball, m: 2.0, R: 0.4, times: [1.0]}
grid: {lo: [-0.5, -0.5], hi: [0.5, 0.5], n: [17, 17]}
""" % out)
        assert cli.main(["exact", cfg]) == 0
        assert float(np.max(io.read_snapshot(out / "u_0000.snap").values)) > 0

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_non_finite_time_rejected_before_use(self, tmp_path, capsys,
                                                 value):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: barenblatt, m: 2.0, R: 1.0}
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
""" % out)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["exact", cfg, "--set", f"exact.t={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E10:") and err.count("IPME-E") == 1
        assert "exact.t must be finite" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_unknown_family(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: wavelet, m: 2.0, times: [1.0]}
grid: {lo: [-1.0], hi: [1.0], n: [17]}
""" % (tmp_path / "run"))
        assert cli.main(["exact", cfg]) == 1
        assert "unknown exact family 'wavelet'" in capsys.readouterr().err

    def test_empty_time_list_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: barenblatt, m: 2.0, R: 1.0, times: []}
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
""" % out)
        assert cli.main(["exact", cfg]) == 1
        assert capsys.readouterr().err == (
            "IPME-E50: exact.times must list at least one time\n")
        assert not out.exists()

    def test_t_and_times_exclude_each_other(self, tmp_path, capsys):
        # `t` was once dropped without a word, while the manifest's
        # embedded config still showed it
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: barenblatt, m: 2.0, t: 5.0, times: [1.0]}
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
""" % out)
        assert cli.main(["exact", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E50:") and err.count("\n") == 1
        assert "exact.t" in err and "exact.times" in err
        assert not out.exists()

    def test_barenblatt_needs_positive_time(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: barenblatt, m: 2.0, R: 1.0, times: [0.0]}
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
""" % (tmp_path / "run"))
        assert cli.main(["exact", cfg]) == 1
        assert "t > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("family", list(exact.FAMILIES))
    def test_every_family_runs_and_is_recorded_by_name(self, tmp_path,
                                                       family):
        section, grid = EXACT_FAMILY_CONFIGS[family]
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "e.yaml", "output: %s\nexact: {family: "
                        "%s, m: 2.0, %s}\ngrid: %s\n"
                        % (out, family, section, grid))
        assert cli.main(["exact", cfg]) == 0
        assert io.read_manifest(out / "manifest.yaml")["family"] == family

    @pytest.mark.parametrize("family,key", [
        ("barenblatt", "C: 3"), ("barenblatt", "t0: 5"),
        ("traveling-wave", "R: 9"), ("traveling-wave", "a: 2"),
        ("separable-ball", "speed: 1.0"), ("separable-annulus", "R: 0.7"),
        ("neg-lambda-pos", "C: 1.0"), ("neg-lambda-zero", "a: 1.0"),
        ("neg-lambda-neg", "R1: 0.3")])
    def test_a_key_the_family_does_not_take_writes_nothing(
            self, tmp_path, capsys, family, key):
        section, grid = EXACT_FAMILY_CONFIGS[family]
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "e.yaml", "output: %s\nexact: {family: "
                        "%s, m: 2.0, %s, %s}\ngrid: %s\n"
                        % (out, family, section, key, grid))
        assert cli.main(["exact", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("IPME-E") == 1 and err.startswith("IPME-E50:")
        assert repr(key.split(":")[0]) in err
        assert not out.exists()

    @pytest.mark.parametrize("family,missing", [
        ("separable-annulus", "R1"), ("neg-lambda-pos", "R"),
        ("neg-lambda-zero", "t0"), ("neg-lambda-neg", "C")])
    def test_a_missing_required_key_writes_nothing(self, tmp_path, capsys,
                                                   family, missing):
        section, grid = EXACT_FAMILY_CONFIGS[family]
        section = ", ".join(item for item in section.split(", ")
                            if not item.startswith(missing + ":"))
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "e.yaml", "output: %s\nexact: {family: "
                        "%s, m: 2.0, %s}\ngrid: %s\n"
                        % (out, family, section, grid))
        assert cli.main(["exact", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("IPME-E") == 1 and err.startswith("IPME-E50:")
        assert repr(missing) in err
        assert not out.exists()

    def test_ball_takes_R_or_a_not_both(self, tmp_path, capsys):
        # `a` was once dropped without a word, while the manifest's
        # embedded config still showed it
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: separable-ball, m: 2.0, R: 0.5, a: 7.0}
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}
""" % out)
        assert cli.main(["exact", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("IPME-E") == 1 and err.startswith("IPME-E50:")
        assert "R or a, not both" in err
        assert not out.exists()

    @pytest.mark.parametrize("section", [
        "{family: barenblatt, m: 2.0, times: [1.0, 0.0]}",
        "{family: barenblatt, m: 2.0, quantity: G}",
        "{family: separable-ball, m: 2.0, R: 0.5, t0: 2.0, times: [3.0, 1.0]}",
    ])
    def test_a_bad_time_or_quantity_writes_nothing(self, tmp_path, capsys,
                                                   section):
        # every time is sampled before the output directory is made
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "e.yaml", "output: %s\nexact: %s\ngrid: "
                        "{lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [17, 17]}\n"
                        % (out, section))
        assert cli.main(["exact", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E10:") and err.count("\n") == 1
        assert not out.exists()


# ---------------------------------------------------------------------------
# fuzzed overrides


# every scalar leaf; each fuzzed run sets its own output
FUZZ_KEYS = sorted(k for k, leaf in cli.SCHEMA.items()
                   if not isinstance(leaf, list) and k != "output")
FUZZ_VALUES = ("null", ".nan", ".inf", "-.inf", "-1", "0", "2", "x", "true")
FUZZ_YAML = """\
problem: dirichlet
m: 2.0
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [9, 9]}
data: {kind: bump, height: 0.5, radius: 0.6}
boundary: {kind: zero}
t_end: 0.05
"""
EXACT_FUZZ_YAML = """\
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [9, 9]}
exact: {family: barenblatt, m: 2.0, R: 1.0, t: 1.0}
"""
# each example's wall time may not exceed this; 9^2 runs take far less
FUZZ_SETTINGS = settings(
    derandomize=True, max_examples=60, deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def fuzzed(keys):
    return given(st.lists(st.tuples(st.sampled_from(keys),
                                    st.sampled_from(FUZZ_VALUES)),
                          min_size=1, max_size=3))


@FUZZ_SETTINGS
@fuzzed(FUZZ_KEYS)
# pinned: a null leaf must not reach float(), a zero radius not a division,
# a bool not pass for a number
@example([("c", "null")])
@example([("data.radius", "0")])
@example([("eps", "true")])
# leaves a Dirichlet bump never reads are checked all the same
@example([("data.value", ".nan"), ("cauchy.M", "-1")])
@example([("data.slope", ".inf")])
def test_fuzzed_overrides_end_in_one_diagnostic(tmp_path, capsys, overrides):
    _assert_one_diagnostic(tmp_path, capsys, "solve", FUZZ_YAML, overrides)


@FUZZ_SETTINGS
@fuzzed(FUZZ_KEYS)
def test_fuzzed_exact_overrides_end_in_one_diagnostic(tmp_path, capsys,
                                                       overrides):
    _assert_one_diagnostic(tmp_path, capsys, "exact", EXACT_FUZZ_YAML,
                           overrides)


@pytest.fixture(scope="module")
def fuzz_snapshot_dir(tmp_path_factory):
    """The source-solution snapshots of `bb_snapshot_dir` on a 9^2 box."""
    out = tmp_path_factory.mktemp("fuzz") / "snaps"
    cfg = write_cfg(out.parent / "e.yaml", EXACT_BB_YAML.format(
        out=out).replace("n: [65, 65]", "n: [9, 9]"))
    assert cli.main(["exact", cfg]) == 0
    return out


@FUZZ_SETTINGS
@fuzzed(FUZZ_KEYS)
def test_fuzzed_asym_overrides_end_in_one_diagnostic(
        tmp_path, capsys, fuzz_snapshot_dir, overrides):
    # the tasks read every asym leaf but ball_radius
    _assert_one_diagnostic(tmp_path, capsys, "asym", """\
asym: {snapshots: %s, tasks: [support, rate, barenblatt, benilan], m: 2.0}
""" % fuzz_snapshot_dir, overrides)


def _assert_one_diagnostic(tmp_path, capsys, command, config, overrides):
    # every input either runs or ends in exactly one specific IPME-E line
    # with nothing written: never the generic IPME-E1 of an unexpected
    # exception, never a traceback, never a numpy warning on the way
    run = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    argv = [command, write_cfg(run / "c.yaml", config),
            "--set", f"output={run / 'out'}"]
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc in ((0, 1, 2) if command == "solve" else (0, 1)), (overrides, rc)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    diagnostics = [line for line in err.splitlines()
                   if line.startswith("IPME-E")]
    if rc == 1:
        assert len(diagnostics) == 1, (overrides, err)
        assert not diagnostics[0].startswith("IPME-E1:"), (overrides, err)
        assert not (run / "out").exists(), overrides
    if "true" in dict(overrides).values():
        # a YAML bool is no scalar leaf's type (bool subclasses int)
        assert rc == 1 and diagnostics[0].startswith("IPME-E50:"), overrides
    if rc != 1 and command != "asym":
        # the recorded config holds only typed, finite numbers
        man = yaml.safe_load((run / "out" / "manifest.yaml").read_text())
        _assert_numbers_typed(man["config"])


def _assert_numbers_typed(node, path=""):
    for key, val in node.items():
        if isinstance(val, dict):
            _assert_numbers_typed(val, f"{path}{key}.")
            continue
        leaf = cli.SCHEMA[path + key]
        many = isinstance(leaf, list)
        elem = leaf[0].type if many else leaf.type
        if elem is str:
            continue
        types = (int,) if elem is int else (int, float)
        for v in val if many else [val]:
            assert type(v) in types, (path + key, v)
            assert math.isfinite(v), (path + key, v)


@pytest.mark.parametrize("key", ["eps", "data.height", "boundary.value",
                                 "seed"])
def test_null_leaf_is_a_config_error(tmp_path, capsys, key):
    rc = cli.main(["solve", write_cfg(tmp_path / "c.yaml", FUZZ_YAML),
                   "--set", f"output={tmp_path / 'out'}",
                   "--set", f"{key}=null"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"IPME-E50: {key!r} has the wrong type (null)\n")


@pytest.mark.parametrize("overrides,diagnostic", [
    (["boundary.kind=constant", "boundary.value=-1"],
     "boundary.value must be >= 0, got -1"),
    (["data.kind=constant", "data.value=-1"],
     "data.value must be >= 0, got -1"),
    (["data.kind=linear", "data.slope=-1"], "data.slope must be >= 0, got -1"),
    (["data.height=-0.5"], "data.height must be >= 0, got -0.5"),
], ids=["boundary.value", "data.value", "data.slope", "data.height"])
def test_negative_data_is_an_input_error(tmp_path, capsys, overrides,
                                         diagnostic):
    # negative data or lateral values once failed only while stepping, as
    # IPME-E21 after the work was done
    argv = ["solve", write_cfg(tmp_path / "c.yaml", FUZZ_YAML),
            "--set", f"output={tmp_path / 'out'}"]
    for pair in overrides:
        argv += ["--set", pair]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"IPME-E10: {diagnostic}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["eps", "data.height", "seed"])
@pytest.mark.parametrize("value", ["true", "false"])
def test_bool_leaf_is_a_config_error(tmp_path, capsys, key, value):
    rc = cli.main(["solve", write_cfg(tmp_path / "c.yaml", FUZZ_YAML),
                   "--set", f"output={tmp_path / 'out'}",
                   "--set", f"{key}={value}"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"IPME-E50: {key!r} has the wrong type (bool)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n,diagnostic", [
    ("[9, 1]", "IPME-E10: need at least 3 nodes per axis, got (9, 1)"),
    ("[2, 9]", "IPME-E10: need at least 3 nodes per axis, got (2, 9)"),
    ("[9, 9.5]", "IPME-E50: 'grid.n[1]' has the wrong type (float)"),
    ("[9, true]", "IPME-E50: 'grid.n[1]' has the wrong type (bool)"),
    ("[null, 9]", "IPME-E50: 'grid.n[0]' has the wrong type (null)"),
    ("[9, '9']", "IPME-E50: 'grid.n[1]' has the wrong type (str)"),
])
def test_grid_node_counts_checked_entry_by_entry(tmp_path, capsys, n,
                                                  diagnostic):
    cfg = FUZZ_YAML.replace("n: [9, 9]", f"n: {n}")
    rc = cli.main(["solve", write_cfg(tmp_path / "c.yaml", cfg),
                   "--set", f"output={tmp_path / 'out'}"])
    assert rc == 1
    assert capsys.readouterr().err == diagnostic + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("corner,key", [
    ("lo: [-1.0, .nan]", "grid.lo[1]"), ("lo: [-.inf, -1.0]", "grid.lo[0]"),
    ("hi: [1.0, .inf]", "grid.hi[1]")])
def test_grid_corners_must_be_finite(tmp_path, capsys, corner, key):
    axis = corner[:2]
    cfg = FUZZ_YAML.replace(
        "lo: [-1.0, -1.0]" if axis == "lo" else "hi: [1.0, 1.0]", corner)
    rc = cli.main(["solve", write_cfg(tmp_path / "c.yaml", cfg),
                   "--set", f"output={tmp_path / 'out'}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"IPME-E10: {key} must be finite, got ")
    assert err.count("IPME-E") == 1


def test_grid_lists_must_have_equal_length(tmp_path, capsys):
    # a 2-d run would silently drop the third hi entry
    cfg = FUZZ_YAML.replace("hi: [1.0, 1.0]", "hi: [1.0, 1.0, 7.0]")
    rc = cli.main(["solve", write_cfg(tmp_path / "c.yaml", cfg),
                   "--set", f"output={tmp_path / 'out'}"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "IPME-E10: box corners and node counts must have equal length, "
        "got 2, 3, 2\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("center", ["[0, 0, 5]", "[0]"])
def test_domain_center_needs_one_coordinate_per_axis(tmp_path, capsys,
                                                     center):
    cfg = FUZZ_YAML + f"domain: {{kind: ball, radius: 0.8, center: {center}}}\n"
    rc = cli.main(["solve", write_cfg(tmp_path / "c.yaml", cfg),
                   "--set", f"output={tmp_path / 'out'}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("IPME-E10: center must have 2 coordinates, got ")
    assert err.count("IPME-E") == 1
    assert not (tmp_path / "out").exists()


def test_unread_leaves_are_checked(tmp_path, capsys):
    # a Dirichlet bump reads neither data.value nor the cauchy section
    rc = cli.main(["solve", write_cfg(tmp_path / "c.yaml", FUZZ_YAML),
                   "--set", f"output={tmp_path / 'out'}",
                   "--set", "data.value=.nan", "--set", "cauchy.M=-1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "IPME-E10: data.value must be finite, got nan\n")
    assert not (tmp_path / "out").exists()


# (leaf, value, rule) for leaves that a Dirichlet bump on a box never
# reads, with a value their readers reject
UNREAD_OUT_OF_RANGE = [
    ("cauchy.M", "-1", "be >= 0"),
    ("cauchy.r", "0", "be positive"),
    ("domain.radius", "-0.5", "be positive"),
    ("data.speed", "0", "be positive"),
    ("exact.m", "1", "exceed 1"),
    ("asym.R_estimate", "-2.0", "be positive"),
    ("asym.threshold", "-1", "be >= 0"),
    ("asym.r_max", "0", "be positive"),
]


@pytest.mark.parametrize("key,value,rule", UNREAD_OUT_OF_RANGE,
                         ids=[c[0] for c in UNREAD_OUT_OF_RANGE])
def test_unread_leaves_are_range_checked(tmp_path, capsys, key, value, rule):
    rc = cli.main(["solve", write_cfg(tmp_path / "c.yaml", FUZZ_YAML),
                   "--set", f"output={tmp_path / 'out'}",
                   "--set", f"{key}={value}"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"IPME-E10: {key} must {rule}, got {value}\n")
    assert not (tmp_path / "out").exists()


def test_unread_list_entries_are_range_checked(tmp_path, capsys):
    # `ipme exact` reads no schedule
    cfg = write_cfg(tmp_path / "c.yaml", """\
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [9, 9]}
exact: {family: barenblatt, m: 2.0}
schedule: {n_list: [1, 0]}
""")
    rc = cli.main(["exact", cfg, "--set", f"output={tmp_path / 'out'}"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "IPME-E10: schedule.n_list[1] must be >= 1, got 0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("radius", ["0", "-0.5"])
def test_bump_radius_must_be_positive(tmp_path, capsys, radius):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["solve", write_cfg(tmp_path / "c.yaml", FUZZ_YAML),
                       "--set", f"output={tmp_path / 'out'}",
                       "--set", f"data.radius={radius}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("IPME-E10: data.radius must be positive")
    assert err.count("IPME-E") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


CAUCHY_FUZZ_YAML = """\
problem: cauchy
m: 2.0
grid: {lo: [-0.62, -0.62], hi: [0.62, 0.62], n: [9, 9]}
data: {kind: bump, height: 0.05, radius: 0.1}
cauchy: {M: 0.05, r: 0.3}
t_end: 0.01
"""


@pytest.mark.parametrize("config", [
    FUZZ_YAML.replace("dirichlet", "maximal"), CAUCHY_FUZZ_YAML],
    ids=["maximal", "cauchy"])
def test_decreasing_n_list_writes_nothing(tmp_path, capsys, config):
    # the ladder checks its rung list before it solves the first rung
    argv = ["solve", write_cfg(tmp_path / "c.yaml",
                               config + "schedule: {n_list: [4, 2]}\n"),
            "--set", f"output={tmp_path / 'out'}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("IPME-E10: n_list ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config,overrides,kind,path", [
    (FUZZ_YAML, ["cauchy.M=1.0", "cauchy.r=0.3"], "dirichlet", "cauchy.M"),
    (FUZZ_YAML, ["problem=maximal", "cauchy.M=1.0"], "maximal", "cauchy.M"),
    (FUZZ_YAML + "schedule: {n_list: [1, 2, 4]}\n", [], "dirichlet",
     "schedule.n_list"),
    (CAUCHY_FUZZ_YAML + "domain: {kind: ball, radius: 0.2}\n"
     "boundary: {kind: constant, value: 3}\n", [], "cauchy", "domain.kind"),
    (CAUCHY_FUZZ_YAML + "boundary: {kind: constant, value: 3}\n", [],
     "cauchy", "boundary.kind"),
], ids=["cauchy-on-dirichlet", "cauchy-on-maximal", "n_list-on-dirichlet",
        "domain-on-cauchy", "boundary-on-cauchy"])
def test_a_section_the_problem_does_not_read_writes_nothing(
        tmp_path, capsys, config, overrides, kind, path):
    # these once ran and recorded the section as if it had been used
    argv = ["solve", write_cfg(tmp_path / "c.yaml", config),
            "--set", f"output={tmp_path / 'out'}"]
    for pair in overrides:
        argv += ["--set", pair]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"IPME-E50: a {kind} run reads no {path!r}\n")
    assert not (tmp_path / "out").exists()


ASYM_BENILAN_YAML = "asym: {snapshots: %s, tasks: [benilan]}\n"


@pytest.mark.parametrize("command,config,run,leaf", [
    ("exact", EXACT_FUZZ_YAML + "m: 3.0\n", "an exact run", "m"),
    ("exact", EXACT_FUZZ_YAML + "t_end: 0.5\n", "an exact run", "t_end"),
    ("exact", EXACT_FUZZ_YAML + "data: {kind: bump}\n", "an exact run",
     "data.kind"),
    ("exact", EXACT_FUZZ_YAML + "asym: {tasks: [support]}\n",
     "an exact run", "asym.tasks"),
    ("solve", FUZZ_YAML + "exact: {family: barenblatt, m: 2.0}\n",
     "a dirichlet run", "exact.family"),
    ("solve", FUZZ_YAML + "asym: {tasks: [support]}\n", "a dirichlet run",
     "asym.tasks"),
    ("asym", ASYM_BENILAN_YAML + "problem: dirichlet\n",
     "an asym run of benilan", "problem"),
    ("asym", ASYM_BENILAN_YAML + FUZZ_YAML.split("\n", 2)[2],
     "an asym run of benilan", "grid.lo"),
    ("solve", FUZZ_YAML + "domain: {kind: box, radius: 0.5}\n",
     "a dirichlet run", "domain.radius"),
    ("solve", FUZZ_YAML + "eps: 1.0e-2\n"
     "schedule: {eps_list: [1.0e-1, 1.0e-2]}\n", "a dirichlet run", "eps"),
    ("solve", FUZZ_YAML + "delta: 1.0e-2\n"
     "schedule: {delta_list: [1.0e-1, 1.0e-2]}\n", "a dirichlet run",
     "delta"),
    ("solve", FUZZ_YAML.replace("dirichlet", "maximal") + "c: 5.0\n"
     "schedule: {n_list: [2, 4]}\n", "a maximal run", "c"),
    ("solve", CAUCHY_FUZZ_YAML.replace("n: [9, 9]", "n: [33, 33]")
     + "c: 5.0\nschedule: {n_list: [128, 256]}\n", "a cauchy run", "c"),
], ids=["exact-m", "exact-t_end", "exact-data", "exact-asym", "solve-exact",
        "solve-asym", "asym-problem", "asym-solve-sections", "box-radius",
        "eps-and-eps_list", "delta-and-delta_list", "c-on-maximal",
        "c-on-cauchy"])
def test_a_leaf_the_run_never_reads_writes_nothing(
        tmp_path, capsys, fuzz_snapshot_dir, command, config, run, leaf):
    # each of these once ran and recorded the leaf as if it had been used
    if command == "asym":
        config %= fuzz_snapshot_dir
    out = tmp_path / "out"
    rc = cli.main([command, write_cfg(tmp_path / "c.yaml", config),
                   "--set", f"output={out}"])
    assert rc == 1
    assert capsys.readouterr().err == f"IPME-E50: {run} reads no {leaf!r}\n"
    assert not out.exists()


class _Checked(Exception):
    """Stops a run once its unread-leaf check has passed."""


def _read_runs(snaps):
    """(command, config) of the shipped configs and of one run per problem
    kind, data kind, boundary kind, asym task and exact family; together
    they carry every SCHEMA leaf."""
    for path in sorted(CONFIGS.glob("*.yaml")):
        yield "solve", path.read_text(encoding="utf-8")
    base = ("m: 2.0\nt_end: 0.01\n"
            "grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [9, 9]}\n")
    for body in [
            "problem: dirichlet\neps: 1.0e-2\ndelta: 1.0e-2\nc: 0.1\n"
            "seed: 1\nsnapshot_times: [0.005, 0.01]\n"
            "domain: {kind: ball, radius: 0.8, center: [0.0, 0.0]}\n"
            "data: {kind: bump, height: 0.5, radius: 0.6}\n"
            "boundary: {kind: zero}\n",
            "problem: maximal\ndata: {kind: constant, value: 0.3}\n"
            "boundary: {kind: constant, value: 0.3}\nschedule: "
            "{eps_list: [1.0e-2], delta_list: [1.0e-2], n_list: [1, 2]}\n",
            "problem: cauchy\ndata: {kind: bump, height: 0.05, radius: 0.1}"
            "\ncauchy: {M: 0.05, r: 0.3}\n",
            "data: {kind: linear, slope: 1.0}\n",
            "data: {kind: barenblatt, R: 1.0, t_offset: 1.0}\n"
            "boundary: {kind: exact}\nregression_threshold: 0.5\n",
            "data: {kind: traveling-wave, speed: 1.0, offset: 0.5}\n",
            "data: {kind: separable-ball, radius: 0.5, t_offset: 1.0}\n"]:
        yield "solve", base + body
    for leaves in ["tasks: [support], threshold: 0.01, center: [0.0, 0.0], "
                   "r_max: 1.5", "tasks: [rate]",
                   "tasks: [giant], m: 2.0, ball_radius: 0.5",
                   "tasks: [barenblatt], m: 2.0, R_estimate: 1.0",
                   "tasks: [benilan]"]:
        yield "asym", "asym: {snapshots: %s, %s}\n" % (snaps, leaves)
    for family, (section, grid) in EXACT_FAMILY_CONFIGS.items():
        yield "exact", ("exact: {family: %s, m: 2.0, %s}\ngrid: %s\n"
                        % (family, section, grid))


def test_every_schema_leaf_is_read_by_some_run(tmp_path, capsys, monkeypatch,
                                                fuzz_snapshot_dir):
    # every run rejects a leaf it never reads, so a leaf that no run reads
    # would be an error everywhere; the runs stop after the check
    taken = set()
    check = cli._Reads.check

    def spy(self, run):
        check(self, run)
        taken.update(self.taken)
        raise _Checked

    monkeypatch.setattr(cli._Reads, "check", spy)
    out = tmp_path / "out"
    for i, (command, config) in enumerate(_read_runs(fuzz_snapshot_dir)):
        argv = [command, write_cfg(tmp_path / f"c{i}.yaml", config),
                "--set", f"output={out}"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "IPME-E1: _Checked: \n", config
    assert taken == set(cli.SCHEMA)
    assert not out.exists()


@pytest.mark.parametrize("tasks,leaves,leaf", [
    ("[benilan]", "m: 2.0, r_max: 0.5, ball_radius: 0.3, threshold: 0.5, "
     "R_estimate: 9.0", "m"),
    ("[benilan]", "center: [0.0, 0.0]", "center"),
    ("[support]", "ball_radius: 0.3", "ball_radius"),
    ("[giant]", "m: 2.0, r_max: 0.5", "r_max"),
    # with its own front scale the barenblatt task tracks no support
    ("[barenblatt]", "m: 2.0, R_estimate: 1.0, threshold: 0.5",
     "threshold"),
], ids=["benilan", "center", "ball_radius", "r_max", "threshold"])
def test_an_asym_leaf_no_task_reads_writes_nothing(
        tmp_path, bb_snapshot_dir, capsys, tasks, leaves, leaf):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: %s, %s}
""" % (out, bb_snapshot_dir, tasks, leaves))
    assert cli.main(["asym", cfg]) == 1
    assert capsys.readouterr().err == (
        f"IPME-E50: an asym run of {tasks.strip('[]')} reads no "
        f"'asym.{leaf}'\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify subcommand


class TestVerifyCommand:
    def test_full_battery_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("21/21 cases passed")
        assert all(line.startswith("PASS") for line in
                   out.strip().splitlines()[:-1])
        assert "PASS  operators/field-quadratic" in out

    def test_single_suite_selection(self, capsys):
        assert cli.main(["verify", "--suite", "io"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("5/5 cases passed")
        assert "io/snapshot-roundtrip" in out

    def test_writer_merging_signed_zeros_is_caught(self, capsys,
                                                   monkeypatch):
        # a writer that formats -0.0 as 0.0 reads back equal under ==
        real = io.snapshot_bytes
        monkeypatch.setattr(io, "snapshot_bytes", lambda f: real(ScalarField(
            f.grid, f.values + 0.0, t=f.t, quantity=f.quantity)))
        assert cli.main(["verify", "--suite", "io"]) == 1
        assert "FAIL  io/snapshot-roundtrip" in capsys.readouterr().out

    def test_injected_fault_is_caught(self, capsys):
        rc = cli.main(["verify", "--suite", "operators",
                       "--fault", "stencil-sign-flip"])
        assert rc == 1
        cap = capsys.readouterr()
        assert "FAIL  operators/quadratic-quotient" in cap.out
        assert "FAIL  operators/field-quadratic" in cap.out
        assert cap.err.startswith("IPME-E1: failing cases:")
        # the fault must not leak into later runs
        assert cli.main(["verify", "--suite", "operators"]) == 0

    @pytest.mark.parametrize("mode", ["drop-transport", "plain-laplacian"])
    def test_rhs_faults_are_caught(self, capsys, mode):
        # without + |Du|^2, or with the standard porous-medium operator in
        # place of the quotient, the field kernel leaves both the
        # pointwise kernel and the closed form of a quadratic
        assert cli.main(["verify", "--fault", mode]) == 1
        cap = capsys.readouterr()
        failed = [line.split()[1] for line in cap.out.splitlines()
                  if line.startswith("FAIL")]
        assert failed == ["operators/field-vs-pointwise",
                          "operators/field-quadratic"]
        assert cap.err.startswith("IPME-E1: failing cases:")
        assert cli.main(["verify", "--suite", "operators"]) == 0

    def test_injected_fault_reaches_the_exact_residuals(self, capsys):
        # pde_residual runs the solver's stencil kernel, so flipping the
        # mixed terms breaks the ball's and the a = 0 branch's bounds
        rc = cli.main(["verify", "--suite", "exact",
                       "--fault", "stencil-sign-flip"])
        assert rc == 1
        cap = capsys.readouterr()
        assert "FAIL  exact/separable-ball-residual" in cap.out
        assert "FAIL  exact/neg-lambda-a0-residual" in cap.out
        assert cap.err == ("IPME-E1: failing cases: exact/separable-ball-"
                           "residual, exact/neg-lambda-a0-residual\n")
        assert cli.main(["verify", "--suite", "exact"]) == 0

    def test_unknown_suite_flag_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        assert "operators, exact, comparison, scaling, io" in \
            capsys.readouterr().err

    def test_unknown_fault_is_one_diagnostic(self, capsys):
        assert cli.main(["verify", "--fault", "nope"]) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == "IPME-E10: unknown fault mode 'nope'\n"

    @pytest.mark.parametrize("argv", [["v.yaml"], ["--set", "seed=1"]])
    def test_takes_no_config(self, capsys, argv):
        # --suite and --fault are its only inputs
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify"] + argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# asym subcommand


def _legacy_text(field):
    """`field` in the v1 text format: the v2 header under the v1 magic,
    then one repr value per line."""
    head = io.snapshot_bytes(field).partition(b"\n")[0].decode()
    return (head.replace("# ipme v2 ", "# ipme v1 ", 1) + "\n" + "".join(
        repr(v) + "\n" for v in field.values.ravel().tolist()))


@pytest.fixture(scope="module")
def asym_out(bb_snapshot_dir, tmp_path_factory):
    """Post-processing pass over the source-solution snapshots."""
    out = tmp_path_factory.mktemp("asym") / "out"
    cfg = write_cfg(out.parent / "a.yaml", """\
output: {out}
asym:
  snapshots: {snaps}
  tasks: [support, rate, barenblatt, benilan]
  m: 2.0
""".format(out=out, snaps=bb_snapshot_dir))
    assert cli.main(["asym", cfg]) == 0
    return out


class TestAsymCommand:
    def test_writes_all_task_outputs(self, asym_out):
        names = sorted(p.name for p in asym_out.iterdir())
        assert names == ["asym_summary.yaml", "barenblatt_curve.csv",
                         "rate_fit.csv", "support_trace.csv"]

    def test_front_rate_matches_source_solution(self, asym_out):
        summ = yaml.safe_load((asym_out / "asym_summary.yaml").read_text())
        # m=2 source solution spreads like t^{1/3} with unit prefactor;
        # the shell-quantized front positions land within a percent
        assert summ["rate"]["rate"] == pytest.approx(1.0 / 3.0, abs=0.01)
        assert summ["rate"]["amplitude"] == pytest.approx(1.0, abs=0.02)
        assert summ["rate"]["n_used"] == 7

    def test_time_derivative_bound_holds_exactly(self, asym_out):
        summ = yaml.safe_load((asym_out / "asym_summary.yaml").read_text())
        assert summ["benilan"]["worst"] >= 0.0

    def test_scaled_sup_distance_is_small(self, asym_out):
        summ = yaml.safe_load((asym_out / "asym_summary.yaml").read_text())
        assert summ["barenblatt"]["final_e"] < 1e-2
        assert summ["barenblatt"]["R_estimate"] == pytest.approx(1.0,
                                                                 abs=0.01)

    def test_support_trace_csv_parses(self, asym_out):
        header, rows = io.read_trace_csv(asym_out / "support_trace.csv")
        assert header[:4] == ["t", "r_inner", "r_outer", "empty"]
        assert len(rows) == 9
        r_outer = [row[2] for row in rows]
        assert r_outer == sorted(r_outer)

    def test_giant_task_on_ball_data(self, tmp_path):
        snaps = tmp_path / "ball"
        cfg = write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: separable-ball, m: 2.0, quantity: u, R: 0.5,
        times: [0.5, 1.0, 2.0, 4.0]}
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [33, 33]}
""" % snaps)
        assert cli.main(["exact", cfg]) == 0
        out = tmp_path / "giant"
        acfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [giant], m: 2.0, ball_radius: 0.5}
""" % (out, snaps))
        assert cli.main(["asym", acfg]) == 0
        summ = yaml.safe_load((out / "asym_summary.yaml").read_text())
        assert summ["giant"]["is_ball"] is True
        assert summ["giant"]["final_error"] == 0.0
        header, rows = io.read_trace_csv(out / "giant_curve.csv")
        assert header == ["t", "error", "stabilization_diff"]

    def test_giant_task_requires_m(self, tmp_path, bb_snapshot_dir, capsys):
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [giant]}
""" % (tmp_path / "out", bb_snapshot_dir))
        assert cli.main(["asym", cfg]) == 1
        assert "asym.m is required" in capsys.readouterr().err

    def test_unknown_task_rejected(self, tmp_path, bb_snapshot_dir, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [support, suport]}
""" % (out, bb_snapshot_dir))
        assert cli.main(["asym", cfg]) == 1
        assert capsys.readouterr().err == (
            "IPME-E50: unknown asym tasks[1] 'suport'; known: support, "
            "rate, giant, barenblatt, benilan\n")
        assert not out.exists()

    @pytest.mark.parametrize("tasks", ["[support]", "[barenblatt]"])
    @pytest.mark.parametrize("center", ["[0.0]", "[0.0, 0.0, 5.0]"])
    def test_center_needs_one_coordinate_per_axis(self, tmp_path,
                                                  bb_snapshot_dir, capsys,
                                                  tasks, center):
        # the support task measures radii on the grid, the barenblatt task
        # (with its own R estimate) centres the exact source solution
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: %s, center: %s, m: 2.0, R_estimate: 1.0}
""" % (tmp_path / "out", bb_snapshot_dir, tasks, center))
        assert cli.main(["asym", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E10: center must have 2 coordinates, got ")
        assert err.count("IPME-E") == 1

    @pytest.mark.parametrize("extra,code,message", [
        ("center: [0.0, 0.0, 5.0], m: 2.0", "IPME-E10",
         "center must have 2 coordinates, got 3"),
        ("center: [0.0, 0.0]", "IPME-E50",
         "asym.m is required for the barenblatt task"),
        ("r_max: 0.01, center: [0.015, 0.0], m: 2.0", "IPME-E10",
         "r_max=0.01 keeps no node of the snapshot grid"),
    ], ids=["center", "m", "r_max"])
    def test_later_task_input_is_checked_before_writing(
            self, tmp_path, bb_snapshot_dir, capsys, extra, code, message):
        # the support task runs first and would write its trace; the
        # barenblatt task's input must be rejected before that
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [support, barenblatt], %s}
""" % (out, bb_snapshot_dir, extra))
        assert cli.main(["asym", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"{code}: {message}\n"
        assert not out.exists()

    def test_missing_snapshot_dir(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [support]}
""" % (tmp_path / "out", tmp_path / "absent"))
        assert cli.main(["asym", cfg]) == 1
        assert capsys.readouterr().err.startswith("IPME-E10:")

    def test_non_finite_snapshot_time_rejected(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        field = ScalarField(GridSpec.box((0.0,), (1.0,), (5,)), np.zeros(5),
                            t=1.0, quantity="u")
        io.write_snapshot(str(snaps / "u_0000.snap"), field)
        raw = io.snapshot_bytes(field).replace(b"t=1.0", b"t=nan", 1)
        (snaps / "u_0001.snap").write_bytes(raw)
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [support]}
""" % (tmp_path / "out", snaps))
        assert cli.main(["asym", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IPME-E40:") and err.count("IPME-E") == 1
        assert "time must be finite, got nan" in err
        assert not (tmp_path / "out").exists()

    def test_empty_task_list_rejected(self, tmp_path, bb_snapshot_dir,
                                      capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: []}
""" % (out, bb_snapshot_dir))
        assert cli.main(["asym", cfg]) == 1
        assert capsys.readouterr().err == (
            "IPME-E50: asym.tasks must list at least one task\n")
        assert not out.exists()

    def test_snapshots_on_different_grids_rejected(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        for i, n in enumerate((33, 17)):
            grid = GridSpec.box((-1.0, -1.0), (1.0, 1.0), (n, n))
            io.write_snapshot(str(snaps / f"u_{i:04d}.snap"), ScalarField(
                grid, np.zeros(grid.shape), t=1.0 + i, quantity="u"))
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [benilan]}
""" % (out, snaps))
        assert cli.main(["asym", cfg]) == 1
        assert capsys.readouterr().err == (
            "IPME-E10: snapshots 'u_0000.snap' and 'u_0001.snap' lie on "
            "different grids\n")
        assert not out.exists()

    @pytest.mark.parametrize("task,caller", [
        ("[giant], m: 2.0, ball_radius: 0.5", "friendly_giant"),
        ("[benilan]", "benilan_crandall_check")], ids=["giant", "benilan"])
    def test_pressure_tasks_refuse_density_snapshots(self, tmp_path, capsys,
                                                     task, caller):
        # both compare against pressure formulas, so a density snapshot
        # would give a silently wrong number
        snaps = tmp_path / "rho"
        assert cli.main(["exact", write_cfg(tmp_path / "e.yaml", """\
output: %s
exact: {family: separable-ball, m: 2.0, quantity: rho, R: 0.5,
        times: [1.0, 2.0, 4.0]}
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [33, 33]}
""" % snaps)]) == 0
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: %s}
""" % (out, snaps, task))
        assert cli.main(["asym", cfg]) == 1
        assert capsys.readouterr().err == (
            f"IPME-E10: {caller} compares pressures and takes no 'rho' "
            f"snapshot\n")
        assert not out.exists()

    def test_recorded_floor_is_removed_once(self, tmp_path, bb_snapshot_dir,
                                            asym_out):
        # the source snapshots lifted by a floor that their manifest
        # records read as the plain ones
        lifted = tmp_path / "lifted"
        lifted.mkdir()
        for path in sorted(bb_snapshot_dir.glob("*.snap")):
            s = io.read_snapshot(path)
            io.write_snapshot(str(lifted / path.name), ScalarField(
                s.grid, s.values + 0.1, t=s.t, quantity="u"))
        man = io.read_manifest(bb_snapshot_dir / "manifest.yaml")
        io.write_manifest(str(lifted / "manifest.yaml"),
                          {**man, "ladder_floor": 0.1})
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [support, rate, barenblatt, benilan], m: 2.0}
""" % (out, lifted))
        assert cli.main(["asym", cfg]) == 0
        got = yaml.safe_load((out / "asym_summary.yaml").read_text())
        want = yaml.safe_load((asym_out / "asym_summary.yaml").read_text())
        assert got["rate"] == pytest.approx(want["rate"], abs=1e-12)
        assert got["barenblatt"] == pytest.approx(want["barenblatt"],
                                                  abs=1e-12)
        assert got["benilan"]["worst"] == pytest.approx(
            want["benilan"]["worst"], abs=1e-12)

    def test_legacy_text_run_gives_the_same_outputs(self, bb_snapshot_dir,
                                                     tmp_path):
        # a run directory written in the v1 text format still feeds asym,
        # to the same bytes
        legacy = tmp_path / "v1"
        legacy.mkdir()
        for path in bb_snapshot_dir.iterdir():
            if path.suffix == ".snap":
                (legacy / path.name).write_text(
                    _legacy_text(io.read_snapshot(path)))
            else:
                (legacy / path.name).write_bytes(path.read_bytes())
        outs = {}
        for name, snaps in (("v2", bb_snapshot_dir), ("v1", legacy)):
            out = tmp_path / f"out_{name}"
            assert cli.main(["asym", write_cfg(tmp_path / f"{name}.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [support, rate]}
""" % (out, snaps))]) == 0
            outs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outs["v1"] == outs["v2"]

    def test_maximal_run_needs_no_floor_leaf(self, tmp_path):
        # the ladder's floor 1/8 once read as support on the whole box,
        # so r_outer sat at the corner and the rate at 0
        run = tmp_path / "run"
        times = ", ".join(f"{0.01 * i:g}" for i in range(1, 21))
        assert cli.main(["solve", write_cfg(tmp_path / "m.yaml", """\
problem: maximal
m: 2.0
grid: {lo: [-1.0, -1.0], hi: [1.0, 1.0], n: [33, 33]}
data: {kind: bump, height: 0.5, radius: 0.3}
boundary: {kind: zero}
t_end: 0.2
snapshot_times: [%s]
schedule: {n_list: [4, 8]}
output: %s
""" % (times, run))]) == 0
        out = tmp_path / "out"
        assert cli.main(["asym", write_cfg(tmp_path / "a.yaml", """\
output: %s
asym: {snapshots: %s, tasks: [support, rate]}
""" % (out, run))]) == 0
        summ = yaml.safe_load((out / "asym_summary.yaml").read_text())
        assert summ["rate"]["rate"] == pytest.approx(1.0 / 3.0, abs=0.05)
        _, rows = io.read_trace_csv(out / "support_trace.csv")
        assert max(row[2] for row in rows) < math.sqrt(2.0) - 0.05


# ---------------------------------------------------------------------------
# import graph: each command imports only what it runs

SRC = pathlib.Path(__file__).parent.parent / "src"
COMMAND_MODULES = {"ipme.solver", "ipme.exact", "ipme.asymptotics",
                   "ipme.verify", "ipme.pme1d", "mmap"}


def _modules_loaded_by(code):
    """The names in sys.modules after `code` runs in a fresh interpreter
    that imports `ipme` from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c",
                           code + "\nimport sys; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


class TestImportGraph:
    def test_importing_the_cli_loads_no_command_module(self):
        loaded = _modules_loaded_by("import ipme.cli")
        assert {"ipme.core", "ipme.io", "ipme.operators"} <= loaded
        assert not loaded & COMMAND_MODULES

    def test_exact_command_loads_neither_solver_nor_suites(self, tmp_path):
        cfg = write_cfg(tmp_path / "bb.yaml",
                        EXACT_BB_YAML.format(out=tmp_path / "bb"))
        loaded = _modules_loaded_by(
            f"import ipme.cli\nassert ipme.cli.main(['exact', {cfg!r}]) == 0")
        assert "ipme.exact" in loaded
        assert not loaded & {"ipme.solver", "ipme.verify"}
