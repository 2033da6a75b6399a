import ast
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import affbody
import affbody.cli
from affbody.cli import OUTPUT_DIR_ENV, main, parse_config
from affbody.errors import DomainError, UsageError
from affbody.hamiltonians import (
    MAX_FIELD_ELEMENTS,
    ChannelOperator1D,
    Grid1D,
    GridND,
    ModelKind,
    ModelParams,
    SymmetrizedOperator1D,
    assemble_2d_channel,
    assemble_nd_channel,
    symmetrize,
)
from affbody.peter_weyl import TargetSpace
from affbody.spectra import SpectralClass, classify_channel, solve_1d, solve_nd
from affbody.verify import CheckResult


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**overrides):
    doc = {
        "model": "aff-aff",
        "dimension": 2,
        "params": {"I": 1.0, "A": 1.0, "B": 0.0},
        "channels": [[0, 0]],
    }
    doc.update(overrides)
    return doc


def nd_box(q):
    """met-aff (0, 0) on the double cover, N=5 on [-q, q]."""
    return base_config(
        model="met-aff",
        dimension=3,
        params={"I": 2.0, "A": 1.0, "B": 0.5},
        target_space="double-cover",
        grid={"q_min": -q, "q_max": q, "npoints": 5},
    )


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(base_config())
        assert cfg.count == 5
        assert cfg.refinements == 0
        assert cfg.seed == 7
        assert cfg.grid1d.x_max == 40.0
        assert cfg.table_name == "spectrum.txt"

    def test_normalized_roundtrip(self):
        doc = base_config(
            channels=[[2, 2], [0, 1]],
            grid={"x_max": 20.0, "h": 0.1},
            count=3,
            potentials={"dilatation": {"kind": "harmonic", "k": 2.0}},
        )
        cfg = parse_config(doc)
        again = parse_config(cfg.normalized())
        assert again == cfg
        # h-spec materializes the point count
        assert cfg.grid1d.npoints == 199

    def test_square_expansion(self):
        cfg = parse_config(base_config(channels={"square": [-1, 1]}))
        assert len(cfg.channels) == 9
        assert cfg.channels == tuple(sorted(cfg.channels))

    def test_square_bounded_before_expansion(self):
        # 9 channels times the nodes of one grid, at and just past the capacity
        square = {"square": [-1, 1]}
        at_cap = MAX_FIELD_ELEMENTS // 9
        cfg = parse_config(base_config(channels=square, grid={"x_max": 1.0, "npoints": at_cap}))
        assert len(cfg.channels) == 9
        with pytest.raises(UsageError, match="^channels.square"):
            parse_config(base_config(channels=square, grid={"x_max": 1.0, "npoints": at_cap + 1}))
        # the bench's squares: 121 channels of 999 nodes
        cfg = parse_config(
            base_config(channels={"square": [-5, 5]}, grid={"x_max": 40.0, "npoints": 999})
        )
        assert len(cfg.channels) == 121

    def test_square_of_small_grids_bounded(self, tmp_path, capsys):
        # each channel counts as at least isqrt(MAX_FIELD_ELEMENTS) = 8192 elements,
        # so a 3-node grid admits a side of 90 (8100 channels) but not 91
        grid = {"x_max": 1.0, "npoints": 3}
        cfg = parse_config(base_config(channels={"square": [0, 89]}, grid=grid, count=1))
        assert len(cfg.channels) == 90**2
        with pytest.raises(UsageError, match="^channels.square"):
            parse_config(base_config(channels={"square": [0, 90]}, grid=grid, count=1))
        # 22,363,441 channels of 3 nodes fit the product bound but are refused
        path = write_config(tmp_path, base_config(channels={"square": [0, 4728]}, grid=grid, count=1))
        assert main(["run", "--config", path, "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: channels.square")
        assert not (tmp_path / "o").exists()

    def test_output_name_bounded_in_utf8_bytes(self):
        # 255 bytes is the longest file name; each "é" takes two bytes
        assert parse_config(base_config(outputs={"table": "é" * 127 + "x"})).table_name
        with pytest.raises(UsageError, match="^outputs.table"):
            parse_config(base_config(outputs={"table": "é" * 128}))

    def test_huge_square_refused_at_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(channels={"square": [0, 10**9]}))
        start = time.perf_counter()
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: channels.square")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "doc,field",
        [
            (base_config(model="nope"), "model"),
            (base_config(dimension=4), "dimension"),
            (base_config(params={"I": 1.0, "A": 1.0}), "params.B"),
            (base_config(channels=[]), "channels"),
            (base_config(channels=[[0, 0], [0, 0]]), "channels"),
            (base_config(channels=[[0.5, 1]]), "channels"),
            (base_config(grid={"x_max": 10.0}), "grid"),
            (base_config(grid={"x_max": 10.0, "npoints": 99, "h": 0.1}), "grid"),
            (base_config(count=0), "count"),
            (base_config(refinements=-1), "refinements"),
            (base_config(boxsize=3), "boxsize"),
            (base_config(target_space="glplus"), "target_space"),
            (base_config(count=2.5), "count: expected an integer"),
            (base_config(seed=10**400), "seed: expected a finite number"),
            (base_config(potentials={"shear": {"k": 1.0}}), "potentials.shear"),
            (
                {
                    "model": "met-aff",
                    "dimension": 3,
                    "params": {"I": 2.0, "A": 1.0, "B": 0.5},
                    "channels": {"square": [0, 1]},
                    "grid": {"q_min": -3.0, "q_max": 3.0, "npoints": 3},
                },
                "channels: square range specs need dimension 2",
            ),
            (base_config(grid={"x_max": 10.0, "h": -0.1}), "grid.h"),
            (
                base_config(grid={"x_min": 5.0, "x_max": 1.0, "npoints": 9}),
                "grid: grid needs x_max > x_min",
            ),
        ],
    )
    def test_usage_errors_name_field(self, doc, field):
        with pytest.raises(UsageError, match=field.replace(".", "\\.")):
            parse_config(doc)

    def test_mu_gate_named(self):
        doc = base_config(model="met-aff", params={"I": 1.0, "A": 1.0, "B": 0.5})
        with pytest.raises(UsageError, match="mu"):
            parse_config(doc)

    def test_nd_superselection(self):
        doc = base_config(
            dimension=3,
            channels=[[0.5, 1.0]],
            grid={"q_min": -1.0, "q_max": 1.0, "npoints": 7},
        )
        # the refusal names the target space and gives the rule's reason
        refusal = "violate superselection on target space '{}': {}$"
        reason = "half-integer label on the identity component"
        with pytest.raises(UsageError, match=refusal.format("glplus", reason)):
            parse_config(doc)
        doc["target_space"] = "double-cover"
        reason = "labels of unequal halfness on the double cover"
        with pytest.raises(UsageError, match=refusal.format("double-cover", reason)):
            parse_config(doc)
        doc["channels"] = [[0.5, 1.5]]
        cfg = parse_config(doc)
        assert cfg.channels == ((0.5, 1.5),)

    @pytest.mark.parametrize("target", list(TargetSpace))
    def test_nd_superselection_matches_peter_weyl(self, target):
        # the rule from the parities of the twice-spins: glplus takes both even,
        # the double cover equal parities
        for twice_s in range(7):
            for twice_j in range(7):
                if target is TargetSpace.GLPLUS:
                    flagged = twice_s % 2 == 1 or twice_j % 2 == 1
                else:
                    flagged = twice_s % 2 != twice_j % 2
                doc = base_config(
                    dimension=3,
                    channels=[[twice_s / 2, twice_j / 2]],
                    grid={"q_min": -1.0, "q_max": 1.0, "npoints": 7},
                    target_space=target.value,
                )
                try:
                    parse_config(doc)
                    rejected = False
                except UsageError as exc:
                    assert "superselection" in str(exc)
                    rejected = True
                assert rejected == flagged, (target, twice_s, twice_j)

    def test_nd_count_cap(self):
        doc = base_config(
            dimension=3,
            channels=[[0, 0]],
            grid={"q_min": -1.0, "q_max": 1.0, "npoints": 7},
            count=11,
        )
        with pytest.raises(UsageError, match="count"):
            parse_config(doc)

    def test_nd_rejects_potentials(self):
        doc = base_config(
            dimension=3,
            channels=[[0, 0]],
            grid={"q_min": -1.0, "q_max": 1.0, "npoints": 7},
            potentials={"dilatation": {"kind": "harmonic", "k": 1.0}},
        )
        with pytest.raises(UsageError, match="potentials"):
            parse_config(doc)


class TestRun:
    def test_minimal_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")])
        assert code == 0
        table = (tmp_path / "out" / "spectrum.txt").read_text()
        lines = table.splitlines()
        assert lines[0].startswith("# model")
        assert len(lines) == 6  # header + 5 eigenvalues
        assert all(line.split()[0] == "aff-aff" for line in lines[1:])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["errors"] == {}
        assert "numpy" in manifest["versions"] and "scipy" in manifest["versions"]

    def test_rerun_byte_identical_across_jobs(self, tmp_path):
        doc = base_config(
            channels=[[2, 2], [2, -2], [1, 1]],
            grid={"x_max": 30.0, "npoints": 399},
            count=3,
            refinements=1,
        )
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "a")]) == 0
        assert (
            main(
                [
                    "run",
                    "--config",
                    cfg,
                    "--output-dir",
                    str(tmp_path / "b"),
                    "--jobs",
                    "4",
                ]
            )
            == 0
        )
        ta = (tmp_path / "a" / "spectrum.txt").read_bytes()
        tb = (tmp_path / "b" / "spectrum.txt").read_bytes()
        assert ta == tb

    def test_manifest_replay_reproduces_table(self, tmp_path):
        doc = base_config(
            channels=[[2, 2]], grid={"x_max": 30.0, "npoints": 399}, count=2
        )
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "a")]) == 0
        manifest = str(tmp_path / "a" / "manifest.json")
        assert (
            main(["run", "--config", manifest, "--output-dir", str(tmp_path / "b")])
            == 0
        )
        assert (tmp_path / "a" / "spectrum.txt").read_bytes() == (
            tmp_path / "b" / "spectrum.txt"
        ).read_bytes()

    def test_rows_ordered_by_channel_then_level(self, tmp_path):
        doc = base_config(
            channels=[[3, 1], [0, 2]],
            grid={"x_max": 20.0, "npoints": 199},
            count=1,
            refinements=1,
        )
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "spectrum.txt").read_text().splitlines()[1:]
        keys = [(int(r.split()[1]), int(r.split()[2]), float(r.split()[8])) for r in rows]
        assert keys == [(0, 2, 0.1), (0, 2, 0.05), (3, 1, 0.1), (3, 1, 0.05)]

    def test_usage_error_exit_2(self, tmp_path, capsys):
        doc = base_config(model="met-aff", params={"I": 1.0, "A": 1.0, "B": 0.5})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"grid": {"x_max": math.inf, "npoints": 99}}, "grid.x_max"),
            ({"potentials": {"shear": {"kind": "harmonic", "k": math.nan}}}, "potentials.shear.k"),
            ({"params": {"I": 1.0, "A": -math.inf, "B": 0.0}}, "params.A"),
            ({"count": math.inf}, "count"),
        ],
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, overrides, field):
        # json writes and reads these as NaN / Infinity / -Infinity
        cfg = write_config(tmp_path, base_config(**overrides))
        with pytest.raises(UsageError, match=field.replace(".", "\\.")):
            parse_config(json.loads((tmp_path / "config.json").read_text()))
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "outputs,field",
        [
            ({"table": "../../escape.txt"}, "outputs.table"),
            ({"manifest": "sub/manifest.json"}, "outputs.manifest"),
            ({"table": ".."}, "outputs.table"),
            ({"manifest": "..\\m.json"}, "outputs.manifest"),
            ({"table": ""}, "outputs.table"),
        ],
    )
    def test_output_names_must_be_bare(self, tmp_path, capsys, outputs, field):
        out = tmp_path / "a" / "b"
        cfg = write_config(tmp_path, base_config(outputs=outputs))
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "escape.txt").exists()

    ND = {
        "model": "met-aff",
        "dimension": 3,
        "params": {"I": 2.0, "A": 1.0, "B": 0.5},
        "channels": [[1, 1]],
        "grid": {"q_min": -3.0, "q_max": 3.0, "npoints": 3},
    }

    # each of these used to parse and then fail every channel with exit 1
    @pytest.mark.parametrize(
        "doc,args,field",
        [
            ({**ND, "seed": -1}, [], "seed"),
            (ND, ["--seed", "-5"], "seed"),
            ({**ND, "channels": [[11, 11]]}, [], "channels"),
            (base_config(channels=[[1e300, 0]]), [], "channels"),
            (base_config(grid={"x_max": 20.0, "npoints": 19}, count=50), [], "count"),
            (
                base_config(potentials={"shear": {"kind": "finite-well", "depth": 1, "width": -1}}),
                [],
                "potentials.shear",
            ),
            # 2**21 nodes refined 6 times reach 2**27 nodes
            (base_config(grid={"x_max": 20.0, "npoints": 2**21}, refinements=6), [], "grid.npoints"),
            # a grid given by h is named by h: 10 / 1e-8 nodes at once, and
            # h = 20 / (2**21 + 1) gives 2**21 nodes, refined past the capacity
            (base_config(grid={"x_max": 10.0, "h": 1e-8}), [], "grid.h"),
            (base_config(grid={"x_max": 20.0, "h": 20.0 / (2**21 + 1)}, refinements=6), [], "grid.h"),
            # the isotropic model's linear weights turn negative below 0
            (
                base_config(
                    model="dalembert",
                    params={"I": 2.0, "A": 0.0, "B": 0.0},
                    grid={"x_min": -1.0, "x_max": 10.0, "npoints": 99},
                ),
                [],
                "grid.x_min",
            ),
            (
                {**ND, "model": "dalembert", "grid": {"q_min": -1.0, "q_max": 1.0, "npoints": 7}},
                [],
                "grid.q_min",
            ),
            # |sinh x| vanishes at x = 0: a node there fails every channel, and a box
            # across it without one holds two mirror copies of each level
            (
                base_config(
                    channels=[[0, 2], [1, 1]], grid={"x_min": -10.0, "x_max": 10.0, "npoints": 999}
                ),
                [],
                "grid.x_min",
            ),
            (
                base_config(
                    channels=[[0, 2]], grid={"x_min": -10.003, "x_max": 10.0, "npoints": 999}
                ),
                [],
                "grid.x_min",
            ),
            (
                base_config(
                    model="met-aff",
                    params={"I": 2.0, "A": 1.0, "B": 0.5},
                    grid={"x_min": -1e-9, "x_max": 10.0, "npoints": 99},
                ),
                ["--seed", "3"],
                "grid.x_min",
            ),
            (
                base_config(
                    model="aff-met",
                    params={"I": 2.0, "A": 1.0, "B": 0.5},
                    grid={"x_min": -1.0, "x_max": 10.0, "h": 0.1},
                ),
                [],
                "grid.x_min",
            ),
            # the manifest would overwrite the table
            (base_config(outputs={"table": "t.txt", "manifest": "t.txt"}), [], "outputs.manifest"),
            # names that no file can have
            (base_config(outputs={"table": "t\u0000x.txt"}), [], "outputs.table"),
            (base_config(outputs={"manifest": "m" * 300}), [], "outputs.manifest"),
            (base_config(outputs={"table": "t\ud800.txt"}), [], "outputs.table"),
            # hbar**2 overflows to inf or underflows to 0
            (base_config(params={"I": 1.0, "A": 1.0, "B": 0.0, "hbar": 1e200}), [], "params"),
            ({**ND, "params": {"I": 2.0, "A": 1.0, "B": 0.5, "hbar": 1e-200}}, [], "params"),
            # the finest n=3 level holds too many nonzeros: N = 3 refined to 255,
            # and N = 200 for either channel
            ({**ND, "refinements": 6}, [], "grid.npoints"),
            (
                {**ND, "channels": [[1, 1], [0, 0]], "grid": {**ND["grid"], "npoints": 200}},
                [],
                "grid.npoints",
            ),
        ],
        ids=[
            "seed",
            "seed-flag",
            "spin-cap",
            "planar-overflow",
            "count-above-grid",
            "well-width",
            "refined-grid-capacity",
            "h-grid-capacity",
            "refined-h-grid-capacity",
            "dalembert-x-min",
            "dalembert-q-min",
            "aff-aff-node-at-0",
            "aff-aff-mirror-box",
            "met-aff-x-min",
            "aff-met-x-min",
            "table-is-manifest",
            "table-nul-byte",
            "manifest-too-long",
            "table-lone-surrogate",
            "hbar-square-overflows",
            "hbar-square-underflows",
            "nd-refined-capacity",
            "nd-base-capacity",
        ],
    )
    def test_unrunnable_config_exit_2(self, tmp_path, capsys, doc, args, field):
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o"), *args]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "scan-threshold", "convergence"])
    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_unusable_output_dir_exit_2(self, tmp_path, capsys, monkeypatch, command, target):
        calls = []
        for name in ("solve_1d", "convergence_study"):
            monkeypatch.setattr(affbody.cli, name, lambda *a, **k: calls.append(a))
        (tmp_path / "afile").write_text("")
        cfg = write_config(tmp_path, base_config())
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path / target)]) == 2
        assert capsys.readouterr().err.startswith("error: --output-dir: ")
        assert calls == []  # no channel ran
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("key", ["table", "manifest"])
    def test_output_name_that_is_a_directory_exit_2(self, tmp_path, capsys, monkeypatch, key):
        calls = []
        monkeypatch.setattr(affbody.cli, "solve_1d", lambda *a, **k: calls.append(a))
        (tmp_path / "o" / "t.txt").mkdir(parents=True)
        cfg = write_config(tmp_path, base_config(outputs={key: "t.txt"}))
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: outputs.{key}: ")
        assert calls == []  # no channel ran
        assert os.listdir(tmp_path / "o") == ["t.txt"]

    def test_convergence_grid_capacity_exit_2(self, tmp_path, capsys):
        # levels 8 refine 2**19 + 1 nodes 7 times, past 2**26
        doc = base_config(grid={"x_max": 20.0, "npoints": 2**19 + 1}, levels=8)
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: grid.npoints")
        assert not (tmp_path / "o").exists()

    # 2**24 nodes refined twice are (2**24 + 1) * 4 - 1 = 2**26 + 3 nodes, not 2**26
    @pytest.mark.parametrize("command,growth", [("run", {"refinements": 2}), ("convergence", {})])
    def test_refined_grid_capacity_counts_the_finest_nodes(
        self, tmp_path, capsys, monkeypatch, command, growth
    ):
        calls = []
        for name in ("cmd_run", "cmd_convergence"):
            monkeypatch.setattr(affbody.cli, name, lambda *a: calls.append(a) or 0)
        doc = base_config(grid={"x_max": 20.0, "npoints": 2**24}, **growth)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid.npoints") and str(2**26 + 3) in err
        assert calls == []

    @pytest.mark.parametrize("command", ["scan-threshold", "convergence"])
    def test_planar_only_command_leaves_no_directory(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, self.ND)
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: dimension")
        assert not (tmp_path / "o").exists()

    def test_nd_capacity_fails_before_the_first_solve(self, tmp_path, capsys, monkeypatch):
        # refinements 6 from N = 3 reach N = 255, past the nonzero capacity; the
        # pre-flight sizes the finest level, which allocates nothing, before any output
        import scipy.sparse.linalg

        calls = []
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *a, **k: calls.append(k))
        cfg = write_config(tmp_path, {**self.ND, "refinements": 6})
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error: grid.npoints")
        assert not out.exists()

    def test_unparsable_number_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"seed": ' + "9" * 5000 + "}")
        assert main(["run", "--config", str(path), "--output-dir", str(tmp_path)]) == 2
        assert "config" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "gone.json")]) == 2
        assert "config" in capsys.readouterr().err

    def test_bad_jobs_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["run", "--config", cfg, "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    # every channel fails: LAPACK's tridiagonal solver raises on each one (a tiny
    # A that overflows the operator now exits 2 first); (0, 2) and (2, 0) are twins
    @pytest.mark.parametrize("command", ["run", "scan-threshold", "convergence"])
    def test_partial_failure_exit_1(self, tmp_path, capsys, monkeypatch, command):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        doc = base_config(channels=[[0, 2], [1, 1], [2, 0]], grid={"x_max": 10.0, "npoints": 99})
        cfg = write_config(tmp_path, doc)
        code = main([command, "--config", cfg, "--output-dir", str(tmp_path / "o")])
        assert code == 1
        channels = [tuple(ch) for ch in doc["channels"]]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(channels)
        for line, ch in zip(err, channels):
            assert line.startswith(f"channel {ch}: NumericalError: ")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert sorted(manifest["errors"]) == [f"{a},{b}" for a, b in channels]
        assert manifest["timings"]["per_channel_seconds"] == {}
        table = (tmp_path / "o" / "spectrum.txt").read_text().splitlines()
        assert len(table) == 1 and table[0].startswith("# model l1 l2 ")

    # the finest level's entries are bounded from the coefficient formulas: a
    # coefficient that would pass LAPACK's unscaled range exits 2 naming its
    # parameter before any output, where each channel used to fail in LAPACK
    @pytest.mark.parametrize(
        "model,params,field",
        [
            ("aff-aff", {"I": 0.0, "A": 5.28e-303, "B": 0.0}, "params.A"),
            ("met-aff", {"I": 2e-160, "A": -1e-160, "B": 0.0}, "params.A"),
            ("dalembert", {"I": 1e-160, "A": 1.0, "B": 0.0}, "params.I"),
        ],
    )
    def test_unsolvable_scale_exit_2(self, tmp_path, capsys, model, params, field):
        doc = base_config(model=model, params=params, channels=[[0, 2], [1, 1]])
        out = tmp_path / "o"
        assert main(["run", "--config", write_config(tmp_path, doc), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not out.exists()

    # the bound (about 1e146) sits well below where LAPACK's bisection breaks down
    # (about 1e154): entries near 3e140 still solve, and aff-aff levels scale as 1/A
    def test_small_coefficient_inside_the_bound_runs(self, tmp_path):
        grid = {"x_max": 10.0, "npoints": 99}
        rows = []
        for A in (1.0, 1e-138):
            doc = base_config(
                params={"I": 0.0, "A": A, "B": 0.0}, channels=[[0, 2]], grid=grid, count=3
            )
            cfg, out = write_config(tmp_path, doc), tmp_path / str(A)
            assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
            table = (out / "spectrum.txt").read_text().splitlines()[1:]
            rows.append(np.array([float(line.split()[4]) for line in table]) * A)
        np.testing.assert_allclose(rows[1], rows[0], rtol=1e-10)

    # the n=3 entries are bounded the same way: past about 1e154 the squared norms
    # of solve_nd's symmetry probe overflow, so the probe would pass any matrix
    @pytest.mark.parametrize("A,code", [(1e-305, 2), (1e-200, 2), (1.0, 0)])
    def test_nd_scale_exit_2_before_any_output(self, tmp_path, capsys, A, code):
        doc = base_config(
            dimension=3,
            params={"I": 0.0, "A": A, "B": 0.0},
            grid={"q_min": -3.0, "q_max": 3.0, "npoints": 5},
        )
        out = tmp_path / "o"
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == code
        if code == 2:
            assert capsys.readouterr().err.startswith("error: params.A: ")
        assert out.exists() == (code == 0)

    # the weighted form scales the entries by the weight, which overflows on a wide
    # sinh-model box: read on the finest level's nodes and flux midpoints, not the walls
    @pytest.mark.parametrize(
        "doc,field",
        [
            (base_config(channels=[[0, 2]], grid={"x_max": 800.0, "npoints": 999}), "x_max"),
            (base_config(channels=[[0, 2]], grid={"x_max": 705.0, "npoints": 999}), None),
            (nd_box(300.0), "q_max"),
            (nd_box(200.0), None),
            (nd_box(150.0), None),
        ],
        ids=["x-800", "x-705", "q-300", "q-200", "q-150"],
    )
    def test_overflowing_weight_exit_2_before_any_output(self, tmp_path, capsys, doc, field):
        out = tmp_path / "o"
        code = main(["run", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        err = capsys.readouterr().err
        if field is None:
            assert code == 0 and err == ""
        else:
            assert code == 2 and err.startswith(f"error: grid.{field}: ")
            assert not out.exists()

    def test_output_dir_env(self, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(out))
        doc = base_config(grid={"x_max": 20.0, "npoints": 99}, count=1)
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 0
        assert (out / "spectrum.txt").exists()

    def test_seed_override_lands_in_manifest(self, tmp_path):
        cfg = write_config(
            tmp_path, base_config(grid={"x_max": 20.0, "npoints": 99}, count=1)
        )
        assert (
            main(
                [
                    "run",
                    "--config",
                    cfg,
                    "--output-dir",
                    str(tmp_path / "o"),
                    "--seed",
                    "42",
                ]
            )
            == 0
        )
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 42

    def test_nd_run(self, tmp_path):
        doc = {
            "model": "aff-aff",
            "dimension": 3,
            "params": {"I": 1.0, "A": 1.0, "B": 1.0},
            "channels": [[0, 1]],
            "grid": {"q_min": -1.0, "q_max": 1.0, "npoints": 7},
            "count": 2,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "spectrum.txt").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].split()[1:3] == ["0.0", "1.0"]


def count_tridiagonal_solves(monkeypatch) -> list:
    calls = []
    original = scipy.linalg.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    return calls


class TestTridiagonalSolveCounts:
    DOC = base_config(
        channels={"square": [-2, 2]},
        grid={"x_max": 30.0, "npoints": 199},
        count=3,
        refinements=2,
    )
    # aff-aff depends on the labels only through |n-m| and |n+m|
    PAIRS = {(abs(n - m), abs(n + m)) for m in range(-2, 3) for n in range(-2, 3)}

    def test_each_distinct_tridiagonal_solved_once_per_call(self, tmp_path, monkeypatch):
        # per pair: three levels plus the margin grid of level 0; levels 1
        # and 2 take theirs from the level before
        expected = 4 * len(self.PAIRS)
        calls = count_tridiagonal_solves(monkeypatch)
        cfg = write_config(tmp_path, self.DOC)
        for out in ("a", "b"):
            calls.clear()
            assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / out)]) == 0
            assert len(calls) == expected

    # scan-threshold: one grid plus its margin grid; convergence: three levels.
    # The dalembert x-sector reads only |n - m|, which takes 5 values on [-2, 2]^2
    @pytest.mark.parametrize("model,keys", [("aff-aff", len(PAIRS)), ("dalembert", 5)])
    @pytest.mark.parametrize("command,per_pair", [("scan-threshold", 2), ("convergence", 3)])
    def test_solves_per_twin_key(self, tmp_path, monkeypatch, command, per_pair, model, keys):
        calls = count_tridiagonal_solves(monkeypatch)
        cfg = write_config(tmp_path, {**self.DOC, "model": model})
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        assert len(calls) == per_pair * keys


    def test_run_asks_lapack_for_eigenvalues_only(self, tmp_path, monkeypatch):
        flags = []
        original = scipy.linalg.eigh_tridiagonal

        def spy(*args, **kwargs):
            flags.append(kwargs.get("eigvals_only"))
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        cfg = write_config(tmp_path, self.DOC)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        assert len(flags) == 4 * len(self.PAIRS)
        assert all(flag is True for flag in flags)


class TestLabelTwins:
    """Channels with equal `shear_label_terms` run once per call; the rest copy."""

    GRID = {"x_max": 30.0, "npoints": 99}
    MODELS = {
        "aff-aff": {"I": 1.0, "A": 1.0, "B": 0.0},
        "met-aff": {"I": 2.0, "A": 1.0, "B": 0.5},
        "dalembert": {"I": 1.0, "A": 1.0, "B": 0.0},
    }

    def doc(self, model, **overrides):
        return base_config(
            model=model, params=self.MODELS[model], grid=self.GRID, count=2, **overrides
        )

    def spy_assembly(self, monkeypatch, fail=None) -> list:
        """Record each channel that cli assembles; raise DomainError for `fail`."""
        seen, original = [], affbody.cli.assemble_2d_channel

        def spy(kind, params, channel, *args):
            seen.append(tuple(channel))
            if tuple(channel) == fail:
                raise DomainError("planted failure")
            return original(kind, params, channel, *args)

        monkeypatch.setattr(affbody.cli, "assemble_2d_channel", spy)
        return seen

    # keys on [-2, 2]^2: |n - m| and |n + m| for aff-aff, with m^2 for met-aff,
    # |n - m| alone for dalembert
    @pytest.mark.parametrize("model,keys", [("aff-aff", 9), ("met-aff", 13), ("dalembert", 5)])
    @pytest.mark.parametrize(
        "command,levels", [("run", 3), ("scan-threshold", 1), ("convergence", 3)]
    )
    def test_assembles_distinct_keys_times_levels(
        self, tmp_path, monkeypatch, model, keys, command, levels
    ):
        seen = self.spy_assembly(monkeypatch)
        doc = self.doc(model, channels={"square": [-2, 2]}, refinements=2, levels=3)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        assert len(seen) == keys * levels
        assert len(set(seen)) == keys
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["twin_of"]) == 25 - keys
        assert len(manifest["timings"]["per_channel_seconds"]) == 25

    def test_manifest_names_the_first_twin(self, tmp_path):
        cfg = write_config(tmp_path, self.doc("aff-aff", channels={"square": [-1, 1]}))
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["twin_of"] == {
            "0,-1": "-1,0",
            "0,1": "-1,0",
            "1,-1": "-1,1",
            "1,0": "-1,0",
            "1,1": "-1,-1",
        }
        # a twin's rows carry its own labels and the first twin's values
        rows = {}
        for line in (tmp_path / "spectrum.txt").read_text().splitlines()[1:]:
            fields = line.split()
            rows.setdefault((fields[1], fields[2]), []).append(fields[3:])
        assert len(rows) == 9
        for twin, first in manifest["twin_of"].items():
            assert rows[tuple(twin.split(","))] == rows[tuple(first.split(","))]

    @pytest.mark.parametrize("command", ["run", "scan-threshold", "convergence"])
    def test_twins_of_a_failing_channel_record_its_error(
        self, tmp_path, monkeypatch, capsys, command
    ):
        seen = self.spy_assembly(monkeypatch, fail=(-1, -3))
        doc = self.doc("aff-aff", channels=[[1, 3], [3, 1], [-1, -3], [0, 0]], levels=3)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path)]) == 1
        assert set(seen) == {(-1, -3), (0, 0)}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["errors"] == {
            ch: "DomainError: planted failure" for ch in ("-1,-3", "1,3", "3,1")
        }
        assert manifest["twin_of"] == {"1,3": "-1,-3", "3,1": "-1,-3"}
        assert list(manifest["timings"]["per_channel_seconds"]) == ["0,0"]
        assert len(capsys.readouterr().err.splitlines()) == 3

    def test_dimension_3_has_no_twins(self, tmp_path):
        doc = {
            "model": "aff-aff",
            "dimension": 3,
            "params": {"I": 1.0, "A": 1.0, "B": 1.0},
            "channels": [[0, 1], [1, 0]],
            "grid": {"q_min": -1.0, "q_max": 1.0, "npoints": 5},
            "count": 2,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["twin_of"] == {}
        assert len(manifest["timings"]["per_channel_seconds"]) == 2


class TestTableBytes:
    """Small tables, pinned by sha256 to the bytes written before their solve
    paths were rewritten (numpy 2.4, scipy 1.17, OpenBLAS): the planar ones by
    the eigenvector-computing 1D solve, the dimension-3 one by the
    cursor-scatter n=3 assembly; another LAPACK or ARPACK build may round
    differently."""

    GRID = {"x_max": 30.0, "npoints": 199}
    # key: (command, config, sha256 of the table)
    CASES = {
        "run": (
            "run",
            base_config(channels={"square": [-2, 2]}, grid=GRID, count=3, refinements=2),
            "8becbdf10629e2ded2df60420b7f8d329e2e37df6dff2f5bf7395f6793d1bcc7",
        ),
        "scan-threshold": (
            "scan-threshold",
            base_config(
                model="dalembert",
                channels={"square": [-2, 2]},
                grid=GRID,
                count=3,
                potentials={"shear": {"kind": "harmonic", "k": 1.0}},
            ),
            "71879e559c3adcb81ff2157e18afcfd0b1204a45e979e3e0d86962690007cb5c",
        ),
        "convergence": (
            "convergence",
            base_config(
                model="met-aff",
                params={"I": 2.0, "A": 1.0, "B": 0.5},
                channels={"square": [-2, 2]},
                grid=GRID,
                count=3,
                levels=3,
            ),
            "c860b8220d61f99ef08d27807ca658669e9a536db9fcb60b30f71c7716770623",
        ),
        "run-dimension-3": (
            "run",
            base_config(
                model="met-aff",
                dimension=3,
                params={"I": 2.0, "A": 1.0, "B": 0.5},
                channels=[[0, 0], [0.5, 0.5], [1, 1]],
                target_space="double-cover",
                grid={"q_min": -3.0, "q_max": 3.0, "npoints": 5},
                count=4,
            ),
            "a67b1786b887ffa69a8481f150829c80660f034146122e471bba5aee37af992b",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_table_sha256(self, tmp_path, case):
        command, doc, digest = self.CASES[case]
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 0
        table = (tmp_path / "o" / "spectrum.txt").read_bytes()
        assert hashlib.sha256(table).hexdigest() == digest


class TestScanThreshold:
    def test_classification_column_matches(self, tmp_path):
        doc = base_config(
            channels={"square": [-2, 2]},
            grid={"x_max": 30.0, "npoints": 399},
            count=2,
            outputs={"table": "scan.txt", "manifest": "m.json"},
        )
        cfg = write_config(tmp_path, doc)
        code = main(
            [
                "scan-threshold",
                "--config",
                cfg,
                "--output-dir",
                str(tmp_path / "o"),
                "--jobs",
                "3",
            ]
        )
        assert code == 0
        rows = (tmp_path / "o" / "scan.txt").read_text().splitlines()[1:]
        assert len(rows) == 25
        for row in rows:
            cols = row.split()
            ch = (int(cols[1]), int(cols[2]))
            assert cols[3] == classify_channel(ch).value
            if classify_channel(ch) is SpectralClass.MARGINAL:
                assert cols[4] == "-"
            else:
                assert cols[4].isdigit()

    def test_scan_rejects_dimension_3(self, tmp_path, capsys):
        doc = {
            "model": "aff-aff",
            "dimension": 3,
            "params": {"I": 1.0, "A": 1.0, "B": 1.0},
            "channels": [[0, 0]],
            "grid": {"q_min": -1.0, "q_max": 1.0, "npoints": 7},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["scan-threshold", "--config", cfg]) == 2
        assert "dimension" in capsys.readouterr().err


class TestConvergence:
    def test_table_layout_and_order(self, tmp_path):
        doc = base_config(
            channels=[[1, 3]],
            grid={"x_max": 30.0, "npoints": 499},
            levels=3,
            count=2,
            outputs={"table": "conv.txt", "manifest": "m.json"},
        )
        cfg = write_config(tmp_path, doc)
        assert (
            main(["convergence", "--config", cfg, "--output-dir", str(tmp_path / "o")])
            == 0
        )
        rows = (tmp_path / "o" / "conv.txt").read_text().splitlines()[1:]
        records = [r.split()[3] for r in rows]
        assert records == ["level-0", "level-1", "level-2", "order", "limit"]
        order_vals = [float(v) for v in rows[3].split()[5:]]
        assert all(1.7 < p < 2.3 for p in order_vals)


class TestRefinementChain:
    """run, convergence and a direct solve all see the same nested grids."""

    def test_run_levels_match_convergence_levels(self, tmp_path):
        doc = base_config(
            model="dalembert",
            params={"I": 2.0, "A": 1.0, "B": 0.0},
            channels=[[0, 2], [1, 3], [2, 2]],
            grid={"x_max": 12.0, "npoints": 49},
            potentials={"shear": {"kind": "harmonic", "k": 1.0, "q0": 3.0}},
            count=3,
            refinements=2,
            levels=3,
        )
        cfg = write_config(tmp_path, doc)
        for command in ("run", "convergence"):
            out = str(tmp_path / command)
            assert main([command, "--config", cfg, "--output-dir", out]) == 0
        run_rows = (tmp_path / "run" / "spectrum.txt").read_text().splitlines()[1:]
        conv_rows = (tmp_path / "convergence" / "spectrum.txt").read_text().splitlines()[1:]
        # run: one row per eigenvalue, levels in order within each channel
        from_run = {}
        for row in run_rows:
            _, m, n, _, energy, _, _, _, h = row.split()
            from_run.setdefault((m, n), []).append((h, energy))
        from_conv = {}
        for row in conv_rows:
            _, m, n, record, h, *values = row.split()
            if record.startswith("level-"):
                from_conv.setdefault((m, n), []).extend((h, v) for v in values)
        assert len(from_run) == 3 and all(len(v) == 9 for v in from_run.values())
        assert from_run == from_conv

    def test_nd_refinement_rows_match_direct_solve(self, tmp_path):
        params = {"I": 2.0, "A": 1.0, "B": 0.5}
        doc = {
            "model": "met-aff",
            "dimension": 3,
            "params": params,
            "channels": [[1, 1]],
            "grid": {"q_min": -3.0, "q_max": 3.0, "npoints": 3},
            "refinements": 1,
            "count": 2,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        rows = [r.split() for r in (tmp_path / "spectrum.txt").read_text().splitlines()[1:]]
        assert [r[3] for r in rows] == ["0", "1", "0", "1"]
        h = [float(r[8]) for r in rows]
        assert h[0] == h[1] == 2.0 * h[2] == 2.0 * h[3] == 1.5
        op = assemble_nd_channel(
            ModelKind.MET_AFF, ModelParams(**params, n=3), (1.0, 1.0), GridND(7, -3.0, 3.0)
        )
        direct = solve_nd(op, 2, seed=7).eigenvalues
        np.testing.assert_allclose([float(r[4]) for r in rows[2:]], direct, rtol=1e-9)


class TestVerifyCommand:
    def test_algebra_suite_passes(self, capsys):
        assert main(["verify", "--suite", "algebra"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "checks passed" in out

    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        assert capsys.readouterr().out.endswith("all 23 checks passed\n")

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        failed = CheckResult("broken", 1.0, 0.0)
        monkeypatch.setattr(affbody.cli, "run_suite", lambda suite, seed: [failed])
        assert main(["verify", "--suite", "algebra"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "1 of 1 checks failed" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])

    @pytest.mark.parametrize("suite,seed", [("measures", "-1"), ("algebra", "-5")])
    def test_negative_seed_exit_2(self, capsys, suite, seed):
        assert main(["verify", "--suite", suite, "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith("error: seed")


# Any scipy submodule pulls in scipy's array-API shim, which probes numpy and so
# loads numpy.f2py, numpy.testing, numpy.ma and numpy.random: about 0.3 s cold.
# The benchmark's setup_s times `import affbody.cli` plus parse_config, so that
# window, like every exit-2 path, loads no scipy module; a solve imports its own.
SCIPY_LOADED = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"


def run_fresh(code: str, *args) -> subprocess.CompletedProcess:
    """code run in a new interpreter that imports affbody from this checkout."""
    src = os.path.dirname(os.path.dirname(affbody.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def test_import_and_parse_load_no_scipy(tmp_path):
    paths = [
        write_config(tmp_path, base_config(), "planar.json"),
        write_config(tmp_path, TestRun.ND, "nd.json"),
    ]
    code = "import sys, affbody.cli as c\nfor p in sys.argv[1:]: c.parse_config(c.load_config(p))\n"
    out = run_fresh(code + SCIPY_LOADED, *paths)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# --help, and a bad field or a Grid1D past the capacity exit before scipy loads
@pytest.mark.parametrize(
    "overrides,code,err",
    [
        ({"count": 0}, 2, "error: count"),
        (
            {"grid": {"x_max": 40.0, "npoints": 99999999}, "refinements": 2},
            2,
            "error: grid.npoints",
        ),
        (None, 0, ""),
    ],
)
def test_fail_fast_paths_load_no_scipy(tmp_path, overrides, code, err):
    out_dir = tmp_path / "o"
    argv = ["--help"]
    if overrides is not None:
        cfg = write_config(tmp_path, base_config(**overrides))
        argv = ["run", "--config", cfg, "--output-dir", str(out_dir)]
    script = (
        "import sys, affbody.cli as c\n"
        "try:\n    code = c.main(sys.argv[1:])\nexcept SystemExit as exc:\n    code = exc.code\n"
        f"{SCIPY_LOADED}\nsys.exit(code)"
    )
    out = run_fresh(script, *argv)
    assert out.returncode == code
    assert out.stderr.startswith(err)
    assert out.stdout.splitlines()[-1] == "[]"
    assert not out_dir.exists()


# verify imports solve_1d without using it: the benchmark's tracer wraps
# verify.solve_1d by name, so the import stays until the tracer changes
ALLOWED_UNUSED_IMPORTS = {("verify", "solve_1d")}


def test_package_modules_have_no_unused_imports():
    unused = []
    for path in sorted(Path(affbody.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
        referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in sorted(imported - referenced - exported)]
    assert [u for u in unused if u not in ALLOWED_UNUSED_IMPORTS] == []


def test_every_all_entry_names_an_attribute():
    # a stale entry breaks `from module import *`
    stale = []
    for path in sorted(Path(affbody.__file__).parent.glob("*.py")):
        name = "affbody" if path.stem == "__init__" else f"affbody.{path.stem}"
        module = importlib.import_module(name)
        stale += [(name, n) for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []


class TestStoredNDReference:
    """The benchmark's matrix-a call (met-aff, N=9, seed 1) against the values
    stored in bench/refs/nd-eigenvalues.json, checked as its n=3 oracle checks
    them: indices 0..3 and energies within 1e-8 relative.  Only reads the file."""

    KEY = "met-aff|I=2.0,A=1.0,B=0.5|q=[-3.0,3.0]|N=9|"

    def test_matrix_a_channels_match_stored_values(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "bench" / "refs" / "nd-eigenvalues.json"
        stored = json.loads(path.read_text())
        doc = base_config(
            model="met-aff",
            dimension=3,
            params={"I": 2.0, "A": 1.0, "B": 0.5},
            channels=[[0, 0], [0.5, 0.5], [1, 0], [1, 1]],
            target_space="double-cover",
            grid={"q_min": -3.0, "q_max": 3.0, "npoints": 9},
            count=4,
            seed=1,
        )
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 0
        rows = [r.split() for r in (tmp_path / "o" / "spectrum.txt").read_text().splitlines()[1:]]
        for channel in ("0.0,0.0", "0.5,0.5", "1.0,0.0", "1.0,1.0"):
            got = [r for r in rows if f"{r[1]},{r[2]}" == channel]
            assert [r[3] for r in got] == ["0", "1", "2", "3"]
            want = stored[self.KEY + channel]
            np.testing.assert_allclose([float(r[4]) for r in got], want, rtol=1e-8)


def load_bench_module(name):
    """bench/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchOracles:
    """The benchmark's dense oracles run on the library names they use and agree
    with the solvers: planar at 1e-9 relative, n=3 at 1e-8."""

    def test_dense_planar_oracle_matches_solve_1d(self):
        oracles = load_bench_module("oracles")
        cfg = parse_config(
            base_config(
                model="met-aff",
                params={"I": 2.0, "A": 1.0, "B": 0.5},
                grid={"x_max": 20.0, "npoints": 199},
                potentials={
                    "dilatation": {"kind": "harmonic", "k": 2.0},
                    "shear": {"kind": "harmonic", "k": 0.3, "q0": 1.0},
                },
            )
        )
        for channel in ((0, 0), (2, 1), (-1, 3)):
            op = assemble_2d_channel(cfg.kind, cfg.params, channel, cfg.grid1d, cfg.dil, cfg.shear)
            want = solve_1d(op, 4).eigenvalues
            got = oracles.dense_lowest(cfg, channel, 4)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_dense_nd_oracle_matches_solve_nd(self):
        oracles = load_bench_module("oracles")
        doc = {
            "model": "met-aff",
            "dimension": 3,
            "params": {"I": 2.0, "A": 1.0, "B": 0.5},
            "channels": [[1, 1]],
            "grid": {"q_min": -3.0, "q_max": 3.0, "npoints": 5},
        }
        cfg = parse_config(doc)
        op = assemble_nd_channel(cfg.kind, cfg.params, (1.0, 1.0), cfg.gridnd)
        assert math.prod(op.shape) <= oracles.DENSE_ND_LIMIT  # the dense branch
        want = solve_nd(op, 4, seed=1).eigenvalues
        np.testing.assert_allclose(oracles.nd_reference(doc, "1.0,1.0", 4), want, rtol=1e-8)


class TestBenchTracing:
    """The benchmark's tracer finds every name it wraps, and close() restores them."""

    @staticmethod
    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def test_install_then_close_restores_every_name(self, tmp_path):
        tracing = load_bench_module("tracing")
        tracer = tracing.Tracer()
        eigh_tridiagonal = scipy.linalg.eigh_tridiagonal
        cfg = write_config(tmp_path, base_config(grid={"x_max": 20.0, "npoints": 99}, count=1))
        try:
            tracing.install(tracer)
            patched = list(tracer._patches)
            for owner, attr, original in patched:
                assert self.current(owner, attr) is not original, attr
            assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 0
        finally:
            tracer.close()
        # the run reached the layers through the names the tracer wraps
        for name in ("hamiltonians.assemble_1d", "spectra.solve_1d", "spectra.write"):
            assert tracer.n_calls(name) == 1, name
        assert tracer.n_calls("spectra.tridiag") >= 1
        assert len(patched) > 20
        for owner, attr, original in patched:
            assert self.current(owner, attr) is original, attr
        assert scipy.linalg.eigh_tridiagonal is eigh_tridiagonal

    def test_flat_form_goes_through_its_own_wrapper(self):
        # the tracer wraps the flat form's tridiagonal through its class's own dict
        tracing = load_bench_module("tracing")
        tracer = tracing.Tracer()
        op = assemble_2d_channel(
            ModelKind.AFF_AFF, ModelParams(I=2.0, A=1.0, B=0.5), (0, 2), Grid1D(0.0, 20.0, 99)
        )
        flat = symmetrize(op)
        assert type(flat) is SymmetrizedOperator1D
        owner = SymmetrizedOperator1D.__dict__
        try:
            tracing.install(tracer)
            wrapped = owner["symmetric_tridiagonal"]
            assert wrapped is not ChannelOperator1D.__dict__["symmetric_tridiagonal"]
            assert hasattr(wrapped, "__wrapped__")
            solve_1d(flat, 1)
        finally:
            tracer.close()
        assert not hasattr(owner["symmetric_tridiagonal"], "__wrapped__")
        # solve_1d forms the tridiagonal of flat and of its coarsened copy, each
        # called from outside every traced layer
        outer = [s for s in tracer.spans if s[0] == "hamiltonians.tridiag_form" and s[3] == -1]
        assert len(outer) == 2 and tracer.n_calls("spectra.tridiag") == 2
