import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import affbody
from affbody.cli import OUTPUT_DIR_ENV, main, parse_config
from affbody.errors import UsageError
from affbody.hamiltonians import GridND, ModelKind, ModelParams, assemble_nd_channel
from affbody.peter_weyl import (
    ChannelAmplitude,
    Expansion,
    QGrid,
    TargetSpace,
    validate_superselection,
)
from affbody.representations import Group, RepLabel
from affbody.spectra import SpectralClass, classify_channel, solve_nd


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
        with pytest.raises(UsageError, match="superselection"):
            parse_config(doc)
        doc["target_space"] = "double-cover"
        with pytest.raises(UsageError, match="superselection"):
            parse_config(doc)
        doc["channels"] = [[0.5, 1.5]]
        cfg = parse_config(doc)
        assert cfg.channels == ((0.5, 1.5),)

    @pytest.mark.parametrize("target", list(TargetSpace))
    def test_nd_superselection_matches_peter_weyl(self, target):
        grid = QGrid((np.array([0.0, 1.0]),) * 3)
        for twice_s in range(7):
            for twice_j in range(7):
                s, j = RepLabel(Group.SU2, twice_s), RepLabel(Group.SU2, twice_j)
                amp = ChannelAmplitude(s, j, grid, np.zeros(grid.shape + (s.dim, j.dim)))
                flagged = not validate_superselection(Expansion((amp,), target)).ok
                doc = base_config(
                    dimension=3,
                    channels=[[s.spin, j.spin]],
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
        assert "numpy" in manifest["versions"]

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

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "gone.json")]) == 2
        assert "config" in capsys.readouterr().err

    def test_bad_jobs_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["run", "--config", cfg, "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    # the isotropic model needs positive invariants: every channel raises DomainError
    @pytest.mark.parametrize(
        "command,doc",
        [
            (
                "run",
                {
                    "model": "dalembert",
                    "dimension": 3,
                    "params": {"I": 2.0, "A": 0.0, "B": 0.0},
                    "channels": [[0.0, 0.0], [1.0, 1.0]],
                    "grid": {"q_min": -1.0, "q_max": 1.0, "npoints": 7},
                    "count": 2,
                },
            ),
            *(
                (
                    command,
                    base_config(
                        model="dalembert",
                        params={"I": 2.0, "A": 0.0, "B": 0.0},
                        channels=[[0, 2], [1, 1], [2, 0]],
                        grid={"x_min": -1.0, "x_max": 10.0, "npoints": 99},
                    ),
                )
                for command in ("scan-threshold", "convergence")
            ),
        ],
        ids=["run", "scan-threshold", "convergence"],
    )
    def test_partial_failure_exit_1(self, tmp_path, capsys, command, doc):
        cfg = write_config(tmp_path, doc)
        code = main([command, "--config", cfg, "--output-dir", str(tmp_path / "o")])
        assert code == 1
        channels = [tuple(ch) for ch in doc["channels"]]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(channels)
        for line, ch in zip(err, channels):
            assert line.startswith(f"channel {ch}: DomainError: ")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert sorted(manifest["errors"]) == [f"{a},{b}" for a, b in channels]
        assert manifest["timings"]["per_channel_seconds"] == {}
        table = (tmp_path / "o" / "spectrum.txt").read_text().splitlines()
        assert len(table) == 1 and table[0].startswith("# model l1 l2 ")

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


class TestSolveMemo:
    DOC = base_config(
        channels={"square": [-2, 2]},
        grid={"x_max": 30.0, "npoints": 199},
        count=3,
        refinements=2,
    )
    # aff-aff depends on the labels only through |n-m| and |n+m|
    PAIRS = {(abs(n - m), abs(n + m)) for m in range(-2, 3) for n in range(-2, 3)}

    def test_each_distinct_tridiagonal_solved_once_per_call(self, tmp_path, monkeypatch):
        # per pair: three levels plus the margin grid of level 0
        expected = 4 * len(self.PAIRS)
        calls = count_tridiagonal_solves(monkeypatch)
        cfg = write_config(tmp_path, self.DOC)
        for out in ("a", "b"):
            calls.clear()
            assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / out)]) == 0
            assert len(calls) == expected
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            assert manifest["tridiagonal_solves"] == expected

    # scan-threshold: one grid plus its margin grid; convergence: three levels
    @pytest.mark.parametrize("command,per_pair", [("scan-threshold", 2), ("convergence", 3)])
    def test_manifest_counts_solves(self, tmp_path, monkeypatch, command, per_pair):
        calls = count_tridiagonal_solves(monkeypatch)
        cfg = write_config(tmp_path, self.DOC)
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        assert len(calls) == per_pair * len(self.PAIRS)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tridiagonal_solves"] == len(calls)


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

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])


def test_import_leaves_scipy_interpolate_unloaded():
    src = os.path.dirname(os.path.dirname(affbody.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, affbody.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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


class TestBenchTracing:
    """The benchmark's tracer finds every name it wraps, and close() restores them."""

    @staticmethod
    def load_tracing():
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def test_install_then_close_restores_every_name(self, tmp_path):
        tracing = self.load_tracing()
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
