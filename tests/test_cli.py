import json
import math
import sys

import pytest
import scipy.linalg

from affbody.cli import OUTPUT_DIR_ENV, main, parse_config
from affbody.errors import UsageError
from affbody.spectra import SpectralClass, classify_channel


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

    def test_partial_failure_exit_1(self, tmp_path, capsys):
        doc = {
            "model": "dalembert",
            "dimension": 3,
            "params": {"I": 2.0, "A": 0.0, "B": 0.0},
            "channels": [[0, 0], [1, 1]],
            "grid": {"q_min": -1.0, "q_max": 1.0, "npoints": 7},
            "count": 2,
        }
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "channel (0.0, 0.0)" in err and "channel (1.0, 1.0)" in err
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert len(manifest["errors"]) == 2

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

    def test_threads_share_memo_byte_identical(self, tmp_path):
        # more jobs than cores and a short switch interval, so that threads
        # race on the shared memo
        cfg = write_config(tmp_path, self.DOC)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for jobs in ("1", "2", "4"):
                argv = ["run", "--config", cfg, "--output-dir", str(tmp_path / jobs)]
                assert main(argv + ["--jobs", jobs]) == 0
        finally:
            sys.setswitchinterval(interval)
        for jobs in ("2", "4"):
            out = tmp_path / jobs
            assert (out / "spectrum.txt").read_bytes() == (
                tmp_path / "1" / "spectrum.txt"
            ).read_bytes()
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["tridiagonal_solves"] == 4 * len(self.PAIRS)


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


class TestVerifyCommand:
    def test_algebra_suite_passes(self, capsys):
        assert main(["verify", "--suite", "algebra"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "checks passed" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])
