"""Batch front end: config ingestion, run orchestration, result emission.

Subcommands
-----------
run             solve the configured channels, write a spectrum table and
                a run manifest
scan-threshold  classify a square of planar channels and count bound
                states per channel
convergence     grid-refinement study per channel: eigenvalues at each
                level, observed orders, extrapolated limits
verify          execute the built-in self-check suites

A run is described by a single JSON config file (see the README for the
schema).  The manifest written next to each table embeds the normalized
config, so a manifest file is itself a valid ``--config`` argument and
replays the run it records.  Every float in a table is printed as %.14e
and rows are ordered by channel label, which makes reruns with the same
config and seed byte-identical.

The default output directory is taken from the AFFBODY_OUTPUT_DIR
environment variable when set, falling back to the working directory.
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy

from . import __version__
from .errors import AffbodyError, UsageError
from .hamiltonians import (
    Grid1D,
    GridND,
    ModelKind,
    ModelParams,
    PotentialKind,
    PotentialSpec,
    ZERO_POTENTIAL,
    assemble_2d_channel,
    assemble_nd_channel,
    check_gates,
)
from .peter_weyl import TargetSpace, superselection_violation
from .spectra import (
    DEFAULT_BOX,
    DEFAULT_NPOINTS,
    SpectralClass,
    classify_channel,
    convergence_study,
    nested_grids,
    solve_1d,
    solve_nd,
    write_spectrum_table,
)
from .verify import SUITES, format_report, run_suite

OUTPUT_DIR_ENV = "AFFBODY_OUTPUT_DIR"

_CONFIG_KEYS = {
    "model",
    "dimension",
    "params",
    "channels",
    "grid",
    "refinements",
    "count",
    "levels",
    "potentials",
    "target_space",
    "outputs",
    "seed",
}
_PARAM_KEYS = {"I", "A", "B", "hbar"}
_MAX_ND_COUNT = 10


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-defaulted description of one batch run."""

    kind: ModelKind
    dimension: int
    params: ModelParams
    channels: tuple
    grid1d: Grid1D | None
    gridnd: GridND | None
    refinements: int
    count: int
    levels: int
    dil: PotentialSpec
    shear: PotentialSpec
    target_space: TargetSpace
    table_name: str
    manifest_name: str
    seed: int

    def normalized(self) -> dict:
        """Echo dict that parses back to an identical RunConfig."""
        doc = {
            "model": self.kind.value,
            "dimension": self.dimension,
            "params": {
                "I": self.params.I,
                "A": self.params.A,
                "B": self.params.B,
                "hbar": self.params.hbar,
            },
            "channels": [list(ch) for ch in self.channels],
            "refinements": self.refinements,
            "count": self.count,
            "levels": self.levels,
            "potentials": {
                "dilatation": _potential_doc(self.dil),
                "shear": _potential_doc(self.shear),
            },
            "outputs": {"table": self.table_name, "manifest": self.manifest_name},
            "seed": self.seed,
        }
        if self.dimension == 2:
            doc["grid"] = asdict(self.grid1d)
        else:
            doc["grid"] = asdict(self.gridnd)
            doc["target_space"] = self.target_space.value
        return doc


def _potential_doc(spec: PotentialSpec) -> dict:
    if spec.kind is PotentialKind.ZERO:
        return {"kind": "zero"}
    if spec.kind is PotentialKind.HARMONIC:
        return {"kind": "harmonic", "k": spec.k, "q0": spec.q0}
    return {"kind": "finite-well", "depth": spec.depth, "width": spec.width}


def _number(field: str, value, integral: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{field}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise UsageError(f"{field}: expected a finite number, got {value!r}")
    if integral and float(value) != int(value):
        raise UsageError(f"{field}: expected an integer, got {value!r}")
    return float(value)


def _object(field: str, doc, keys) -> dict:
    """doc, checked to be an object whose entries all lie in keys."""
    if not isinstance(doc, dict):
        raise UsageError(f"{field}: expected an object")
    extras = set(doc) - set(keys)
    if extras:
        raise UsageError(f"{field}: unknown entries {sorted(extras)}")
    return doc


def _parse_potential(field: str, doc) -> PotentialSpec:
    if doc is None:
        return ZERO_POTENTIAL
    if not isinstance(doc, dict) or "kind" not in doc:
        raise UsageError(f"{field}: expected an object with a 'kind' entry")
    kind = _object(field, doc, {"kind", "k", "q0", "depth", "width"})["kind"]
    if kind == "zero":
        return ZERO_POTENTIAL
    if kind == "harmonic":
        return PotentialSpec.harmonic(
            _number(f"{field}.k", doc.get("k", 1.0)),
            _number(f"{field}.q0", doc.get("q0", 0.0)),
        )
    if kind == "finite-well":
        if "depth" not in doc or "width" not in doc:
            raise UsageError(f"{field}: finite-well needs 'depth' and 'width'")
        return PotentialSpec.finite_well(
            _number(f"{field}.depth", doc["depth"]),
            _number(f"{field}.width", doc["width"]),
        )
    raise UsageError(f"{field}.kind: unknown potential kind {kind!r}")


def _parse_channels(doc, dimension: int, target_space: TargetSpace) -> tuple:
    if isinstance(doc, dict):
        if set(doc) != {"square"}:
            raise UsageError("channels: range spec must be {'square': [lo, hi]}")
        if dimension != 2:
            raise UsageError("channels: square range specs need dimension 2")
        lo_hi = doc["square"]
        if not isinstance(lo_hi, (list, tuple)) or len(lo_hi) != 2:
            raise UsageError("channels.square: expected [lo, hi]")
        lo = int(_number("channels.square", lo_hi[0], integral=True))
        hi = int(_number("channels.square", lo_hi[1], integral=True))
        if hi < lo:
            raise UsageError(f"channels.square: empty range [{lo}, {hi}]")
        return tuple((m, n) for m in range(lo, hi + 1) for n in range(lo, hi + 1))
    if not isinstance(doc, (list, tuple)) or not doc:
        raise UsageError("channels: expected a non-empty list of label pairs")
    channels = []
    for entry in doc:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise UsageError(f"channels: entry {entry!r} is not a label pair")
        a = _number("channels", entry[0], integral=(dimension == 2))
        b = _number("channels", entry[1], integral=(dimension == 2))
        if dimension == 2:
            channels.append((int(a), int(b)))
            continue
        if (2.0 * a) != int(2.0 * a) or (2.0 * b) != int(2.0 * b):
            raise UsageError(f"channels: labels must be multiples of 1/2, got {entry!r}")
        if a < 0.0 or b < 0.0:
            raise UsageError(f"channels: spatial labels must be >= 0, got {entry!r}")
        channels.append((a, b))
    if len(set(channels)) != len(channels):
        raise UsageError("channels: duplicate entries")
    if dimension == 3:
        bad = [
            (s, j)
            for s, j in channels
            if superselection_violation(target_space, int(2 * s) % 2 == 1, int(2 * j) % 2 == 1)
        ]
        if bad:
            raise UsageError(
                f"channels: labels {bad} violate superselection on target space "
                f"'{target_space.value}'"
            )
    return tuple(sorted(channels))


def _parse_grid(doc, dimension: int):
    if dimension == 2:
        if doc is None:
            return Grid1D.from_spec(DEFAULT_BOX, DEFAULT_NPOINTS), None
        _object("grid", doc, {"x_min", "x_max", "npoints", "h"})
        if "x_max" not in doc:
            raise UsageError("grid: 'x_max' is required")
        x_min = _number("grid.x_min", doc.get("x_min", 0.0))
        x_max = _number("grid.x_max", doc["x_max"])
        if ("npoints" in doc) == ("h" in doc):
            raise UsageError("grid: give exactly one of 'npoints' or 'h'")
        if "npoints" in doc:
            npoints = int(_number("grid.npoints", doc["npoints"], integral=True))
        else:
            h = _number("grid.h", doc["h"])
            if h <= 0.0:
                raise UsageError(f"grid.h: must be positive, got {h}")
            npoints = int(round((x_max - x_min) / h)) - 1
        try:
            return Grid1D(x_min=x_min, x_max=x_max, npoints=npoints), None
        except AffbodyError as exc:
            raise UsageError(f"grid: {exc}") from exc
    if doc is None:
        raise UsageError("grid: required for dimension 3 ('q_min', 'q_max', 'npoints')")
    _object("grid", doc, {"q_min", "q_max", "npoints"})
    for key in ("q_min", "q_max", "npoints"):
        if key not in doc:
            raise UsageError(f"grid: '{key}' is required for dimension 3")
    try:
        grid = GridND(
            npoints=int(_number("grid.npoints", doc["npoints"], integral=True)),
            q_min=_number("grid.q_min", doc["q_min"]),
            q_max=_number("grid.q_max", doc["q_max"]),
        )
    except AffbodyError as exc:
        raise UsageError(f"grid: {exc}") from exc
    return None, grid


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and fill in defaults.

    Raises UsageError naming the failing field, including model-gate
    violations (these depend on params and model jointly).
    """
    _object("config", doc, _CONFIG_KEYS)
    if "model" not in doc:
        raise UsageError("model: required")
    try:
        kind = ModelKind(doc["model"])
    except ValueError as exc:
        raise UsageError(
            f"model: unknown model {doc['model']!r}; choose from "
            f"{[k.value for k in ModelKind]}"
        ) from exc
    dimension = int(_number("dimension", doc.get("dimension", 2), integral=True))
    if dimension not in (2, 3):
        raise UsageError(f"dimension: must be 2 or 3, got {dimension}")

    pdoc = _object("params", doc.get("params"), _PARAM_KEYS)
    for key in ("I", "A", "B"):
        if key not in pdoc:
            raise UsageError(f"params.{key}: required")
    try:
        params = ModelParams(
            I=_number("params.I", pdoc["I"]),
            A=_number("params.A", pdoc["A"]),
            B=_number("params.B", pdoc["B"]),
            hbar=_number("params.hbar", pdoc.get("hbar", 1.0)),
            n=dimension,
        )
        check_gates(kind, params)
    except AffbodyError as exc:
        raise UsageError(f"params: {exc}") from exc

    try:
        target_space = TargetSpace(doc.get("target_space", "glplus"))
    except ValueError as exc:
        choices = " or ".join(repr(t.value) for t in TargetSpace)
        raise UsageError(
            f"target_space: expected {choices}, got {doc['target_space']!r}"
        ) from exc
    if "target_space" in doc and dimension == 2:
        raise UsageError("target_space: only meaningful for dimension 3")

    if "channels" not in doc:
        raise UsageError("channels: required")
    channels = _parse_channels(doc["channels"], dimension, target_space)
    grid1d, gridnd = _parse_grid(doc.get("grid"), dimension)

    refinements = int(_number("refinements", doc.get("refinements", 0), integral=True))
    if not 0 <= refinements <= 6:
        raise UsageError(f"refinements: must be in 0..6, got {refinements}")
    levels = int(_number("levels", doc.get("levels", 3), integral=True))
    if not 3 <= levels <= 8:
        raise UsageError(f"levels: must be in 3..8, got {levels}")
    count = int(
        _number("count", doc.get("count", 5 if dimension == 2 else 4), integral=True)
    )
    if count < 1:
        raise UsageError(f"count: must be >= 1, got {count}")
    if dimension == 3 and count > _MAX_ND_COUNT:
        raise UsageError(f"count: at most {_MAX_ND_COUNT} for dimension 3, got {count}")

    potdoc = _object("potentials", doc.get("potentials", {}), {"dilatation", "shear"})
    try:
        dil = _parse_potential("potentials.dilatation", potdoc.get("dilatation"))
        shear = _parse_potential("potentials.shear", potdoc.get("shear"))
    except AffbodyError as exc:
        raise UsageError(str(exc)) from exc
    if dimension == 3 and (
        dil.kind is not PotentialKind.ZERO or shear.kind is not PotentialKind.ZERO
    ):
        raise UsageError("potentials: only kind 'zero' is supported for dimension 3")

    outdoc = _object("outputs", doc.get("outputs", {}), {"table", "manifest"})
    table_name = outdoc.get("table", "spectrum.txt")
    manifest_name = outdoc.get("manifest", "manifest.json")
    for key, name in (("table", table_name), ("manifest", manifest_name)):
        if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\"):
            raise UsageError(f"outputs.{key}: expected a bare file name, got {name!r}")

    seed = int(_number("seed", doc.get("seed", 7), integral=True))
    return RunConfig(
        kind=kind,
        dimension=dimension,
        params=params,
        channels=channels,
        grid1d=grid1d,
        gridnd=gridnd,
        refinements=refinements,
        count=count,
        levels=levels,
        dil=dil,
        shear=shear,
        target_space=target_space,
        table_name=table_name,
        manifest_name=manifest_name,
        seed=seed,
    )


def load_config(path: str) -> dict:
    """Read a config file; a manifest is accepted and replays its run."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: {path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and isinstance(doc.get("config"), dict):
        return doc["config"]
    return doc


def _label_key(channel) -> str:
    return f"{channel[0]},{channel[1]}"


def _run_channels(cfg: RunConfig, output_dir: str, subcommand: str, worker, write_rows) -> int:
    """Run worker(channel, memo) per channel in label order; write table and manifest.

    memo is the call's cache of tridiagonal solves.  A channel's exception
    is recorded in the manifest and on stderr, and the other channels still
    run.  write_rows(fh, results) writes the table from the results of the
    channels that succeeded, keyed by channel in label order.  Returns the
    exit code: 1 if any channel failed, else 0.
    """
    t0, memo = time.perf_counter(), {}
    results, errors, timings = {}, {}, {}
    for ch in sorted(cfg.channels):
        start = time.perf_counter()
        try:
            results[ch] = worker(ch, memo)
        except Exception as exc:  # noqa: BLE001 - per-channel isolation
            errors[ch] = f"{type(exc).__name__}: {exc}"
        else:
            timings[ch] = time.perf_counter() - start
    table_path = os.path.join(output_dir, cfg.table_name)
    with open(table_path, "w", encoding="utf-8") as fh:
        write_rows(fh, results)
    manifest = {
        "format": "affbody-manifest 1",
        "subcommand": subcommand,
        "config": cfg.normalized(),
        "versions": {
            "affbody": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "timings": {
            "total_seconds": time.perf_counter() - t0,
            "per_channel_seconds": {_label_key(ch): t for ch, t in timings.items()},
        },
        "errors": {_label_key(ch): msg for ch, msg in errors.items()},
        "table": cfg.table_name,
        "tridiagonal_solves": len(memo),
    }
    manifest_path = os.path.join(output_dir, cfg.manifest_name)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(table_path)
    print(manifest_path)
    for ch, msg in errors.items():
        print(f"channel {ch}: {msg}", file=sys.stderr)
    return 1 if errors else 0


def _solve_channel(cfg: RunConfig, channel, memo: dict) -> list:
    """All refinement levels for one channel, coarsest first."""
    rows = []
    grids = nested_grids(cfg.grid1d if cfg.dimension == 2 else cfg.gridnd, cfg.refinements + 1)
    for level, grid in enumerate(grids):
        if cfg.dimension == 2:
            op = assemble_2d_channel(cfg.kind, cfg.params, channel, grid, cfg.dil, cfg.shear)
            res = solve_1d(op, cfg.count, memo)
        else:
            op = assemble_nd_channel(cfg.kind, cfg.params, channel, grid)
            res = solve_nd(op, cfg.count, seed=cfg.seed)
        rows.append(replace(res, refinement=level))
    return rows


def cmd_run(cfg: RunConfig, output_dir: str) -> int:
    def write_rows(fh, results):
        write_spectrum_table(fh, [res for rows in results.values() for res in rows])

    return _run_channels(
        cfg, output_dir, "run", lambda ch, memo: _solve_channel(cfg, ch, memo), write_rows
    )


def cmd_scan_threshold(cfg: RunConfig, output_dir: str) -> int:
    if cfg.dimension != 2:
        raise UsageError("dimension: scan-threshold supports dimension 2 only")

    def worker(ch, memo):
        op = assemble_2d_channel(cfg.kind, cfg.params, ch, cfg.grid1d, cfg.dil, cfg.shear)
        return solve_1d(op, cfg.count, memo)

    def write_rows(fh, results):
        fh.write("# model l1 l2 class bound lowest threshold X h\n")
        for ch, res in results.items():
            cls = classify_channel(ch)
            bound = "-" if cls is SpectralClass.MARGINAL else str(res.bound_count)
            fh.write(
                f"{cfg.kind.value} {ch[0]} {ch[1]} {cls.value} {bound} "
                f"{res.eigenvalues[0]:.14e} {res.threshold:.14e} "
                f"{res.x_max:.14e} {res.h:.14e}\n"
            )

    return _run_channels(cfg, output_dir, "scan-threshold", worker, write_rows)


def cmd_convergence(cfg: RunConfig, output_dir: str) -> int:
    if cfg.dimension != 2:
        raise UsageError("dimension: convergence supports dimension 2 only")

    def worker(ch, memo):
        return convergence_study(
            lambda g: assemble_2d_channel(cfg.kind, cfg.params, ch, g, cfg.dil, cfg.shear),
            cfg.grid1d,
            levels=cfg.levels,
            count=cfg.count,
            memo=memo,
        )

    def write_rows(fh, results):
        fh.write("# model l1 l2 record h values...\n")
        for ch, study in results.items():
            for i, h in enumerate(study.hs):
                vals = " ".join(f"{v:.14e}" for v in study.eigenvalues[i])
                fh.write(f"{cfg.kind.value} {ch[0]} {ch[1]} level-{i} {h:.14e} {vals}\n")
            vals = " ".join(f"{v:.14e}" for v in study.orders)
            fh.write(f"{cfg.kind.value} {ch[0]} {ch[1]} order nan {vals}\n")
            vals = " ".join(f"{v:.14e}" for v in study.extrapolated)
            fh.write(f"{cfg.kind.value} {ch[0]} {ch[1]} limit nan {vals}\n")

    return _run_channels(cfg, output_dir, "convergence", worker, write_rows)


def cmd_verify(suite: str, seed: int) -> int:
    results = run_suite(suite, seed=seed)
    print(format_report(results))
    failed = sum(0 if r.passed else 1 for r in results)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affbody",
        description="Reduced Schroedinger operators of the affinely-rigid body.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config or manifest file")
    common.add_argument(
        "--output-dir",
        default=None,
        help=f"output directory (default: ${OUTPUT_DIR_ENV} or the working directory)",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: channels run one at a time",
    )
    common.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    sub.add_parser("run", parents=[common], help="solve channels, write table+manifest")
    sub.add_parser(
        "scan-threshold", parents=[common], help="classify channels and count bound states"
    )
    sub.add_parser(
        "convergence", parents=[common], help="grid-refinement study per channel"
    )
    ver = sub.add_parser("verify", help="run the built-in self-check suites")
    ver.add_argument(
        "--suite", choices=SUITES + ("all",), default="all", help="suite to run"
    )
    ver.add_argument("--seed", type=int, default=7)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed)
        if args.jobs < 1:
            raise UsageError(f"jobs: must be >= 1, got {args.jobs}")
        cfg = parse_config(load_config(args.config))
        if args.seed is not None:
            cfg = replace(cfg, seed=int(args.seed))
        output_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or os.getcwd()
        os.makedirs(output_dir, exist_ok=True)
        if args.command == "run":
            return cmd_run(cfg, output_dir)
        if args.command == "scan-threshold":
            return cmd_scan_threshold(cfg, output_dir)
        return cmd_convergence(cfg, output_dir)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = [
    "OUTPUT_DIR_ENV",
    "RunConfig",
    "build_parser",
    "load_config",
    "main",
    "parse_config",
]


if __name__ == "__main__":
    sys.exit(main())
