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
from functools import partial

import numpy as np

from . import __version__
from .errors import CapacityError, DomainError, UsageError
from .hamiltonians import (
    ENTRY_LIMIT,
    MAX_FIELD_ELEMENTS,
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
    check_grid_start,
    entry_scale,
    largest_weight,
    planar_labels,
    shear_label_terms,
    spatial_labels,
)
from .peter_weyl import TargetSpace, superselection_violation
from .spectra import (
    DEFAULT_BOX,
    DEFAULT_NPOINTS,
    MAX_ND_COUNT,
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
# each potential kind's entries with their defaults; None marks a required entry
_POTENTIAL_ENTRIES = {
    PotentialKind.ZERO: {},
    PotentialKind.HARMONIC: {"k": 1.0, "q0": 0.0},
    PotentialKind.FINITE_WELL: {"depth": None, "width": None},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-defaulted description of one batch run."""

    kind: ModelKind
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
            "dimension": self.params.n,
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
        if self.params.n == 2:
            doc["grid"] = asdict(self.grid1d)
        else:
            doc["grid"] = asdict(self.gridnd)
            doc["target_space"] = self.target_space.value
        return doc


def _potential_doc(spec: PotentialSpec) -> dict:
    entries = _POTENTIAL_ENTRIES[spec.kind]
    return {"kind": spec.kind.value, **{k: getattr(spec, k) for k in entries}}


def _number(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{field}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise UsageError(f"{field}: expected a finite number, got {value!r}")
    return number


def _integer(field: str, value, lo=-math.inf, hi=math.inf) -> int:
    """value as an int in lo..hi; an integral float such as 3.0 counts."""
    if not _number(field, value).is_integer():
        raise UsageError(f"{field}: expected an integer, got {value!r}")
    if not lo <= value <= hi:
        raise UsageError(f"{field}: must be in {lo}..{hi}, got {value!r}")
    return int(value)


def _choice(field: str, value, enum):
    """The member of enum whose value is value."""
    try:
        return enum(value)
    except ValueError:
        choices = [member.value for member in enum]
        raise UsageError(f"{field}: expected one of {choices}, got {value!r}") from None


def _object(field: str, doc, keys, required=()) -> dict:
    """doc, checked to be an object whose entries lie in keys and include required."""
    if not isinstance(doc, dict):
        raise UsageError(f"{field}: expected an object")
    extras = set(doc) - set(keys)
    if extras:
        raise UsageError(f"{field}: unknown entries {sorted(extras)}")
    for key in required:
        if key not in doc:
            raise UsageError(f"{field}.{key}: required")
    return doc


def _parse_potential(field: str, doc) -> PotentialSpec:
    if doc is None:
        return ZERO_POTENTIAL
    if not isinstance(doc, dict) or "kind" not in doc:
        raise UsageError(f"{field}: expected an object with a 'kind' entry")
    kind = _choice(f"{field}.kind", doc["kind"], PotentialKind)
    entries = _POTENTIAL_ENTRIES[kind]
    _object(field, doc, {"kind", *entries}, [k for k, v in entries.items() if v is None])
    values = {k: _number(f"{field}.{k}", doc.get(k, v)) for k, v in entries.items()}
    try:
        return PotentialSpec(kind, **values)
    except DomainError as exc:
        raise UsageError(f"{field}: {exc}") from exc


def _label_pair(field: str, entry, dimension: int) -> tuple:
    """entry as one channel's labels, judged by the library's rule for the dimension."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise UsageError(f"{field}: entry {entry!r} is not a label pair")
    numbers = tuple(_number(field, v) for v in entry)
    try:
        # planar labels are judged as written, so no int rounds through a float
        return planar_labels(entry) if dimension == 2 else spatial_labels(numbers)
    except (DomainError, CapacityError) as exc:
        raise UsageError(f"{field}: {exc}") from exc


def _parse_channels(doc, dimension: int, target_space: TargetSpace, grid1d) -> tuple:
    if isinstance(doc, dict):
        if set(doc) != {"square"}:
            raise UsageError("channels: range spec must be {'square': [lo, hi]}")
        if dimension != 2:
            raise UsageError("channels: square range specs need dimension 2")
        lo, hi = _label_pair("channels.square", doc["square"], dimension)
        if hi < lo:
            raise UsageError(f"channels.square: empty range [{lo}, {hi}]")
        # bounded before it is expanded, since the range holds (hi - lo + 1)**2
        # channels, each counted as its grid but as at least sqrt(capacity) elements
        size, each = (hi - lo + 1) ** 2, max(grid1d.npoints, math.isqrt(MAX_FIELD_ELEMENTS))
        if size * each > MAX_FIELD_ELEMENTS:
            raise UsageError(
                f"channels.square: {size} channels of {each} elements each exceed "
                f"the capacity of {MAX_FIELD_ELEMENTS} elements"
            )
        return tuple((m, n) for m in range(lo, hi + 1) for n in range(lo, hi + 1))
    if not isinstance(doc, (list, tuple)) or not doc:
        raise UsageError("channels: expected a non-empty list of label pairs")
    channels = [_label_pair("channels", entry, dimension) for entry in doc]
    if len(set(channels)) != len(channels):
        raise UsageError("channels: duplicate entries")
    if dimension == 3:
        reasons = {
            (s, j): superselection_violation(target_space, int(2 * s) % 2 == 1, int(2 * j) % 2 == 1)
            for s, j in channels
        }
        bad = [ch for ch, why in reasons.items() if why]
        if bad:
            raise UsageError(
                f"channels: labels {bad} violate superselection on target space "
                f"'{target_space.value}': {reasons[bad[0]]}"
            )
    return tuple(sorted(channels))


def _parse_grid(doc, dimension: int):
    if dimension == 2:
        if doc is None:
            return Grid1D.from_spec(DEFAULT_BOX, DEFAULT_NPOINTS), None
        _object("grid", doc, {"x_min", "x_max", "npoints", "h"}, ("x_max",))
        x_min = _number("grid.x_min", doc.get("x_min", 0.0))
        if x_min < 0.0:
            raise UsageError(
                f"grid.x_min: must not be negative, got {x_min!r}: the planar weight "
                "vanishes at x = 0, so a box across it holds two mirror copies"
            )
        x_max = _number("grid.x_max", doc["x_max"])
        if ("npoints" in doc) == ("h" in doc):
            raise UsageError("grid: give exactly one of 'npoints' or 'h'")
        if "npoints" in doc:
            npoints = _integer("grid.npoints", doc["npoints"])
        else:
            h = _number("grid.h", doc["h"])
            if h <= 0.0:
                raise UsageError(f"grid.h: must be positive, got {h}")
            # a tiny h overflows the node count to inf, refused as grid.h
            npoints = int(round(_number("grid.h", (x_max - x_min) / h))) - 1
        try:
            return Grid1D(x_min=x_min, x_max=x_max, npoints=npoints), None
        except DomainError as exc:
            raise UsageError(f"grid: {exc}") from exc
        except CapacityError as exc:
            raise UsageError(f"grid.{'npoints' if 'npoints' in doc else 'h'}: {exc}") from exc
    _object("grid", doc, {"q_min", "q_max", "npoints"}, ("q_min", "q_max", "npoints"))
    npoints = _integer("grid.npoints", doc["npoints"])
    q_min, q_max = _number("grid.q_min", doc["q_min"]), _number("grid.q_max", doc["q_max"])
    try:
        return None, GridND(npoints=npoints, q_min=q_min, q_max=q_max)
    except DomainError as exc:
        raise UsageError(f"grid: {exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and fill in defaults.

    Raises UsageError naming the failing field, including model-gate
    violations (these depend on params and model jointly).
    """
    _object("config", doc, _CONFIG_KEYS)
    kind = _choice("model", doc.get("model"), ModelKind)
    dimension = _integer("dimension", doc.get("dimension", 2), 2, 3)

    pdoc = _object("params", doc.get("params"), _PARAM_KEYS, ("I", "A", "B"))
    I, A, B = (_number(f"params.{key}", pdoc[key]) for key in ("I", "A", "B"))
    hbar = _number("params.hbar", pdoc.get("hbar", 1.0))
    try:
        params = ModelParams(I=I, A=A, B=B, hbar=hbar, n=dimension)
        check_gates(kind, params)
    except DomainError as exc:
        raise UsageError(f"params: {exc}") from exc

    target_space = _choice("target_space", doc.get("target_space", "glplus"), TargetSpace)
    if "target_space" in doc and dimension == 2:
        raise UsageError("target_space: only meaningful for dimension 3")

    # _parse_grid refuses a planar box below 0, so only an n=3 grid can start there
    grid1d, gridnd = _parse_grid(doc.get("grid"), dimension)
    if dimension == 3:
        try:
            check_grid_start(kind, gridnd.q_min)
        except DomainError as exc:
            raise UsageError(f"grid.q_min: {exc}") from exc
    channels = _parse_channels(doc.get("channels"), dimension, target_space, grid1d)
    refinements = _integer("refinements", doc.get("refinements", 0), 0, 6)
    levels = _integer("levels", doc.get("levels", 3), 3, 8)
    # a planar count is bounded by the base grid's matrix, an n=3 count by solve_nd
    count = _integer(
        "count",
        doc.get("count", 5 if dimension == 2 else 4),
        1,
        grid1d.npoints if dimension == 2 else MAX_ND_COUNT,
    )

    potdoc = _object("potentials", doc.get("potentials", {}), {"dilatation", "shear"})
    dil = _parse_potential("potentials.dilatation", potdoc.get("dilatation"))
    shear = _parse_potential("potentials.shear", potdoc.get("shear"))
    if dimension == 3 and (
        dil.kind is not PotentialKind.ZERO or shear.kind is not PotentialKind.ZERO
    ):
        raise UsageError("potentials: only kind 'zero' is supported for dimension 3")

    outdoc = _object("outputs", doc.get("outputs", {}), {"table", "manifest"})
    table_name = outdoc.get("table", "spectrum.txt")
    manifest_name = outdoc.get("manifest", "manifest.json")
    for key, name in (("table", table_name), ("manifest", manifest_name)):
        try:  # a str of at most 255 UTF-8 bytes; a lone surrogate has no UTF-8 form
            fits = isinstance(name, str) and len(name.encode("utf-8")) <= 255
        except UnicodeError:
            fits = False
        if not fits or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise UsageError(f"outputs.{key}: expected a bare file name, got {name!r}")
    if manifest_name == table_name:
        raise UsageError(f"outputs.manifest: must differ from outputs.table, got {table_name!r}")

    return RunConfig(
        kind=kind,
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
        seed=_integer("seed", doc.get("seed", 7), 0),
    )


def load_config(path: str) -> dict:
    """Read a config file; a manifest is accepted and replays its run."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also an int too long to convert, or bytes not UTF-8
        raise UsageError(f"config: {path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and isinstance(doc.get("config"), dict):
        return doc["config"]
    return doc


def _label_key(channel) -> str:
    return f"{channel[0]},{channel[1]}"


def _blas_build(module):
    """Name and version of the BLAS that numpy or scipy was built against,
    None where show_config takes no mode (numpy before 1.26)."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:
        return None
    return {key: blas.get(key) for key in ("name", "version")}


def _run_channels(cfg: RunConfig, output_dir: str, subcommand: str, worker, write_rows) -> int:
    """Run worker(channel) per twin key in label order; write table and manifest.

    The output directory is made first (UsageError if it cannot be, or if
    the table or manifest name is a directory in it).  A planar channel's
    key is its `shear_label_terms`, an n=3 channel is its own.  The first
    channel of a key runs the worker; each later one, its label twin,
    takes that result (still labelled as the first twin) or error, and
    the manifest's "twin_of" names its first twin.  A channel's
    exception is recorded in the manifest and on stderr, and the other
    channels still run.  write_rows(fh, results) writes the table from the
    results of the channels that succeeded, keyed by channel in label
    order.  Returns the exit code: 1 if any channel failed, else 0.
    """
    try:
        os.makedirs(output_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--output-dir: cannot create {output_dir!r}: {exc}") from exc
    for key, name in (("table", cfg.table_name), ("manifest", cfg.manifest_name)):
        if os.path.isdir(os.path.join(output_dir, name)):
            raise UsageError(f"outputs.{key}: {name!r} is a directory in {output_dir!r}")
    t0 = time.perf_counter()
    results, errors, timings, twin_of, first = {}, {}, {}, {}, {}
    for ch in sorted(cfg.channels):
        start = time.perf_counter()
        twin = first.setdefault(shear_label_terms(cfg.kind, ch) if cfg.params.n == 2 else ch, ch)
        if twin != ch:
            twin_of[ch] = twin
        if twin in errors:
            errors[ch] = errors[twin]
            continue
        try:
            results[ch] = worker(ch) if twin == ch else results[twin]
        except Exception as exc:  # noqa: BLE001 - per-channel isolation
            errors[ch] = f"{type(exc).__name__}: {exc}"
        else:
            timings[ch] = time.perf_counter() - start
    table_path = os.path.join(output_dir, cfg.table_name)
    with open(table_path, "w", encoding="utf-8") as fh:
        write_rows(fh, results)
    import scipy

    manifest = {
        "format": "affbody-manifest 1",
        "subcommand": subcommand,
        "config": cfg.normalized(),
        "versions": {
            "affbody": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "blas": {"numpy": _blas_build(np), "scipy": _blas_build(scipy)},
            # the BLAS thread count can move an n=3 table's last digits
            "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "timings": {
            "total_seconds": time.perf_counter() - t0,
            "per_channel_seconds": {_label_key(ch): t for ch, t in timings.items()},
        },
        "errors": {_label_key(ch): msg for ch, msg in errors.items()},
        "table": cfg.table_name,
        "twin_of": {_label_key(ch): _label_key(twin) for ch, twin in twin_of.items()},
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


def _assemble(cfg: RunConfig, channel, grid):
    """The channel's operator on grid, planar or n=3 as cfg.params.n says."""
    if cfg.params.n == 2:
        return assemble_2d_channel(cfg.kind, cfg.params, channel, grid, cfg.dil, cfg.shear)
    return assemble_nd_channel(cfg.kind, cfg.params, channel, grid)


def _solve_channel(cfg: RunConfig, channel, grids) -> list:
    """One result per grid of a `nested_grids` chain, coarsest first.

    Each level is assembled and solved before the next.  A planar level's
    eigenvalues give the margins of the level after it, whose 2h grid it
    is.  `main` has checked that the finest level fits the capacity.
    """
    results = []
    for grid in grids:
        op = _assemble(cfg, channel, grid)
        if cfg.params.n == 3:
            results.append(solve_nd(op, cfg.count, seed=cfg.seed))
        else:
            results.append(solve_1d(op, cfg.count, results[-1].eigenvalues if results else None))
    return results


def cmd_run(cfg: RunConfig, output_dir: str, grids) -> int:
    def write_rows(fh, results):
        write_spectrum_table(
            fh, [replace(res, channel=ch) for ch, rows in results.items() for res in rows]
        )

    worker = partial(_solve_channel, cfg, grids=grids)
    return _run_channels(cfg, output_dir, "run", worker, write_rows)


def cmd_scan_threshold(cfg: RunConfig, output_dir: str, grids) -> int:
    def write_rows(fh, results):
        fh.write("# model l1 l2 class bound lowest threshold X h\n")
        for ch, (res,) in results.items():
            cls = classify_channel(ch)
            bound = "-" if cls is SpectralClass.MARGINAL else str(res.bound_count)
            fh.write(
                f"{cfg.kind.value} {ch[0]} {ch[1]} {cls.value} {bound} "
                f"{res.eigenvalues[0]:.14e} {res.threshold:.14e} "
                f"{res.x_max:.14e} {res.h:.14e}\n"
            )

    worker = partial(_solve_channel, cfg, grids=grids)
    return _run_channels(cfg, output_dir, "scan-threshold", worker, write_rows)


def cmd_convergence(cfg: RunConfig, output_dir: str, grids) -> int:
    def worker(ch):
        return convergence_study(lambda g: _assemble(cfg, ch, g), grids[0], len(grids), cfg.count)

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
        help=f"output directory (default: ${OUTPUT_DIR_ENV} or the working directory)",
    )
    common.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and ignored: channels run one at a time",
    )
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_parser("run", parents=[common], help="solve channels, write table+manifest")
    sub.add_parser(
        "scan-threshold", parents=[common], help="classify channels and count bound states"
    )
    sub.add_parser("convergence", parents=[common], help="grid-refinement study per channel")
    ver = sub.add_parser("verify", help="run the built-in self-check suites")
    ver.add_argument("--suite", choices=SUITES + ("all",), default="all", help="suite to run")
    ver.add_argument("--seed", type=int, default=7)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, _integer("seed", args.seed, 0))
        if args.jobs < 1:
            raise UsageError(f"jobs: must be >= 1, got {args.jobs}")
        doc = load_config(args.config)
        if args.seed is not None:  # read like the config's own seed
            doc = {**_object("config", doc, _CONFIG_KEYS), "seed": args.seed}
        cfg = parse_config(doc)
        if cfg.params.n == 3 and args.command != "run":
            raise UsageError(f"dimension: {args.command} supports dimension 2 only")
        levels = {"run": cfg.refinements + 1, "convergence": cfg.levels}.get(args.command, 1)
        # pre-flight on the finest level, before any output: a Grid1D's nodes or an n=3
        # operator's nonzeros (its lattice is built lazily) against the capacity, each
        # channel's entry bound, and the weight times it (or 2, for two flux weights)
        try:
            grids = nested_grids(cfg.grid1d if cfg.params.n == 2 else cfg.gridnd, levels)
            h, worst = grids[-1].step, 2.0
            for ch in cfg.channels:
                if cfg.params.n == 3:
                    _assemble(cfg, ch, grids[-1])
                scale = entry_scale(cfg.kind, cfg.params, ch, h)
                if not scale <= ENTRY_LIMIT:
                    name = "I" if cfg.kind is ModelKind.DALEMBERT else "A"
                    raise UsageError(
                        f"params.{name}: {name} = {getattr(cfg.params, name)!r} puts channel "
                        f"{ch}'s finest-level entries near {scale:.3g} (h = {h:.3g}), past "
                        f"the {ENTRY_LIMIT:.3g} that the solvers take unscaled"
                    )
                worst = max(worst, scale)
        except CapacityError as exc:
            field = "h" if "h" in (doc.get("grid") or {}) else "npoints"
            raise UsageError(f"grid.{field}: {exc}") from exc
        weight = largest_weight(cfg.kind, grids[-1])
        if not math.isfinite(weight * worst):
            raise UsageError(
                f"grid.{'x_max' if cfg.params.n == 2 else 'q_max'}: the weight reaches "
                f"{weight:.3g} on the finest level, and times {worst:.3g} it overflows"
            )
        output_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or os.getcwd()
        commands = {"run": cmd_run, "scan-threshold": cmd_scan_threshold}
        return commands.get(args.command, cmd_convergence)(cfg, output_dir, grids)
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
