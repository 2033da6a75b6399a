"""affbody benchmark: one workload per process, CLI calls made in-process.

    python3 bench/run.py --workload planar-sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports affbody from its
``src`` directory.  After one untimed warm-up pass (on the quick configs
of the same calls) it repeats the workload's CLI calls
(``affbody.cli.main`` with ``--jobs 1``, BLAS on one thread) until
``--seconds`` have passed, then checks every output against the oracles
in oracles.py.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans kept
in memory (tracing.py) plus the tracing overhead.  The last line of
standard output is the result object; the line before it holds the
environment record and the details (tail percentile, sample counts,
failure share).  Spans and results are also written under bench/out/.

``--quick`` shrinks every config for the benchmark's own tests;
``--describe`` prints each workload's configs, reason and
layer-to-metric map.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MODULES = (
    "__init__",
    "cli",
    "errors",
    "group_geometry",
    "hamiltonians",
    "peter_weyl",
    "representations",
    "spectra",
    "verify",
)
SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import affbody.cli as c\n"
    "for p in sys.argv[2:]: c.parse_config(c.load_config(p))"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas_threads() -> int:
    """Run BLAS and OpenMP on one thread; must run before numpy is imported.

    The workloads are one closed-loop caller.  A second OpenBLAS thread
    spin-waits on the small n=3 products and shares the host's few cores
    with whatever else runs there: on 2 cores it made matrix-channels
    about 10 % slower and its pass times several times noisier.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    return 1


def llc_bytes():
    best = (0, None)
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            value = int(size.rstrip("KMG")) * scale
            if level > best[0]:
                best = (level, value)
    except (OSError, ValueError):
        pass
    return best[1]


def source_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for name in MODULES:
        with open(os.path.join(SRC, "affbody", f"{name}.py"), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment(blas_threads: int, workload: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads,
        "llc_bytes": llc_bytes(),
        "git_commit": source_commit(),
        "src_sha256": source_digest(),
        "pid": os.getpid(),
        "workloads_in_process": [workload],
    }


def module_lines() -> dict:
    lines = {}
    for name in MODULES:
        with open(os.path.join(SRC, "affbody", f"{name}.py"), encoding="utf-8") as fh:
            lines[name.strip("_")] = sum(1 for _ in fh)
    return lines


# -- measurement --------------------------------------------------------------


def measure_setup(paths, repeats: int) -> list:
    """Seconds to start an interpreter, import affbody.cli and parse the configs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up
        # to 50 ms, which quantizes the measurement
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *paths], check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(cli, calls, workdir: str, seen: dict) -> dict:
    """One pass of the workload; outputs are read back after the clock stops.

    Only what the oracles and metrics use is kept, and text equal to that
    of an earlier pass is shared through `seen`: the passes held for
    judging must not raise the process's peak memory as they pile up.
    """
    # Each pass writes fresh files: ext4 flushes a file to disk when it is
    # truncated soon after being written, which would time the disk.
    for call in calls:
        if call.config is not None:
            for name in call.config["outputs"].values():
                path = os.path.join(workdir, name)
                if os.path.exists(path):
                    os.unlink(path)
    results = []
    t0 = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(call.argv(workdir))
            except Exception as exc:  # noqa: BLE001 - a crash counts as failure
                rc = f"{type(exc).__name__}: {exc}"
        results.append((call, rc, out.getvalue()))
    wall = time.perf_counter() - t0
    outcomes = []
    for call, rc, stdout in results:
        table, errors, times = None, (), []
        if call.config is not None and rc in (0, 1):
            with open(os.path.join(workdir, call.config["outputs"]["table"]), encoding="utf-8") as fh:
                table = fh.read()
            with open(os.path.join(workdir, call.config["outputs"]["manifest"]), encoding="utf-8") as fh:
                manifest = json.load(fh)
            errors = tuple(sorted(manifest["errors"]))
            times = list(manifest["timings"]["per_channel_seconds"].values())
        # the printed output paths name the work directory, whose length
        # depends on where the checkout is and on the pid
        stdout = stdout.replace(workdir, "")
        outcomes.append(
            {
                "call": call,
                "rc": rc,
                "stdout": seen.setdefault(stdout, stdout),
                "table": None if table is None else seen.setdefault(table, table),
                "errors": errors,
                "times": times,
            }
        )
    return {"wall": wall, "outcomes": outcomes}


class Judge:
    """Applies the oracles; identical outputs are judged once."""

    def __init__(self, workload: str, seed: int):
        import oracles

        self.oracles = oracles
        self.seed = seed
        self.stored = oracles.load_stored(workload)
        self.nd = oracles.load_nd()
        self.cache = {}
        self.used = set()

    def call(self, outcome) -> dict:
        call, rc = outcome["call"], outcome["rc"]
        if call.command == "verify":
            lines = outcome["stdout"].splitlines()
            passed = sum(1 for ln in lines if ln.startswith("PASS "))
            failed = sum(1 for ln in lines if ln.startswith("FAIL "))
            attempted = passed + failed or call.checks
            errored = attempted if rc not in (0, 1) else 0
            return {"attempted": attempted, "errored": errored, "wrong": failed, "times": [],
                    "checks": passed + failed}
        attempted = call.channels
        if rc not in (0, 1):
            return {"attempted": attempted, "errored": attempted, "wrong": 0, "times": []}
        errors = outcome["errors"]
        key = (call.name, outcome["table"], errors)
        if key not in self.cache:
            self.cache[key] = self._wrong(call, outcome["table"], set(errors))
        return {
            "attempted": attempted,
            "errored": len(errors),
            "wrong": len(self.cache[key]),
            "times": outcome["times"],
        }

    def _wrong(self, call, table: str, errors: set) -> set:
        o, config = self.oracles, call.config
        expected = set(o.channel_keys(config))
        listed = set(o.rows_by_channel(table))
        wrong = (expected - listed - errors) | (listed - expected)
        if config["dimension"] == 3:
            self.used.add("nd-reference")
            return wrong | o.nd_mismatches(config, table, self.nd, errors)
        ref = o.find_stored(self.stored, call.name, config, self.seed)
        if ref is not None:
            self.used.add("stored-table")
            wrong |= o.stored_mismatches(table, ref, errors)
        self.used.add("dense-sample")
        wrong |= o.dense_mismatches(call.command, config, table, self.seed, errors)
        if call.command == "scan-threshold":
            wrong |= o.class_mismatches(table)
        return wrong


def percentile(values, pct: float) -> float:
    import numpy

    return float(numpy.percentile(values, pct))


def layer_metrics(t, judged, lines) -> dict:
    """Per-layer metrics of one traced pass; t is that pass's Tracer snapshot."""
    solves = t.n_calls("spectra.tridiag")
    out = {
        "spectra.tridiag_solves": (solves, "count"),
        "spectra.tridiag_rows": (t.counters.get("spectra.tridiag_rows", 0), "count"),
        "spectra.tridiag_s": (t.self_seconds("spectra.tridiag"), "s"),
        "spectra.tridiag_distinct_frac": (len(t.digests) / solves if solves else 0.0, "ratio"),
        "spectra.margin_solves": (t.counters.get("spectra.margin_solves", 0), "count"),
        "spectra.solve_1d_calls": (t.n_calls("spectra.solve_1d"), "count"),
        "spectra.solve_1d_self_s": (t.self_seconds("spectra.solve_1d"), "s"),
        "spectra.convergence_self_s": (t.self_seconds("spectra.convergence"), "s"),
        "spectra.write_s": (t.self_seconds("spectra.write"), "s"),
        "spectra.solve_nd_calls": (t.n_calls("spectra.solve_nd"), "count"),
        "spectra.solve_nd_self_s": (t.self_seconds("spectra.solve_nd"), "s"),
        "hamiltonians.apply_calls": (t.n_calls("hamiltonians.apply"), "count"),
        "hamiltonians.apply_s": (t.self_seconds("hamiltonians.apply"), "s"),
        "hamiltonians.apply_bytes": (t.counters.get("hamiltonians.apply_bytes", 0), "B"),
        "hamiltonians.inner_calls": (t.n_calls("hamiltonians.inner"), "count"),
        "hamiltonians.inner_s": (t.self_seconds("hamiltonians.inner"), "s"),
        "hamiltonians.assemble_1d_calls": (t.n_calls("hamiltonians.assemble_1d"), "count"),
        "hamiltonians.assemble_1d_s": (t.self_seconds("hamiltonians.assemble_1d"), "s"),
        "hamiltonians.tridiag_form_s": (t.self_seconds("hamiltonians.tridiag_form"), "s"),
        "hamiltonians.assemble_nd_s": (t.self_seconds("hamiltonians.assemble_nd"), "s"),
        "cli.parse_s": (t.self_seconds("cli.parse"), "s"),
        "cli.self_s": (t.self_seconds("cli.main"), "s"),
        "cli.output_bytes": (sum(j["output_bytes"] for j in judged), "B"),
        "representations.generators_s": (t.self_seconds("representations.generators"), "s"),
        "representations.quadrature_s": (t.self_seconds("representations.quadrature"), "s"),
        "representations.wigner_s": (t.self_seconds("representations.wigner"), "s"),
        "group_geometry.s": (t.self_seconds("group_geometry"), "s"),
        "verify.self_s": (t.self_seconds("verify"), "s"),
        "verify.checks": (sum(j.get("checks", 0) for j in judged), "count"),
    }
    for name, count in lines.items():
        out[f"{name}.lines"] = (count, "lines")
    out["src.lines"] = (sum(lines.values()), "lines")
    return out


def output_bytes(outcome) -> int:
    """Bytes of the table and standard output of one call.

    Manifests are left out: the length of their timing fields changes from
    run to run, and this counter has to repeat exactly.  For the same
    reason run_pass has taken the work directory out of the output paths.
    """
    return len(outcome["stdout"].encode()) + len((outcome["table"] or "").encode())


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny configs for the benchmark's tests")
    parser.add_argument("--describe", action="store_true", help="print the workloads and exit")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, describe

    if args.describe:
        print(json.dumps(describe(args.seed, args.quick), indent=2))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "affbody", "cli.py")):
        print(f"error: no affbody sources under {SRC}", file=sys.stderr)
        return 2

    blas_threads = pin_blas_threads()
    workload = WORKLOADS[args.workload]
    calls = workload.build(args.seed, args.quick)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, workload, calls, workdir, tag, blas_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_configs(calls, workdir: str) -> list:
    paths = []
    for call in calls:
        if call.config is not None:
            path = os.path.join(workdir, f"{call.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(call.config, fh)
            paths.append(path)
    return paths


def measure(args, workload, calls, workdir, tag, blas_threads) -> int:
    from workloads import tail_percentile

    config_paths = write_configs(calls, workdir)

    setup = []
    if not args.trace:
        setup = measure_setup(config_paths, 3 if args.quick else SETUP_REPEATS)

    sys.path.insert(0, SRC)
    import affbody.cli as cli

    # warm-up on the quick configs of the same calls: imports, caches and
    # lazy set-up, without spending a full matrix-channels pass (14 s)
    warmdir = os.path.join(workdir, "warm-up")
    os.makedirs(warmdir)
    warm_calls = workload.build(args.seed, True)
    write_configs(warm_calls, warmdir)
    run_pass(cli, warm_calls, warmdir, {})
    seen = {}
    passes, traced = [], []
    tracer = None
    spans = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, calls, workdir, seen))
        if tracer is not None:
            tracer.reset()
            tracing.install(tracer)
            try:
                result = run_pass(cli, calls, workdir, seen)
            finally:
                tracer.close()
            result["tracer_state"] = tracer.snapshot()
            spans.append(list(tracer.spans))
            traced.append(result)
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    judge = Judge(workload.name, args.seed)
    attempted = errored = wrong = 0
    times = {}  # call name -> per-channel seconds of the untraced passes
    per_pass = []
    for index, p in enumerate(passes + traced):
        judged = []
        for outcome in p["outcomes"]:
            j = judge.call(outcome)
            j["output_bytes"] = output_bytes(outcome)
            judged.append(j)
            attempted += j["attempted"]
            errored += j["errored"]
            wrong += j["wrong"]
        per_pass.append(judged)
        if index < len(passes):
            for outcome, j in zip(p["outcomes"], judged):
                times.setdefault(outcome["call"].name, []).extend(j["times"])
    failed = errored + wrong

    walls = [p["wall"] for p in passes]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "quick": args.quick,
        "environment": environment(blas_threads, workload.name),
        "passes": len(passes),
        "wall_s_all": walls,
        "failed_frac": failed / attempted,
        "errored": errored,
        "wrong": wrong,
        "oracles": sorted(judge.used),
        "crashes": sorted({o["rc"] for p in passes + traced for o in p["outcomes"]
                           if isinstance(o["rc"], str)}),
    }
    if args.trace:
        metrics, trace_detail = traced_metrics(traced, per_pass[len(passes):], walls)
        detail.update(trace_detail)
        path = os.path.join(OUT, f"{tag}-spans.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "passes": spans}, fh)
        detail["spans_file"] = os.path.relpath(path, ROOT)
    else:
        pct = tail_percentile(calls)
        medians = {name: statistics.median(t) for name, t in times.items() if t}
        pooled = [t for per_call in times.values() for t in per_call]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            # mean over calls of each call's median: study-verify pools two
            # equal halves of 2 ms and 5 ms channels, whose pooled median
            # would fall in the gap between them
            "channel_s.p50": (statistics.fmean(medians.values()), "s"),
            "channel_s.tail": (percentile(pooled, pct), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        detail.update(
            {
                "setup_s_all": setup,
                "channel_p50_by_call": medians,
                "channel_samples": len(pooled),
                "tail_percentile": pct,
                "tail_samples_beyond": sum(1 for t in pooled if t > metrics["channel_s.tail"][0]),
            }
        )

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {detail['failed_frac']:.6g} ({failed} of {attempted})")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=2)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def traced_metrics(traced, judged_passes, untraced_walls):
    lines = module_lines()
    per_pass = [
        layer_metrics(p["tracer_state"], judged, lines)
        for p, judged in zip(traced, judged_passes)
    ]
    metrics = {}
    repeat = True
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            repeat &= all(v == values[0] for v in values)
            metrics[name] = (values[0], unit)
    traced_wall = statistics.median(p["wall"] for p in traced)
    untraced_wall = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    min_self = min(
        (v for p in traced for v in p["tracer_state"].self_time.values()), default=0.0
    )
    return metrics, {
        "traced_passes": len(traced),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "counts_repeat_across_passes": repeat,
        "min_self_s": min_self,
    }


if __name__ == "__main__":
    sys.exit(main())
