"""The benchmark's workloads: CLI calls built from a seed.

Each workload is one closed-loop caller that runs its CLI calls in order
with ``--jobs 1``.  The seed sets every config's ``seed`` (the n=3
Lanczos start vector) and draws the shear-potential strength of
``study-verify``; the program only ever sees the generated configs.

``quick`` shrinks every config so that the benchmark's own tests finish
in seconds; quick results are not comparable with full ones.
"""

import random
from dataclasses import dataclass

# Shear strength range of study-verify; the bound-state counts stay
# well inside the box for every value in it.
SHEAR_K_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class Call:
    """One `affbody` CLI invocation; config is written to <name>.json."""

    command: str
    name: str
    config: dict | None = None
    extra: tuple = ()
    checks: int = 0  # verify only: checks the suite runs

    def argv(self, workdir: str) -> list:
        if self.command == "verify":
            return ["verify", *self.extra]
        return [
            self.command,
            "--config",
            f"{workdir}/{self.name}.json",
            "--output-dir",
            workdir,
            "--jobs",
            "1",
        ]

    @property
    def channels(self) -> int:
        """Channels the call attempts (verify: its checks)."""
        if self.command == "verify":
            return self.checks
        chans = self.config["channels"]
        if isinstance(chans, dict):
            lo, hi = chans["square"]
            return (hi - lo + 1) ** 2
        return len(chans)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (seed, quick) -> tuple of Call


def tail_percentile(calls) -> float:
    """Highest percentile with at least ten channels of one pass beyond it.

    Derived from the configs, so that runs of different length compare the
    same statistic; 100 (the maximum) when one pass has too few channels.
    """
    per_pass = sum(c.channels for c in calls if c.config)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if per_pass * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 100.0


def _outputs(name: str) -> dict:
    return {"table": f"{name}.txt", "manifest": f"{name}.manifest.json"}


def planar_sweep(seed: int, quick: bool = False) -> tuple:
    lo_hi = [-1, 1] if quick else [-5, 5]
    config = {
        "model": "aff-aff",
        "dimension": 2,
        "params": {"I": 1.0, "A": 1.0, "B": 0.0},
        "channels": {"square": lo_hi},
        "grid": {"x_max": 40.0, "npoints": 199 if quick else 999},
        "refinements": 1 if quick else 2,
        "count": 5,
        "outputs": _outputs("planar"),
        "seed": seed,
    }
    return (Call("run", "planar", config),)


def _matrix_config(name, channels, npoints, seed):
    return {
        "model": "met-aff",
        "dimension": 3,
        "params": {"I": 2.0, "A": 1.0, "B": 0.5},
        "channels": channels,
        "target_space": "double-cover",
        "grid": {"q_min": -3.0, "q_max": 3.0, "npoints": npoints},
        "count": 4,
        "outputs": _outputs(name),
        "seed": seed,
    }


def matrix_channels(seed: int, quick: bool = False) -> tuple:
    # call (b) fails at N=13 with the current Lanczos solver (it hits
    # maxiter and its error path raises ValueError); it stays in so that the
    # failure counts, and its stored reference is ready for a fixed solver
    return (
        Call(
            "run",
            "matrix-a",
            _matrix_config(
                "matrix-a",
                [[0, 0], [0.5, 0.5], [1, 0], [1, 1]],
                5 if quick else 9,
                seed,
            ),
        ),
        Call("run", "matrix-b", _matrix_config("matrix-b", [[1, 1]], 5 if quick else 13, seed)),
    )


def shear_strength(seed: int) -> float:
    return round(random.Random(seed).uniform(*SHEAR_K_RANGE), 4)


def study_verify(seed: int, quick: bool = False) -> tuple:
    base = {
        "model": "dalembert",
        "dimension": 2,
        "params": {"I": 1.0, "A": 1.0, "B": 0.0},
        "channels": {"square": [-1, 1] if quick else [-5, 5]},
        "grid": {"x_max": 40.0, "npoints": 199 if quick else 999},
        "count": 5,
        "levels": 3,
        "potentials": {"shear": {"kind": "harmonic", "k": shear_strength(seed)}},
        "seed": seed,
    }
    suite, checks = ("algebra", 4) if quick else ("all", 22)
    return (
        Call("scan-threshold", "scan", dict(base, outputs=_outputs("scan"))),
        Call("convergence", "conv", dict(base, outputs=_outputs("conv"))),
        Call("verify", "verify", None, ("--suite", suite, "--seed", str(seed)), checks),
    )


PLANAR, MATRIX, STUDY = "planar-sweep", "matrix-channels", "study-verify"
ALL = (PLANAR, MATRIX, STUDY)

# Per-layer metric -> (end-to-end metrics it should move, workloads where it
# should).  Written down before any optimisation; a change that moves a
# layer metric elsewhere than listed has to explain why.
LAYER_MAP = {
    "spectra.tridiag_solves": ("wall_s, channel_s.*", (PLANAR, STUDY)),
    "spectra.tridiag_rows": ("wall_s, channel_s.*", (PLANAR, STUDY)),
    "spectra.tridiag_s": ("wall_s, channel_s.*", (PLANAR, STUDY)),
    "spectra.tridiag_distinct_frac": ("wall_s (must not move on study-verify)", (PLANAR, STUDY)),
    "spectra.margin_solves": ("wall_s, channel_s.*", (PLANAR, STUDY)),
    "spectra.solve_1d_calls": ("wall_s", (PLANAR, STUDY)),
    "spectra.solve_1d_self_s": ("wall_s", (PLANAR, STUDY)),
    "spectra.convergence_self_s": ("wall_s", (STUDY,)),
    "spectra.write_s": ("wall_s", (PLANAR, MATRIX)),
    "hamiltonians.apply_calls": ("wall_s, channel_s.tail, peak_rss_mb", (MATRIX,)),
    "hamiltonians.apply_s": ("wall_s, channel_s.tail, peak_rss_mb", (MATRIX,)),
    "hamiltonians.apply_bytes": ("wall_s, channel_s.tail, peak_rss_mb", (MATRIX,)),
    "hamiltonians.inner_calls": ("wall_s, channel_s.tail, failed_frac", (MATRIX,)),
    "hamiltonians.inner_s": ("wall_s, channel_s.tail, failed_frac", (MATRIX,)),
    "spectra.solve_nd_calls": ("wall_s, channel_s.tail, failed_frac", (MATRIX,)),
    "spectra.solve_nd_self_s": ("wall_s, channel_s.tail, failed_frac", (MATRIX,)),
    "hamiltonians.assemble_1d_calls": ("wall_s (under 3 % of it)", ALL),
    "hamiltonians.assemble_1d_s": ("wall_s (under 3 % of it)", ALL),
    "hamiltonians.tridiag_form_s": ("wall_s (under 3 % of it)", ALL),
    "hamiltonians.assemble_nd_s": ("wall_s (under 3 % of it)", ALL),
    "cli.parse_s": ("setup_s", ALL),
    "cli.self_s": ("wall_s", (PLANAR, STUDY)),
    "cli.output_bytes": ("wall_s", (PLANAR, STUDY)),
    "representations.generators_s": ("wall_s", (STUDY,)),
    "representations.quadrature_s": ("wall_s", (STUDY,)),
    "representations.wigner_s": ("wall_s", (STUDY,)),
    "group_geometry.s": ("wall_s", (STUDY,)),
    "verify.self_s": ("wall_s", (STUDY,)),
    "verify.checks": ("wall_s", (STUDY,)),
    "<module>.lines": ("none: simplicity counter", ALL),
    "trace.overhead_s": ("none: traced minus untraced wall_s", ALL),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            PLANAR,
            "common batch job: 121 planar channels x 3 refinement levels; time in "
            "tridiagonal solves, only 144 of 726 of them on distinct inputs",
            planar_sweep,
        ),
        Workload(
            MATRIX,
            "n=3 channels solved matrix-free: time in NDChannelOperator.apply and "
            "weighted_inner; the N=13 call is kept although it fails today",
            matrix_channels,
        ),
        Workload(
            STUDY,
            "scan-threshold, convergence and verify: the 1D layers with no margin to "
            "reuse, plus representations, group_geometry and verify",
            study_verify,
        ),
    )
}


def describe(seed: int, quick: bool = False) -> dict:
    """Self-description: configs, reason and layer-to-metric map per workload."""
    return {
        name: {
            "why": w.why,
            "calls": [
                {"argv": ["affbody", *c.argv("<workdir>")], "config": c.config}
                for c in w.build(seed, quick)
            ],
            "tail_percentile": tail_percentile(w.build(seed, quick)),
            "layers": {
                metric: moves for metric, (moves, where) in LAYER_MAP.items() if name in where
            },
        }
        for name, w in WORKLOADS.items()
    }
