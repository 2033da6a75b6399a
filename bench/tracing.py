"""In-memory spans around the public functions of each affbody layer.

Nothing under ``src/`` knows about tracing: the tracer replaces names
where the importing module looks them up (``affbody.cli.solve_1d``,
``NDChannelOperator.apply``, ``scipy.linalg.eigh_tridiagonal``) and puts
the originals back on ``close``.

Every wrapped call adds its duration to its parent's child time, so a
layer's self time is its span time minus the time of the traced calls it
made.  Ordinary calls also keep a span (name, start, end, parent).  Hot
calls, which run tens of thousands of times per solve, only aggregate a
count and a time.
"""

import hashlib
import time

class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []  # open frames: [span index, name, child seconds]
        self.calls = {}  # name -> call count
        self.self_time = {}  # name -> seconds minus traced children
        self.counters = {}
        self.digests = set()
        self._patches = []

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr, name, hot=False, hook=None):
        """Replace owner.attr by a timed wrapper recorded under name.

        A hot call keeps no span, only its count and time.

        hook(args, kwargs, result) runs after the call; its time is charged
        to no layer.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        record_span = not hot
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            index = -1
            if record_span:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [index, name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_time[name] = (
                    tracer.self_time.get(name, 0.0) + duration - frame[2]
                )
                if record_span:
                    tracer.spans[index] = (name, t0, t1, parent[0] if parent else -1)
                if parent is not None:
                    parent[2] += duration
            if hook is not None:
                h0 = time.perf_counter()
                hook(args, kwargs, result)
                if parent is not None:
                    parent[2] += time.perf_counter() - h0
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def close(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def inside(self, name) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> "Tracer":
        """Unpatched copy of what has been recorded so far, without spans."""
        copy = Tracer()
        copy.calls = dict(self.calls)
        copy.self_time, copy.counters = dict(self.self_time), dict(self.counters)
        copy.digests = set(self.digests)
        return copy

    def reset(self):
        """Forget everything recorded so far; patches stay in place."""
        self.spans.clear()
        self.calls.clear()
        self.self_time.clear()
        self.counters.clear()
        self.digests.clear()

    def self_seconds(self, name) -> float:
        return self.self_time.get(name, 0.0)

    def n_calls(self, name) -> int:
        return self.calls.get(name, 0)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer that a CLI path reaches."""
    import scipy.linalg

    from affbody import cli, hamiltonians, verify

    # cli: config parsing and the command entry point
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "cli.parse")
    tracer.wrap(cli, "parse_config", "cli.parse")

    # hamiltonians: assembly as the cli and verify look it up
    for module in (cli, verify):
        tracer.wrap(module, "assemble_2d_channel", "hamiltonians.assemble_1d")
    tracer.wrap(verify, "symmetrize", "hamiltonians.assemble_1d")
    tracer.wrap(cli, "assemble_nd_channel", "hamiltonians.assemble_nd")
    for cls in (hamiltonians.ChannelOperator1D, hamiltonians.SymmetrizedOperator1D):
        tracer.wrap(cls, "symmetric_tridiagonal", "hamiltonians.tridiag_form")
    tracer.wrap(
        hamiltonians.ChannelOperator1D, "tridiagonal_weighted", "hamiltonians.tridiag_form"
    )

    def apply_bytes(args, kwargs, result):
        tracer.count("hamiltonians.apply_bytes", args[1].nbytes + result.nbytes)

    tracer.wrap(hamiltonians.NDChannelOperator, "apply", "hamiltonians.apply", True, apply_bytes)
    tracer.wrap(
        hamiltonians.NDChannelOperator, "weighted_inner", "hamiltonians.inner", hot=True
    )

    # spectra: solvers and table writing, as the cli and verify look them up
    tracer.wrap(cli, "solve_1d", "spectra.solve_1d")
    tracer.wrap(verify, "solve_1d", "spectra.solve_1d")
    tracer.wrap(cli, "solve_nd", "spectra.solve_nd")
    tracer.wrap(cli, "convergence_study", "spectra.convergence")
    tracer.wrap(cli, "write_spectrum_table", "spectra.write")
    _wrap_tridiagonal(tracer, scipy.linalg)

    # representations, group_geometry and verify: reached by `verify` only,
    # plus the spin matrices of the n=3 operator
    tracer.wrap(hamiltonians, "generators", "representations.generators")
    for name in ("generators", "casimir"):
        tracer.wrap(verify, name, "representations.generators")
    for name in ("haar_quadrature", "group_volume"):
        tracer.wrap(verify, name, "representations.quadrature")
    tracer.wrap(verify, "wigner_D_batch", "representations.wigner")
    for name in (
        "two_polar_decompose",
        "reconstruct",
        "weight_l",
        "weight_lambda",
        "haar_density_ratio",
    ):
        tracer.wrap(verify, name, "group_geometry")
    tracer.wrap(cli, "run_suite", "verify")
    tracer.wrap(cli, "format_report", "verify")


def _wrap_tridiagonal(tracer: Tracer, linalg) -> None:
    """Time 1D tridiagonal solves and hash their (d, e) inputs.

    solve_nd also calls eigh_tridiagonal for its Ritz values; those calls
    go straight through and stay in solve_nd's self time.
    """
    original = linalg.eigh_tridiagonal

    def record(args, kwargs, result):
        d, e = args[0], args[1]
        tracer.count("spectra.tridiag_rows", len(d))
        digest = hashlib.blake2b(d.tobytes(), digest_size=16)
        digest.update(e.tobytes())
        tracer.digests.add(digest.digest())
        if kwargs.get("eigvals_only") and tracer.parent_name() == "spectra.solve_1d":
            tracer.count("spectra.margin_solves")

    tracer.wrap(linalg, "eigh_tridiagonal", "spectra.tridiag", True, record)
    timed = linalg.eigh_tridiagonal

    def dispatch(*args, **kwargs):
        if tracer.inside("spectra.solve_nd"):
            return original(*args, **kwargs)
        return timed(*args, **kwargs)

    linalg.eigh_tridiagonal = dispatch
