"""Property tests of the config boundary.

Every document either parses to a RunConfig or is refused with UsageError,
a parsed config round-trips through its normalized echo, and a small run
exits 0, 1 or 2 with only AffbodyError subclasses recorded per channel.
The examples are derandomized and their number fixed, so every run of the
suite checks the same documents.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from affbody.cli import main, parse_config  # noqa: E402
from affbody.errors import AffbodyError, UsageError  # noqa: E402


def fixed(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
# dictionary keys of at most 4 characters never spell "square" (see SQUARE)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def field(*plausible):
    """A plausible value, or one time in ten anything a JSON document can hold."""
    return st.integers(0, 9).flatmap(lambda r: junk if r == 0 else st.one_of(*plausible))


def pair(label):
    return st.lists(label, min_size=2, max_size=2)


constant = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(-1.0, 3.0)
number = field(constant, st.integers(-3, 3))
models = st.sampled_from(["aff-aff", "met-aff", "aff-met", "dalembert"])
params = st.fixed_dictionaries(
    {
        "I": st.sampled_from([1.0, 2.0, 3.0]) | constant,
        "A": st.sampled_from([0.5, 1.0]) | constant,
        "B": st.sampled_from([0.0, 0.5]) | constant,
    },
    optional={"hbar": st.sampled_from([1.0, 0.5])},
)
spins = st.integers(0, 3).map(lambda twice: twice / 2)
# spin pairs of equal halfness, so that the double cover admits them
spin_pairs = st.tuples(st.integers(0, 1), st.integers(0, 1), st.sampled_from([0.0, 0.5])).map(
    lambda t: [t[0] + t[2], t[1] + t[2]]
)
potential = st.fixed_dictionaries(
    {"kind": st.sampled_from(["zero", "harmonic", "finite-well"])},
    optional={"k": constant, "q0": constant, "depth": constant, "width": constant},
)
potentials = st.fixed_dictionaries({}, optional={"dilatation": potential, "shear": potential})
seeds = field(st.integers(-2, 3), st.integers(0, 2**70))
# Square ends are small or far too large: a square is bounded before it is
# expanded, so [0, 10**9] is refused, while a middle-sized square within the
# bound would still build millions of label pairs.
square_end = st.integers(-3, 3) | st.sampled_from([0.5, 1e300, "1", None, 10**9, 2**53])
SQUARE = st.fixed_dictionaries({"square": pair(square_end)})

# anything a config file can hold, mostly near the schema
documents = st.fixed_dictionaries(
    {
        "model": field(models),
        "params": field(params, st.fixed_dictionaries({"I": number, "A": number, "B": number})),
        "channels": field(
            st.lists(pair(field(st.integers(-4, 4), spins, st.floats())), min_size=1, max_size=3),
            SQUARE,
        ),
    },
    optional={
        "dimension": field(st.sampled_from([2, 3])),
        "grid": field(
            st.fixed_dictionaries(
                {"x_max": number},
                optional={"x_min": number, "npoints": field(st.integers(1, 15)), "h": number},
            ),
            st.fixed_dictionaries(
                {"q_min": number, "q_max": number, "npoints": field(st.integers(1, 4))}
            ),
        ),
        "refinements": field(st.integers(-1, 7)),
        "levels": field(st.integers(2, 9)),
        "count": field(st.integers(-1, 12)),
        "potentials": field(
            st.fixed_dictionaries(
                {}, optional={"dilatation": field(potential), "shear": field(potential)}
            )
        ),
        "target_space": field(st.sampled_from(["glplus", "double-cover"])),
        "outputs": field(
            st.fixed_dictionaries(
                {}, optional={"table": field(st.sampled_from(["t.txt", "a/b", ".."]))}
            )
        ),
        "seed": seeds,
    },
)

# small runs: dimension 2 with at most 15 nodes, dimension 3 with N = 3 and
# at most one refinement (each refinement multiplies an n=3 matrix by ~8)
planar_runs = st.fixed_dictionaries(
    {
        "model": models,
        "params": params,
        "channels": st.lists(pair(st.integers(-3, 3)), min_size=1, max_size=3),
        "grid": st.fixed_dictionaries(
            {
                "x_min": st.floats(-1.0, 1.0),
                "x_max": st.floats(2.0, 12.0),
                "npoints": st.integers(3, 15),
            }
        ),
        "count": st.integers(1, 4),
    },
    optional={
        "refinements": st.integers(0, 6),
        "levels": st.integers(3, 8),
        "potentials": potentials,
        "seed": seeds,
    },
)
spatial_runs = st.fixed_dictionaries(
    {
        "model": models,
        "dimension": st.just(3),
        "params": params,
        "channels": st.lists(spin_pairs, min_size=1, max_size=2),
        "grid": st.fixed_dictionaries(
            {"q_min": st.floats(-3.0, 0.5), "q_max": st.floats(1.0, 3.0), "npoints": st.just(3)}
        ),
        "target_space": st.sampled_from(["glplus", "double-cover"]),
    },
    optional={"refinements": st.integers(0, 1), "count": st.integers(1, 11), "seed": seeds},
)
runs = planar_runs | spatial_runs

ERROR_NAMES = {cls.__name__ for cls in (AffbodyError, *AffbodyError.__subclasses__())}


@fixed(200)
@given(field(documents))
def test_document_parses_or_raises_usage_error(doc):
    try:
        parse_config(doc)
    except UsageError:
        pass


@fixed(150)
@given(runs | field(documents))
def test_normalized_config_parses_to_itself(doc):
    try:
        cfg = parse_config(doc)
    except UsageError:
        assume(False)
    assert parse_config(json.loads(json.dumps(cfg.normalized()))) == cfg


@fixed(100)
@given(
    runs,
    st.sampled_from(["run", "scan-threshold", "convergence"]),
    st.lists(st.integers(-1, 2), max_size=1),
)
def test_small_run_exits_0_1_or_2(doc, command, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [command, "--config", path, "--output-dir", out]
        argv += [arg for s in seed for arg in ("--seed", str(s))]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            return
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            errors = json.load(fh)["errors"]
    assert (code == 1) == bool(errors)
    for message in errors.values():
        assert message.split(":")[0] in ERROR_NAMES, message
