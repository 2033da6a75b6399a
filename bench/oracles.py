"""Correctness oracles for the tables the CLI writes.

Three kinds of reference, all applied outside the timed region:

* stored tables (``refs/<workload>.json.gz``, written by make_refs.py
  from a trusted commit): labels, indices, bound flags and classes must
  match exactly, energies, thresholds, X, h and extrapolated limits within
  ``STORED_RTOL``, and the fitted orders of a convergence table within
  ``ORDER_RTOL``;
* a dense generalized eigensolve of the level-0 ``tridiagonal_weighted()``
  problem for a seed-chosen sample of planar channels, run for every seed;
* stored n=3 eigenvalues (``refs/nd-eigenvalues.json``), computed with
  scipy ``eigsh`` on the sqrt(P)-symmetrized operator; small quick-mode
  operators are diagonalized densely instead.
"""

import gzip
import json
import math
import os
import random

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
STORED_RTOL = 1e-10
# An order is log2(d1/d2) of differences between nearly equal eigenvalues
# on nested grids: a rounding-level shift of an eigenvalue moves it by
# about 1e-8, and can move richardson's noise gate between nan and a number.
ORDER_RTOL = 1e-6
DENSE_RTOL = 1e-9  # dense vs tridiagonal solver on the same matrix
ND_RTOL = 1e-8
DENSE_SAMPLE = 4  # planar channels re-solved densely per call
DENSE_ND_LIMIT = 2000  # largest n=3 problem diagonalized densely
EIGSH_TOL = 1e-12


def _is_float_token(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return "e" in tok or tok.lower() in ("nan", "inf", "-inf")


def close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def rows_by_channel(table: str) -> dict:
    """Data rows grouped by their (l1, l2) label tokens, in table order."""
    out = {}
    for line in table.splitlines():
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        out.setdefault(f"{tok[1]},{tok[2]}", []).append(tok)
    return out


def _token_match(g: str, w: str, rtol: float, nan_flip: bool) -> bool:
    if not _is_float_token(w):
        return g == w
    if not _is_float_token(g):
        return False
    a, b = float(g), float(w)
    if nan_flip and math.isnan(a) != math.isnan(b):
        return True
    return close(a, b, rtol)


def _rows_match(got, want) -> bool:
    """Rows of one channel agree; an `order` row may flip between nan and a number."""
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        order = w_row[3] == "order"
        rtol = ORDER_RTOL if order else STORED_RTOL
        if not all(_token_match(g, w, rtol, order) for g, w in zip(g_row, w_row)):
            return False
    return True


def channel_keys(config: dict) -> list:
    """Manifest keys ("l1,l2") of the channels a config lists."""
    chans = config["channels"]
    if isinstance(chans, dict):
        lo, hi = chans["square"]
        return [f"{m},{n}" for m in range(lo, hi + 1) for n in range(lo, hi + 1)]
    return [f"{float(a)},{float(b)}" for a, b in chans]


def classify(key: str) -> str:
    m, n = (int(v) for v in key.split(","))
    lo, hi = abs(n - m), abs(n + m)
    if lo < hi:
        return "discrete-capable"
    return "continuous-only" if lo > hi else "marginal"


# -- stored references --------------------------------------------------------


def strip_seed(config: dict) -> dict:
    return {k: v for k, v in config.items() if k != "seed"}


def load_stored(workload: str) -> list:
    path = os.path.join(REFS, f"{workload}.json.gz")
    if not os.path.exists(path):
        return []
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def find_stored(entries, call_name: str, config: dict, seed: int):
    """Stored table for this call, or None when this seed has none.

    An entry with seed null applies to every seed: make_refs.py stores one
    only for configs whose output does not read the seed.
    """
    for entry in entries:
        if entry["call"] != call_name or entry["config"] != strip_seed(config):
            continue
        if entry["seed"] is None or entry["seed"] == seed:
            return entry["table"]
    return None


def stored_mismatches(table: str, ref_table: str, skip) -> set:
    got, want = rows_by_channel(table), rows_by_channel(ref_table)
    bad = set()
    for key in set(got) | set(want):
        if key in skip:
            continue
        if key not in got or key not in want or not _rows_match(got[key], want[key]):
            bad.add(key)
    return bad


# -- dense planar oracle ------------------------------------------------------


def dense_lowest(cfg, channel, count: int) -> np.ndarray:
    """Lowest eigenvalues of K u = E P u on the base grid, dense."""
    from affbody.hamiltonians import assemble_2d_channel

    op = assemble_2d_channel(cfg.kind, cfg.params, channel, cfg.grid1d, cfg.dil, cfg.shear)
    kdiag, koff, P = op.tridiagonal_weighted()
    K = np.diag(kdiag) + np.diag(koff, 1) + np.diag(koff, -1)
    return scipy.linalg.eigh(
        K, np.diag(P), subset_by_index=[0, count - 1], eigvals_only=True
    )


def _level0_values(command: str, rows: list, count: int) -> list:
    if command == "run":
        return [float(r[4]) for r in rows[:count]]
    if command == "scan-threshold":
        return [float(rows[0][5])]
    level0 = [r for r in rows if r[3] == "level-0"]
    return [float(v) for v in level0[0][5:]] if level0 else []


def dense_mismatches(
    command: str, config: dict, table: str, seed: int, skip, sample_size: int = DENSE_SAMPLE
) -> set:
    """Channels of a seed-chosen sample whose level-0 values miss the dense solve."""
    from affbody.cli import parse_config

    cfg = parse_config(config)
    rows = rows_by_channel(table)
    keys = [k for k in channel_keys(config) if k not in skip]
    sample = random.Random(seed).sample(keys, min(sample_size, len(keys)))
    bad = set()
    for key in sample:
        want_n = 1 if command == "scan-threshold" else cfg.count
        got = _level0_values(command, rows.get(key, []), want_n)
        channel = tuple(int(v) for v in key.split(","))
        want = dense_lowest(cfg, channel, want_n)
        if len(got) != want_n or not all(close(g, w, DENSE_RTOL) for g, w in zip(got, want)):
            bad.add(key)
    return bad


def class_mismatches(table: str) -> set:
    return {key for key, rows in rows_by_channel(table).items() if rows[0][3] != classify(key)}


# -- n=3 oracle ---------------------------------------------------------------


def nd_key(config: dict, channel_key: str) -> str:
    p, g = config["params"], config["grid"]
    return (
        f"{config['model']}|I={p['I']},A={p['A']},B={p['B']}|"
        f"q=[{g['q_min']},{g['q_max']}]|N={g['npoints']}|{channel_key}"
    )


def nd_reference(config: dict, channel_key: str, count: int) -> np.ndarray:
    """Lowest eigenvalues of sqrt(P) H sqrt(P)^-1, which is Hermitian."""
    from affbody.hamiltonians import assemble_nd_channel
    from affbody.cli import parse_config

    cfg = parse_config(config)
    labels = tuple(float(v) for v in channel_key.split(","))
    op = assemble_nd_channel(cfg.kind, cfg.params, labels, cfg.gridnd)
    shape = op.shape
    size = int(np.prod(shape))
    root = np.broadcast_to(np.sqrt(op.weight)[..., None, None], shape).ravel()

    def matvec(x):
        x = np.asarray(x).reshape(-1)
        return root * op.apply((x / root).reshape(shape)).ravel()

    if size <= DENSE_ND_LIMIT:
        H = np.stack([matvec(col) for col in np.eye(size, dtype=complex)], axis=1)
        return scipy.linalg.eigvalsh(0.5 * (H + H.conj().T), subset_by_index=[0, count - 1])
    lin = scipy.sparse.linalg.LinearOperator((size, size), matvec=matvec, dtype=complex)
    v0 = np.random.default_rng(0).normal(size=size).astype(complex)
    vals = scipy.sparse.linalg.eigsh(
        lin, k=count, which="SA", tol=EIGSH_TOL, v0=v0, ncv=max(4 * count, 24),
        return_eigenvectors=False,
    )
    return np.sort(vals.real)


def load_nd() -> dict:
    path = os.path.join(REFS, "nd-eigenvalues.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def nd_mismatches(config: dict, table: str, stored: dict, skip) -> set:
    count = config["count"]
    rows = rows_by_channel(table)
    bad = set()
    for key in channel_keys(config):
        if key in skip:
            continue
        want = stored.get(nd_key(config, key))
        if want is None:
            want = nd_reference(config, key, count)
        got = rows.get(key, [])
        ok = (
            len(got) == count
            and [r[3] for r in got] == [str(i) for i in range(count)]
            and all(close(float(r[4]), w, ND_RTOL) for r, w in zip(got, want))
        )
        if not ok:
            bad.add(key)
    return bad
