"""Write the stored references that oracles.py compares against.

    python3 bench/make_refs.py

Run from the root of a checkout whose outputs are trusted.  Tables come
from the CLI itself.  The n=3 eigenvalues come from scipy ``eigsh`` on
the sqrt(P)-symmetrized operator, an independent solver; where the CLI
solves a channel, its eigenvalues must agree before anything is written.
"""

import gzip
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from affbody import cli  # noqa: E402
from workloads import matrix_channels, planar_sweep, study_verify  # noqa: E402

SHIPPED_SEEDS = (1, 2, 3)


def cli_table(call, workdir: str) -> tuple:
    path = os.path.join(workdir, f"{call.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(call.config, fh)
    rc = cli.main(call.argv(workdir))
    with open(os.path.join(workdir, call.config["outputs"]["table"]), encoding="utf-8") as fh:
        table = fh.read()
    return rc, table


def entry(call, seed, table) -> dict:
    return {"call": call.name, "seed": seed, "config": oracles.strip_seed(call.config), "table": table}


def write_tables(name: str, entries) -> None:
    with gzip.open(os.path.join(oracles.REFS, f"{name}.json.gz"), "wt", encoding="utf-8") as fh:
        json.dump(entries, fh)


def planar_refs(workdir: str) -> None:
    # the planar path never reads the seed: check that, then store one
    # table for every seed
    tables = []
    for seed in SHIPPED_SEEDS[:2]:
        (call,) = planar_sweep(seed)
        rc, table = cli_table(call, workdir)
        assert rc == 0, f"planar-sweep exited {rc}"
        tables.append(table)
    assert tables[0] == tables[1], "planar-sweep table depends on the seed"
    write_tables("planar-sweep", [entry(call, None, tables[0])])


def study_refs(workdir: str) -> None:
    entries = []
    for seed in SHIPPED_SEEDS:
        for call in study_verify(seed):
            if call.config is None:
                continue
            rc, table = cli_table(call, workdir)
            assert rc == 0, f"{call.name} seed {seed} exited {rc}"
            entries.append(entry(call, seed, table))
    write_tables("study-verify", entries)


def nd_refs(workdir: str) -> None:
    refs = {}
    for call in matrix_channels(SHIPPED_SEEDS[0]):
        config = call.config
        rc, table = cli_table(call, workdir)
        rows = oracles.rows_by_channel(table)
        for key in oracles.channel_keys(config):
            vals = oracles.nd_reference(config, key, config["count"])
            got = [float(r[4]) for r in rows.get(key, [])]
            if got:
                assert all(oracles.close(g, v, oracles.ND_RTOL) for g, v in zip(got, vals)), (
                    f"{key}: CLI {got} vs eigsh {list(vals)}"
                )
            refs[oracles.nd_key(config, key)] = [float(v) for v in vals]
            print(f"{call.name} {key}: {list(vals)} (CLI: {got or 'failed'})", file=sys.stderr)
    with open(os.path.join(oracles.REFS, "nd-eigenvalues.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    os.makedirs(oracles.REFS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE)) as workdir:
        planar_refs(workdir)
        study_refs(workdir)
        nd_refs(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
