"""Rewrite references.json: the sha256 of every output artifact per workload and seed.

    python3 perfbench/make_reference.py [--seeds 0-31]

run.py fails an invocation whose outputs differ from these digests by one
byte. Regenerate only in a change whose purpose is to alter output bytes,
and say there why they changed. Each output must pass run.py's invariants
before its digest is stored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    references = {}
    for w in run.WORKLOADS.values():
        work = os.path.join(run.WORK, "reference", w.name)
        references[w.name] = {}
        for seed in seeds:
            run.reset_dir(work)
            os.makedirs(os.path.join(work, "out"))
            run.setup(w, seed, work, repeats=1)
            log = os.path.join(work, "run.log")
            if run.invoke(run.hieval_argv(w.command), work, log).exit_code != 0:
                print(f"{w.name} seed {seed}: hieval failed; see {log}", file=sys.stderr)
                return 1
            problems = run.check_outputs(w, work, run.digests(work, run.input_files(work)))
            if problems:
                print(f"{w.name} seed {seed}: " + "; ".join(problems), file=sys.stderr)
                return 1
            references[w.name][str(seed)] = run.digests(work, w.outputs)
            print(f"{w.name} seed {seed}: ok", flush=True)
    with open(run.REFERENCES, "w") as f:
        json.dump(references, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
