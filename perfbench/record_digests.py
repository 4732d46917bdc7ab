"""Record each workload's output digest for the given seeds in digests.json.

The benchmark counts a digest that differs from the recorded one as
failed operations, so re-record only for a change whose outputs are meant
to change.  From the repository root:

    python3 perfbench/record_digests.py 0 1 2
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from random import Random

import run


def corpus_digest(wl, seed: int) -> str:
    """One untimed pass; refuses to record outputs the oracles reject."""
    digest = hashlib.sha256()
    for i, case in enumerate(wl.corpus(Random(seed), run.CORPUS_SIZE)):
        out, problems, *_ = run.run_case(wl, case, run.NullTracer())
        if problems:
            raise SystemExit(f"{wl.name} seed {seed} instance {i} failed: {problems[0]}")
        digest.update(run.output_record(wl, out))
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or [1]
    warnings.simplefilter("error")
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name, wl in WORKLOADS.items():
        for seed in seeds:
            table.setdefault(name, {})[str(seed)] = corpus_digest(wl, seed)
            print(name, seed, table[name][str(seed)], flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
