"""Record ``reference.json``: each workload's checked outputs per input seed.

Run from the repository root (takes several minutes):

    python3 perfbench/record_reference.py

For ``decode`` it also picks the weight seeds: the first ``N_INPUT_SEEDS``
seeds whose untrained model emits no EOS early, so that every decode job
does the same fixed work.  Re-record only when a change is meant to alter
the checked outputs (fine-tune losses, greedy predictions, TransE hinge or
hits@10), and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  (pins BLAS threads and puts src/ on the path)
import workloads


def _observe(wl, seed: int) -> tuple[dict, dict]:
    log = workloads.JobLog()
    wl.job(wl.setup(seed), log)
    return log.obs, log.failures


def main() -> int:
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    n = workloads.N_INPUT_SEEDS
    reference = {}
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as scratch:
        for name in workloads.WORKLOADS:
            if name == "decode":
                wl = workloads.make(name, Path(scratch), {"weight_seeds": range(10 * n)})
                seeds, digests = [], {}
                for w in range(10 * n):
                    obs, failures = _observe(wl, w)
                    if failures and all(m == workloads.EARLY_STOP for m in failures.values()):
                        print(f"decode weight seed {w}: emits EOS early, skipped", flush=True)
                        continue
                    if failures:
                        print(f"decode weight seed {w}: {failures}", file=sys.stderr)
                        return 1
                    digests[str(len(seeds))] = obs
                    seeds.append(w)
                    print(f"decode input seed {len(seeds) - 1} (weights {w}): {obs}", flush=True)
                    if len(seeds) == n:
                        break
                reference[name] = {"weight_seeds": seeds, "digests": digests}
                continue
            wl = workloads.make(name, Path(scratch), {})
            per_seed = {}
            for seed in range(n):
                obs, failures = _observe(wl, seed)
                if failures:
                    print(f"{name} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                per_seed[str(seed)] = obs
                print(f"{name} seed {seed}: {obs}", flush=True)
            reference[name] = per_seed
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
