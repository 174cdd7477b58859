#!/usr/bin/env python3
"""Regenerate the frozen inputs of the benchmark.

    python3 perfbench/make_inputs.py             # reference.json
    python3 perfbench/make_inputs.py --policy    # policy.json, then reference.json

policy.json is the guide checkpoint read by plan-corridor. It comes from
``train(TrainConfig(**POLICY_TRAIN))``, the acceptance-test training
recipe with a 16-unit hidden layer so the committed file stays small.
It is frozen so that trainer changes cannot move plan-corridor;
regenerate it only on purpose, together with reference.json.

reference.json holds, for both plan workloads at REFERENCE_SEED, each
instance's ``expanded_nodes`` and ``fuel_kg`` as planned by the commit
that wrote it. The benchmark checks them whenever it runs that seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

POLICY_TRAIN = dict(seed=7, instances=2_000, rollout_episodes=2,
                    signed_progress=True, hidden=16)


def write_policy(path: Path) -> None:
    from skyroute.guide import GuideConfig, save_checkpoint
    from skyroute.trainer import TrainConfig, train

    cfg = TrainConfig(**POLICY_TRAIN)
    params, _log = train(cfg)
    save_checkpoint(params, GuideConfig(n=cfg.n_waypoints, guide_kind="policy"),
                    str(path))


def write_reference(path: Path) -> None:
    import workloads
    from skyroute import harness

    reference = {}
    for name in ("plan-corridor", "plan-full"):
        wl = workloads.build(name, workloads.REFERENCE_SEED)
        entries = {}
        for inst in wl.plans:
            doc = harness.plan(inst.request)
            entries[inst.label] = {
                "expanded_nodes": doc["search"]["expanded_nodes"],
                "fuel_kg": doc["totals"]["fuel_kg"],
            }
            print(f"{name} {inst.label}: {entries[inst.label]}")
        reference[name] = entries
    with open(path, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--policy", action="store_true",
                   help="retrain and overwrite the frozen checkpoint first")
    args = p.parse_args()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import workloads
    if args.policy:
        write_policy(workloads.POLICY_CHECKPOINT)
    write_reference(workloads.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
