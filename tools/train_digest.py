#!/usr/bin/env python3
"""One SHA-256 per training config of its checkpoint, log rows and series.

Trains each config with ``trainer.train`` and prints a line per config:
its name, its ``TrainConfig`` overrides, and the SHA-256 over the bytes of
the checkpoint ``train`` writes, the JSON of ``log.rows`` and the JSON of
the per-episode reward and final-distance series. A run that raises a
``SkyrouteError`` prints its error class and message instead. Two
checkouts that print the same lines train the same policy, byte for byte.

The configs are the train benchmark's ``TrainConfig(seed=s, instances=88)``
for each ``--seeds`` value (``perfbench/workloads.py``) and the desk-scale
run of acceptance criteria 7 and 8 (``TRAIN_CFG`` in
``tests/test_acceptance.py``). ``--root`` picks the checkout whose
``src/`` is imported, so one copy of this script serves both sides:

    python3 tools/train_digest.py --seeds 0 1 > new.txt
    python3 tools/train_digest.py --root ../parent --seeds 0 1 > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

#: tests/test_acceptance.py's TRAIN_CFG.
DESK_SCALE = dict(seed=7, instances=2_000, rollout_episodes=2,
                  signed_progress=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--root", type=Path,
                   default=Path(__file__).resolve().parents[1],
                   help="checkout to import (default: this script's)")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from skyroute.errors import SkyrouteError
    from skyroute.trainer import TrainConfig, train

    configs = [("train", dict(seed=s, instances=88)) for s in args.seeds]
    configs.append(("desk-scale", DESK_SCALE))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "policy.json"
        for name, overrides in configs:
            try:
                _params, log = train(TrainConfig(**overrides),
                                     checkpoint_path=str(ckpt))
            except SkyrouteError as exc:
                digest = f"{type(exc).__name__}: {exc}"
            else:
                h = hashlib.sha256(ckpt.read_bytes())
                h.update(json.dumps([log.rows, log.episode_rewards,
                                     log.episode_final_dist]).encode())
                digest = h.hexdigest()
            print(name, json.dumps(overrides, sort_keys=True), digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
