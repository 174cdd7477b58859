"""Train a small guide policy and use it to plan a route.

Runs a desk-scale PPO training session (a few thousand sampled trips,
a couple of minutes on a laptop), saves the checkpoint, and then plans
a route with the learned policy as the corridor guide, comparing it to
the great-circle baseline guide.

Run with:  python3 demos/train_guide.py
"""

import os
import tempfile

from skyroute import (GeoPoint, PlanRequest, TrainConfig, plan, train,
                      trainer, write_training_log)
from skyroute.guide import GuideConfig, save_checkpoint

ORIGIN = GeoPoint(48.35, 11.79, 10_000)
DEST = GeoPoint(41.30, 2.08, 10_000)


def main():
    cfg = TrainConfig(seed=7, instances=2_000, rollout_episodes=2,
                      signed_progress=True)
    print(f"training: {cfg.instances} instances, seed {cfg.seed}; the "
          f"paper's fixed table: lr {trainer.LEARNING_RATE}, "
          f"clip {trainer.CLIP_RANGE}, {trainer.EPOCHS_PER_UPDATE} epochs of "
          f"minibatch {trainer.MINIBATCH_SIZE}, discount {trainer.DISCOUNT}, "
          f"GAE lambda {trainer.GAE_LAMBDA}")
    params, log = train(cfg, progress_sink=_every_100th())

    first = log.episode_final_dist[:200]
    last = log.episode_final_dist[-200:]
    print(f"\nmean final distance: first decile "
          f"{sum(first) / len(first) / 1000:.0f} km, last decile "
          f"{sum(last) / len(last) / 1000:.0f} km")

    out_dir = tempfile.mkdtemp(prefix="skyroute_demo_")
    ckpt = os.path.join(out_dir, "policy.json")
    save_checkpoint(params, GuideConfig(n=cfg.n_waypoints,
                                        guide_kind="policy"), ckpt)
    write_training_log(log.rows, os.path.join(out_dir, "training_log.csv"))
    print(f"checkpoint and log written to {out_dir}")

    base = dict(origin=ORIGIN, destination=DEST, weather="jet", seed=7,
                substeps=1)
    gc = plan(PlanRequest(**base, guide_kind="great_circle"))
    po = plan(PlanRequest(**base, guide_kind="policy", checkpoint=ckpt))
    print(f"\nMunich -> Barcelona, w=5 corridor:")
    print(f"  great-circle guide: {gc['totals']['fuel_kg']:.2f} kg, "
          f"{gc['search']['expanded_nodes']} expanded")
    print(f"  policy guide:       {po['totals']['fuel_kg']:.2f} kg, "
          f"{po['search']['expanded_nodes']} expanded")


def _every_100th():
    counter = {"n": 0}

    def sink(line):
        counter["n"] += 1
        if counter["n"] % 100 == 0:
            print(line)
    return sink


if __name__ == "__main__":
    main()
