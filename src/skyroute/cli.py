"""Command line front-end: plan, train, bench-fwd, bench-width.

Exit codes: 0 success, 1 I/O error, 2 domain/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, SkyrouteError
from .guide import GUIDE_KINDS
from .harness import (DEFAULT_DIMS, DEFAULT_WIDTH, PlanRequest, bench_fwd,
                      bench_width, default_requests, plan, resolve_point,
                      write_bench_csv)
from .perfmodel import DEFAULT_SUBSTEPS, AircraftSpec, default_spec
from .trainer import TrainConfig, train, write_training_log


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".", help="directory for all outputs")


def _add_request_args(p: argparse.ArgumentParser, weather: str) -> None:
    """The PlanRequest options that plan and the sweeps share."""
    p.add_argument("--fwd", type=int, default=DEFAULT_DIMS[0],
                   help="forward rows I")
    p.add_argument("--cols", type=int, default=DEFAULT_DIMS[1],
                   help="lateral columns J")
    p.add_argument("--levels", type=int, default=DEFAULT_DIMS[2],
                   help="altitude levels H")
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH,
                   help="corridor width w in columns")
    p.add_argument("--guide", choices=GUIDE_KINDS,
                   default="great_circle")
    p.add_argument("--checkpoint", default=None,
                   help="policy checkpoint (required with --guide policy)")
    p.add_argument("--weather", default=weather,
                   help="uniform | jet | csv:<path>")
    p.add_argument("--substeps", type=int, default=DEFAULT_SUBSTEPS)


def _request_kwargs(args) -> dict:
    return dict(dims=(args.fwd, args.cols, args.levels), width=args.width,
                guide_kind=args.guide, checkpoint=args.checkpoint,
                weather=args.weather, substeps=args.substeps, seed=args.seed)


def _request_from_args(args) -> PlanRequest:
    aircraft = (AircraftSpec.from_json(args.aircraft) if args.aircraft
                else default_spec())
    return PlanRequest(origin=resolve_point(args.origin),
                       destination=resolve_point(args.destination),
                       aircraft=aircraft, unconstrained=args.unconstrained,
                       **_request_kwargs(args))


def _cmd_plan(args) -> int:
    doc = plan(_request_from_args(args))
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "route.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")
    print(f"fuel {doc['totals']['fuel_kg']:.2f} kg, "
          f"expanded {doc['search']['expanded_nodes']} nodes, "
          f"wrote {out_path}")
    return 0


def _bench_requests(args) -> list[PlanRequest]:
    if not args.routes:
        return default_requests(**_request_kwargs(args))
    reqs = []
    for pair in args.routes:
        codes = pair.split(":")
        if len(codes) != 2:
            raise ConfigError(
                f"--routes item {pair!r} is not ORIGIN:DESTINATION")
        reqs.append(PlanRequest(origin=resolve_point(codes[0]),
                                destination=resolve_point(codes[1]),
                                **_request_kwargs(args)))
    return reqs


def _cmd_bench(args) -> int:
    rows = args.sweep(_bench_requests(args), args.values,
                      repetitions=args.repetitions)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"{args.sweep.__name__}.csv")
    write_bench_csv(rows, out_path)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def _cmd_train(args) -> int:
    with open(args.config, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except ValueError as exc:
            raise ConfigError(f"--config {args.config}: {exc}") from exc
    if args.seed is not None and isinstance(raw, dict):
        raw.setdefault("seed", args.seed)
    cfg = TrainConfig.from_dict(raw)
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt = os.path.join(args.out_dir, "policy.json")
    _params, log = train(cfg, progress_sink=print, checkpoint_path=ckpt)
    log_path = os.path.join(args.out_dir, "training_log.csv")
    write_training_log(log.rows, log_path)
    print(f"wrote {ckpt} and {log_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyroute",
        description="Corridor-guided flight route optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a single route")
    p.add_argument("--origin", required=True,
                   help="airport code or 'lat,lon[,alt]'")
    p.add_argument("--destination", required=True,
                   help="airport code or 'lat,lon[,alt]'")
    _add_request_args(p, weather="uniform")
    p.add_argument("--aircraft", default=None, help="aircraft spec JSON path")
    p.add_argument("--unconstrained", action="store_true",
                   help="skip guide/corridor; search the full lattice")
    _add_common(p)
    p.set_defaults(func=_cmd_plan)

    for name, sweep, flag in (("bench-fwd", bench_fwd, "--fwd-list"),
                              ("bench-width", bench_width, "--w-list")):
        p = sub.add_parser(name, help=f"sensitivity sweep ({flag})")
        p.add_argument("--routes", nargs="*", default=None,
                       help="route pairs like FRA:CDG (default: shipped set)")
        _add_request_args(p, weather="jet")
        p.add_argument("--repetitions", type=int, default=1)
        p.add_argument(flag, dest="values", type=int, nargs="*", default=None)
        _add_common(p)
        p.set_defaults(func=_cmd_bench, sweep=sweep)

    p = sub.add_parser("train", help="train the guide policy")
    p.add_argument("--config", required=True, help="TrainConfig JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_train)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SkyrouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
