"""Command-line entry point.

Subcommands:
  simulate SCENE --frames N --out DIR   run a scene file or preset:NAME
  sweep-mu SCENE --mu a,b,... --out F   friction sweep, writes mu,mean_speed CSV
  presets list | write NAME --out DIR   inspect or materialize built-in scenes
"""

import argparse
import csv
import logging
import sys

from . import driver, presets
from .errors import TetMPMError
from .scene import parse_scene, write_scene


def _load(spec: str):
    resolved = presets.resolve_scene(spec)
    return resolved if not isinstance(resolved, str) else parse_scene(resolved)


def _cmd_simulate(args) -> int:
    config = _load(args.scene)
    records = driver.run(config, args.frames, args.out)
    n_bad = sum(1 for d in records if not d.converged)
    print(f"{len(records)} steps -> {args.out} "
          f"({n_bad} step(s) hit the iteration cap)" if n_bad else
          f"{len(records)} steps -> {args.out}")
    return 0


def _cmd_sweep_mu(args) -> int:
    config = _load(args.scene)
    mus = [float(tok) for tok in args.mu.split(",") if tok.strip()]
    if not mus:
        raise TetMPMError("--mu needs at least one value")
    results = driver.sweep_mu(config, mus, frames=args.frames)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mu", "mean_speed"])
        for mu, speed, _ in results:
            w.writerow([repr(mu), repr(speed)])
    print(f"{len(results)} friction values -> {args.out}")
    return 0


def _cmd_presets(args) -> int:
    if args.action == "list":
        for name in sorted(presets.PRESETS):
            print(f"{name:15s} {presets.DESCRIPTIONS[name]} "
                  f"(default {presets.DEFAULT_FRAMES[name]} frames)")
        return 0
    if not args.name:
        raise TetMPMError("presets write needs a preset name")
    config = presets.preset(args.name)
    path = write_scene(config, args.out, name=args.name.replace("-", "_"))
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tetmpm",
                                description="implicit MPM with tet-level frictional contact")
    p.add_argument("--verbose", action="store_true", help="log per-step details")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scene and write snapshots")
    sim.add_argument("scene", help="scene file path or preset:NAME")
    sim.add_argument("--frames", type=int, default=100)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(fn=_cmd_simulate)

    sweep = sub.add_parser("sweep-mu", help="mean sliding speed per friction value")
    sweep.add_argument("scene", help="scene file path or preset:NAME")
    sweep.add_argument("--mu", required=True, help="comma-separated coefficients")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--frames", type=int, default=180)
    sweep.set_defaults(fn=_cmd_sweep_mu)

    pre = sub.add_parser("presets", help="list or materialize built-in scenes")
    pre.add_argument("action", choices=["list", "write"])
    pre.add_argument("name", nargs="?", help="preset name (for write)")
    pre.add_argument("--out", default=".", help="output directory (for write)")
    pre.set_defaults(fn=_cmd_presets)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except TetMPMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
