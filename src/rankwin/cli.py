"""Command-line entry points.

Subcommands cover the full workflow: ``gen`` writes a synthetic dataset,
``train`` fits the regressors, ``build-refdb`` tables the reference pairs,
``eval`` scores a split, ``simulate`` runs oracle-driven window dynamics,
``sweep`` grids over scales, and ``inspect`` summarizes a run directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys

from rankwin.data import (NONLINEARITIES, SPLITS, SyntheticSpec, generate_synthetic,
                          load_dataset, save_dataset)
from rankwin.errors import RankwinError
from rankwin.experiments import (PARTITIONS, SCALES, SCHEMES, ExperimentManifest,
                                 file_digest, inspect_run, run_build_refdb, run_eval,
                                 run_simulate, run_sweep, run_train)
from rankwin.windows import RankRange

MANIFEST_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentManifest))
SPEC_FIELDS = frozenset(f.name for f in dataclasses.fields(SyntheticSpec))

log = logging.getLogger("rankwin")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="dataset csv path")
    parser.add_argument("--out-dir", required=True, help="run directory")


def _add_manifest_flags(parser: argparse.ArgumentParser) -> None:
    """Flags named after manifest fields; a flag left out keeps the field's default."""
    parser.add_argument("--manifest", help="reuse an existing manifest json verbatim")
    flag = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    flag("--seed", type=int)
    flag("--scale", dest="scale_kind", choices=SCALES)
    flag("--tau", type=float)
    flag("--partition", choices=PARTITIONS)
    flag("--scheme", choices=SCHEMES)
    flag("--scheme-seed", type=int)
    flag("--k", type=int)
    flag("--max-iter", type=int)
    flag("--epochs", type=int)
    flag("--batch-size", type=int)
    flag("--lr", type=float)
    flag("--alpha", type=int)
    flag("--triplets-per-instance", type=int)


def _manifest_from_args(args: argparse.Namespace) -> ExperimentManifest:
    if args.manifest:
        with open(args.manifest) as fh:
            return ExperimentManifest.from_json(fh.read())
    dataset = load_dataset(args.dataset)
    settings = {name: value for name, value in vars(args).items() if name in MANIFEST_FIELDS}
    return ExperimentManifest(
        dataset_digest=file_digest(args.dataset),
        domain_lo=dataset.rank_domain.lo, domain_hi=dataset.rank_domain.hi, **settings)


def _rank_bounds(text: str) -> tuple[int, int]:
    """``lo:hi`` as two ints (argparse type); RankRange validates the order."""
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi integers, got {text!r}") from None
    return lo, hi


def _cells(text: str) -> list[tuple[str, float]]:
    """``scale:tau[,scale:tau...]`` as (scale, tau) pairs (argparse type)."""
    cells = []
    for cell in text.split(","):
        kind, _, tau = cell.partition(":")
        try:
            cells.append((kind, float(tau)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected scale:tau, got {cell!r}") from None
    return cells


def _cmd_gen(args: argparse.Namespace) -> int:
    settings = {name: value for name, value in vars(args).items() if name in SPEC_FIELDS}
    if "rank_domain" in settings:
        settings["rank_domain"] = RankRange(*settings["rank_domain"])
    spec = SyntheticSpec(**settings)
    save_dataset(generate_synthetic(spec), args.out)
    log.info("wrote %s", args.out)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args(args)
    run_train(args.dataset, manifest, args.out_dir)
    log.info("trained run %s into %s", manifest.run_id, args.out_dir)
    return 0


def _cmd_build_refdb(args: argparse.Namespace) -> int:
    path = run_build_refdb(args.dataset, args.out_dir)
    log.info("wrote %s", path)
    return 0


def _print_file(path: str) -> int:
    """Copy a report the command just wrote to stdout."""
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    run_eval(args.dataset, args.out_dir, split=args.split,
             scheme=args.scheme, scheme_seed=args.scheme_seed)
    return _print_file(os.path.join(args.out_dir, "metrics.txt"))


def _cmd_simulate(args: argparse.Namespace) -> int:
    run_simulate(args.dataset, _manifest_from_args(args), args.out_dir, split=args.split)
    return _print_file(os.path.join(args.out_dir, "metrics.txt"))


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _manifest_from_args(args)
    path = run_sweep(args.dataset, args.out_dir, base, args.cells, split=args.split)
    log.info("wrote %s", path)
    return _print_file(path)


def _cmd_inspect(args: argparse.Namespace) -> int:
    sys.stdout.write(inspect_run(args.out_dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankwin",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    # flags named after SyntheticSpec fields; a flag left out keeps the field's default
    flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--n", type=int)
    flag("--domain", dest="rank_domain", type=_rank_bounds, help="lo:hi rank range")
    flag("--feature-dim", type=int)
    flag("--nonlinearity", choices=NONLINEARITIES)
    flag("--noise-std", type=float)
    flag("--hetero", action="store_true")
    flag("--seed", type=int)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train global (and local) regressors")
    _add_common(p)
    _add_manifest_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("build-refdb", help="precompute the reference database")
    _add_common(p)
    p.set_defaults(func=_cmd_build_refdb)

    p = sub.add_parser("eval", help="score a split with a trained run")
    _add_common(p)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--scheme", choices=SCHEMES, default=None,
                   help="override the manifest's selection scheme")
    p.add_argument("--scheme-seed", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="oracle-driven window dynamics")
    _add_common(p)
    _add_manifest_flags(p)
    p.add_argument("--noise-std", dest="oracle_noise_std", type=float,
                   default=argparse.SUPPRESS, help="oracle estimate noise")
    p.add_argument("--split", choices=SPLITS, default="test")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="train+eval a grid of (scale, tau) cells")
    _add_common(p)
    _add_manifest_flags(p)
    p.add_argument("--cells", type=_cells, required=True,
                   help="comma list of scale:tau, e.g. geo:0.1,ari:3")
    p.add_argument("--split", choices=SPLITS, default="test")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("inspect", help="summarize a run directory")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    try:
        return args.func(args)
    except (RankwinError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
