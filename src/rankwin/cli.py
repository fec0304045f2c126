"""Command-line entry points.

Subcommands cover the full workflow: ``gen`` writes a synthetic dataset,
``train`` fits the regressors, ``build-refdb`` tables the reference pairs,
``eval`` scores a split, ``simulate`` runs oracle-driven window dynamics,
``sweep`` grids over scales, and ``inspect`` summarizes a run directory.
"""

from __future__ import annotations

import argparse
import logging
import sys

from rankwin.data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from rankwin.errors import RankwinError
from rankwin.experiments import (ExperimentManifest, eval_report, file_digest,
                                 inspect_run, read_manifest, run_build_refdb,
                                 run_eval, run_simulate, run_sweep, run_train)
from rankwin.windows import RankRange

log = logging.getLogger("rankwin")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="dataset csv path")
    parser.add_argument("--out-dir", required=True, help="run directory")


def _add_manifest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", help="reuse an existing manifest json verbatim")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("ari", "geo"), default="geo")
    parser.add_argument("--tau", type=float, default=0.1)
    parser.add_argument("--partition", choices=("golden5", "equal3", "none"),
                        default="golden5")
    parser.add_argument("--scheme", choices=("min", "max", "random"), default="min")
    parser.add_argument("--scheme-seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--max-iter", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--batch-size", type=int, default=18)
    parser.add_argument("--lr", type=float, default=1e-4)
    parser.add_argument("--alpha", type=int, default=6)


def _manifest_from_args(args: argparse.Namespace) -> ExperimentManifest:
    if args.manifest:
        with open(args.manifest) as fh:
            return ExperimentManifest.from_json(fh.read())
    dataset = load_dataset(args.dataset)
    return ExperimentManifest(
        dataset_digest=file_digest(args.dataset),
        domain_lo=dataset.rank_domain.lo, domain_hi=dataset.rank_domain.hi,
        scale_kind=args.scale, tau=args.tau, partition=args.partition,
        alpha=args.alpha, epochs=args.epochs, batch_size=args.batch_size,
        lr=args.lr, seed=args.seed, scheme=args.scheme,
        scheme_seed=args.scheme_seed, k=args.k, max_iter=args.max_iter,
        oracle_noise_std=getattr(args, "noise_std", 0.0))


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
    spec = SyntheticSpec(n=args.n, rank_domain=RankRange(*args.domain),
                         feature_dim=args.feature_dim,
                         nonlinearity=args.nonlinearity,
                         noise_std=args.noise_std, hetero=args.hetero,
                         seed=args.seed)
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


def _cmd_eval(args: argparse.Namespace) -> int:
    values = run_eval(args.dataset, args.out_dir, split=args.split,
                      scheme=args.scheme, scheme_seed=args.scheme_seed)
    sys.stdout.write(eval_report(read_manifest(args.out_dir).run_id, args.split, values))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args(args)
    values = run_simulate(args.dataset, manifest, args.out_dir, split=args.split)
    sys.stdout.write(eval_report(manifest.run_id, args.split, values))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _manifest_from_args(args)
    path = run_sweep(args.dataset, args.out_dir, base, args.cells, split=args.split)
    log.info("wrote %s", path)
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return 0


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
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--domain", type=_rank_bounds, default="1:80", help="lo:hi rank range")
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--nonlinearity", choices=("linear", "log", "smoothstep"),
                   default="log")
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--hetero", action="store_true")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--scheme", choices=("min", "max", "random"), default=None,
                   help="override the manifest's selection scheme")
    p.add_argument("--scheme-seed", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="oracle-driven window dynamics")
    _add_common(p)
    _add_manifest_flags(p)
    p.add_argument("--noise-std", type=float, default=0.0,
                   help="oracle estimate noise")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="train+eval a grid of (scale, tau) cells")
    _add_common(p)
    _add_manifest_flags(p)
    p.add_argument("--cells", type=_cells, required=True,
                   help="comma list of scale:tau, e.g. geo:0.1,ari:3")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
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
    except (RankwinError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
