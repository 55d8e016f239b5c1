"""Command line entry points.

Subcommands mirror the library operations: fit-rho, fit-clicks, recommend,
eval-kl, search-ordering, and experiment <kind>.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .clicking import recommend_all
from .evaluation import (
    EXACT_STUDY_CAP,
    default_sigma,
    iterative_search,
    ordering_kl,
    reference_profile,
)
from .experiments import ExperimentConfig, cp_consensus, run_experiment
from .io import emit, load_clicks, load_rankings, save_rankings
from .perms import adjacent_swaps, as_ranking, ordering_of, v_set
from .pseudo import (
    DEFAULT_ALPHA_GRID,
    PseudoConfig,
    estimate_alpha_full,
    estimate_rho_hat,
    pseudo_clicking,
    sample_rho,
)


_ALPHA_REQUIRED = "Mallows scale (required)"


def _add_common(p: argparse.ArgumentParser, alpha_help: str) -> None:
    p.add_argument("--alpha", type=float, default=None, help=alpha_help)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)


def _resolve_alpha_sigma(data, args, rng) -> tuple[float, float]:
    alpha = args.alpha
    if alpha is None:
        alpha = estimate_alpha_full(data, DEFAULT_ALPHA_GRID, rng=rng)
        print(f"estimated alpha = {alpha}")
    sigma = args.sigma
    if sigma is None:
        sigma = default_sigma(data, alpha, rng=rng)
        print(f"selected sigma = {sigma}")
    return alpha, sigma


def _report_fit(ss, output, what: str) -> int:
    """Print a fit's consensus and wall clock, and write its ``what`` to ``output`` when given."""
    print(f"consensus: {','.join(map(str, cp_consensus(ss)))}")
    print(f"wall_clock_s: {ss.wall_clock:.4f}")
    if output:
        save_rankings(ss.samples, output)
        print(f"wrote {len(ss.samples)} {what} to {output}")
    return 0


def _cmd_fit_rho(args) -> int:
    data = load_rankings(args.input)
    rng = np.random.default_rng(args.seed)
    alpha, sigma = _resolve_alpha_sigma(data, args, rng)
    ss = sample_rho(data, PseudoConfig(alpha, sigma, args.samples, seed=args.seed))
    return _report_fit(ss, args.output, "samples")


def _fit_clicks(args):
    """The steps ``fit-clicks`` and ``recommend`` share: require --alpha, load
    the clicks and run the alternating sampler."""
    if args.alpha is None:
        raise SystemExit(f"{args.command} requires --alpha (see estimate_alpha_clicks)")
    clicks = load_clicks(args.input)
    cfg = PseudoConfig(args.alpha, args.sigma, args.samples, seed=args.seed)
    return clicks, *pseudo_clicking(clicks, cfg, warmup=args.warmup)


def _cmd_fit_clicks(args) -> int:
    _, rho_ss, _ = _fit_clicks(args)
    return _report_fit(rho_ss, args.output, "consensus samples")


def _cmd_recommend(args) -> int:
    if args.k < 1:
        raise ValueError(f"k must be at least 1, got {args.k}")
    clicks, _, user_samples = _fit_clicks(args)
    recs = recommend_all(user_samples, clicks, args.k)
    out = sys.stdout
    if args.output:
        out = open(args.output, "w")
    try:
        print("user,item,probability", file=out)
        for j, user_recs in enumerate(recs):
            for item, prob in user_recs:
                print(f"{j + 1},{item},{prob:.6f}", file=out)
    finally:
        if args.output:
            out.close()
            print(f"wrote recommendations to {args.output}")
    return 0


def _cmd_eval_kl(args) -> int:
    if args.alpha is None:
        raise SystemExit("eval-kl requires --alpha")
    data = load_rankings(args.input)
    rng = np.random.default_rng(args.seed)
    ranking = as_ranking([int(v) for v in args.ordering.split(",")])
    if ranking.size != data.n_items:
        raise ValueError(
            f"ordering names {ranking.size} items but the data has {data.n_items}"
        )
    reference = reference_profile(data, args.alpha, rng)
    if data.n_items <= EXACT_STUDY_CAP:
        draws, mode = None, "exact"
    else:
        draws, mode = args.samples, f"sampled({args.samples})"
    kl = ordering_kl(data, args.alpha, ordering_of(ranking), reference, draws, rng)
    print(f"marginal_kl: {kl:.6f} [{mode}]")
    return 0


def _cmd_search_ordering(args) -> int:
    if args.alpha is None:
        raise SystemExit("search-ordering requires --alpha")
    data = load_rankings(args.input)
    rng = np.random.default_rng(args.seed)
    rho_hat = estimate_rho_hat(data)
    init = adjacent_swaps(v_set(rho_hat).sample(rng), data.n_items, rng)
    trace = iterative_search(
        data, args.alpha, init, max_iters=args.iters,
        eval_mode=args.mode, draws=args.samples, rng=rng,
    )
    best = trace.best_ranking
    print(f"best_ordering_ranking: {','.join(map(str, best))}")
    print(f"best_marginal_kl: {trace.best_kl:.6f}")
    print(f"footrule_to_v_set: {int(trace.v_distances[trace.best_index])}")
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    if args.kind is not None and args.kind != cfg.kind:
        raise SystemExit(f"config kind {cfg.kind!r} disagrees with argument {args.kind!r}")
    table = run_experiment(cfg)
    out_dir = Path(cfg.output_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{cfg.kind}-{cfg.hash()}"
    emit(table, "csv", stem.with_suffix(".csv"))
    emit(table, "json", stem.with_suffix(".json"))
    print(f"wrote {len(table)} rows to {stem}.csv and {stem}.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pseudomallows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-rho", help="sample the consensus from full rankings")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="CSV path for the drawn samples")
    _add_common(p, "Mallows scale; estimated from the data when omitted")
    p.add_argument("--sigma", type=float, default=None, help="ordering jitter; rule-based default when omitted")
    p.set_defaults(func=_cmd_fit_rho)

    p = sub.add_parser("fit-clicks", help="sample the consensus from click data")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--warmup", type=int, default=10)
    _add_common(p, _ALPHA_REQUIRED)
    p.add_argument("--sigma", type=float, default=0.0, help="ordering jitter (default 0)")
    p.set_defaults(func=_cmd_fit_clicks)

    p = sub.add_parser("recommend", help="top-k recommendations from click data")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--warmup", type=int, default=10)
    _add_common(p, _ALPHA_REQUIRED)
    p.add_argument("--sigma", type=float, default=0.0, help="ordering jitter (default 0)")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("eval-kl", help="marginal KL of one ordering vs the exact posterior")
    p.add_argument("--input", required=True)
    p.add_argument("--ordering", required=True, help="ordering-ranking, e.g. 2,1,3")
    _add_common(p, _ALPHA_REQUIRED)
    p.set_defaults(func=_cmd_eval_kl)

    p = sub.add_parser("search-ordering", help="iterative ordering search")
    p.add_argument("--input", required=True)
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    _add_common(p, _ALPHA_REQUIRED)
    p.set_defaults(func=_cmd_search_ordering)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("kind", nargs="?", default=None, help="optional sanity check against the config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
