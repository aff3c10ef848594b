"""Command line interface.

Subcommands: check, realize, enumerate, count, sample, estimate, stats,
verify.  Words are read and written as compact bitstrings, ranges as
"a..b".  Exit codes: 0 success, 1 invalid input, 2 verification failure.
Identical arguments and seed give byte-identical output; the worker count
never changes results.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import enumeration, random_points, realization, sampler, words
from .geometry import PointConfig, _fraction_of_string, region_stats


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this CLI reserves 2 for failed
    # verification, so argument problems surface as exit code 1 instead.
    # argparse quotes the offending text whole, so the message is cut short.
    def error(self, message):
        raise _CliError(message if len(message) <= 160 else message[:160] + " ...")


def _parse_range(text: str) -> range:
    """The ``type`` of a range option: "a" or "a..b" as the range of ints a..b, which must not be empty."""
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need an integer or a range a..b, got {words._shown(text)}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {words._shown(text)}")
    return values


def _cmd_check(args) -> int:
    w = words.word_from_string(args.word)
    sig = words.signature(w)
    realizable = words.is_realizable(w)
    print(
        f"realizable={'true' if realizable else 'false'} "
        f"signature={words.word_to_string(sig)}"
    )
    return 0


def _cmd_realize(args) -> int:
    w = words.word_from_string(args.word)
    config = realization.realize(w)
    print(json.dumps({"n": config.n, "positions": config.to_strings()}))
    return 0


def _cmd_enumerate(args) -> int:
    for n in args.n:
        words._check_int(n, "n", 3, enumeration.MAX_ENUMERATION_N)
    for n in args.n:
        spec = f"0{2 * n}b"
        chunks = enumeration._bracelet_chunks(n) if args.bracelets else enumeration._word_chunks(n)
        for chunk in chunks:
            sys.stdout.write("".join(f"{x:{spec}}\n" for x in chunk.tolist()))
    return 0


def _cmd_count(args) -> int:
    for n in args.n:
        words._check_int(n, "n", 3, words.MAX_BRACELET_N)
    rows = []
    for n in args.n:
        rows.append(
            {
                "n": n,
                "words": enumeration.count_words(n),
                "bracelets": enumeration.count_bracelets(n),
            }
        )
    if args.format == "json":
        print(json.dumps(rows))
    else:
        print("n,words,bracelets")
        for row in rows:
            print(f"{row['n']},{row['words']},{row['bracelets']}")
    return 0


# The largest n of each ``sample --kind``, checked before anything is drawn.
_SAMPLE_MAX_N = {
    "word": sampler.MAX_WORD_N,
    "bracelet": words.MAX_BRACELET_N,
    "points": random_points.MAX_CONFIG_N,
}


def _cmd_sample(args) -> int:
    words._check_int(args.count, "--count", 0)
    words._check_int(args.n, "n", 3, _SAMPLE_MAX_N[args.kind])
    rng = random_points.batch_rng(args.seed, 0)
    if args.kind == "points":
        for _ in range(args.count):
            config = random_points.sample_uniform_config(args.n, rng)
            print(json.dumps([float(p) for p in config.positions]))
        return 0
    # blocks of the most letters one batch draw takes, each printed before the next is drawn
    draw, text = {
        "word": (sampler.sample_uniform_words, words.word_to_string),
        "bracelet": (sampler.sample_uniform_bracelets, str),
    }[args.kind]
    block = sampler.MAX_SAMPLE_LETTERS // args.n
    for start in range(0, args.count, block):
        sys.stdout.writelines(f"{text(x)}\n" for x in draw(args.n, min(block, args.count - start), rng))
    return 0


def _cmd_estimate(args) -> int:
    # n and trials first, before anything is built or drawn: pb's run-word bracelet costs O(n^2)
    pb = args.stat == "pb"
    words._check_int(args.n, "n", 3, random_points.MAX_PACKED_N if pb else random_points.MAX_GEOMETRY_N)
    words._check_int(args.trials, "--trials", 2, random_points.MAX_TRIALS)
    if pb:
        target = words.canonical_bracelet(words.run_word(args.n))
        result = random_points.estimate_bracelet_prob(
            args.n, target, args.trials, args.seed, workers=args.workers
        )
    else:
        result = random_points.estimate_region_stats(
            args.n, args.trials, args.seed, workers=args.workers
        )[args.stat]
    payload = {"stat": args.stat, "n": args.n, **result.to_json_dict()}
    if args.format == "json":
        # every trial agreeing and missing the target makes z infinite, which standard JSON lacks
        if not math.isfinite(payload["z"]):
            payload["z"] = None
        print(json.dumps(payload))
    else:
        keys = list(payload)
        print(",".join(keys))
        print(",".join(str(payload[k]) for k in keys))
    return 0


def _cmd_stats(args) -> int:
    config = PointConfig.from_strings(args.positions.split(","))
    grid = [_fraction_of_string(t) for t in args.t_grid.split(",")] if args.t_grid else []
    print(json.dumps(region_stats(config, grid).to_json_dict()))
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    failed = 0
    for result in acceptance.run_all(args.criteria):
        print(result.line())
        sys.stdout.flush()
        failed += not result.passed
    print(f"{'FAILED' if failed else 'OK'}: {failed} criteria failed")
    return 2 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bisector-words", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="signature and realizability of a word")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("realize", help="exact-rational configuration realizing a word")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("enumerate", help="list realizable words (or bracelets)")
    p.add_argument("--n", type=_parse_range, required=True, help="single value or range a..b")
    p.add_argument("--bracelets", action="store_true", help="only each class's canonical (least) word")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("count", help="word and bracelet counts as a table")
    p.add_argument("--n", type=_parse_range, required=True, help="single value or range a..b")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("sample", help="draw words, bracelets or point configurations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--kind", choices=("word", "bracelet", "points"), default="word")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("estimate", help="Monte Carlo estimate against the closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", choices=("h2", "l0", "l1", "l2", "le", "pb"), required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("stats", help="region statistics of a point configuration")
    p.add_argument("--positions", required=True, help="comma list of decimals or p/q rationals")
    p.add_argument("--t-grid", default="", help="comma list of arc fractions in [0,1]")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--criteria", type=_parse_range, help="single value or range a..b (default: all)")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
