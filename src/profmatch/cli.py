"""Command-line interface.

Verbs: generate, solve, enumerate, stats, space-report (alias: space),
oracle-check.  Exit codes: 0 success, 1 property violation found by
oracle-check, 2 usage, parse or file errors, 3 enumeration cap exceeded.
All randomness flows through explicit seeds; outputs go to stdout unless
--out is given, diagnostics to stderr only.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional

from .analytics import (
    batch_stats,
    generate_uniform,
    i1_rotation_profiles,
    space_report,
)
from .model import Instance, ParseError, format_instance, parse_instance, preprocess, profile_of
from .profiles import high_weight
from .rotations import find_rotations
from .solvers import (
    Criterion,
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    _Lattice,
    _flow_solution,
    enumerate_stable_matchings,
    matching_degree,
    oracle_exponential_flow,
    select_egalitarian,
    select_median,
    select_min_regret,
    select_sex_equal,
    solve,
)

CRITERION_TOKENS = [c.value for c in Criterion]


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not ASCII text (byte {exc.start})") from None
    warnings: list[str] = []
    inst = parse_instance(text, warnings)
    for w in warnings:
        print(f"warning: {path}: {w}", file=sys.stderr)
    return inst


def _original_pairs(pre: Instance, matching) -> list[tuple[int, int]]:
    pairs = [(pre.orig_men[m], pre.orig_women[w]) for m, w in matching]
    return sorted(pairs)


def cmd_generate(args) -> int:
    if args.men < 1 or args.women < 1:
        print("error: --men and --women must be at least 1", file=sys.stderr)
        return 2
    if not 0 < args.density <= 1:
        print("error: --density must lie in (0, 1]", file=sys.stderr)
        return 2
    inst = generate_uniform(args.men, args.women, args.density, args.seed)
    _emit(format_instance(inst), args.out)
    return 0


def cmd_solve(args) -> int:
    inst = _load_instance(args.infile)
    pre = preprocess(inst)
    matching = solve(pre, Criterion(args.criterion), DEFAULT_ENUMERATION_CAP)
    lines = [f"{m} {w}" for m, w in _original_pairs(pre, matching)]
    lines.append(f"profile: {profile_of(pre, matching).display()}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_enumerate(args) -> int:
    if args.cap < 1:
        print("error: --cap must be at least 1", file=sys.stderr)
        return 2
    inst = _load_instance(args.infile)
    pre = preprocess(inst)
    matchings = enumerate_stable_matchings(pre, args.cap)
    chunks = [str(len(matchings))]
    for matching in matchings:
        chunks.append("\n".join(f"{m} {w}" for m, w in _original_pairs(pre, matching)))
    _emit("\n\n".join(chunks) + "\n", args.out)
    return 0


def cmd_stats(args) -> int:
    if args.cap < 1:
        print("error: --cap must be at least 1", file=sys.stderr)
        return 2
    criteria = []
    for token in args.criteria.split(","):
        token = token.strip()
        if token not in CRITERION_TOKENS:
            print(f"error: unknown criterion {token!r}", file=sys.stderr)
            return 2
        criteria.append(Criterion(token))
    named = []
    for path in args.infile:
        named.append((path, _load_instance(path)))
    _emit(batch_stats(named, criteria, cap=args.cap), args.out)
    return 0


def cmd_space(args) -> int:
    if (args.infile is None) == (args.i1 is None):
        print("error: give exactly one of --in and --i1", file=sys.stderr)
        return 2
    if args.i1 is not None:
        if args.i1 < 4 or args.i1 % 2:
            print("error: --i1 needs an even size of at least 4", file=sys.stderr)
            return 2
        profiles = i1_rotation_profiles(args.i1)
        n = args.i1
    else:
        pre = preprocess(_load_instance(args.infile))
        profiles = [rot.profile for rot in find_rotations(pre)]
        n = pre.n_men
    report = space_report(profiles, n)
    lines = ["rotation,exponential_bits,vector_bits"]
    for rid, (eb, vb) in enumerate(zip(report.exponential_bits, report.vector_bits)):
        lines.append(f"{rid},{eb},{vb}")
    lines.append(f"total,{report.exponential_total},{report.vector_total}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _agreement_failure(pre: Instance) -> Optional[str]:
    """Run the cross-validation battery; describe the first failure, if any."""
    n = pre.n_men
    lattice = _Lattice(pre)
    full, generous = lattice.full, lattice.generous
    matchings = lattice.matchings()
    profiles = [profile_of(pre, M) for M in matchings]

    # The exponential-weight oracle judges the flows the two answers came
    # from, handed back by the solve beside each matching.  Its weights on
    # the full poset are the rank-maximal ones, which have no cutoff, and on
    # the generous poset those reverse-negated over its cutoff.
    rank_maximal, rank_witness = _flow_solution(full, Criterion.RANK_MAXIMAL)
    answer, generous_witness = _flow_solution(generous, Criterion.GENEROUS)
    for prefix, poset, (flow, cut, subset) in (
        ("", full, rank_witness),
        ("generous ", generous, generous_witness),
    ):
        if cut.capacity != flow.value:
            return prefix + "min-cut capacity differs from max-flow value"
        value, expected = oracle_exponential_flow(
            poset.rotations, poset.digraph, n, poset.cutoff
        )
        if poset.cutoff is None and high_weight(flow.value, n) != value:
            return "vector max-flow value disagrees with exponential-weight oracle"
        if subset != expected:
            return prefix + "vector closed subset disagrees with exponential-weight oracle"

    if profile_of(pre, rank_maximal) != max(profiles):
        return "rank-maximal profile differs from enumeration maximum"
    if lattice.solve(Criterion.EGALITARIAN) != select_egalitarian(matchings, pre):
        return "egalitarian matching differs from first enumerated minimum-cost matching"
    witness = select_min_regret(matchings, pre)
    if lattice.solve(Criterion.MIN_REGRET) != witness:
        return "min-regret matching differs from first enumerated minimum-degree matching"
    if lattice.solve(Criterion.SEX_EQUAL) != select_sex_equal(matchings, pre):
        return "sex-equal matching differs from first enumerated most balanced matching"
    if lattice.solve(Criterion.MEDIAN) != select_median(matchings, pre):
        return "median matching differs from median assembled over the enumeration"
    if profile_of(pre, answer).padded(n)[::-1] != min(p.padded(n)[::-1] for p in profiles):
        return "generous reverse profile differs from enumeration minimum"
    if n and matching_degree(pre, answer) != matching_degree(pre, witness):
        return "generous degree differs from minimum-regret degree"
    return None


def cmd_oracle_check(args) -> int:
    if args.n < 1 or args.trials < 1:
        print("error: --n and --trials must be at least 1", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        density = 1.0 if trial % 2 == 0 else 0.5
        inst = generate_uniform(args.n, args.n, density, rng.randrange(2**63))
        pre = preprocess(inst)
        failure = _agreement_failure(pre)
        if failure is not None:
            print(f"oracle-check: trial {trial}: {failure}", file=sys.stderr)
            sys.stdout.write(format_instance(inst))
            return 1
    sys.stdout.write(f"oracle-check: {args.trials} trials at n={args.n} agreed\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profmatch",
        description="Profile-optimal stable matchings via lexicographic vector flows",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a random instance")
    p.add_argument("--men", type=int, required=True)
    p.add_argument("--women", type=int, required=True)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve one instance for one criterion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--criterion", choices=CRITERION_TOKENS, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("enumerate", help="list all stable matchings")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("stats", help="per-criterion measures as CSV")
    p.add_argument("--in", dest="infile", action="append", required=True)
    p.add_argument("--criteria", default=",".join(CRITERION_TOKENS))
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "space-report", aliases=["space"], help="storage estimate for edge weights"
    )
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--i1", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("oracle-check", help="cross-validate the solvers on random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        # Bad text, or a path that cannot be read or written (missing, a
        # directory, no permission): a usage error, never exit 1.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())
