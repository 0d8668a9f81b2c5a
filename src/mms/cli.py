"""Command-line entry point binding all modules.

Exit codes: 0 ok, 1 check failure, 2 usage error (an `--out` that cannot be
written among them), 3 malformed input file.
An internal check that fails (an invalid LP certificate or witness recount,
or an interval comparison left undecided) is a check failure: exit 1 with a
one-line message.
Counts and rationals that may exceed 64 bits are emitted as decimal strings,
a rational as `str` renders a Fraction: p, or p/q in lowest terms, with no
cap on the number of digits (`_num`).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import (
    f_bound_values,
    stage_count_beats_target,
    thm1_threshold_check,
    thm2_stage_check,
    unimodal_gap_lb,
)
from .constructions import mirror_config, mms_counterexample, star_config
from .intervals import UndecidedComparison
from .numerics import (
    Configuration,
    ConfigParseError,
    _is_kset,
    format_config,
    parse_config_text,
    parse_rational,
    quoted,
)
from .partition import baranyai_partition, validate_partition
from .reproduce import run_reproduction
from .solver import DEFAULT_NODE_BUDGET, exact_A, search_upper_bound, verify_conjecture_range
from .witness import DEFAULT_SAMPLE_SIZE, extract_thm1, extract_thm2


def _num(value: int | Fraction) -> str:
    """`str(value)` for an int or a Fraction (p, or p/q in lowest terms), of
    any length: `str(int)` stops at 4,300 digits, `str(Decimal(int))` does
    not."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_num(value.numerator)}/{_num(value.denominator)}"
    return str(Decimal(int(value)))


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class UnwritableOutput(Exception):
    """An output directory or file that cannot be created: usage error (exit 2)."""


def _write_out(out_dir: Path, name: str, text: str, newline: str | None = None) -> Path:
    """Write `text` to out_dir/name, creating the directory as needed."""
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text, newline=newline)
    except OSError as exc:
        raise UnwritableOutput(f"cannot write output {path}: {exc}") from None
    return path


def _emit(args, obj, default_name: str) -> None:
    text = _dump_json(obj)
    sys.stdout.write(text)
    if args.out:
        _write_out(Path(args.out), default_name, text)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MMS_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"MMS_SEED must be an integer, got {env!r}") from None


class UnreadableInput(Exception):
    """An input file that cannot be read or parsed: malformed input (exit 3)."""


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from None


def _load_config(path: str) -> Configuration:
    return parse_config_text(_read_input(path))


def _bound_report_json(report) -> dict:
    params = {key: value if value is None or isinstance(value, (bool, str)) else _num(value)
              for key, value in report.parameters.items()}
    return {
        "name": report.name,
        "holds": report.holds,
        "strict": report.strict,
        "lhs": _num(report.lhs),
        "rhs": _num(report.rhs),
        "margin": _num(report.margin),
        "parameters": params,
    }


# --- subcommands -----------------------------------------------------------

def cmd_construct(args) -> int:
    name = args.name
    if name == "counterexample":
        built = mms_counterexample(args.k)
        if args.n is not None and args.n != built.n:
            raise ValueError(f"counterexample fixes n = 3k+1 = {built.n}")
    else:
        if args.n is None:
            raise ValueError("--n is required for star/mirror")
        built = (star_config if name == "star" else mirror_config)(args.n, args.k)
    out_dir = Path(args.out or ".")
    stem = f"{built.name}_n{built.n}_k{args.k}"
    cfg_path = _write_out(out_dir, f"{stem}.cfg", format_config(built.config))
    sidecar = {
        "name": built.name,
        "n": built.n,
        "k": args.k,
        "predicted_count": _num(built.predicted_count),
        "prediction_formula": built.prediction_formula,
        "config_path": str(cfg_path),
    }
    _write_out(out_dir, f"{stem}.json", _dump_json(sidecar))
    sys.stdout.write(_dump_json(sidecar))
    return 0


def _refuse_flags(args, mode: str, *dests: str) -> None:
    """A usage error naming those of `dests` given alongside `mode`, where
    they would be ignored."""
    given = [f"--{dest}" for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be combined with {mode}")


def _read_block(block, c: int, b: int) -> tuple[int, ...]:
    """Block b of class c (0-based) of a partition file: a list of JSON
    integers shaped as a k-set. A message names the block by position and
    length, not by content, so it stays short whatever the file holds."""
    if not isinstance(block, list):
        raise ValueError(f"class {c} block {b} is a JSON {type(block).__name__}, not a list")
    if any(type(i) is not int for i in block) or not _is_kset(tuple(block)):
        raise ValueError(f"class {c} block {b} (length {len(block)}) is not a strictly "
                         "increasing list of integers >= 1")
    return tuple(block)


def cmd_baranyai(args) -> int:
    if args.validate:
        _refuse_flags(args, "--validate", "n", "k", "seed")
        try:
            data = json.loads(_read_input(args.validate))
            n, k = data["n"], data["k"]
            if type(n) is not int or type(k) is not int:
                raise ValueError(f"n and k must be integers, got n={n!r:.40}, k={k!r:.40}")
            diagnostic = validate_partition(n, k, tuple(
                tuple(_read_block(block, c, b) for b, block in enumerate(cls))
                for c, cls in enumerate(data["classes"])))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise UnreadableInput(f"malformed partition file {args.validate}: {exc!r}") from None
        _emit(args, {"valid": diagnostic is None, "diagnostic": diagnostic},
              "baranyai_validate.json")
        return 0 if diagnostic is None else 1
    if args.n is None or args.k is None:
        raise ValueError("--n and --k are required unless --validate is given")
    seed = _resolve_seed(args)
    obj = {
        "n": args.n,
        "k": args.k,
        "seed": seed,
        "classes": [[list(b) for b in cls] for cls in baranyai_partition(args.n, args.k, seed)],
    }
    _emit(args, obj, f"baranyai_n{args.n}_k{args.k}.json")
    return 0


def cmd_witness(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args)
    extract = extract_thm1 if args.theorem == 1 else extract_thm2
    report = extract(config, args.k, mode=args.mode, sample_size=args.sample, seed=seed)
    obj = {
        "n": config.n,
        "k": args.k,
        "theorem": args.theorem,
        "branch": report.branch,
        "guaranteed_count": _num(report.guaranteed_count),
        "witnesses_count": _num(report.witnesses.count),
        "certified": report.certified,
        "provenance": dict(report.provenance),
        "mode": report.mode,
        "sample_size": report.sample_size,
        "below_guarantee": report.below_guarantee,
        "meets_threshold_target": report.meets_threshold_target,
        "notes": list(report.notes),
        "trace": [asdict(t) for t in report.trace],
    }
    if report.witnesses.is_explicit and args.out:
        buf = io.StringIO()
        csv.writer(buf).writerows(report.witnesses.members.index_tuples)
        name = f"witnesses_thm{args.theorem}_n{config.n}_k{args.k}.csv"
        csv_path = _write_out(Path(args.out), name, buf.getvalue(), newline="")
        obj["witnesses_path"] = str(csv_path)
    _emit(args, obj, f"witness_thm{args.theorem}_n{config.n}_k{args.k}.json")
    return 0 if report.certified else 1


def cmd_solve(args) -> int:
    result = exact_A(args.n, args.k, budget=args.budget)
    obj = {
        "n": result.n,
        "k": result.k,
        "A": _num(result.A_value),
        "upper_bound_only": result.upper_bound_only,
        "bound": "upper" if result.upper_bound_only else "exact",
        "nodes": result.nodes_explored,
        "optimal_config": [_num(v) for v in result.optimal_config.values],
        "minimal_elements": [list(m) for m in result.minimal_elements],
    }
    _emit(args, obj, f"solve_n{args.n}_k{args.k}.json")
    return 0


SWEEP_COLUMNS = ("n", "k", "verdict", "lower", "upper", "A", "equals_target")


def cmd_sweep(args) -> int:
    rows = [
        dict(zip(SWEEP_COLUMNS, (r.n, r.k, r.verdict, _num(r.lower), _num(r.upper),
                                 None if r.a_value is None else _num(r.a_value),
                                 r.equals_target)))
        for r in verify_conjecture_range(args.n_lo, args.n_hi, args.k)
    ]
    if args.format == "json":
        _emit(args, rows, f"sweep_k{args.k}.json")
        return 0
    # csv writes None as an empty field
    buf = io.StringIO()
    writer = csv.DictWriter(buf, SWEEP_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())
    if args.out:
        _write_out(Path(args.out), f"sweep_k{args.k}.csv", buf.getvalue())
    return 0


#: Each inequality of `check`: its function, then the `--params` keys it
#: takes as rationals and those it takes as integers, in argument order.
INEQUALITIES = {
    "unimodal_gap_lb": (unimodal_gap_lb, ("p", "q"), ("m",)),
    "thm1_threshold": (thm1_threshold_check, (), ("n", "k")),
    "thm2_stage": (thm2_stage_check, (), ("n", "k", "p")),
    "stage_count": (stage_count_beats_target, (), ("n", "k", "p")),
}


def _parse_params(pairs: list[str], keys: tuple[str, ...]) -> dict[str, Fraction]:
    """`key=value` pairs; a key outside `keys` or given twice is a usage error."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected key=value, got {quoted(pair)}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(
                f"--params {quoted(pair)}: unknown key, expected one of {', '.join(keys)}")
        if key in out:
            raise ValueError(f"--params {quoted(pair)}: {key} is given more than once")
        try:
            out[key] = parse_rational(value.strip())
        except ValueError as exc:
            raise ValueError(f"--params {quoted(pair)}: {exc}") from None
    return out


def _param(name: str, params: dict[str, Fraction], key: str, integer: bool):
    if key not in params:
        raise ValueError(f"{name} needs --params {key}=VALUE")
    value = params[key]
    if integer and value.denominator != 1:
        raise ValueError(f"--params {key} must be an integer, got {value}")
    return value.numerator if integer else value


def cmd_check(args) -> int:
    if args.suite:
        _refuse_flags(args, "--suite", "inequality", "params")
        return _run_suite(args)
    name = args.inequality
    if name is None:
        raise ValueError("check needs --inequality NAME or --suite thm1|thm2")
    _refuse_flags(args, "--inequality", "n", "k")
    func, rational_keys, integer_keys = INEQUALITIES[name]
    keys = rational_keys + integer_keys
    params = _parse_params(args.params or [], keys)
    report = func(*[_param(name, params, key, key in integer_keys) for key in keys])
    _emit(args, _bound_report_json(report), f"check_{name}.json")
    return 0 if report.holds else 1


def _run_suite(args) -> int:
    n, k = args.n, args.k
    if n is None or k is None:
        raise ValueError("--suite requires --n and --k")
    reports = []
    if args.suite == "thm1":
        reports.append(thm1_threshold_check(n, k))
        reports.append(unimodal_gap_lb(Fraction(n), Fraction(3 * k), k - 1))
        reports.append(unimodal_gap_lb(Fraction(n, k), Fraction(k), k - 1))
    else:
        if k < 2:
            raise ValueError(f"need k >= 2, got k={k}")
        for p in range(1, n // (2 * k) + 1):
            reports.append(thm2_stage_check(n, k, p))
        reports.append(stage_count_beats_target(n, k, 1))
    all_hold = all(r.holds for r in reports)
    obj = {
        "suite": args.suite,
        "n": n,
        "k": k,
        "all_hold": all_hold,
        "reports": [_bound_report_json(r) for r in reports],
    }
    _emit(args, obj, f"check_suite_{args.suite}_n{n}_k{k}.json")
    return 0 if all_hold else 1


def cmd_fbounds(args) -> int:
    fb = f_bound_values(args.k)
    obj = {
        "k": fb.k,
        "old_bound": _num(fb.old_bound),
        "new_bound_upper": _num(math.ceil(fb.new_bound)),
        "new_bound_float": fb.new_bound_float,
        "new_smaller_than_old": fb.new_smaller_than_old,
    }
    _emit(args, obj, f"fbounds_k{args.k}.json")
    return 0


def cmd_reproduce(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    seed = _resolve_seed(args)
    start = time.time()
    checks = run_reproduction(seed=seed)
    all_pass = all(c.status == "pass" for c in checks)
    report = {
        "seed": seed,
        "all_pass": all_pass,
        "checks": [asdict(c) for c in checks],
    }
    out_dir = Path(args.out or ".") / "report"
    text = _dump_json(report)
    report_path = _write_out(out_dir, "paper.json", text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    manifest = {
        "command": "reproduce",
        "seed": seed,
        "version": __version__,
        "workers": args.workers,
        "started_at": start,
        "finished_at": time.time(),
        "outputs": {"report/paper.json": digest},
    }
    _write_out(out_dir, "manifest.json", _dump_json(manifest))
    for c in checks:
        sys.stdout.write(f"{c.status.upper():4s} {c.id}: {c.lhs} vs {c.rhs}\n")
    sys.stdout.write(f"{'PASS' if all_pass else 'FAIL'} {len(checks)} checks -> {report_path}\n")
    if not all_pass:
        failing = [c.id for c in checks if c.status == "fail"]
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_search(args) -> int:
    if args.strategy == "grid":  # deterministic: reads neither --seed nor MMS_SEED
        _refuse_flags(args, "--strategy grid", "seed")
        count, config = search_upper_bound(args.n, args.k, "grid")
    else:
        count, config = search_upper_bound(args.n, args.k, "anneal", _resolve_seed(args))
    obj = {
        "n": args.n,
        "k": args.k,
        "strategy": args.strategy,
        "count": _num(count),
        "config": [_num(v) for v in config.values],
    }
    _emit(args, obj, f"search_n{args.n}_k{args.k}.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mms",
        description="Exact tools for the minimum number of non-negative k-sums",
    )
    parser.add_argument("--version", action="version", version=__version__)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: MMS_SEED env or 0)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="write a named configuration plus JSON sidecar")
    p.add_argument("--name", required=True, choices=("star", "mirror", "counterexample"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("baranyai", parents=[seeded, common],
                       help="construct or validate a parallel-class partition")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--validate", type=str, default=None, metavar="FILE")
    p.set_defaults(func=cmd_baranyai)

    p = sub.add_parser("witness", parents=[seeded, common],
                       help="run a certifying extraction on a configuration file")
    p.add_argument("--theorem", type=int, required=True, choices=(1, 2))
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("auto", "explicit", "counted"), default="auto")
    p.add_argument("--sample", type=int, default=DEFAULT_SAMPLE_SIZE)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("solve", parents=[common], help="exact A(n,k) at desk scale")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="nodes to visit before stopping at an upper bound")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[common],
                       help="per-n verdicts against the C(n-1,k-1) target")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", parents=[common],
                       help="verify one inequality or a whole chain")
    p.add_argument("--inequality", type=str, default=None,
                   choices=tuple(INEQUALITIES))
    p.add_argument("--suite", choices=("thm1", "thm2"), default=None)
    p.add_argument("--params", nargs="*", default=None, metavar="KEY=VALUE")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fbounds", parents=[common],
                       help="compare the classical and improved thresholds")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_fbounds)

    p = sub.add_parser("search", parents=[seeded, common],
                       help="heuristic upper-bound search for A(n,k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strategy", choices=("grid", "anneal"), default="grid")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce", parents=[seeded, common],
                       help="re-derive every headline value and write report/paper.json")
    p.add_argument("--workers", type=int, default=1,
                   help="at least 1; recorded in the manifest; the report does not depend on it")
    p.set_defaults(func=cmd_reproduce)

    return parser


def _fail(message: str, code: int) -> int:
    """Print one `error:` line and return `code`. A message past 200
    characters is cut to its first 200 and its length, as `quoted` does, so
    a line stays short however large the input it names."""
    if len(message) > 200:
        message = f"{message[:200]}... ({len(message)} characters)"
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigParseError as exc:
        return _fail(f"malformed configuration: {exc}", 3)
    except UnreadableInput as exc:
        return _fail(str(exc), 3)
    except (ValueError, UnwritableOutput) as exc:
        return _fail(str(exc), 2)
    except (AssertionError, UndecidedComparison) as exc:
        return _fail(f"internal check failed ({type(exc).__name__}): {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
