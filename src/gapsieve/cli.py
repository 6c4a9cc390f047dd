"""Command-line front end.

Subcommands: primes, tuple, singular-series, gallagher, weights, pure-moment,
twisted-moment, detector, threshold, bv, trend, replay.  Each command's output
(its text or CSV lines, or with --json the canonical machine document,
byte-stable across runs and worker counts) goes to the --out file when one is
given, else to stdout.  --manifest records the run; replay re-executes a
manifest and verifies the fingerprint.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import bv as bv_mod
from . import manifest as manifest_mod
from .errors import GapsieveError, RegimeError
from .moments import (
    SieveParams,
    gap_bound,
    two_primes_detector,
    pure_moment,
    threshold,
    twisted_moment,
)
from .parallel import resolve_workers
from .primes import primes_in
from .serialize import canonical_json, fmt_float
from .singular import gallagher_average, singular_series
from .tuples import OffsetTuple, enumerate_tuples, first_obstruction, is_admissible, normalize_offsets
from .weights import WeightParams, lambda_block

EXIT_OK = 0
EXIT_REGIME = 3
EXIT_ERROR = 4
EXIT_REPLAY_MISMATCH = 1


# float flags refused when not finite: no computation can use nan or inf
_FINITE_FLAGS = {"R": "--R", "r_exponent": "--R-exponent", "tol": "--tol", "A": "--A"}

# no integer flag needs more; the cap keeps "1e999999999" from building a
# billion-digit number
MAX_EXPONENT = 30


def _int_arg(text: str) -> int:
    """Integer flags, parsed exactly; a mantissa with an exponent such as 1e7
    or 2.5e6 is accepted when its value is an integer."""
    mantissa, has_exponent, exponent = text.lower().partition("e")
    try:
        value = Fraction(mantissa)
        power = int(exponent) if has_exponent else 0
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text} is not an integer") from exc
    if abs(power) > MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"{text}: exponent beyond {MAX_EXPONENT}")
    value *= Fraction(10) ** power
    if value.denominator != 1:
        raise argparse.ArgumentTypeError(f"{text} is not an integer")
    return int(value)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text} is not a rational") from exc


def build_parser() -> argparse.ArgumentParser:
    """Each flag only on the subcommands it acts on; abbreviations are refused,
    so every spelling of --out and --manifest is one _strip_io_flags knows."""
    p = argparse.ArgumentParser(prog="gapsieve", allow_abbrev=False)
    subs = p.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, workers=False, force=False) -> argparse.ArgumentParser:
        s = subs.add_parser(name, help=summary, allow_abbrev=False)
        s.add_argument("--json", action="store_true", help="emit the canonical JSON document")
        s.add_argument("--out", type=str, default=None, help="write the output here instead of to stdout")
        s.add_argument("--manifest", type=str, default=None, help="write a run manifest to this path")
        s.add_argument("--config", type=str, default=None, help="key=value defaults file; flags override")
        if workers:
            s.add_argument("--workers", type=_int_arg, default=None, help="worker processes (env GAPSIEVE_WORKERS)")
        if force:
            s.add_argument("--force", action="store_true", help="run despite regime violations")
        return s

    s = command("primes", "emit primes in a range, one per line")
    s.add_argument("--from", dest="lo", type=_int_arg, required=True)
    s.add_argument("--to", dest="hi", type=_int_arg, required=True)

    s = command("tuple", "tuple utilities")
    s.add_argument("action", choices=["check"])
    s.add_argument("offsets", type=str, help="comma-separated offsets, e.g. 1,3")

    s = command("singular-series", "tuple density constant")
    s.add_argument("--tuple", dest="offsets", type=str, required=True)
    s.add_argument("--tol", type=float, default=1e-12)
    s.add_argument("--truncation-prime", type=_int_arg, default=None)

    s = command("gallagher", "normalized tuple-density average")
    s.add_argument("--span", type=_int_arg, required=True)
    s.add_argument("--k", type=_int_arg, required=True)
    s.add_argument("--stride", type=_int_arg, default=1)
    s.add_argument("--seed", type=_int_arg, default=0, help="phase offset for stride sampling (no other RNG)")

    s = command("weights", "divisor-sum weights over a block", force=True)
    s.add_argument("--tuple", dest="offsets", type=str, required=True)
    s.add_argument("--R", type=float, required=True)
    s.add_argument("--a", type=_int_arg, required=True)
    s.add_argument("--from", dest="lo", type=_int_arg, required=True)
    s.add_argument("--to", dest="hi", type=_int_arg, required=True)

    def moment(name: str, summary: str) -> argparse.ArgumentParser:
        """The flags every sum over (N, 2N] reads."""
        s = command(name, summary, workers=True, force=True)
        s.add_argument("--N", type=_int_arg, required=True)
        r = s.add_mutually_exclusive_group(required=True)
        r.add_argument("--R", type=float)
        r.add_argument("--R-exponent", dest="r_exponent", type=float, help="R = N^x")
        s.add_argument("--l", type=_int_arg, required=True)
        s.add_argument("--span", type=_int_arg, default=None)
        return s

    s = moment("pure-moment", "sum of W(n)^2")
    s.add_argument("--tuple", dest="offsets", type=str, required=True)

    s = moment("twisted-moment", "sum of varpi(n+h) W(n)^2")
    s.add_argument("--tuple", dest="offsets", type=str, required=True)
    s.add_argument("--h", type=_int_arg, required=True)
    s.add_argument("--theta", type=_fraction_arg, default=Fraction(1, 2))

    s = moment("detector", "two-primes detector over explicit or enumerated tuples")
    s.add_argument("--theta", type=_fraction_arg, default=Fraction(1, 2))
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--tuple", dest="offsets", type=str, action="append",
                        help="explicit tuple (repeatable)")
    source.add_argument("--tuple-source", choices=["all", "admissible"],
                        help="the k-subsets of [1, span], or only the admissible ones")
    s.add_argument("--k", type=_int_arg, default=None, help="tuple size for --tuple-source")
    s.add_argument("--stride", type=_int_arg, default=None, help="keep every stride-th tuple of --tuple-source")
    s.add_argument("--seed", type=_int_arg, default=None, help="phase offset for --stride (no other RNG)")
    s.add_argument("--h-mode", choices=["window", "tuple"], default="window")
    s.add_argument("--witness-cap", type=_int_arg, default=1000)

    s = command("threshold", "exact-rational threshold algebra")
    s.add_argument("--k", type=_int_arg, required=True)
    s.add_argument("--l", type=_int_arg, required=True)
    s.add_argument("--theta", type=_fraction_arg, required=True)
    s.add_argument("--eps", type=_fraction_arg, default=Fraction(0))

    s = command("bv", "level-of-distribution deviation table", workers=True)
    s.add_argument("--x", type=_int_arg, required=True)
    s.add_argument("--theta", type=_fraction_arg, required=True)
    s.add_argument("--A", type=float, default=1.0)
    s.add_argument("--y-min", type=_int_arg, default=100)
    s.add_argument("--grid-factor", type=_int_arg, default=2)

    s = command("trend", "direction of a metric across saved reports")
    s.add_argument("paths", nargs="+")

    s = subs.add_parser("replay", help="re-run a manifest and verify its fingerprint", allow_abbrev=False)
    s.add_argument("--manifest-in", dest="manifest_in", type=str, required=True)

    return p


def _read_config(path: str) -> list[list[str]]:
    """key=value lines -> one synthetic argv entry per line."""
    entries: list[list[str]] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                entries.append([f"--{key}"])
        else:
            entries.append([f"--{key}", value])
    return entries


def _parse_tuple(text: str) -> tuple[OffsetTuple, list[str]]:
    """Parse offsets, shifting patterns that start at 0 (or below) into [1, ...]."""
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"offsets must be comma-separated integers, got {text!r}") from None
    notes = []
    if min(values) < 1:
        shifted, shift = normalize_offsets(values)
        notes.append(f"tuple {text} shifted by +{shift} into [1, span]")
        values = list(shifted)
    return OffsetTuple(tuple(values)), notes


def _strip_io_flags(argv: list[str]) -> list[str]:
    """Drop --out/--manifest (I/O routing, not computation) from stored argv,
    in both the spaced and the --flag=value spelling."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok in ("--out", "--manifest"):
            next(tokens, None)
        elif not tok.startswith(("--out=", "--manifest=")):
            out.append(tok)
    return out


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (doc, text or CSV lines, notes, sampling)
# ---------------------------------------------------------------------------

def _run_primes(args):
    ps = primes_in(args.lo, args.hi)
    doc = {"kind": "primes", "lo": args.lo, "hi": args.hi, "count": int(len(ps)),
           "primes": ps.tolist()}
    return doc, [str(p) for p in doc["primes"]], [], {}


def _run_tuple(args):
    t, notes = _parse_tuple(args.offsets)
    ok = is_admissible(t)
    obstruction = first_obstruction(t)
    doc = {"kind": "tuple_check", "offsets": list(t.offsets), "admissible": ok,
           "first_failing_prime": obstruction}
    line = f"{t}: " + ("admissible" if ok else f"inadmissible (first failing prime {obstruction})")
    return doc, [line], notes, {}


def _run_singular(args):
    t, notes = _parse_tuple(args.offsets)
    v = singular_series(t, tol=args.tol, truncation_prime=args.truncation_prime)
    doc = {**v.doc(), "offsets": list(t.offsets)}
    lines = [f"tuple {t}", f"value            {fmt_float(v.value)}",
             f"truncation prime {v.truncation_prime}", f"tail bound       {fmt_float(v.tail_bound)}"]
    return doc, lines, notes, {}


def _run_gallagher(args):
    rep = gallagher_average(args.span, args.k, stride=args.stride,
                            phase=args.seed % args.stride if args.stride > 1 else 0)
    lines = [f"span {rep.span_bound}  k {rep.k}  tuples {rep.tuple_count}",
             f"normalized average {fmt_float(rep.normalized)}  ({rep.convention})"]
    return rep.doc(), lines, [], {"stride": rep.stride, "phase": rep.phase}


def _run_weights(args):
    t, notes = _parse_tuple(args.offsets)
    blk = lambda_block(t, WeightParams(args.R, args.a), args.lo, args.hi, force=args.force)
    values = [float(v) for v in blk.values]
    doc = {"kind": "weights", "offsets": list(t.offsets), "R": args.R, "a": args.a,
           "lo": blk.lo, "hi": blk.hi, "values": values}
    csv_lines = ["n,value"] + [f"{n},{fmt_float(v)}" for n, v in zip(range(blk.lo, blk.hi), values)]
    return doc, csv_lines, notes, {}


def _moment_params(args, k: int, span: int, **theta) -> SieveParams:
    try:
        r = args.R if args.R is not None else float(args.N) ** args.r_exponent
    except OverflowError:
        raise ValueError(f"R = N^{args.r_exponent} leaves the float range") from None
    return SieveParams(N=args.N, R=r, k=k, l=args.l, span_bound=span, **theta)


def _run_pure(args):
    t, notes = _parse_tuple(args.offsets)
    params = _moment_params(args, t.k, t.span_bound if args.span is None else args.span)
    doc = pure_moment(t, params, workers=args.workers, force=args.force).doc()
    return doc, _moment_text(doc), notes, {}


def _run_twisted(args):
    t, notes = _parse_tuple(args.offsets)
    span = max(t.span_bound, args.h) if args.span is None else args.span
    params = _moment_params(args, t.k, span, theta=args.theta)
    doc = twisted_moment(t, args.h, params, workers=args.workers, force=args.force).doc()
    return doc, _moment_text(doc), notes, {}


def _run_detector(args):
    notes: list[str] = []
    if args.offsets:
        unused = [flag for flag, value in (("--k", args.k), ("--stride", args.stride), ("--seed", args.seed))
                  if value is not None]
        if unused:
            raise GapsieveError(f"{', '.join(unused)}: only with --tuple-source, not with --tuple")
        explicit = []
        for text in args.offsets:
            t, n = _parse_tuple(text)
            explicit.append(t)
            notes.extend(n)
        span = max(t.span_bound for t in explicit) if args.span is None else args.span
        tuples = [OffsetTuple(t.offsets, span) for t in explicit]
        params = _moment_params(args, tuples[0].k, span, theta=args.theta)
        sampling = {"tuple_source": "explicit"}
    else:
        if args.k is None or args.span is None:
            raise GapsieveError("--tuple-source needs --k and --span")
        stride = 1 if args.stride is None else args.stride
        phase = (args.seed or 0) % stride if stride > 1 else 0
        params = _moment_params(args, args.k, args.span, theta=args.theta)
        tuples = enumerate_tuples(args.span, args.k, admissible_only=args.tuple_source == "admissible",
                                  stride=stride, phase=phase)
        sampling = {"tuple_source": args.tuple_source, "stride": stride, "phase": phase}
    rep = two_primes_detector(params, tuples, h_mode=args.h_mode, workers=args.workers,
                              force=args.force, witness_cap=args.witness_cap)
    lines = [
        f"detector ({rep.mode} mode, {rep.tuple_count} tuples)",
        f"empirical {fmt_float(rep.empirical)}",
        f"predicted {fmt_float(rep.predicted)}  bracket {fmt_float(rep.bracket)}",
        f"positive windows {rep.positive_count}",
    ]
    return rep.doc(), lines, notes, sampling


def _moment_text(doc: dict) -> list[str]:
    lines = [f"{doc['kind']} moment, tuple {{{','.join(map(str, doc['offsets']))}}}"]
    lines.append(f"empirical {fmt_float(doc['empirical'])}")
    lines.append(f"main term {fmt_float(doc['main_term'])}")
    ratio = doc["ratio"]
    lines.append("ratio     " + (fmt_float(ratio) if ratio is not None else "undefined (main term 0)"))
    return lines


def _run_threshold(args):
    rep = threshold(args.k, args.l, args.theta, args.eps)
    gb = gap_bound(args.theta)
    doc = {**rep.doc(), "gap_bound": str(gb)}
    lines = [
        f"k {rep.k}  l {rep.l}  theta {rep.theta}  eps {rep.eps}",
        f"coefficient            {rep.coefficient}",
        f"theta term             {rep.theta_term}",
        f"log N coefficient      {rep.log_n_coefficient}",
        f"bracket coefficient    {rep.bracket_coefficient} (at R = N^(theta/2))",
        f"gap bound              {gb}",
    ]
    return doc, lines, [], {}


def _run_bv(args):
    grid = bv_mod.GridSpec(factor=args.grid_factor, y_min=args.y_min)
    table = bv_mod.bv_deviation(args.x, args.theta, grid=grid, workers=args.workers)
    bound = args.x / math.log(args.x) ** args.A
    doc = {**table.doc(), "A": args.A, "bound": bound}
    csv_lines = ["q,a*,y*,deviation"]
    for r in table.rows:
        csv_lines.append(f"{r.q},{r.worst_a},{r.worst_y},{fmt_float(r.deviation)}")
    csv_lines.append(f"total,,,{fmt_float(table.total)}")
    csv_lines.append(f"bound x/(log x)^{args.A:g},,,{fmt_float(bound)}")
    sampling = {"y_grid": list(table.y_grid), "grid_factor": args.grid_factor, "y_min": args.y_min}
    return doc, csv_lines, [], sampling


def _run_trend(args):
    docs = manifest_mod.load_docs(args.paths)
    doc = manifest_mod.emit_trend(docs)
    lines = [f"metric {doc['metric']} (target {doc['target']:g}): {doc['direction']}",
             "values " + " ".join(fmt_float(v) for v in doc["values"])]
    return doc, lines, [], {}


_RUNNERS = {
    "primes": _run_primes,
    "tuple": _run_tuple,
    "singular-series": _run_singular,
    "gallagher": _run_gallagher,
    "weights": _run_weights,
    "pure-moment": _run_pure,
    "twisted-moment": _run_twisted,
    "detector": _run_detector,
    "threshold": _run_threshold,
    "bv": _run_bv,
    "trend": _run_trend,
}


def _parse(argv: list[str]) -> argparse.Namespace:
    """One parse, with the --config file's flags before argv's: the file may
    give required flags.  A flag on argv replaces the file's entries for it
    and for the other flags of its mutually exclusive groups."""
    parser = build_parser()
    if argv and argv[0] in _RUNNERS:
        pre = argparse.ArgumentParser(prog=f"gapsieve {argv[0]}", add_help=False, allow_abbrev=False)
        pre.add_argument("--config")
        config = pre.parse_known_args(argv[1:])[0].config
        if config:
            subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            sub = subs.choices[argv[0]]
            action_of = sub._option_string_actions.get
            given = {action_of(tok.split("=", 1)[0]) for tok in argv[1:] if tok.startswith("--")} - {None}
            for group in sub._mutually_exclusive_groups:
                if given & set(group._group_actions):
                    given |= set(group._group_actions)
            kept = [tok for entry in _read_config(config) if action_of(entry[0]) not in given for tok in entry]
            argv = [argv[0], *kept, *argv[1:]]
    return parser.parse_args(argv)


def run_argv(argv: list[str], args: argparse.Namespace | None = None,
             manifest: bool = True) -> tuple[dict, str, dict | None]:
    """Run argv (already parsed as args when given), the one path of plain runs
    and replays.  Returns the result doc, the output text (canonical JSON with
    --json, else the command's text or CSV lines) and the run manifest, or None
    when manifest is false (its fingerprint serializes the whole doc once
    more); writes nothing."""
    args = args if args is not None else _parse(argv)
    if args.command not in _RUNNERS:
        # only a hand-written manifest can store a replay
        raise ValueError(f"a manifest cannot replay {args.command!r}")
    for dest, flag in _FINITE_FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if hasattr(args, "workers"):
        args.workers = resolve_workers(args.workers)
    t0 = time.perf_counter()
    doc, lines, notes, sampling = _RUNNERS[args.command](args)
    wall = time.perf_counter() - t0
    text = canonical_json(doc) + "\n" if args.json else "\n".join(lines) + "\n"
    record = manifest_mod.build_manifest(
        argv[0], _strip_io_flags(argv), doc, notes, sampling,
        wall_time=wall, workers=getattr(args, "workers", 1),
    ) if manifest else None
    return doc, text, record


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if args.command == "replay":
            stored = manifest_mod.load_manifest(args.manifest_in)
            doc, _, actual = run_argv(list(stored["argv"]))
            print(canonical_json(doc))
            if manifest_mod.manifest_spec(actual) != manifest_mod.manifest_spec(stored):
                print("replay mismatch: fingerprints differ", file=sys.stderr)
                return EXIT_REPLAY_MISMATCH
            return EXIT_OK

        _, text, record = run_argv(argv, args, manifest=bool(args.manifest))
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        if args.manifest:
            manifest_mod.write_manifest(args.manifest, record)
        return EXIT_OK
    except SystemExit as exc:
        # argparse's usage exit, also for argv read from --config or a manifest
        return int(exc.code or 0)
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (GapsieveError, ValueError, OSError) as exc:
        # ValueError: malformed arguments rejected by the constructors;
        # OSError: an input file that cannot be read or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
