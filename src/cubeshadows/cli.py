"""Command line front end.

Four subcommands: check (criterion only), oracle (exhaustive vertex
enumeration), extremal (closed-form maximum, optional numerical
confirmation), measure (random-direction statistics, optional CSV).
Every run prints a single-line JSON record with the keys command,
params, results, elapsed_ms, version, seed. Exit codes: 0 success,
1 computation failed, 2 bad arguments, 3 degenerate or out-of-domain
input, 4 dimension over the enumeration cap, 5 file I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .errors import MAX_DIMENSION, DegenerateSample, DimensionTooLarge, NonConvergence
from .extremal import (
    closed_form_max,
    maximizer,
    numerical_max,
    summarize,
    threshold_dimension,
)
from .geometry import UnitVector, Vertex, criterion, l2_norm
from .measure import MAX_SAMPLES, estimate
from .oracle import DEFAULT_LIMIT, MAX_LIMIT, enumerate_shadows

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_TOO_LARGE = 4
EXIT_IO = 5


class _UsageError(Exception):
    """Internal: arguments that parsed but make no sense."""


# First match wins: DimensionTooLarge is a ValueError, so it comes first.
EXIT_CODES = (
    (_UsageError, EXIT_USAGE),
    (OSError, EXIT_IO),
    (DimensionTooLarge, EXIT_TOO_LARGE),
    ((ValueError, DegenerateSample), EXIT_DEGENERATE),
    (NonConvergence, EXIT_FAILED),
)

RECORD_KEYS = ("command", "params", "results", "elapsed_ms", "version", "seed")

# measure rows and CSV columns use these shorter names
_ROW_NAMES = {"mean_product": "mean", "median_product": "median"}


def _plain(result) -> dict:
    """A result dataclass as a JSON-ready dict, in field order."""
    out = {}
    for f in fields(result):
        value = getattr(result, f.name)
        if isinstance(value, Vertex):
            value = value.signs.tolist()
        elif isinstance(value, UnitVector):
            value = value.coords.tolist()
        out[f.name] = value
    return out


def _count(text: str, low: int = 1, high: float = math.inf) -> int:
    """argparse type for ints in [low, high]; counts must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not low <= value <= high:
        bound = f"at least {low}" if value < low else f"at most {high}"
        raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type for seeds, which key Philox as unsigned 64-bit ints."""
    return _count(text, 0, 2**64 - 1)


def _samples(text: str) -> int:
    """argparse type for --samples, capped so that their products fit."""
    return _count(text, high=MAX_SAMPLES)


def _limit(text: str) -> int:
    """argparse type for --limit, capped so that the half tables fit."""
    return _count(text, high=MAX_LIMIT)


def _parse_floats(text: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise _UsageError("empty vector")
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise _UsageError(f"could not parse vector {text!r}")


def _read_vec_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        return _parse_floats(f.read())


def _resolve_direction(args) -> tuple[UnitVector, dict]:
    if args.maximizer is not None:
        u = maximizer(args.maximizer)
        return u, {"maximizer_n": args.maximizer, "input_l2": 1.0}
    raw = (
        _parse_floats(args.vec)
        if args.vec is not None
        else _read_vec_file(args.vec_file)
    )
    u = UnitVector(raw)
    with np.errstate(over="ignore"):
        input_l2 = float(np.linalg.norm(raw))
    if not 0.0 < input_l2 < math.inf or np.max(np.abs(raw)) < 2.0**-511:
        # the squares overflowed, or are all subnormal and lost digits; JSON
        # has no infinity, so a length beyond the float64 range is null
        input_l2 = l2_norm(raw)
        if math.isinf(input_l2):
            input_l2 = None
    return u, {"n": int(raw.size), "input_l2": input_l2}


def _add_direction_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--vec", help="comma or space separated coordinates")
    group.add_argument("--vec-file", help="file of coordinates")
    group.add_argument(
        "--maximizer",
        type=int,
        metavar="N",
        help="use the built-in extremal direction in dimension N",
    )


def _cmd_check(args):
    u, params = _resolve_direction(args)
    if not math.isfinite(args.margin):
        raise _UsageError(f"margin must be finite, got {args.margin}")
    params["margin"] = args.margin
    res = criterion(u, criterion_tol=-args.margin)
    return "check", params, {"n": u.n, **_plain(res)}, None


def _cmd_oracle(args):
    if args.maximizer is not None and args.maximizer > args.limit:
        raise DimensionTooLarge(args.maximizer, args.limit)  # before building it
    u, params = _resolve_direction(args)
    params["limit"] = args.limit
    verdict = enumerate_shadows(u, n_limit=args.limit)
    crit = criterion(u)
    results = {
        "n": u.n,
        **_plain(verdict),
        "criterion_product": crit.product,
        "criterion_satisfied": crit.satisfied,
        "agree": crit.satisfied == verdict.exists_inside,
    }
    return "oracle", params, results, None


def _parse_scan(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise _UsageError(f"bad scan range {text!r}, want A..B")
    if lo < 1 or hi < lo or hi > MAX_DIMENSION:
        raise _UsageError(
            f"bad scan range {text!r}, want 1 <= A <= B <= {MAX_DIMENSION}"
        )
    return lo, hi


def _cmd_extremal(args):
    if args.scan is not None:
        lo, hi = _parse_scan(args.scan)
        rows = [
            {"n": n, "max_value": top, "threshold_ok": top <= 2.0}
            for n in range(lo, hi + 1)
            for top in [closed_form_max(n)]
        ]
        results = {"scan": rows, "threshold_dimension": threshold_dimension()}
        return "extremal", {"scan": args.scan}, results, None

    n = args.n
    summary = summarize(n)
    results = _plain(summary)
    params = {"n": n, "verify": args.verify}
    if not args.verify:
        return "extremal", params, results, None
    params["restarts"] = args.restarts
    ascent = numerical_max(n, restarts=args.restarts, seed=args.seed)
    results["numerical"] = {
        "value": ascent.value,
        "grad_norm": ascent.grad_norm,
        "iterations": ascent.iterations,
        "restarts_converged": ascent.restarts_converged,
        "gap": summary.max_value - ascent.value,
    }
    return "extremal", params, results, args.seed


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(p) for p in text.replace(",", " ").split() if p]
    except ValueError:
        raise _UsageError(f"could not parse dims {text!r}")
    if not dims:
        raise _UsageError("empty dims list")
    return dims


def _measure_row(est) -> dict:
    return {_ROW_NAMES.get(k, k): v for k, v in _plain(est).items()}


def _write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow(["" if v is None else v for v in row.values()])


def _cmd_measure(args):
    dims = _parse_dims(args.dims)
    rows = [_measure_row(estimate(n, args.samples, args.seed)) for n in dims]
    params = {"dims": dims, "samples": args.samples}
    if args.out is not None:
        _write_csv(args.out, rows)
        params["out"] = args.out
    return "measure", params, rows, args.seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeshadows",
        description=(
            "decide whether any cube vertex lands inside the central "
            "hyperplane section orthogonal to a direction"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="evaluate the norm-product criterion for a direction"
    )
    _add_direction_args(p_check)
    p_check.add_argument(
        "--margin",
        type=float,
        default=0.0,
        help="require the product to clear the threshold by this much",
    )
    p_check.set_defaults(handler=_cmd_check)

    p_oracle = sub.add_parser(
        "oracle", help="enumerate all 2^n vertices and report the best shadow"
    )
    _add_direction_args(p_oracle)
    p_oracle.add_argument(
        "--limit",
        type=_limit,
        default=DEFAULT_LIMIT,
        help=f"dimension cap (default {DEFAULT_LIMIT}, at most {MAX_LIMIT})",
    )
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_ext = sub.add_parser(
        "extremal", help="closed-form sphere maximum of the norm product"
    )
    group = p_ext.add_mutually_exclusive_group(required=True)
    group.add_argument("-n", type=int, help="single dimension to summarize")
    group.add_argument("--scan", help="inclusive dimension range A..B")
    p_ext.add_argument(
        "--verify",
        action="store_true",
        help="confirm the closed form by gradient ascent",
    )
    p_ext.add_argument("--restarts", type=_count, default=8)
    p_ext.add_argument("--seed", type=_seed, default=0)
    p_ext.set_defaults(handler=_cmd_extremal)

    p_measure = sub.add_parser(
        "measure", help="criterion statistics over random directions"
    )
    p_measure.add_argument(
        "--dims", required=True, help="comma separated dimensions"
    )
    p_measure.add_argument("--samples", type=_samples, default=10_000)
    p_measure.add_argument("--seed", type=_seed, default=0)
    p_measure.add_argument("--out", help="also write the rows to a CSV file")
    p_measure.set_defaults(handler=_cmd_measure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    t0 = time.perf_counter()
    try:
        command, params, results, seed = args.handler(args)
    except Exception as exc:
        code = next((c for kind, c in EXIT_CODES if isinstance(exc, kind)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code

    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    values = (command, params, results, elapsed_ms, __version__, seed)
    print(json.dumps(dict(zip(RECORD_KEYS, values)), separators=(",", ":")))
    return EXIT_OK


def entry() -> None:
    sys.exit(main())
