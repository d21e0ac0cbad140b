"""Command-line interface.

Commands: transform, resist, kirchhoff, verify, audit.  Exit codes: 0 on
success, 1 when a verification or self-check misses its tolerance, 2 on bad
input or usage.

``resist`` writes the N x N resistance matrix one row per write, each row
one ``orjson`` call (40-60 ns per value).  By Rayleigh's bound r_uv >=
max(1/d_u, 1/d_v), every non-zero resistance is at least 1e-4 below degree
10^4, where orjson prints ``repr``'s digits: json is the bytes of
``json.dumps(payload, separators=(",", ":"))``; csv and plain print the same.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from .graph import DisconnectedGraphError, GraphError, parse_edge_list, render_edge_list
from .structured import (build_structured_inverse, factor_inverse, kirchhoff,
                         resistance_matrix)
from .transforms import TransformKind, apply_transform
from .verify import GenerationBudgetError, audit_theorems, run_corpus

# significant digits of a printed Kirchhoff index
DIGITS = 12


class UsageError(Exception):
    """Bad flag value or unreadable input; maps to exit code 2."""


def _positive(name: str, value: float) -> float:
    if not value > 0:
        raise UsageError(f"{name} must be positive, got {value}")
    return value


def _read_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def format_significant(value: float) -> str:
    """Fixed-point with exactly ``DIGITS`` significant digits (desk scale)."""
    if value == 0 or not math.isfinite(value):
        return f"{0.0:.{DIGITS - 1}f}" if value == 0 else repr(value)
    # round to the significant digits first so carries shift the magnitude
    sci = f"{value:.{DIGITS - 1}e}"
    exponent = int(sci.split("e")[1])
    decimals = max(DIGITS - 1 - exponent, 0)
    return f"{float(sci):.{decimals}f}"


def _write_matrix(r: np.ndarray, fmt: str, kind: str) -> None:
    """Write a float64 matrix as json, csv or plain text, one row per write.

    Each row is one ``orjson`` call, comma-separated and framed per format;
    finite values parse back bit for bit.  The json text is byte-equal to
    ``json.dumps({"kind", "n", "matrix"}, separators=(",", ":"))`` when the
    non-zero values lie in [1e-4, 1e16): outside it orjson spells ``0.00005``
    and ``1e16``, and nan or inf as ``null``.
    """
    import orjson

    dumps, option, write = orjson.dumps, orjson.OPT_SERIALIZE_NUMPY, sys.stdout.write
    head, between, end, sep = {
        "json": (f'{{"kind":{json.dumps(kind)},"n":{r.shape[0]},"matrix":[[',
                 "],[", "]]}\n", ","),
        "csv": ("", "\n", "\n", ","),
        "plain": ("", "\n", "\n", " "),
    }[fmt]
    write(head)
    for i, row in enumerate(r):
        text = dumps(row, option=option)[1:-1].decode()
        write((between if i else "") + (text if sep == "," else text.replace(",", sep)))
    write(end)


# ---------------------------------------------------------------------------
# commands


def cmd_transform(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    text = render_edge_list(apply_transform(g, TransformKind(args.kind)))
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        fh = open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc}") from None
    with fh:
        fh.write(text)
    return 0


def cmd_resist(args: argparse.Namespace) -> int:
    kind = TransformKind(args.kind)
    tol = _positive("tol", args.tol)
    g = _read_graph(args.input)
    x = build_structured_inverse(g, kind)
    r = resistance_matrix(x)

    exit_code = 0
    if args.self_check:
        from .verify import compare

        report = compare(g, kind, tol=tol)
        if not report.passed:
            print(
                f"self-check failed: overall delta {report.overall_max:.3e}, "
                f"kirchhoff delta {report.kirchhoff_delta:.3e} "
                f"(relative {report.kirchhoff_rel_delta:.3e})",
                file=sys.stderr,
            )
            exit_code = 1

    _write_matrix(r, args.format, kind.value)
    return exit_code


def cmd_kirchhoff(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    if args.kind == "none":
        value = g.n * float(np.trace(factor_inverse(g)))
    else:
        value = kirchhoff(build_structured_inverse(g, TransformKind(args.kind)))
    print(format_significant(value))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _positive("tol", args.tol)
    if args.count < 1:
        raise UsageError(f"count must be >= 1, got {args.count}")
    if args.n_max < 2:
        raise UsageError(f"n_max must be >= 2, got {args.n_max}")
    if not 0.0 < args.p <= 1.0:
        raise UsageError(f"p must be in (0, 1], got {args.p}")
    try:
        reports = run_corpus(args.count, args.n_max, args.p, args.seed, tol=tol)
    except GenerationBudgetError as exc:
        raise UsageError(f"{exc}; raise --p") from None
    ok = all(r.passed for r in reports)
    payload = {"reports": [r.as_dict() for r in reports], "pass": ok}
    print(json.dumps(payload, indent=2))
    return 0 if ok else 1


def cmd_audit(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    report = audit_theorems(g, TransformKind(args.kind))
    print(json.dumps(report.as_dict(), indent=2))
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kirchlab",
        description=(
            "Resistance distances and Kirchhoff indices of quadrilateral and "
            "pentagonal edge-replacement transforms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kind(p: argparse.ArgumentParser, extra: Sequence[str] = ()) -> None:
        p.add_argument(
            "--kind",
            choices=["quad", "pent", *extra],
            default="quad",
            help="transform kind (default quad)",
        )

    p = sub.add_parser("transform", help="write the transformed graph's edge list")
    p.add_argument("input", help="edge-list file")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    add_kind(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("resist", help="all-pairs resistance matrix of the transform")
    p.add_argument("input", help="edge-list file")
    add_kind(p)
    p.add_argument("--format", choices=["json", "csv", "plain"], default="json")
    p.add_argument(
        "--self-check",
        action="store_true",
        help="also run the brute-force oracle; exit 1 beyond --tol",
    )
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_resist)

    p = sub.add_parser("kirchhoff", help=f"Kirchhoff index ({DIGITS} significant digits)")
    p.add_argument("input", help="edge-list file")
    add_kind(p, extra=["none"])
    p.set_defaults(func=cmd_kirchhoff)

    p = sub.add_parser("verify", help="random corpus, structured engine vs oracle")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="audit the published clauses against the oracle")
    p.add_argument("input", help="edge-list file")
    add_kind(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, GraphError, DisconnectedGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
