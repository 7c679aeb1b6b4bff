"""
cli: the `bkl4` command.

Subcommands
-----------
  nf WORD        left normal form `d^p . f1 . f2 ...` plus the invariants
                 (inf, sup, len, word_len, lambda, k1, k2, rigid, periodic)
  sc WORD        sliding circuit set: --size (default), --graph dot|json,
                 or --quotient dot|json
  conj X Y       conjugacy decision; on success prints a certificate z with
                 x = z^-1 . y . z (verified by the solver)
  beta K         the beta_k benchmark-family word

Braid words use the grammar of `bkl4.words`: atom names a12..a34, weight-2
names c123..p14-23, `d` for the Garside element, `s1|s2|s3` for the Artin
generators, `^` for integer powers, factors separated by `.` or whitespace.

Exit codes: 0 success / conjugate, 1 not conjugate, 2 parse or usage error,
3 cap exceeded (the safety cap is `--cap` or the B4_SC_CAP variable, a
non-negative integer), 4 internal error (out of memory, recursion too deep,
a failed soundness check, or stdout closed before the output was written;
never an answer).

All output is UTF-8 text.  `--json` (and `--graph json`, `--quotient json`)
emits exactly one JSON document on stdout, failures included: a parse or
usage error (argparse's included: an unknown flag, a missing argument, a
bad choice; and `--json` with a DOT mode) is {"outcome": "error",
"reason": "parse-error" | "usage", "message": ...}, a search over the cap
is {"outcome": "inconclusive", "reason": "cap-exceeded", ...}, and an
internal error is {"outcome": "error", "reason": "internal-error", ...}.
Graph output is graphviz-compatible DOT: vertices are labeled with compact
normal forms, edges with the arrow names that induce them, and quotient
vertices carry their orbit member counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Sequence

from bkl4.circuits import (
    CapExceededError,
    SCSet,
    circuit_graph,
    compute_sc,
    quotient_graph,
    resolve_cap,
)
from bkl4.engine import GarsideBraid, invariants
from bkl4.simples import SIMPLE_NAMES
from bkl4.sliding import is_rigid
from bkl4.solver import (
    CONJUGATE,
    INCONCLUSIVE,
    NOT_CONJUGATE,
    is_periodic,
    solve_conjugacy,
)
from bkl4.words import (
    MAX_WORD_LETTERS,
    ParseError,
    beta_word,
    format_braid,
    format_braid_compact,
    parse_braid,
)

EXIT_OK = 0
EXIT_NOT_CONJUGATE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

# beta_k has 6k + 5 letters, so every word `bkl4 beta` prints parses.
MAX_BETA_INDEX = (MAX_WORD_LETTERS - 5) // 6


class _CliError(Exception):
    """Internal: an exit code, a reason for JSON output and a message, with
    the usage text that goes before the message in text output."""

    def __init__(self, code: int, reason: str, message: str, usage: str = "") -> None:
        super().__init__(message)
        self.code = code
        self.reason = reason
        self.message = message
        self.usage = usage

    def document(self) -> dict:
        outcome = "inconclusive" if self.code == EXIT_CAP else "error"
        return {"outcome": outcome, "reason": self.reason, "message": self.message}


def _parse(text: str) -> GarsideBraid:
    try:
        return parse_braid(text)
    except ParseError as exc:
        raise _CliError(
            EXIT_USAGE,
            "parse-error",
            f"parse error at position {exc.position}: {exc.message}",
        ) from exc


def _cap(text: str | None) -> int:
    """The validated search cap: `--cap`, else B4_SC_CAP, else the default."""
    try:
        return resolve_cap(None if text is None else int(text))
    except ValueError as exc:
        message = str(exc)
        if text is not None:
            message = f"--cap must be a non-negative integer, not {text!r}"
        raise _CliError(EXIT_USAGE, "usage", message) from exc


def _invariant_fields(x: GarsideBraid, periodic: bool | None = None) -> dict:
    """The invariants of x; `periodic`, when the caller knows it, spares
    the periodicity test."""
    inv = invariants(x)
    return {
        "inf": inv.inf,
        "sup": inv.sup,
        "len": inv.canonical_length,
        "word_len": inv.word_length,
        "lambda": inv.weight,
        "k1": inv.k1,
        "k2": inv.k2,
        "rigid": is_rigid(x),
        "periodic": is_periodic(x) if periodic is None else periodic,
    }


def _format_fields(fields: dict) -> str:
    parts = []
    for key, value in fields.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _compute_sc(x: GarsideBraid, cap: int) -> SCSet:
    try:
        return compute_sc(x, cap=cap)
    except CapExceededError as exc:
        raise _CliError(
            EXIT_CAP,
            "cap-exceeded",
            f"cap exceeded: the sliding circuit set has more than {exc.cap} elements",
        ) from exc


def cmd_nf(args: argparse.Namespace) -> int:
    x = _parse(args.word)
    fields = _invariant_fields(x)
    if args.json:
        print(json.dumps({"nf": format_braid(x), **fields}))
    else:
        print(format_braid(x))
        print(_format_fields(fields))
    return EXIT_OK


def _graph(sc: SCSet) -> tuple[list[GarsideBraid], list[tuple[int, int, str]]]:
    """The vertices of the sliding circuit graph, in element order, and its
    edges as (source, target, arrow name)."""
    graph = circuit_graph(sc)
    index = {element: i for i, element in enumerate(graph)}
    edges = [
        (i, index[target], SIMPLE_NAMES[arrow])
        for i, arrows in enumerate(graph.values())
        for arrow, target in arrows
    ]
    return list(graph), edges


def _dot_graph(sc: SCSet) -> str:
    vertices, edges = _graph(sc)
    lines = ["digraph SCG {"]
    for i, element in enumerate(vertices):
        lines.append(f'  n{i} [label="{format_braid_compact(element)}"];')
    for i, j, name in edges:
        lines.append(f'  n{i} -> n{j} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines)


def _json_graph(sc: SCSet) -> dict:
    vertices, edges = _graph(sc)
    return {
        "base": format_braid(sc.base),
        "representative": format_braid(sc.representative),
        "sc_size": sc.size,
        "rigid": sc.rigid,
        "vertices": [format_braid(element) for element in vertices],
        "edges": [{"source": i, "target": j, "label": name} for i, j, name in edges],
        "conjugators": {
            format_braid(element): format_braid(z)
            for element, z in sc.conjugators().items()
        },
    }


def _dot_quotient(sc: SCSet) -> str:
    graph = quotient_graph(sc)
    lines = ["digraph SCQ {"]
    for i, orbit in enumerate(graph.orbits):
        label = f"{format_braid_compact(orbit.representative)} ({orbit.size})"
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in graph.edges:
        names = ",".join(SIMPLE_NAMES[s] for s in graph.edge_labels[(i, j)])
        lines.append(f'  n{i} -> n{j} [label="{names}", dir=none];')
    lines.append("}")
    return "\n".join(lines)


def _json_quotient(sc: SCSet) -> dict:
    graph = quotient_graph(sc)
    return {
        "base": format_braid(sc.base),
        "vertex_count": graph.vertex_count,
        "is_path": graph.is_path(),
        "orbits": [
            {"representative": format_braid(orbit.representative), "size": orbit.size}
            for orbit in graph.orbits
        ],
        "edges": [
            {
                "source": i,
                "target": j,
                "labels": [SIMPLE_NAMES[s] for s in graph.edge_labels[(i, j)]],
            }
            for i, j in graph.edges
        ],
    }


def cmd_sc(args: argparse.Namespace) -> int:
    if args.json and "dot" in (args.graph, args.quotient):
        message = "bkl4 sc: error: argument --json: not allowed with DOT output"
        raise _CliError(EXIT_USAGE, "usage", message)
    x = _parse(args.word)
    sc = _compute_sc(x, _cap(args.cap))
    if args.graph is not None:
        output = _dot_graph(sc) if args.graph == "dot" else _json_graph(sc)
    elif args.quotient is not None:
        output = _dot_quotient(sc) if args.quotient == "dot" else _json_quotient(sc)
    elif args.json:
        output = {**_invariant_fields(x), "sc_size": sc.size}
    else:
        output = sc.size
    # Drop the set before its document is serialized, so that the memory
    # peaks of the two do not add up.
    del sc
    print(json.dumps(output) if isinstance(output, dict) else output)
    return EXIT_OK


# The exit code and the text of each outcome of `conj`.
_CONJ_OUTCOMES = {
    CONJUGATE: (EXIT_OK, "conjugate"),
    NOT_CONJUGATE: (EXIT_NOT_CONJUGATE, "not conjugate"),
    INCONCLUSIVE: (EXIT_CAP, "inconclusive"),
}


def cmd_conj(args: argparse.Namespace) -> int:
    x = _parse(args.x)
    y = _parse(args.y)
    decision = solve_conjugacy(x, y, assume_pa=args.assume_pa, cap=_cap(args.cap))
    outcome = decision.outcome
    if outcome not in _CONJ_OUTCOMES:
        raise AssertionError(f"internal error: unknown outcome {outcome!r}")
    code, label = _CONJ_OUTCOMES[outcome]
    if outcome == CONJUGATE:
        word = format_braid(decision.certificate.z)
        field = {"certificate": word}
        text = f"{label}\nz = {word}"
    else:
        field = {"reason": decision.reason}
        text = f"{label} ({decision.reason})"
    if args.json:
        fields = _invariant_fields(x, decision.periodic)
        print(json.dumps({**fields, "outcome": outcome, **field}))
    else:
        # An inconclusive search is not an answer: it goes to stderr.
        print(text, file=sys.stderr if code == EXIT_CAP else sys.stdout)
    return code


def cmd_beta(args: argparse.Namespace) -> int:
    print(beta_word(args.k))
    return EXIT_OK


def _beta_index(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # int() refuses a digit string longer than
        # sys.get_int_max_str_digits(); read one as out of range.
        if not text.strip().isdecimal():
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        value = -1
    if not 0 <= value <= MAX_BETA_INDEX:
        raise argparse.ArgumentTypeError(f"must be >= 0 and <= {MAX_BETA_INDEX}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its errors as usage errors, so that
    `main` reports them like every other failure."""

    def error(self, message: str):
        raise _CliError(
            EXIT_USAGE, "usage", f"{self.prog}: error: {message}", self.format_usage()
        )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and reused."""
    parser = _Parser(
        prog="bkl4",
        description="Dual Garside machinery and conjugacy solving for the "
        "4-strand braid group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", help="left normal form and invariants")
    p_nf.add_argument("word", help="braid word")
    p_nf.add_argument("--json", action="store_true", help="JSON output")
    p_nf.set_defaults(func=cmd_nf)

    p_sc = sub.add_parser("sc", help="sliding circuit set")
    p_sc.add_argument("word", help="braid word")
    mode = p_sc.add_mutually_exclusive_group()
    mode.add_argument("--size", action="store_true", help="print |SC| (default)")
    mode.add_argument("--graph", choices=("dot", "json"), help="full SC graph")
    mode.add_argument("--quotient", choices=("dot", "json"), help="orbit quotient graph")
    p_sc.add_argument("--json", action="store_true", help="JSON output (with --size)")
    p_sc.add_argument("--cap", help="abort if |SC| exceeds this")
    p_sc.set_defaults(func=cmd_sc)

    p_conj = sub.add_parser("conj", help="decide conjugacy, print a certificate")
    p_conj.add_argument("x", help="braid word")
    p_conj.add_argument("y", help="braid word")
    p_conj.add_argument(
        "--assume-pa",
        action="store_true",
        dest="assume_pa",
        help="try the rigid-power fast path first (verified, falls back)",
    )
    p_conj.add_argument("--cap", help="abort if a search exceeds this")
    p_conj.add_argument("--json", action="store_true", help="JSON output")
    p_conj.set_defaults(func=cmd_conj)

    p_beta = sub.add_parser("beta", help="emit the beta_k family word")
    p_beta.add_argument(
        "k", type=_beta_index, help=f"family index (0..{MAX_BETA_INDEX})"
    )
    p_beta.set_defaults(func=cmd_beta)

    return parser


def _json_output(argv: Sequence[str]) -> bool:
    """Whether argv asks for JSON output (`--json`, `--graph json` or
    `--quotient json`, also as `--graph=json` or a prefix argparse accepts).
    It is read from the words, as a usage error leaves no parsed arguments."""
    for i, word in enumerate(argv):
        if word == "--":
            break
        name, equals, value = word.partition("=")
        if len(name) < 3 or not name.startswith("--"):
            continue
        if not equals:
            if "--json".startswith(name):
                return True
            value = argv[i + 1] if i + 1 < len(argv) else ""
        if value == "json" and (
            "--graph".startswith(name) or "--quotient".startswith(name)
        ):
            return True
    return False


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early (`bkl4 ... | head`); the flush at exit goes to
        # the null device, not to the pipe again.
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("internal error: stdout closed early (broken pipe)", file=sys.stderr)
        return EXIT_INTERNAL


def _main(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _CliError as exc:
        err = exc
    except (MemoryError, RuntimeError, AssertionError) as exc:
        # RecursionError is a RuntimeError; soundness checks raise the others.
        err = _CliError(EXIT_INTERNAL, "internal-error", f"internal error: {exc!r}")
    if _json_output(argv):
        print(json.dumps(err.document()))
    else:
        print(err.usage + err.message, file=sys.stderr)
    return err.code


if __name__ == "__main__":
    sys.exit(main())
