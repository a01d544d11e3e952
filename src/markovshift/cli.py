"""Command-line interface.

Subcommands: validate, invariant, coe, flow, realize, positivity,
periodic.  Exit codes: 0 for success or a positive decision, 1 for a
negative decision, 2 for invalid input, 4 for an I/O or internal error.
Every decision is exact, so no command answers "undecided".  Reports are
deterministic; ``--json`` switches to the machine-readable form used by
golden tests.

The commands that read a matrix file (invariant, coe, flow, positivity,
periodic) read it through ``_load``: parse, build the typed matrix, apply
the command's check, and report a refusal against the file's path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .cohomology import is_positive_class
from .errors import (
    DomainError,
    MarkovShiftError,
    ParseError,
    PreconditionError,
    ShapeError,
    VerificationError,
)
from .fileio import (
    format_words,
    matrix_from_rows,
    read_function_file,
    read_matrix_rows,
    write_matrix_file,
)
from .groups import FgAbelianGroup
from .invariants import (
    decide_coe,
    decide_flow,
    full_group_abelianization,
    invariant_triple,
)
from .realization import realize
from .shifts import (
    ZeroOneMatrix,
    column_amalgamation,
    count_period_points,
    periodic_orbit_words,
    require_classifiable,
    validate,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_ERROR = 4

# the distinguished element always lives in the presentation by id - A^t
_CONVENTION = {"bowen_franks_presentation": "transpose"}


class _InvalidInput(MarkovShiftError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are reported like any other invalid input.

    The usage and argparse's message still go to stderr; ``main`` then
    writes the report and exits with ``EXIT_INVALID``, argparse's own code.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _InvalidInput(message)


# the decision and title of the two equivalence commands
_DECISIONS = {
    "coe": (decide_coe, "continuous orbit equivalence"),
    "flow": (decide_flow, "flow equivalence"),
}

# the report kind and exit code of each expected failure, first match wins;
# any other exception is a bug and also prints its traceback
_FAILURES = (
    (ParseError, "parse_error", EXIT_INVALID),
    ((_InvalidInput, PreconditionError, ShapeError, DomainError), "invalid_input", EXIT_INVALID),
    (OSError, "io_error", EXIT_ERROR),
    (VerificationError, "internal_error", EXIT_ERROR),
)


def _zero_one(matrix) -> ZeroOneMatrix:
    """matrix, once it is classifiable and has 0/1 entries; otherwise PreconditionError."""
    require_classifiable(matrix)
    if not isinstance(matrix, ZeroOneMatrix):
        raise PreconditionError("this command needs a 0/1 transition matrix")
    return matrix


def _load(path, check) -> tuple:
    """check applied to the typed matrix of a file, and the file's echo.

    A zero row or column gets validate's full report, and a
    PreconditionError from check is reported against the file.  The echo
    holds the parsed rows, which are already lists.  ``invariant_triple``
    checks its merged matrix, which is classifiable exactly when the file's
    matrix is, with the same message.
    """
    rows = read_matrix_rows(path)
    # parsed rows are square with nonnegative integer entries, so the matrix
    # is refused only for a zero row or column, which validate then names
    try:
        matrix = matrix_from_rows(rows)
    except DomainError:
        details = "; ".join(issue.message for issue in validate(rows).issues)
        raise _InvalidInput(f"{path}: matrix is not classifiable: {details}") from None
    try:
        return check(matrix), {"path": str(path), "size": len(rows), "rows": rows}
    except PreconditionError as exc:
        raise _InvalidInput(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# handlers


def _cmd_validate(args) -> tuple[dict, int]:
    rows = read_matrix_rows(args.matrix)
    diagnostics = validate(rows)
    report = {
        "command": "validate",
        "inputs": {"matrix": {"path": str(args.matrix), "size": len(rows), "rows": rows}},
        "classifiable": diagnostics.classifiable,
        "issues": [{"code": i.code, "message": i.message} for i in diagnostics.issues],
    }
    return report, EXIT_OK if diagnostics.classifiable else EXIT_NEGATIVE


def _cmd_invariant(args) -> tuple[dict, int]:
    inv, echo = _load(args.matrix, invariant_triple)
    abelianized = full_group_abelianization(inv)
    report = {
        "command": "invariant",
        "inputs": {"matrix": echo},
        "convention": _CONVENTION,
        "invariant": inv.summary(),
        "k_theory": {
            "k0_group": inv.group.describe(),
            "k0_unit_class": {
                "free": list(inv.point.free_coords),
                "torsion": list(inv.point.torsion_coords),
            },
            "k1_rank": inv.k1_rank,
        },
        "full_group_abelianization": abelianized.describe(),
    }
    return report, EXIT_OK


def _cmd_decide(args) -> tuple[dict, int]:
    # A's invariant comes first, so a bad A is reported before B is read
    left, echo_a = _load(args.matrix_a, invariant_triple)
    right, echo_b = _load(args.matrix_b, invariant_triple)
    outcome = args.decide(left, right)
    report = {
        "command": args.subcommand,
        "inputs": {"matrix_a": echo_a, "matrix_b": echo_b},
        "convention": _CONVENTION,
        "equivalent": outcome.equivalent,
        "reason": outcome.reason,
        "certificate": outcome.certificate(),
    }
    return report, EXIT_OK if outcome.equivalent else EXIT_NEGATIVE


def _parse_int_list(text: str, what: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise _InvalidInput(f"{what} must be a comma-separated list of integers, got {text!r}") from None


def _cmd_realize(args) -> tuple[dict, int]:
    torsion = _parse_int_list(args.torsion, "--torsion")
    group = FgAbelianGroup(args.free_rank, tuple(torsion))
    coords = _parse_int_list(args.point, "--point")
    expected = group.free_rank + len(group.torsion_factors)
    if not coords:
        coords = [0] * expected
    if len(coords) != expected:
        raise _InvalidInput(
            f"--point needs {expected} coordinates (free then torsion), got {len(coords)}"
        )
    point = group.element(coords[: group.free_rank], coords[group.free_rank :])
    matrix, plan = realize(group, point, args.sign)
    if args.output:
        write_matrix_file(args.output, matrix)
    report = {
        "command": "realize",
        "triple": {
            "group": group.describe(),
            "free_rank": group.free_rank,
            "torsion_factors": list(group.torsion_factors),
            "point_free": list(point.free_coords),
            "point_torsion": list(point.torsion_coords),
            "sign": args.sign,
        },
        "plan": {
            "d_list": list(plan.d_list),
            "c_vector": list(plan.c_vector),
            "base_matrix": [list(r) for r in plan.base.entries],
            "extended_matrix": [list(r) for r in plan.extended.entries],
            "final_matrix": [list(r) for r in plan.final.entries],
        },
        "verification": {"matched": True, "invariant": plan.invariant.summary()},
        "output": str(args.output) if args.output else None,
    }
    return report, EXIT_OK


def _cmd_positivity(args) -> tuple[dict, int]:
    matrix, echo = _load(args.matrix, _zero_one)
    try:
        fn = read_function_file(args.function, matrix)
    except DomainError as exc:
        raise _InvalidInput(f"{args.function}: {exc}") from None
    result = is_positive_class(matrix, fn)
    words = sorted(fn.values)
    report = {
        "command": "positivity",
        "inputs": {
            "matrix": echo,
            "function": {
                "path": str(args.function),
                "window": fn.window,
                "values": dict(zip(format_words(words, matrix.size), map(fn.values.get, words))),
            },
        },
        "positive": result.positive,
        "witness": format_words([result.witness], matrix.size)[0] if result.witness else None,
    }
    return report, EXIT_OK if result.positive else EXIT_NEGATIVE


def _cmd_periodic(args) -> tuple[dict, int]:
    """Orbit representatives and point counts for periods 1..p.

    The counts are ``count_period_points`` of the total column amalgamation
    B, which state amalgamations A = DE -> B = ED reach (Lind and Marcus
    1995, section 2.4), so tr(B^q) = tr(A^q) over no more states.  The
    orbits are enumerated on A, and each count is cross-checked against the
    orbits of the periods dividing it; a failed check raises
    ``VerificationError`` before any report.
    """
    matrix, echo = _load(args.matrix, _zero_one)
    reps = periodic_orbit_words(matrix, args.period)
    by_length: dict[int, list[str]] = {}
    for w, name in zip(reps, format_words(reps, matrix.size)):
        by_length.setdefault(len(w), []).append(name)
    periods = []
    amalgamated = column_amalgamation(matrix)
    for q in range(1, args.period + 1):
        fixed = count_period_points(amalgamated, q)
        dividing = [(d, len(by_length.get(d, []))) for d in range(1, q + 1) if q % d == 0]
        periods.append(
            {
                "period": q,
                "orbit_representatives": by_length.get(q, []),
                "points_fixed_by_power": fixed,
                "orbits_with_period_dividing": sum(k for _, k in dividing),
                "crosscheck_ok": fixed == sum(d * k for d, k in dividing),
            }
        )
    report = {
        "command": "periodic",
        "inputs": {"matrix": echo},
        "max_period": args.period,
        "periods": periods,
    }
    if not all(p["crosscheck_ok"] for p in periods):
        raise VerificationError("periodic-point counts failed their trace cross-check")
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# rendering


def _render_text(report: dict) -> str:
    cmd = report.get("command")
    if "error" in report:
        err = report["error"]
        return f"error ({err['kind']}): {err['message']}"
    lines: list[str] = []
    if cmd == "validate":
        lines.append("classifiable" if report["classifiable"] else "not classifiable")
        for issue in report["issues"]:
            lines.append(f"  - {issue['code']}: {issue['message']}")
    elif cmd == "invariant":
        inv = report["invariant"]
        lines.append(f"group: {inv['group']}")
        lines.append(f"distinguished element: free {inv['point_free']}, torsion {inv['point_torsion']}")
        lines.append(f"determinant of id - A: {inv['determinant']} (sign {inv['sign']})")
        kt = report["k_theory"]
        lines.append(f"K0: {kt['k0_group']}, unit class free {kt['k0_unit_class']['free']} torsion {kt['k0_unit_class']['torsion']}")
        lines.append(f"K1 rank: {kt['k1_rank']}")
        lines.append(f"full group abelianization: {report['full_group_abelianization']}")
    elif cmd in _DECISIONS:
        title = _DECISIONS[cmd][1]
        lines.append(f"{title}: {'equivalent' if report['equivalent'] else 'not equivalent'}")
        lines.append(f"reason: {report['reason']}")
        cert = report["certificate"]
        lines.append(
            f"A: group {cert['left']['group']}, det {cert['left']['determinant']}"
        )
        lines.append(
            f"B: group {cert['right']['group']}, det {cert['right']['determinant']}"
        )
    elif cmd == "realize":
        lines.append(f"realized triple: ({report['triple']['group']}, point free {report['triple']['point_free']} torsion {report['triple']['point_torsion']}, sign {report['triple']['sign']})")
        if report["plan"]["d_list"]:
            lines.append(f"diagonal parameters: {report['plan']['d_list']}")
        else:
            lines.append(f"cyclic base: {report['plan']['base_matrix']}")
        lines.append(f"tail lengths: {report['plan']['c_vector']}")
        lines.append(f"final matrix size: {len(report['plan']['final_matrix'])}")
        lines.append("verification: ok")
        if report["output"]:
            lines.append(f"matrix written to {report['output']}")
    elif cmd == "positivity":
        lines.append("positive" if report["positive"] else "not positive")
        if report["witness"]:
            lines.append(f"witness cycle: {report['witness']} (negative orbit sum)")
    elif cmd == "periodic":
        for entry in report["periods"]:
            reps = ", ".join(entry["orbit_representatives"]) or "-"
            lines.append(
                f"period {entry['period']}: orbits [{reps}], "
                f"fixed points of power {entry['points_fixed_by_power']}, crosscheck ok"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the machine-readable report")
    common.add_argument("--timing", action="store_true", help="include elapsed time in the report")
    parser = _Parser(
        prog="markovshift",
        description="Invariants, equivalence decisions and realizations for topological Markov shifts",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common], help="diagnose a transition matrix")
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("invariant", parents=[common], help="compute the invariant triple")
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_invariant)

    for name, (decide, title) in _DECISIONS.items():
        p = sub.add_parser(name, parents=[common], help=f"decide {title}")
        p.add_argument("matrix_a")
        p.add_argument("matrix_b")
        p.set_defaults(handler=_cmd_decide, decide=decide)

    p = sub.add_parser("realize", parents=[common], help="realize an invariant triple as a matrix")
    p.add_argument("--free-rank", type=int, default=0)
    p.add_argument("--torsion", default="", help="comma-separated invariant factors m1,m2,...")
    p.add_argument("--point", default="", help="coordinates of the element, free then torsion")
    p.add_argument("--sign", type=int, required=True, choices=(-1, 0, 1))
    p.add_argument("--output", "-o", default=None, help="write the realized matrix to this file")
    p.set_defaults(handler=_cmd_realize)

    p = sub.add_parser("positivity", parents=[common], help="decide positivity of a class")
    p.add_argument("matrix")
    p.add_argument("function")
    p.set_defaults(handler=_cmd_positivity)

    p = sub.add_parser("periodic", parents=[common], help="enumerate periodic orbits")
    p.add_argument("matrix")
    p.add_argument("period", type=int)
    p.set_defaults(handler=_cmd_periodic)

    return parser


def _render(report: dict, args, started: float) -> str:
    """The report as JSON or text, with the elapsed time when --timing was given.

    Integers of any size print: Python's limit on the digits str() writes
    (4,300 by default) is lifted while the report renders, and restored
    after, so input parsing keeps it.
    """
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    # 0 means no limit, as on interpreters before 3.10.7, which have no setting
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(report, indent=2) if args.json else _render_text(report)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # parsed into in place, so a refused command line is reported with its
    # subcommand once that is recognized, and in JSON when --json was given
    args = argparse.Namespace(subcommand=None, json="--json" in argv, timing=False)
    started = time.perf_counter()
    try:
        _build_parser().parse_args(argv, args)
        report, code = args.handler(args)
        text = _render(report, args, started)
    except Exception as exc:
        message = str(exc)
        for types, kind, code in _FAILURES:
            if isinstance(exc, types):
                break
        else:
            import traceback  # only on this path: the import costs every command start-up time

            traceback.print_exc(file=sys.stderr)
            kind, code, message = "internal_error", EXIT_ERROR, f"{type(exc).__name__}: {message}"
        text = _render({"command": args.subcommand, "error": {"kind": kind, "message": message}}, args, started)
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
