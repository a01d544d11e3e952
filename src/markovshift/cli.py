"""Command-line interface.

Subcommands: validate, invariant, coe, flow, realize, positivity,
periodic.  Exit codes: 0 for success or a positive decision, 1 for a
negative decision, 2 for invalid input, 4 for an I/O or internal error.
Every decision is exact, so no command answers "undecided".  Reports are
deterministic; ``--json`` switches to the machine-readable form used by
golden tests.
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
    UnsupportedError,
    VerificationError,
)
from .fileio import (
    format_word,
    matrix_from_rows,
    read_function_file,
    read_matrix_rows,
    write_matrix_file,
)
from .groups import FgAbelianGroup
from .invariants import decide_coe, decide_flow, full_group_abelianization, invariant_triple
from .realization import realize
from .shifts import (
    ZeroOneMatrix,
    count_period_points,
    periodic_orbit_words,
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


def _echo_matrix(path, rows) -> dict:
    return {"path": str(path), "size": len(rows), "rows": [list(r) for r in rows]}


def _load_matrix(path):
    rows = read_matrix_rows(path)
    diagnostics = validate(rows)
    if not diagnostics.classifiable:
        details = "; ".join(issue.message for issue in diagnostics.issues)
        raise _InvalidInput(f"{path}: matrix is not classifiable: {details}")
    return matrix_from_rows(rows), _echo_matrix(path, rows)


def _load_zero_one(path) -> tuple[ZeroOneMatrix, dict]:
    matrix, echo = _load_matrix(path)
    if not isinstance(matrix, ZeroOneMatrix):
        raise _InvalidInput(f"{path}: this command needs a 0/1 transition matrix")
    return matrix, echo


# ---------------------------------------------------------------------------
# handlers


def _cmd_validate(args) -> tuple[dict, int]:
    rows = read_matrix_rows(args.matrix)
    diagnostics = validate(rows)
    report = {
        "command": "validate",
        "inputs": {"matrix": _echo_matrix(args.matrix, rows)},
        "classifiable": diagnostics.classifiable,
        "issues": [{"code": i.code, "message": i.message} for i in diagnostics.issues],
    }
    return report, EXIT_OK if diagnostics.classifiable else EXIT_NEGATIVE


def _cmd_invariant(args) -> tuple[dict, int]:
    matrix, echo = _load_matrix(args.matrix)
    inv = invariant_triple(matrix)
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


def _decision_report(name, echo_a, echo_b, outcome) -> dict:
    return {
        "command": name,
        "inputs": {"matrix_a": echo_a, "matrix_b": echo_b},
        "convention": _CONVENTION,
        "equivalent": outcome.equivalent,
        "reason": outcome.reason,
        "certificate": outcome.certificate(),
    }


def _cmd_coe(args) -> tuple[dict, int]:
    matrix_a, echo_a = _load_matrix(args.matrix_a)
    matrix_b, echo_b = _load_matrix(args.matrix_b)
    outcome = decide_coe(matrix_a, matrix_b)
    report = _decision_report("coe", echo_a, echo_b, outcome)
    return report, EXIT_OK if outcome.equivalent else EXIT_NEGATIVE


def _cmd_flow(args) -> tuple[dict, int]:
    matrix_a, echo_a = _load_matrix(args.matrix_a)
    matrix_b, echo_b = _load_matrix(args.matrix_b)
    outcome = decide_flow(matrix_a, matrix_b)
    report = _decision_report("flow", echo_a, echo_b, outcome)
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
    try:
        group = FgAbelianGroup(args.free_rank, tuple(torsion))
    except (DomainError, ShapeError) as exc:
        raise _InvalidInput(str(exc)) from None
    coords = _parse_int_list(args.point, "--point")
    expected = group.free_rank + len(group.torsion_factors)
    if not coords:
        coords = [0] * expected
    if len(coords) != expected:
        raise _InvalidInput(
            f"--point needs {expected} coordinates (free then torsion), got {len(coords)}"
        )
    point = group.element(coords[: group.free_rank], coords[group.free_rank :])
    try:
        matrix, plan = realize(group, point, args.sign)
    except PreconditionError as exc:
        raise _InvalidInput(str(exc)) from None
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
    matrix, echo = _load_zero_one(args.matrix)
    try:
        fn = read_function_file(args.function, matrix)
    except DomainError as exc:
        raise _InvalidInput(f"{args.function}: {exc}") from None
    result = is_positive_class(matrix, fn)
    report = {
        "command": "positivity",
        "inputs": {
            "matrix": echo,
            "function": {
                "path": str(args.function),
                "window": fn.window,
                "values": {
                    format_word(w, matrix.size): fn.values[w] for w in sorted(fn.values)
                },
            },
        },
        "positive": result.positive,
        "witness": format_word(result.witness, matrix.size) if result.witness else None,
    }
    return report, EXIT_OK if result.positive else EXIT_NEGATIVE


def _cmd_periodic(args) -> tuple[dict, int]:
    matrix, echo = _load_zero_one(args.matrix)
    if args.period < 1:
        raise _InvalidInput("period bound must be at least 1")
    reps = periodic_orbit_words(matrix, args.period)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for w in reps:
        by_length.setdefault(len(w), []).append(w)
    periods = []
    for q in range(1, args.period + 1):
        fixed = count_period_points(matrix, q)
        weighted = sum(
            d * len(by_length.get(d, [])) for d in range(1, q + 1) if q % d == 0
        )
        orbits_dividing = sum(len(by_length.get(d, [])) for d in range(1, q + 1) if q % d == 0)
        periods.append(
            {
                "period": q,
                "orbit_representatives": [
                    format_word(w, matrix.size) for w in by_length.get(q, [])
                ],
                "points_fixed_by_power": fixed,
                "orbits_with_period_dividing": orbits_dividing,
                "crosscheck_ok": fixed == weighted,
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
    lines: list[str] = []
    if "error" in report:
        err = report["error"]
        lines.append(f"error ({err['kind']}): {err['message']}")
        return "\n".join(lines)
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
    elif cmd in ("coe", "flow"):
        title = "continuous orbit equivalence" if cmd == "coe" else "flow equivalence"
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
        lines.append(f"diagonal parameters: {report['plan']['d_list']}")
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
                f"fixed points of power {entry['points_fixed_by_power']}, "
                f"crosscheck {'ok' if entry['crosscheck_ok'] else 'FAILED'}"
            )
    return "\n".join(lines)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(report) + "\n")


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the machine-readable report")
    common.add_argument("--timing", action="store_true", help="include elapsed time in the report")
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("coe", parents=[common], help="decide continuous orbit equivalence")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.set_defaults(handler=_cmd_coe)

    p = sub.add_parser("flow", parents=[common], help="decide flow equivalence")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.set_defaults(handler=_cmd_flow)

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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.handler(args)
    except ParseError as exc:
        report = {"command": args.subcommand, "error": {"kind": "parse_error", "message": str(exc)}}
        code = EXIT_INVALID
    except (_InvalidInput, PreconditionError, ShapeError, DomainError, UnsupportedError) as exc:
        report = {"command": args.subcommand, "error": {"kind": "invalid_input", "message": str(exc)}}
        code = EXIT_INVALID
    except OSError as exc:
        report = {"command": args.subcommand, "error": {"kind": "io_error", "message": str(exc)}}
        code = EXIT_ERROR
    except VerificationError as exc:
        report = {"command": args.subcommand, "error": {"kind": "internal_error", "message": str(exc)}}
        code = EXIT_ERROR
    except Exception as exc:
        import traceback  # only on this path: the import costs every command start-up time

        traceback.print_exc(file=sys.stderr)
        message = f"{type(exc).__name__}: {exc}"
        report = {"command": args.subcommand, "error": {"kind": "internal_error", "message": message}}
        code = EXIT_ERROR
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
