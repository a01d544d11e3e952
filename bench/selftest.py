#!/usr/bin/env python3
"""Self-test of the benchmark: tiny workloads, then checkers fed wrong answers.

    python3 bench/selftest.py

Each workload runs once at a small fraction of its size and every output
must pass its checks.  Then each checker is handed a planted wrong answer
(a determinant off by one, a wrong point order, a flipped verdict, ...)
and must reject it.  Exits 0 when everything behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import markovshift as ms  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.05


def run_workloads(workdir: str) -> list[str]:
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, workdir, SCALE)
        ops = workload.setup()
        failed = 0
        for op in ops:
            try:
                out = workload.run(op)
            except workload.expected_failure:
                if not op.expect_failure:
                    raise
                failed += 1
                continue
            problems += [f"{name}: {msg}" for msg in workload.check(op, out)]
        print(f"{name}: {len(ops)} operations, {failed} expected failures")
    return problems


def planted_faults() -> list[str]:
    """Each entry: (description, problems the checker reported). All must be non-empty."""
    golden = [[1, 1], [1, 0]]
    summary = ms.invariant_triple(ms.ZeroOneMatrix.from_rows(golden)).summary()
    group = ms.FgAbelianGroup(0, (5,))
    final, _ = ms.realize(group, group.element((), (1,)), 1)
    realized = [list(r) for r in final.entries]
    z5 = ms.invariant_triple(final).summary()
    facts = checks.rational_invariants(realized)
    other = checks.rational_invariants(golden)
    table = {(1,): 1, (2,): -1}
    cases = [
        ("determinant off by one", checks.check_invariant(golden, dict(summary, determinant=summary["determinant"] + 1))),
        ("sign flipped", checks.check_invariant(golden, dict(summary, sign=-summary["sign"]))),
        ("wrong point order", checks.check_invariant(realized, dict(z5, point_torsion=[0]))),
        ("wrong torsion", checks.check_invariant(realized, dict(z5, torsion_factors=[6], point_torsion=[1]))),
        ("realized with the wrong sign", checks.check_realized(realized, 0, (5,), ((), (1,)), -1)),
        ("realized with the wrong point", checks.check_realized(realized, 0, (5,), ((), (0,)), 1)),
        ("COE denied to a relabeling", checks.check_pair_verdict("relabel", facts, facts, False, True)),
        ("flow granted across different dets", checks.check_pair_verdict("independent", facts, other, None, True)),
        ("COE without flow", checks.check_pair_verdict("independent", facts, facts, True, False)),
        ("period-point count off by one", checks.check_census(golden, 2, table, 1, [(1,), (1, 2)], [1, 0], [1, 4])),
        ("orbit sum off by one", checks.check_census(golden, 2, table, 1, [(1,), (1, 2)], [1, 1], [1, 3])),
        ("positivity verdict flipped", checks.check_positivity(golden, table, 1, True, False, (2,))),
        ("witness with a nonnegative sum", checks.check_positivity(golden, table, 1, False, False, (1,))),
    ]
    problems = [f"checker accepted a planted fault: {description}" for description, found in cases if not found]
    correct = {
        "invariant": checks.check_invariant(golden, summary) + checks.check_invariant(realized, z5),
        "realized matrix": checks.check_realized(realized, 0, (5,), ((), (1,)), 1),
        "relabeled pair": checks.check_pair_verdict("relabel", facts, facts, True, True),
        "census": checks.check_census(golden, 2, table, 1, [(1,), (1, 2)], [1, 0], [1, 3]),
        "positivity": checks.check_positivity(golden, table, 1, True, True, None),
    }
    problems += [f"checker rejected a correct {name}: {found}" for name, found in correct.items() if found]
    print(f"planted faults: {len(cases)} cases")
    return problems


def main() -> int:
    workdir = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    try:
        problems = run_workloads(workdir) + planted_faults()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"problem: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
