"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summaries while running).
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from markovshift import (
    FgAbelianGroup,
    IntMatrix,
    PointedGroup,
    ZeroOneMatrix,
    admissible_words,
    base_matrix,
    count_period_points,
    decide_coe,
    decide_flow,
    determinant,
    edge_shift,
    identity_minus,
    invariant_triple,
    is_positive_class,
    orbit_sum,
    periodic_orbit_words,
    pointed_is_isomorphic,
    realize,
    smith_normal_form,
)
from markovshift.cohomology import LocallyConstantFn
from markovshift.groups import _orbit_profile, _primary_parts

from _support import (
    all_shapes_up_to,
    aut_orbit,
    orbit_brute_force,
    random_int_matrix,
    random_nonneg,
    random_zero_one,
)

FULL2 = ZeroOneMatrix.from_rows([[1, 1], [1, 1]])
GOLDEN = ZeroOneMatrix.from_rows([[1, 1], [1, 0]])


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {detail}")


# ---------------------------------------------------------------------------
# shared realization family (criteria 3, 7 and 8 draw from it)


@pytest.fixture(scope="module")
def realization_family():
    build_started = time.perf_counter()
    rng = random.Random(20240987)
    cases = []

    def add(group, point, sign):
        matrix, plan = realize(group, point, sign)
        cases.append((group, point, sign, matrix, plan.invariant))

    for factors in all_shapes_up_to(40):
        group = FgAbelianGroup(0, factors)
        elements = list(group.all_elements())
        order = group.order()
        if order <= 20:
            sample = elements
        else:
            generator_like = group.element(torsion=(1,) * len(factors))
            picks = {group.zero(), generator_like}
            picks.update(rng.sample(elements, 3))
            sample = sorted(picks, key=lambda e: e.torsion_coords)
        for point in sample:
            for sign in (-1, 1):
                add(group, point, sign)

    free_patterns = {1: [(0,), (1,), (3,)], 2: [(0, 0), (1, 0), (2, 4)]}
    for factors in [(), (2,), (3,), (4,), (2, 2), (6,)]:
        for rank in (1, 2):
            group = FgAbelianGroup(rank, factors)
            torsion_part = FgAbelianGroup(0, factors)
            for free in free_patterns[rank]:
                for torsion_element in torsion_part.all_elements():
                    add(group, group.element(free, torsion_element.torsion_coords), 0)
    return cases, time.perf_counter() - build_started


def test_criterion_01_known_equivalent_pair():
    started = time.perf_counter()
    outcome = decide_coe(FULL2, GOLDEN)
    elapsed = time.perf_counter() - started
    assert outcome.equivalent
    assert outcome.left.det_value == -1
    assert outcome.right.det_value == -1
    assert elapsed < 0.1
    report(1, f"2x2 example pair equivalent, dets -1/-1, {elapsed * 1000:.1f} ms")


def test_criterion_02_base_matrix_determinant_formula():
    started = time.perf_counter()
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 6)
        d = (0,) + tuple(rng.randint(0, 9) for _ in range(n - 1))
        a = base_matrix(d)
        assert determinant(identity_minus(a)) == (-1) ** n * math.prod(d[1:])
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"determinant formula exact on 200 random parameter lists, {elapsed:.2f} s")


def test_criterion_03_realization_round_trip(realization_family):
    cases, build_seconds = realization_family
    started = time.perf_counter()
    assert len(cases) >= 50
    for group, point, sign, matrix, invariant in cases:
        assert invariant.group == group
        assert invariant.sign == sign
        assert pointed_is_isomorphic(invariant.pointed, PointedGroup(group, point))
    elapsed = build_seconds + (time.perf_counter() - started)
    assert elapsed < 60.0
    report(3, f"{len(cases)} realizations round-trip, {elapsed:.2f} s incl. construction")


def test_criterion_04_pointed_decision_vs_brute_force():
    started = time.perf_counter()
    shapes_by_order: dict[int, list[tuple[int, ...]]] = {}
    for factors in all_shapes_up_to(64):
        order = math.prod(factors) if factors else 1
        shapes_by_order.setdefault(order, []).append(factors)
    pairs = 0
    disagreements = 0
    for order, shapes in shapes_by_order.items():
        pointed_elements = []
        for factors in shapes:
            group = FgAbelianGroup(0, factors)
            elements = list(group.all_elements())
            # sandwich certificate: the closure orbit sits inside the true
            # orbit, which sits inside the equal-height class; equality of
            # the two ends proves both computations exact on this group
            parts = _primary_parts(factors)
            by_profile: dict[object, set] = {}
            for x in elements:
                key = _orbit_profile(parts, x.torsion_coords, 0)
                by_profile.setdefault(key, set()).add(x.torsion_coords)
            for x in elements:
                closure = aut_orbit(factors, x.torsion_coords)
                height_class = by_profile[_orbit_profile(parts, x.torsion_coords, 0)]
                assert closure == frozenset(height_class)
            pointed_elements.extend(PointedGroup(group, x) for x in elements)
        for a in pointed_elements:
            for b in pointed_elements:
                pairs += 1
                if pointed_is_isomorphic(a, b) != orbit_brute_force(a, b):
                    disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 120.0
    report(4, f"{pairs} ordered pairs across orders <= 64, zero disagreements, {elapsed:.2f} s")


def test_criterion_05_positivity_matches_exhaustive_search():
    started = time.perf_counter()
    rng = random.Random(550)
    for _ in range(100):
        matrix = random_zero_one(rng, 4)
        window = rng.randint(1, 3)
        fn = LocallyConstantFn.over(
            matrix,
            window,
            {w: rng.randint(-3, 3) for w in admissible_words(matrix, window)},
        )
        verdict = is_positive_class(matrix, fn)
        exhaustive_min = min(orbit_sum(matrix, fn, w) for w in periodic_orbit_words(matrix, 12))
        assert verdict.positive == (exhaustive_min >= 0)
        if not verdict.positive:
            assert orbit_sum(matrix, fn, verdict.witness) < 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, f"100 random instances agree with exhaustive length-12 search, {elapsed:.2f} s")


def test_criterion_06_trace_formula():
    started = time.perf_counter()
    rng = random.Random(660)
    for _ in range(50):
        matrix = random_zero_one(rng, rng.randint(2, 5))
        reps = periodic_orbit_words(matrix, 8)
        orbit_counts: dict[int, int] = {}
        for w in reps:
            orbit_counts[len(w)] = orbit_counts.get(len(w), 0) + 1
        power = matrix.as_int_matrix()
        for p in range(1, 9):
            weighted = sum(q * orbit_counts.get(q, 0) for q in range(1, p + 1) if p % q == 0)
            assert count_period_points(matrix, p) == weighted == power.trace()
            power = power @ matrix.as_int_matrix()
    elapsed = time.perf_counter() - started
    report(6, f"trace counts match weighted orbit enumeration on 50 matrices, {elapsed:.2f} s")


def test_criterion_07_orbit_equivalence_implies_flow_equivalence(realization_family):
    started = time.perf_counter()
    invariants = [case[4] for case in realization_family[0]]
    buckets: dict[object, list] = {}
    for inv in invariants:
        key = (inv.group.free_rank, inv.group.torsion_factors, inv.det_value)
        buckets.setdefault(key, []).append(inv)
    coe_pairs = 0
    for bucket in buckets.values():
        for a in bucket:
            for b in bucket:
                if decide_coe(a, b).equivalent:
                    coe_pairs += 1
                    assert decide_flow(a, b).equivalent
    # pairs in different buckets differ in group or determinant, so the
    # orbit-equivalence test is false there and the implication is vacuous
    elapsed = time.perf_counter() - started
    assert coe_pairs > len(invariants)  # reflexive pairs plus genuine matches
    report(7, f"{coe_pairs} orbit-equivalent pairs all flow equivalent, {elapsed:.2f} s")


def test_criterion_08_structural_invariants(realization_family):
    started = time.perf_counter()
    rng = random.Random(880)

    def check_snf(m: IntMatrix):
        snf = smith_normal_form(m)
        assert (snf.U @ m @ snf.V) == snf.D
        assert abs(determinant(snf.U)) == 1
        assert abs(determinant(snf.V)) == 1
        diag = snf.diagonal
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0

    checked = 0
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        check_snf(random_int_matrix(rng, rows, cols))
        checked += 1
    matrices = [FULL2, GOLDEN] + [random_zero_one(rng, rng.randint(2, 4)) for _ in range(20)]
    family_cases = realization_family[0]
    matrices += [case[3] for case in family_cases[:: max(1, len(family_cases) // 25)]]
    for matrix in matrices:
        relation = identity_minus(matrix, transpose=True)
        check_snf(relation)
        checked += 1
        inv = invariant_triple(matrix)
        order = inv.group.order()
        if order is None:
            assert inv.det_value == 0
        else:
            assert abs(inv.det_value) == order
    elapsed = time.perf_counter() - started
    report(8, f"{checked} Smith forms verified, determinant/order law holds, {elapsed:.2f} s")


def test_criterion_09_edge_shift_preserves_invariant():
    started = time.perf_counter()
    rng = random.Random(990)
    for _ in range(50):
        matrix = random_nonneg(rng, rng.randint(2, 4), max_entry=3)
        direct = invariant_triple(matrix)
        recoded = invariant_triple(edge_shift(matrix))
        assert direct.group == recoded.group
        assert direct.det_value == recoded.det_value
        assert direct.sign == recoded.sign
        assert direct.k1_rank == recoded.k1_rank
        assert pointed_is_isomorphic(direct.pointed, recoded.pointed)
    elapsed = time.perf_counter() - started
    report(9, f"invariant triple stable under edge recoding on 50 matrices, {elapsed:.2f} s")


def test_criterion_10_cli_reports_deterministic(tmp_path):
    started = time.perf_counter()
    files = {
        "full2": "2\n1 1\n1 1\n",
        "full3": "3\n1 1 1\n1 1 1\n1 1 1\n",
        "golden": "2\n1 1\n1 0\n",
        "nonneg": "2\n2 1\n1 2\n",
    }
    paths = {}
    for name, text in files.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    fn_path = tmp_path / "fn.txt"
    fn_path.write_text("window 1\n1 1\n2 -1\n")
    invocations = [
        ["validate", paths["full2"], "--json"],
        ["invariant", paths["full3"], "--json"],
        ["invariant", paths["nonneg"], "--json"],
        ["coe", paths["full2"], paths["golden"], "--json"],
        ["flow", paths["full2"], paths["full3"], "--json"],
        ["positivity", paths["full2"], str(fn_path), "--json"],
        ["periodic", paths["golden"], "4", "--json"],
        ["realize", "--torsion", "4", "--point", "3", "--sign", "-1", "--json"],
    ]
    for args in invocations:
        outputs = set()
        for _ in range(3):
            run = subprocess.run(
                [sys.executable, "-m", "markovshift", *args],
                capture_output=True,
                text=True,
            )
            outputs.add(run.stdout)
            json.loads(run.stdout)  # every report must be well-formed JSON
        assert len(outputs) == 1, f"output varies for {args}"
    elapsed = time.perf_counter() - started
    report(10, f"{len(invocations)} commands byte-identical over 3 runs, {elapsed:.2f} s")
