"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), runs one operation per ``run`` call (timed per operation) and
checks an operation's output in ``check`` against the independent
computations of ``checks`` (never timed).  ``digest`` reduces an output
to a comparable value so later rounds are checked against the first.

The package is reached only through ``markovshift`` attribute lookups at
call time, so the tracer can wrap every public function it names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

import markovshift as ms
from markovshift import cli as ms_cli
from markovshift import fileio as ms_fileio

import checks
import gen


@dataclass
class Op:
    kind: str
    data: dict
    expect_failure: bool = False


def _write_rows(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)}\n")
        fh.writelines(" ".join(map(str, r)) + "\n" for r in rows)


def _admissible_words(rows, k: int) -> list[tuple[int, ...]]:
    n = len(rows)
    words = [(s,) for s in range(1, n + 1)]
    for _ in range(k - 1):
        words = [w + (t,) for w in words for t in range(1, n + 1) if rows[w[-1] - 1][t - 1]]
    return words


def _function_table(rng, rows, window: int, positive_shift: int, plant_negative: bool):
    """Table g + eta - eta o shift with g >= 0, optionally with a planted negative cycle."""
    words = _admissible_words(rows, window)
    g = {w: rng.randint(0, positive_shift) for w in words}
    if plant_negative:
        cycle = _short_cycle(rng, rows)
        m = len(cycle)
        blocks = [tuple(cycle[(i + t) % m] for t in range(window)) for i in range(m)]
        for b in blocks:
            g[b] = 0
        g[blocks[0]] = -1
    eta = {w: rng.randint(-5, 5) for w in _admissible_words(rows, window - 1)} if window > 1 else None
    table = {}
    for w in words:
        table[w] = g[w] + (eta[w[:-1]] - eta[w[1:]] if eta else 0)
    return table


def _short_cycle(rng, rows) -> list[int]:
    """A simple cycle through a random state, found by breadth-first search."""
    n = len(rows)
    start = rng.randrange(n)
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in range(n):
                if not rows[v][w]:
                    continue
                if w == start:
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return [s + 1 for s in reversed(path)]
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    raise RuntimeError("irreducible matrix without a cycle through a state")


class Workload:
    name = ""
    expected_failure: type = ()

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale

    def count(self, full: int) -> int:
        return max(1, round(full * self.scale))

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.workdir, label)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def digest(self, out):
        """A value equal between two runs of an operation exactly when the outputs agree."""
        return out

    def load_matrix(self, path, rows):
        """Write rows, then read and validate them through the package."""
        _write_rows(path, rows)
        loaded = ms_fileio.read_matrix_rows(path)
        if not ms.validate(loaded).classifiable:
            raise RuntimeError(f"generated matrix {path} is not classifiable")
        return ms.ZeroOneMatrix.from_rows(loaded)


# ---------------------------------------------------------------------------
# classify


class Classify(Workload):
    """Pairs of 0/1 matrices: both invariant triples, then the COE and flow decisions."""

    name = "classify"
    expected_failure = ms.UndecidedError

    # pairs per kind at full scale; pairs() spreads sizes and densities
    # evenly over each kind's range
    RELABEL = 80
    SINGULAR_RELABEL = 10
    RECODE = 30
    INDEPENDENT = 75
    SINGULAR_INDEPENDENT = 15
    LARGE_PRIME = 6
    # seed-independent dense tail: (left size, right size, density)
    TAIL = tuple((36 + k % 6, 36 + (k + 1) % 6, 0.3 + 0.1 * (k % 3)) for k in range(12))
    # tail lengths for the Z + (Z/3)^6 pairs: free content 1 in every case
    Z3_TAILS = ((1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0))

    def pairs(self):
        """(kind, left rows, right rows, expect_failure) for every pair."""
        out = []
        rng = gen.rng_for(self.seed, "classify-relabel")
        count = self.count(self.RELABEL)
        for k in range(count):
            n = 8 + (k * 23) // count
            density = 0.1 + 0.1 * (k % 5)
            a = gen.random_matrix(rng, n, density)
            while gen.det_mod(a) == 0:
                a = gen.random_matrix(rng, n, density)
            out.append(("relabel", a, gen.relabel(rng, a), False))
        for k in range(self.count(self.SINGULAR_RELABEL)):
            # at most 7 states keeps |T| <= 216 (Hadamard), inside the pointed search bound
            a = gen.singular_matrix(rng, 6 + k % 2, 0.3 + 0.1 * (k % 3))
            out.append(("relabel", a, gen.relabel(rng, a), False))
        rng = gen.rng_for(self.seed, "classify-recode")
        for k in range(self.count(self.RECODE)):
            n = 5 + k % 4
            a = gen.random_matrix(rng, n, 0.15 + 0.05 * (k % 5))
            while n > 7 and gen.det_mod(a) == 0:
                a = gen.random_matrix(rng, n, 0.15 + 0.05 * (k % 5))
            b = [list(r) for r in ms.higher_block(ms.ZeroOneMatrix.from_rows(a), 2).entries]
            out.append(("recode", a, b, False))
        rng = gen.rng_for(self.seed, "classify-independent")
        count = self.count(self.INDEPENDENT)
        for k in range(count):
            n = 6 + (k * 25) // count
            density = 0.1 + 0.1 * (k % 5)
            a = gen.random_matrix(rng, n, density)
            b = gen.random_matrix(rng, max(6, n + rng.randint(-2, 2)), density)
            out.append(("independent", a, b, False))
        count = self.count(self.SINGULAR_INDEPENDENT)
        for k in range(count):
            n = 8 + (k * 23) // count
            a = gen.singular_matrix(rng, n, 0.2 + 0.1 * (k % 3))
            b = gen.random_matrix(rng, n, 0.3)
            while gen.det_mod(b) == 0:
                b = gen.random_matrix(rng, n, 0.3)
            out.append(("independent", a, b, False))
        rng = gen.rng_for(self.seed, "classify-prime")
        for k in range(self.count(self.LARGE_PRIME)):
            a = self.large_prime_matrix(rng, 36)
            out.append(("split", a, gen.out_split(rng, gen.relabel(rng, a)), False))
        rng = gen.rng_for(0, "classify-tail")
        for left, right, density in self.TAIL[: self.count(len(self.TAIL))]:
            out.append(
                ("independent", gen.random_matrix(rng, left, density), gen.random_matrix(rng, right, density), False)
            )
        rng = gen.rng_for(0, "classify-z3")
        base = [list(r) for r in ms.base_matrix((0, 0, 3, 3, 3, 3, 3, 3)).entries]
        for tails in self.Z3_TAILS[: self.count(len(self.Z3_TAILS))]:
            extended = ms.NonNegMatrix.from_rows(gen.tail_extension_rows(base, tails))
            a = [list(r) for r in ms.edge_shift(extended).entries]
            out.append(("relabel", a, gen.relabel(rng, a), True))
        return out

    @staticmethod
    def large_prime_matrix(rng, n: int):
        """Nonsingular matrix whose group order has a 35-36 bit prime factor P.

        Every other prime factor stays below 2^17, so trial division of
        the group order costs about sqrt(P) steps on every seed.
        """
        while True:
            a = gen.random_matrix(rng, n, 0.45)
            det = gen.exact_det(a)
            if det == 0:
                continue
            factors = gen.prime_factors(det)
            if 35 <= factors[-1].bit_length() <= 36 and (len(factors) == 1 or factors[-2] < (1 << 17)):
                return a

    def setup(self):
        directory = self.fresh_dir("classify")
        ops = []
        for k, (kind, a, b, fails) in enumerate(self.pairs()):
            ma = self.load_matrix(os.path.join(directory, f"{k}a.txt"), a)
            mb = self.load_matrix(os.path.join(directory, f"{k}b.txt"), b)
            ops.append(Op(kind, {"a": ma, "b": mb, "rows_a": a, "rows_b": b}, fails))
        gen.rng_for(self.seed, "classify-order").shuffle(ops)
        return ops

    def run(self, op):
        left = ms.invariant_triple(op.data["a"])
        right = ms.invariant_triple(op.data["b"])
        coe = ms.decide_coe(left, right)
        flow = ms.decide_flow(left, right)
        return left, right, coe.equivalent, flow.equivalent

    def digest(self, out):
        left, right, coe, flow = out
        return (left.summary(), right.summary(), coe, flow)

    def check(self, op, out):
        left, right, coe, flow = out
        fa = checks.rational_invariants(op.data["rows_a"])
        fb = checks.rational_invariants(op.data["rows_b"])
        errs = checks.check_invariant(op.data["rows_a"], left.summary(), fa)
        errs += checks.check_invariant(op.data["rows_b"], right.summary(), fb)
        errs += checks.check_pair_verdict(op.kind, fa, fb, coe, flow)
        return errs


# ---------------------------------------------------------------------------
# realize


def invariant_factor_chains(order: int) -> list[tuple[int, ...]]:
    """Every chain m1 | m2 | ... with all mi >= 2 and product ``order``."""
    out = []

    def extend(remaining, last, acc):
        if remaining == 1:
            out.append(acc)
            return
        for m in range(max(2, last), remaining + 1):
            rest = remaining // m
            # every later factor is a multiple of m, so m divides the rest
            if remaining % m == 0 and m % last == 0 and (rest == 1 or rest % m == 0):
                extend(rest, m, acc + (m,))

    extend(order, 1, ())
    return out


class Realize(Workload):
    """realize(group, point, sign) over a fixed mix of triple families.

    The shapes are the same for every seed and the seed draws the points.
    Each point u is paired with -u under the other sign: their tails have
    complementary lengths, which keeps a round's total size, and so its
    cost, nearly independent of the seed.  The prime-order triples cost
    most of a round, so their points are fixed at -1 with sign -1, the
    shortest tail: their costs then rise gradually with the prime, so the
    95th percentile falls inside a dense run of similar operations.
    """

    name = "realize"
    MAX_FINITE_ORDER = 20
    # points drawn per finite shape, each under both signs; two halve the
    # seed's sway on the median, which lies among these operations
    FINITE_POINTS = 2
    # free rank 1 and 2 over these torsion parts: |T| <= 512 and every
    # prime-power part <= 16, so tails stay short
    FREE_TORSION = ((), (2,), (5,), (2, 2), (3, 3), (2, 8), (4, 4, 4), (2,) * 6, (4,) * 4, (8, 8, 8))
    # every prime from 50 to 110
    PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109)

    def triples(self):
        rng = gen.rng_for(self.seed, "realize")
        out = []
        finite = [c for order in range(1, self.MAX_FINITE_ORDER + 1) for c in invariant_factor_chains(order)]
        for chain in finite[: self.count(len(finite))]:
            for _ in range(self.FINITE_POINTS):
                u = tuple(rng.randrange(m) for m in chain)
                out.append((0, chain, (), u, 1))
                out.append((0, chain, (), tuple(-x % m for x, m in zip(u, chain)), -1))
        for p in self.PRIMES[: self.count(len(self.PRIMES))]:
            out.append((0, (p,), (), (p - 1,), -1))
        for chain in self.FREE_TORSION[: self.count(len(self.FREE_TORSION))]:
            for rank in (1, 2):
                free = tuple(rng.randint(-2, 2) for _ in range(rank))
                out.append((rank, chain, free, tuple(rng.randrange(m) for m in chain), 0))
        return out

    def setup(self):
        ops = []
        for rank, chain, free, torsion, sign in self.triples():
            group = ms.FgAbelianGroup(rank, chain)
            point = group.element(free, torsion)
            ops.append(Op("realize", {"group": group, "point": point, "sign": sign}))
        return ops

    def run(self, op):
        final, _plan = ms.realize(op.data["group"], op.data["point"], op.data["sign"])
        return final

    def digest(self, out):
        return out.entries

    def check(self, op, out):
        group, point = op.data["group"], op.data["point"]
        rows = [list(r) for r in out.entries]
        return checks.check_realized(
            rows,
            group.free_rank,
            group.torsion_factors,
            (point.free_coords, point.torsion_coords),
            op.data["sign"],
        )


# ---------------------------------------------------------------------------
# orbits


class Orbits(Workload):
    """Periodic-orbit censuses and positivity decisions."""

    name = "orbits"
    CENSUS = 80
    POSITIVITY = 40
    CENSUS_POINTS = 8000

    def setup(self):
        rng = gen.rng_for(self.seed, "orbits")
        ops = []
        for k in range(self.count(self.CENSUS)):
            n = 3 + k % 4
            rows, period, _ = gen.census_matrix(rng, n, (1 + 0.5 * (k % 4)) / n, self.CENSUS_POINTS)
            window = 1 + k % 2
            table = {w: rng.randint(-3, 3) for w in _admissible_words(rows, window)}
            matrix = ms.ZeroOneMatrix.from_rows(rows)
            fn = ms.LocallyConstantFn.over(matrix, window, table)
            data = {"a": matrix, "rows": rows, "period": period, "fn": fn, "table": table, "window": window}
            ops.append(Op("census", data))
        for k in range(self.count(self.POSITIVITY)):
            n = 8 + (k * 13) // self.count(self.POSITIVITY)
            rows = gen.random_matrix(rng, n, 1.5 / n)
            window = 2 + k % 2
            negative = k % 2 == 1
            table = _function_table(rng, rows, window, 3, negative)
            matrix = ms.ZeroOneMatrix.from_rows(rows)
            fn = ms.LocallyConstantFn.over(matrix, window, table)
            data = {"a": matrix, "rows": rows, "fn": fn, "table": table, "window": window, "positive": not negative}
            ops.append(Op("positivity", data))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        d = op.data
        if op.kind == "census":
            words = ms.periodic_orbit_words(d["a"], d["period"])
            sums = [ms.orbit_sum(d["a"], d["fn"], w) for w in words]
            counts = [ms.count_period_points(d["a"], q) for q in range(1, d["period"] + 1)]
            return words, sums, counts
        result = ms.is_positive_class(d["a"], d["fn"])
        return result.positive, result.witness

    def check(self, op, out):
        d = op.data
        if op.kind == "census":
            words, sums, counts = out
            return checks.check_census(d["rows"], d["period"], d["table"], d["window"], words, sums, counts)
        positive, witness = out
        return checks.check_positivity(d["rows"], d["table"], d["window"], d["positive"], positive, witness)


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    """Whole ``python -m markovshift ... --json`` commands, one child at a time.

    With ``in_process`` the same argument lists go to ``cli.main`` in this
    interpreter instead, which is how the traced run sees the layers.
    """

    name = "cli"
    in_process = False
    PERIODIC_POINTS = 200_000

    def setup(self):
        rng = gen.rng_for(self.seed, "cli")
        d = self.fresh_dir("cli")

        def path(name):
            return os.path.join(d, name)

        a = gen.random_matrix(rng, rng.randint(4, 7), 0.4)
        c = gen.random_matrix(rng, rng.randint(4, 7), 0.4)
        files = {"A": a, "A2": gen.relabel(rng, a), "C": c}
        for name, rows in files.items():
            _write_rows(path(name + ".txt"), rows)
        reducible = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        _write_rows(path("R.txt"), reducible)
        with open(path("BAD.txt"), "w", encoding="utf-8") as fh:
            fh.write("3\n1 1\n1 0 1\n")
        tables = {
            "pos": (_function_table(rng, a, 2, 3, False), 2, True),
            "neg": (_function_table(rng, a, 2, 3, True), 2, False),
        }
        for name, (table, window, _) in tables.items():
            lines = [f"window {window}"] + [f"{''.join(map(str, w))} {v}" for w, v in sorted(table.items())]
            with open(path(f"fn_{name}.txt"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        with open(path("fn_bad.txt"), "w", encoding="utf-8") as fh:
            fh.write("window 2\n1 1\n")
        chain = rng.choice([ch for order in range(2, 25) for ch in invariant_factor_chains(order)])
        point = [rng.randrange(m) for m in chain]
        sign = rng.choice((1, -1))
        # two censuses of nearly PERIODIC_POINTS points each: an eighth of a
        # round's commands, about twice as slow as the rest, so the 95th
        # percentile falls among them and not in the start-up jitter
        censuses = {}
        for name, n in (("P", 5), ("Q", 6)):
            rows, period, _ = gen.census_matrix(rng, n, 0.4, self.PERIODIC_POINTS)
            _write_rows(path(name + ".txt"), rows)
            censuses[name] = (rows, period)
        self.files = dict(files, R=reducible, **{name: rows for name, (rows, _) in censuses.items()})
        self.tables = tables
        realize_args = ["realize", "--torsion", ",".join(map(str, chain)), "--point", ",".join(map(str, point))]
        commands = [
            ("validate", ["validate", path("A.txt")], {"expect": 0, "matrix": "A"}),
            ("validate", ["validate", path("R.txt")], {"expect": 1, "matrix": "R"}),
            ("invariant", ["invariant", path("A.txt")], {"matrix": "A"}),
            ("invariant", ["invariant", path("C.txt")], {"matrix": "C"}),
            ("invariant", ["invariant", path("BAD.txt")], {"expect": 2}),
            ("coe", ["coe", path("A.txt"), path("A2.txt")], {"pair": ("A", "A2")}),
            ("coe", ["coe", path("A.txt"), path("C.txt")], {"pair": ("A", "C")}),
            ("flow", ["flow", path("A.txt"), path("A2.txt")], {"pair": ("A", "A2")}),
            ("flow", ["flow", path("C.txt"), path("A.txt")], {"pair": ("C", "A")}),
            ("realize", realize_args + ["--sign", str(sign), "-o", path("out.txt")],
             {"triple": (chain, point, sign), "output": path("out.txt")}),
            ("realize", ["realize", "--torsion", "4,6", "--sign", "1"], {"expect": 2}),
            ("positivity", ["positivity", path("A.txt"), path("fn_pos.txt")], {"table": "pos"}),
            ("positivity", ["positivity", path("A.txt"), path("fn_neg.txt")], {"table": "neg"}),
            ("positivity", ["positivity", path("A.txt"), path("fn_bad.txt")], {"expect": 2}),
            *(
                ("periodic", ["periodic", path(name + ".txt"), str(period)], {"matrix": name, "period": period})
                for name, (_, period) in censuses.items()
            ),
        ]
        ops = [Op(kind, {"argv": argv + ["--json"], **extra}) for kind, argv, extra in commands]
        # one command before timing starts, so bytecode caches exist
        self.run(ops[0])
        return ops

    def run(self, op):
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = ms_cli.main(op.data["argv"])
            return code, buffer.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "markovshift", *op.data["argv"]],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, op, out):
        code, stdout = out
        try:
            report = json.loads(stdout)
        except ValueError:
            return [f"{op.kind}: output is not JSON (exit {code})"]
        d = op.data
        if "expect" in d:
            if code != d["expect"]:
                return [f"{op.kind}: exit {code}, expected {d['expect']}"]
            if d["expect"] == 2 and report.get("error", {}).get("kind") not in ("parse_error", "invalid_input"):
                return [f"{op.kind}: rejected input without a structured error"]
            if op.kind == "validate":
                rows = self.files[d["matrix"]]
                if report["classifiable"] != (checks.is_irreducible(rows) and not checks.is_permutation(rows)):
                    return ["validate: verdict disagrees with breadth-first irreducibility"]
            return []
        if op.kind == "invariant":
            if code != 0:
                return [f"invariant: exit {code}"]
            return checks.check_invariant(self.files[d["matrix"]], report["invariant"])
        if op.kind in ("coe", "flow"):
            left, right = (self.files[m] for m in d["pair"])
            verdict = report["equivalent"]
            if code != (0 if verdict else 1):
                return [f"{op.kind}: exit {code} does not match verdict {verdict}"]
            kind = "relabel" if d["pair"] == ("A", "A2") else "independent"
            fl, fr = checks.rational_invariants(left), checks.rational_invariants(right)
            errs = checks.check_invariant(left, report["certificate"]["left"], fl)
            errs += checks.check_invariant(right, report["certificate"]["right"], fr)
            if op.kind == "coe":
                cert = report["certificate"]["checks"]
                flow = cert["groups_isomorphic"] and cert["determinants_equal"]
                return errs + checks.check_pair_verdict(kind, fl, fr, verdict, flow)
            return errs + checks.check_pair_verdict(kind, fl, fr, None, verdict)
        if op.kind == "realize":
            if code != 0:
                return [f"realize: exit {code}"]
            chain, point, sign = d["triple"]
            with open(d["output"], encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            rows = [[int(x) for x in line.split()] for line in lines[1 : int(lines[0]) + 1]]
            if report["plan"]["final_matrix"] != rows:
                return ["realize: written matrix differs from the reported one"]
            return checks.check_realized(rows, 0, tuple(chain), ((), tuple(point)), sign)
        if op.kind == "positivity":
            table, window, positive = self.tables[d["table"]]
            if code != (0 if report["positive"] else 1):
                return [f"positivity: exit {code} does not match the verdict"]
            witness = tuple(int(ch) for ch in report["witness"]) if report["witness"] else None
            return checks.check_positivity(self.files["A"], table, window, positive, report["positive"], witness)
        if op.kind == "periodic":
            if code != 0:
                return [f"periodic: exit {code}"]
            rows = self.files[d["matrix"]]
            words = [tuple(int(ch) for ch in w) for p in report["periods"] for w in p["orbit_representatives"]]
            counts = [p["points_fixed_by_power"] for p in report["periods"]]
            table = {(s,): 0 for s in range(1, len(rows) + 1)}
            return checks.check_census(rows, d["period"], table, 1, words, [0] * len(words), counts)
        return [f"unknown command kind {op.kind}"]


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (Classify, Realize, Orbits, Cli)}
