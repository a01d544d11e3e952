import math
import random
import time
from itertools import product

import pytest

import markovshift.groups
import markovshift.realization
from markovshift import (
    DomainError,
    FgAbelianGroup,
    GroupElement,
    PointedGroup,
    ShapeError,
    decide_coe,
    decide_flow,
    determinant,
    from_presentation,
    pointed_is_isomorphic,
    realize,
    smith_normal_form,
    tensor_z2,
)
from markovshift.groups import _coprime_base, _heights, _orbit_profile, _valuation

from _support import (
    OracleLimitError,
    all_shapes_up_to,
    apply_generator,
    apply_literal_automorphism,
    aut_orbit,
    count_calls,
    elementary_automorphisms,
    elements,
    identity,
    int_matrix,
    literal_automorphism_tuples,
    mul_vector,
    orbit_brute_force,
    p_valuation,
    pointed_by_factoring,
    pointed_orbit_brute_force,
    prime_orbit_profile,
    random_int_matrix,
    solve_linear,
)

FULL3_RELATION = int_matrix([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
TRIVIAL = FgAbelianGroup(0)


def pointed(factors, coords, free_rank=0, free=()):
    g = FgAbelianGroup(free_rank, tuple(factors))
    return PointedGroup(g, g.element(free, coords))


class TestCanonicalForm:
    def test_chain_enforced(self):
        with pytest.raises(DomainError):
            FgAbelianGroup(0, (2, 3))
        with pytest.raises(DomainError):
            FgAbelianGroup(0, (1,))

    def test_a_factor_past_the_str_digit_limit_is_named(self):
        # 10^5000 has 5,001 digits, more than Python 3.11's str() converts
        with pytest.raises(DomainError) as info:
            FgAbelianGroup(0, (10**5000, 3))
        assert str(info.value) == f"torsion factors must form a divisibility chain; 1{'0' * 5000} does not divide 3"
        with pytest.raises(DomainError) as info:
            FgAbelianGroup(0, (-(10**5000),))
        assert str(info.value) == f"torsion factor -1{'0' * 5000} is not allowed; factors must be >= 2"

    def test_canonical_group_merges_prime_powers(self):
        # Z^n modulo a diagonal matrix is the direct sum of the cyclic groups
        # of its entries; its canonical form merges them into one chain
        def cyclic_sum(orders):
            n = len(orders)
            diagonal = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(orders)]
            group, _, _ = from_presentation(int_matrix(diagonal), (0,) * n)
            return group

        assert cyclic_sum([8, 5]).torsion_factors == (40,)
        assert cyclic_sum([2, 3]).torsion_factors == (6,)
        assert cyclic_sum([2, 2, 4]).torsion_factors == (2, 2, 4)
        assert cyclic_sum([6, 4]).torsion_factors == (2, 12)
        assert cyclic_sum([0, 0, 1, 1]) == FgAbelianGroup(2)

    def test_order(self):
        assert FgAbelianGroup(0, (2, 4)).order() == 8
        assert FgAbelianGroup(1, (2,)).order() is None


class TestFromPresentation:
    def test_identity_gives_trivial(self):
        assert from_presentation(identity(3), (1, 2, 3)) == (TRIVIAL, GroupElement(), 1)

    def test_unimodular_gives_trivial(self):
        assert from_presentation(int_matrix([[0, -1], [-1, 0]]), (1, 1)) == (TRIVIAL, GroupElement(), -1)

    def test_full_three_shift(self):
        z2 = FgAbelianGroup(0, (2,))
        assert from_presentation(FULL3_RELATION, (1, 1, 1)) == (z2, z2.element(torsion=(1,)), -2)
        assert from_presentation(FULL3_RELATION, (0, 0, 0)) == (z2, z2.zero(), -2)

    def test_rejects_a_non_integer_vector(self):
        with pytest.raises(ShapeError, match="vector entry 1.5 is not an integer"):
            from_presentation(FULL3_RELATION, (1.5, 0, 0))
        with pytest.raises(ShapeError, match="vector of length 2 does not fit 3 rows"):
            from_presentation(FULL3_RELATION, (1, 0))

    def test_vectors_equal_iff_difference_in_column_span(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = random_int_matrix(rng, n, n, bound=4)
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            w = tuple(rng.randint(-5, 5) for _ in range(n))
            same = from_presentation(m, v)[1] == from_presentation(m, w)[1]
            diff = tuple(a - b for a, b in zip(v, w))
            # difference lies in the column span iff M x = diff has a solution
            assert same == (solve_linear(m, diff) is not None)

    def test_replayed_transforms_agree_with_the_matrices(self):
        # the unit pivots and the block's Smith form give the coordinates that
        # U of one Smith form of all of m gives, and its determinant
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(1, 6)
            m = random_int_matrix(rng, n, n, bound=4)
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            snf = smith_normal_form(m)
            w, diag = mul_vector(snf.U, v), snf.diagonal
            g = FgAbelianGroup(diag.count(0), tuple(d for d in diag if d >= 2))
            expected = g.element([x for x, d in zip(w, diag) if d == 0], [x for x, d in zip(w, diag) if d >= 2])
            assert from_presentation(m, v) == (g, expected, determinant(m))
            with pytest.raises(ShapeError):
                from_presentation(m, v + (0,))

    def test_smith_form_only_on_the_block_without_units(self, monkeypatch):
        blocks = count_calls(monkeypatch, markovshift.groups, "smith_normal_form")
        # every pivot of FULL3_RELATION is -1 but the last, 2
        from_presentation(FULL3_RELATION, (1, 1, 1))
        assert blocks == [int_matrix([[2]])]
        blocks.clear()
        from_presentation(int_matrix([[0, -1], [-1, 0]]), (1, 1))
        assert blocks == []


class TestIsIsomorphic:
    # canonical forms are complete invariants: isomorphic groups are equal
    def test_equal_forms(self):
        assert FgAbelianGroup(0, (2,)) == FgAbelianGroup(0, (2,))

    def test_rank_differs(self):
        assert FgAbelianGroup(1, (2,)) != FgAbelianGroup(0, (2,))

    def test_distinct_invariant_factors(self):
        assert FgAbelianGroup(0, (2, 4)) != FgAbelianGroup(0, (8,))


class TestHeightSequence:
    # _heights takes (valuation, exponent) pairs, v = e for a zero coordinate:
    # 2 in Z/8 + Z/2 at p = 2 is (1, 3), and 0 in Z/2 is (1, 1)
    def test_zero_element(self):
        assert _heights([(3, 3)]) == (math.inf,)

    def test_spec_values(self):
        assert _heights([(1, 3), (1, 1)]) == (1, 2, math.inf)
        assert _heights([(0, 3), (1, 1)]) == (0, 1, 2, math.inf)

    def test_invariant_under_every_automorphism(self):
        for factors in [(4,), (2, 4), (2, 2), (8,), (3, 3), (9,)]:
            p = 2 if factors[0] % 2 == 0 else 3
            exps = [round(math.log(m, p)) for m in factors]
            assert [p**e for e in exps] == list(factors)

            def pairs(coords):
                return [(p_valuation(p, math.gcd(c, m)), e) for c, m, e in zip(coords, factors, exps)]

            autos = literal_automorphism_tuples(factors)
            for coords in product(*(range(m) for m in factors)):
                h = _heights(pairs(coords))
                for images in autos:
                    moved = apply_literal_automorphism(images, coords, factors)
                    assert _heights(pairs(moved)) == h


class TestCoprimeBase:
    def test_refines_by_gcds(self):
        assert _coprime_base([12, 18]) == (2, 3)
        assert _coprime_base([36, 6]) == (6,)
        assert _coprime_base([6, 10, 15]) == (2, 3, 5)
        assert _coprime_base([1, 1]) == ()
        assert _coprime_base([7, 7, 49]) == (7,)

    def test_pairwise_coprime_and_spans_the_inputs(self):
        rng = random.Random(5)
        for _ in range(300):
            numbers = [math.prod(rng.choice((2, 3, 5, 6, 10, 12, 30, 49)) for _ in range(rng.randint(0, 4)))
                       for _ in range(rng.randint(1, 6))]
            base = _coprime_base(numbers)
            assert all(b > 1 for b in base)
            assert all(math.gcd(x, y) == 1 for i, x in enumerate(base) for y in base[i + 1:])
            for n in numbers:
                rest = n
                for b in base:
                    rest //= b ** _valuation(b, rest)
                assert rest == 1, (numbers, base, n)


class TestPointedIsomorphic:
    def test_cyclic_generators_match(self):
        assert pointed_is_isomorphic(pointed((4,), (1,)), pointed((4,), (3,)))

    def test_generator_vs_non_generator(self):
        assert not pointed_is_isomorphic(pointed((4,), (1,)), pointed((4,), (2,)))

    def test_mixed_content_two_torsion_differs(self):
        a = pointed((2,), (1,), free_rank=1, free=(2,))
        b = pointed((2,), (0,), free_rank=1, free=(2,))
        assert not pointed_is_isomorphic(a, b)

    def test_mixed_case_coset_reachable(self):
        # content 1 lets the shear move anything torsion-wise
        a = pointed((2,), (1,), free_rank=1, free=(1,))
        b = pointed((2,), (0,), free_rank=1, free=(1,))
        assert pointed_is_isomorphic(a, b)

    def test_zero_points_reduce_to_group_isomorphism(self):
        g = FgAbelianGroup(2, (2, 6))
        assert pointed_is_isomorphic(PointedGroup(g, g.zero()), PointedGroup(g, g.zero()))

    def test_different_groups(self):
        assert not pointed_is_isomorphic(pointed((4,), (1,)), pointed((2, 2), (1, 1)))

    def test_reflexive_and_symmetric(self):
        rng = random.Random(31)
        shapes = [(2,), (4,), (2, 4), (3, 9), (2, 2, 2), (12,), (6, 6)]
        for factors in shapes:
            g = FgAbelianGroup(0, factors)
            members = elements(g)
            sample = rng.sample(members, min(6, len(members)))
            for x in sample:
                assert pointed_is_isomorphic(PointedGroup(g, x), PointedGroup(g, x))
                for y in sample:
                    ab = pointed_is_isomorphic(PointedGroup(g, x), PointedGroup(g, y))
                    ba = pointed_is_isomorphic(PointedGroup(g, y), PointedGroup(g, x))
                    assert ab == ba

    def test_accepts_images_under_explicit_automorphisms(self):
        # automorphisms of Z^r + T are (unimodular on the free part,
        # any hom free -> torsion, automorphism of T); sample them
        # explicitly and demand the decision recognizes every image
        rng = random.Random(777)
        cases = [(1, (4,)), (1, (2, 4)), (2, (6,)), (2, (2, 2)), (1, (9,))]
        for rank, factors in cases:
            g = FgAbelianGroup(rank, factors)
            gens = elementary_automorphisms(factors)
            for _ in range(25):
                free = tuple(rng.randint(-4, 4) for _ in range(rank))
                torsion = tuple(rng.randint(0, m - 1) for m in factors)
                x = g.element(free, torsion)
                # random unimodular map on the free part via elementary ops
                alpha = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
                for _ in range(6):
                    i, j = rng.randrange(rank), rng.randrange(rank)
                    if i != j:
                        c = rng.randint(-2, 2)
                        for k in range(rank):
                            alpha[i][k] += c * alpha[j][k]
                    elif rng.random() < 0.3:
                        alpha[i] = [-v for v in alpha[i]]
                new_free = tuple(
                    sum(alpha[i][k] * free[k] for k in range(rank)) for i in range(rank)
                )
                # random hom free -> torsion
                beta = [
                    tuple(rng.randint(0, m - 1) for m in factors) for _ in range(rank)
                ]
                shift = tuple(
                    sum(f * b[i] for f, b in zip(free, beta)) % factors[i]
                    for i in range(len(factors))
                )
                # random torsion automorphism as a word in verified generators
                new_torsion = torsion
                for _ in range(rng.randint(0, 6)):
                    if gens:
                        new_torsion = apply_generator(rng.choice(gens), new_torsion, factors)
                moved = g.element(
                    new_free,
                    tuple((s + t) % m for s, t, m in zip(shift, new_torsion, factors)),
                )
                assert pointed_is_isomorphic(PointedGroup(g, x), PointedGroup(g, moved))

    def test_mixed_decision_is_an_equivalence_relation(self):
        g = FgAbelianGroup(1, (8,))
        members = [
            g.element((f,), (t,)) for f in range(-3, 4) for t in range(8)
        ]
        points = [PointedGroup(g, x) for x in members]
        related = {
            (i, j): pointed_is_isomorphic(points[i], points[j])
            for i in range(len(points))
            for j in range(len(points))
        }
        for i in range(len(points)):
            assert related[(i, i)]
            for j in range(len(points)):
                assert related[(i, j)] == related[(j, i)]
                if related[(i, j)]:
                    for k in range(len(points)):
                        assert related[(j, k)] == related[(i, k)]

    def test_large_torsion_with_free_part(self):
        # |T| = 1024 with content 2: the coset 1 + 2T holds every odd
        # element, 2 + 2T none of them
        g = FgAbelianGroup(1, (1024,))
        a = PointedGroup(g, g.element((2,), (1,)))
        assert pointed_is_isomorphic(a, PointedGroup(g, g.element((2,), (3,))))
        assert not pointed_is_isomorphic(a, PointedGroup(g, g.element((2,), (2,))))

    def test_coset_orbits_keep_the_exponents(self):
        # (1, 0) and (0, 1) share an orbit of T/2T = (Z/2)^2, but 1 has order
        # 2 in Z/2 and every element of 1 + 2(Z/4) has order 4
        a = pointed((2, 4), (1, 0), free_rank=1, free=(2,))
        b = pointed((2, 4), (0, 1), free_rank=1, free=(2,))
        assert not pointed_is_isomorphic(a, b)
        assert not pointed_orbit_brute_force(a, b)

    def test_content_one_reaches_every_torsion_part(self):
        # Z + (Z/3)^6, |T| = 729: with content 1 the shear reaches every
        # torsion part, with content 3 none but the torsion orbit
        a = pointed((3,) * 6, (1, 0, 0, 0, 0, 0), free_rank=1, free=(1,))
        b = pointed((3,) * 6, (0, 0, 0, 0, 0, 0), free_rank=1, free=(-1,))
        assert pointed_is_isomorphic(a, b)
        c = pointed((3,) * 6, (0, 0, 0, 0, 0, 0), free_rank=1, free=(3,))
        assert not pointed_is_isomorphic(a, c)

    def test_decides_without_factoring(self, monkeypatch):
        # the only factoring left in the package is the realization's split
        # of a requested group; no decision may reach it
        assert not hasattr(markovshift.groups, "_factorize")
        g = FgAbelianGroup(0, (4, 12))
        one, same, double = (realize(g, g.element((), t), 1)[0] for t in [(1, 1), (3, 7), (2, 2)])

        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(markovshift.realization, "_factorize", refuse)
        assert decide_coe(one, same).equivalent
        assert decide_flow(one, double).equivalent
        assert not decide_coe(one, double).equivalent
        m = 2 * 1099511627791
        assert pointed_is_isomorphic(pointed((m,), (1,)), pointed((m,), (3,)))
        assert not pointed_is_isomorphic(pointed((m,), (1,)), pointed((m,), (2,)))
        assert pointed_is_isomorphic(
            pointed((4, 12), (1, 1), 1, (2,)), pointed((4, 12), (3, 7), 1, (2,))
        )
        assert not pointed_is_isomorphic(
            pointed((2, 4), (1, 0), 1, (2,)), pointed((2, 4), (0, 1), 1, (2,))
        )


MERSENNE_61 = 2**61 - 1
MERSENNE_89 = 2**89 - 1
HUGE = MERSENNE_61 * MERSENNE_89


def factor_over_mersennes(n):
    """Prime exponents of a product of the two Mersenne primes M61 and M89."""
    out = {p: p_valuation(p, n) for p in (MERSENNE_61, MERSENNE_89)}
    assert math.prod(p**e for p, e in out.items()) == n
    return {p: e for p, e in out.items() if e}


class TestHugeModulus:
    # m = (2^61 - 1)(2^89 - 1): trial division up to sqrt(m) ~ 2^75 would
    # never end, so these decisions finishing at all shows nothing factors
    ELEMENTS = (
        0, 1, 2, 3, MERSENNE_61, 5 * MERSENNE_61, MERSENNE_89, 7 * MERSENNE_89,
        HUGE - 1, HUGE - MERSENNE_61, 2**100 % HUGE, (3**150) % HUGE,
    )

    def test_cyclic_orbits_are_gcd_classes(self):
        # in a cyclic group Z/m, x ~ y exactly when gcd(x, m) = gcd(y, m)
        started = time.perf_counter()
        for x in self.ELEMENTS:
            for y in self.ELEMENTS:
                expected = math.gcd(x, HUGE) == math.gcd(y, HUGE)
                assert pointed_is_isomorphic(pointed((HUGE,), (x,)), pointed((HUGE,), (y,))) == expected
        assert time.perf_counter() - started < 1.0

    def test_noncyclic_shape_and_free_part(self):
        started = time.perf_counter()
        shapes = [(0, (MERSENNE_61, HUGE)), (1, (MERSENNE_61, HUGE)), (2, (HUGE, HUGE * MERSENNE_89))]
        contents = (0, 1, MERSENNE_61, 2 * MERSENNE_89)
        decided = positives = 0
        for rank, factors in shapes:
            g = FgAbelianGroup(rank, factors)
            for da in contents if rank else (0,):
                for db in (da, MERSENNE_61) if rank else (0,):
                    fa, fb = (da, 0)[:rank], (-db, 0)[:rank]
                    for t in product(self.ELEMENTS[:6], repeat=2):
                        for s in product(self.ELEMENTS[3:8], repeat=2):
                            a = PointedGroup(g, g.element(fa, t))
                            b = PointedGroup(g, g.element(fb, s))
                            got = pointed_is_isomorphic(a, b)
                            assert got == pointed_by_factoring(a, b, factor_over_mersennes), (
                                rank, factors, da, db, t, s
                            )
                            decided += 1
                            positives += got
        assert decided == 15_300 and 1000 < positives < decided - 1000
        # each decision and its oracle take well under a millisecond
        assert time.perf_counter() - started < 20.0


class TestFactoringOracleAgreement:
    SHAPES = [(6,), (36,), (6, 36), (2, 6, 30), (30, 900), (4, 12), (2, 2, 4), (12, 72), (3, 9, 27), (10, 100)]

    def test_seeded_pairs_agree(self):
        rng = random.Random(2024)
        pairs = positives = 0
        for factors in self.SHAPES:
            gens = elementary_automorphisms(factors)
            for rank in (0, 1, 2):
                g = FgAbelianGroup(rank, factors)
                for _ in range(100):
                    d = rng.choice((0, 1, 2, 3, 5, 6, 10, 12, 30, 60, 7)) if rank else 0
                    fa = (d, 0)[:rank]
                    fb = (-d,) if rank == 1 else (2 * d, 3 * d)[:rank]
                    t = tuple(rng.randrange(m) for m in factors)
                    if rng.random() < 0.5:
                        s = tuple(rng.randrange(m) for m in factors)
                    else:
                        # an image of t under an automorphism, moved inside t + d*T
                        s = t
                        for _ in range(rng.randint(0, 8)):
                            s = apply_generator(rng.choice(gens), s, factors)
                        s = tuple((c + d * rng.randrange(m)) % m for c, m in zip(s, factors))
                    a = PointedGroup(g, g.element(fa, t))
                    b = PointedGroup(g, g.element(fb, s))
                    got = pointed_is_isomorphic(a, b)
                    assert got == pointed_by_factoring(a, b), (factors, rank, d, t, s)
                    pairs += 1
                    positives += got
        assert pairs == 3000
        assert positives > 1000


class TestOrbitBruteForce:
    def test_trivial_match(self):
        assert orbit_brute_force(pointed((2,), (1,)), pointed((2,), (1,)))

    def test_z4_generator_vs_double(self):
        # Aut(Z/4) = {x -> x, x -> 3x}; the orbit of 1 is {1, 3}
        assert not orbit_brute_force(pointed((4,), (1,)), pointed((4,), (2,)))
        assert orbit_brute_force(pointed((4,), (1,)), pointed((4,), (3,)))

    def test_shear_example(self):
        assert orbit_brute_force(pointed((2, 8), (1, 0)), pointed((2, 8), (1, 4)))

    def test_rejects_infinite_and_oversized(self):
        g = FgAbelianGroup(1)
        with pytest.raises(OracleLimitError):
            orbit_brute_force(PointedGroup(g, g.element(free=(1,))), PointedGroup(g, g.element(free=(1,))))
        big = FgAbelianGroup(0, (1024,))
        with pytest.raises(OracleLimitError):
            orbit_brute_force(
                PointedGroup(big, big.element(torsion=(1,))),
                PointedGroup(big, big.element(torsion=(1,))),
            )

    def test_orbit_closure_matches_literal_enumeration(self):
        # raw generator-image enumeration is feasible only on tiny groups;
        # there it must agree exactly with the closure orbits
        for factors in [(2,), (4,), (2, 2), (2, 4), (8,), (3, 3), (2, 2, 2), (12,)]:
            autos = literal_automorphism_tuples(factors)
            for coords in product(*(range(m) for m in factors)):
                literal_orbit = {
                    apply_literal_automorphism(images, coords, factors) for images in autos
                }
                assert aut_orbit(factors, coords) == frozenset(literal_orbit)


class TestAgreementSweep:
    def test_pointed_matches_brute_force_small(self):
        for factors in all_shapes_up_to(32):
            g = FgAbelianGroup(0, factors)
            members = elements(g)
            # one coprime base serves every element of the group
            base = _coprime_base(
                [*factors, *(math.gcd(c, m) for x in members for c, m in zip(x.torsion_coords, factors))]
            )
            by_profile, by_primes = {}, {}
            for x in members:
                by_profile.setdefault(_orbit_profile(base, factors, x.torsion_coords, 0), set()).add(
                    x.torsion_coords
                )
                by_primes.setdefault(prime_orbit_profile(factors, x.torsion_coords, 0), set()).add(
                    x.torsion_coords
                )
            for x in members:
                orbit = aut_orbit(factors, x.torsion_coords)
                # sandwich: closure is contained in the true orbit, which is
                # contained in the height class; equality pins both
                assert orbit == frozenset(by_profile[_orbit_profile(base, factors, x.torsion_coords, 0)])
                assert orbit == frozenset(by_primes[prime_orbit_profile(factors, x.torsion_coords, 0)])


class TestMixedAgreementSweep:
    def test_pointed_matches_coset_oracle_with_free_part(self):
        # every shape with |T| <= 16, free rank 1 and 2, contents 0..2*exponent
        # and |T|, every pair of torsion parts under equal contents
        pairs = 0
        for factors in all_shapes_up_to(16):
            order = math.prod(factors)
            exponent = factors[-1] if factors else 1
            torsion_parts = list(product(*(range(m) for m in factors)))
            for rank in (1, 2):
                g = FgAbelianGroup(rank, factors)
                for d in sorted(set(range(2 * exponent + 1)) | {order}):
                    free_a = (d,) + (0,) * (rank - 1)
                    free_b = (-d,) if rank == 1 else (2 * d, 3 * d)
                    for t in torsion_parts:
                        a = PointedGroup(g, g.element(free_a, t))
                        for s in torsion_parts:
                            b = PointedGroup(g, g.element(free_b, s))
                            assert pointed_is_isomorphic(a, b) == pointed_orbit_brute_force(
                                a, b
                            ), (factors, rank, d, t, s)
                            pairs += 1
        assert pairs > 100_000


class TestTensorZ2:
    def test_trivial(self):
        assert tensor_z2(FgAbelianGroup(0)) == TRIVIAL

    def test_z_plus_z6(self):
        assert tensor_z2(FgAbelianGroup(1, (6,))) == FgAbelianGroup(0, (2, 2))

    def test_odd_torsion_dies(self):
        assert tensor_z2(FgAbelianGroup(0, (3,))) == TRIVIAL

    def test_counts_even_factors_and_rank(self):
        assert tensor_z2(FgAbelianGroup(2, (3, 6, 12))) == FgAbelianGroup(0, (2, 2, 2, 2))


class TestGroupArithmetic:
    def test_element_reduction(self):
        g = FgAbelianGroup(1, (4,))
        assert g.element((5,), (7,)) == g.element((5,), (3,))

    def test_enumeration_counts_order(self):
        g = FgAbelianGroup(0, (2, 6))
        members = elements(g)
        assert len(members) == g.order() == 12
        assert len(set(members)) == 12

    def test_rejects_non_integer_coordinates(self):
        g = FgAbelianGroup(1, (3,))
        for free, torsion, bad in [
            ((1.9,), (2,), "1.9"),
            ((1,), (2.7,), "2.7"),
            ((True,), (2,), "True"),
            ((1,), ("2",), "'2'"),
        ]:
            with pytest.raises(ShapeError, match=bad):
                g.element(free, torsion)

    def test_pointed_group_rejects_a_non_integer_free_coordinate(self):
        g = FgAbelianGroup(1, (3,))
        assert not g.contains(GroupElement((1.5,), (1,)))
        with pytest.raises(ShapeError, match="distinguished element"):
            PointedGroup(g, GroupElement((1.5,), (1,)))

    def test_pointed_group_rejects_a_non_integer_torsion_coordinate(self):
        g = FgAbelianGroup(0, (2,))
        for coord in (1.0, True):
            assert not g.contains(GroupElement((), (coord,)))
            with pytest.raises(ShapeError, match="distinguished element"):
                PointedGroup(g, GroupElement((), (coord,)))
        assert g.contains(GroupElement((), (1,)))

    def test_rejects_non_integer_shape(self):
        with pytest.raises(ShapeError, match="torsion factor 3.0"):
            FgAbelianGroup(0, (3.0,))
        with pytest.raises(ShapeError, match="free rank True"):
            FgAbelianGroup(True)
        with pytest.raises(ShapeError, match="free rank '1'"):
            FgAbelianGroup("1")
