import math
import random
from itertools import product

import pytest

import markovshift.groups
from markovshift import (
    DomainError,
    FgAbelianGroup,
    IntMatrix,
    PointedGroup,
    ShapeError,
    UnsupportedError,
    canonical_group,
    from_presentation,
    height_sequence,
    is_isomorphic,
    pointed_is_isomorphic,
    tensor_z2,
)
from markovshift.groups import _orbit_profile, _primary_parts

from _support import (
    all_shapes_up_to,
    apply_generator,
    apply_literal_automorphism,
    aut_orbit,
    count_calls,
    elementary_automorphisms,
    literal_automorphism_tuples,
    orbit_brute_force,
    pointed_orbit_brute_force,
    random_int_matrix,
    solve_linear,
)

FULL3_RELATION = IntMatrix.from_rows([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])


def pointed(factors, coords, free_rank=0, free=()):
    g = FgAbelianGroup(free_rank, tuple(factors))
    return PointedGroup(g, g.element(free, coords))


class TestCanonicalForm:
    def test_chain_enforced(self):
        with pytest.raises(DomainError):
            FgAbelianGroup(0, (2, 3))
        with pytest.raises(DomainError):
            FgAbelianGroup(0, (1,))

    def test_canonical_group_merges_prime_powers(self):
        assert canonical_group(0, [8, 5]).torsion_factors == (40,)
        assert canonical_group(0, [2, 3]).torsion_factors == (6,)
        assert canonical_group(0, [2, 2, 4]).torsion_factors == (2, 2, 4)
        assert canonical_group(0, [6, 4]).torsion_factors == (2, 12)
        assert canonical_group(2, [1, 1]) == FgAbelianGroup(2)

    def test_order(self):
        assert FgAbelianGroup(0, (2, 4)).order() == 8
        assert FgAbelianGroup(1, (2,)).order() is None


class TestFromPresentation:
    def test_identity_gives_trivial(self):
        pres = from_presentation(IntMatrix.identity(3))
        assert pres.group.is_trivial

    def test_unimodular_gives_trivial(self):
        pres = from_presentation(IntMatrix.from_rows([[0, -1], [-1, 0]]))
        assert pres.group.is_trivial

    def test_full_three_shift(self):
        pres = from_presentation(FULL3_RELATION)
        assert pres.group == FgAbelianGroup(0, (2,))
        assert pres.element_from_vector((1, 1, 1)) == pres.group.element(torsion=(1,))
        assert pres.element_from_vector((0, 0, 0)) == pres.group.zero()

    def test_vectors_equal_iff_difference_in_column_span(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = random_int_matrix(rng, n, n, bound=4)
            pres = from_presentation(m)
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            w = tuple(rng.randint(-5, 5) for _ in range(n))
            same = pres.element_from_vector(v) == pres.element_from_vector(w)
            diff = tuple(a - b for a, b in zip(v, w))
            # difference lies in the column span iff M x = diff has a solution
            assert same == (solve_linear(m, diff) is not None)

    def test_replayed_transforms_agree_with_the_matrices(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(1, 6)
            pres = from_presentation(random_int_matrix(rng, n, n, bound=4))
            snf, g = pres.snf, pres.group
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            w = snf.U.mul_vector(v)
            expected = g.element([w[i] for i in pres.free_positions], [w[i] for i in pres.torsion_positions])
            assert pres.element_from_vector(v) == expected
            x = g.element(
                [rng.randint(-3, 3) for _ in range(g.free_rank)],
                [rng.randint(0, m - 1) for m in g.torsion_factors],
            )
            coords = [0] * n
            for pos, c in zip(pres.free_positions + pres.torsion_positions, x.free_coords + x.torsion_coords):
                coords[pos] = c
            assert pres.representative(x) == snf.U_inv.mul_vector(coords)
            with pytest.raises(ShapeError):
                pres.element_from_vector(v + (0,))

    def test_representative_round_trip(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 4)
            pres = from_presentation(random_int_matrix(rng, n, n, bound=4))
            g = pres.group
            free = tuple(rng.randint(-3, 3) for _ in range(g.free_rank))
            torsion = tuple(rng.randint(0, m - 1) for m in g.torsion_factors)
            x = g.element(free, torsion)
            assert pres.element_from_vector(pres.representative(x)) == x


class TestIsIsomorphic:
    def test_equal_forms(self):
        assert is_isomorphic(FgAbelianGroup(0, (2,)), FgAbelianGroup(0, (2,)))

    def test_rank_differs(self):
        assert not is_isomorphic(FgAbelianGroup(1, (2,)), FgAbelianGroup(0, (2,)))

    def test_distinct_invariant_factors(self):
        assert not is_isomorphic(FgAbelianGroup(0, (2, 4)), FgAbelianGroup(0, (8,)))


class TestHeightSequence:
    def test_zero_element(self):
        assert height_sequence(2, (8,), (0,)) == (math.inf,)

    def test_spec_values(self):
        assert height_sequence(2, (8, 2), (2, 0)) == (1, 2, math.inf)
        assert height_sequence(2, (8, 2), (1, 0)) == (0, 1, 2, math.inf)

    def test_rejects_non_p_power(self):
        with pytest.raises(DomainError):
            height_sequence(2, (6,), (1,))
        with pytest.raises(DomainError):
            height_sequence(4, (4,), (1,))

    def test_invariant_under_every_automorphism(self):
        for factors in [(4,), (2, 4), (2, 2), (8,), (3, 3), (9,)]:
            p = 2 if factors[0] % 2 == 0 else 3
            autos = literal_automorphism_tuples(factors)
            for coords in product(*(range(m) for m in factors)):
                h = height_sequence(p, factors, coords)
                for images in autos:
                    moved = apply_literal_automorphism(images, coords, factors)
                    assert height_sequence(p, factors, moved) == h


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
            elements = list(g.all_elements())
            sample = rng.sample(elements, min(6, len(elements)))
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
        elements = [
            g.element((f,), (t,)) for f in range(-3, 4) for t in range(8)
        ]
        points = [PointedGroup(g, x) for x in elements]
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

    def test_factorizes_each_torsion_factor_once(self, monkeypatch):
        calls = count_calls(monkeypatch, markovshift.groups, "_factorize")
        m = 2 * 1099511627791
        assert pointed_is_isomorphic(pointed((m,), (1,)), pointed((m,), (3,)))
        assert calls == [m]
        # both cosets' profiles share one split
        calls.clear()
        assert pointed_is_isomorphic(
            pointed((4, 12), (1, 1), 1, (2,)), pointed((4, 12), (3, 7), 1, (2,))
        )
        assert calls == [4, 12]


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
        with pytest.raises(UnsupportedError):
            orbit_brute_force(PointedGroup(g, g.element(free=(1,))), PointedGroup(g, g.element(free=(1,))))
        big = FgAbelianGroup(0, (1024,))
        with pytest.raises(UnsupportedError):
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
            elements = list(g.all_elements())
            parts = _primary_parts(factors)
            by_profile = {}
            for x in elements:
                by_profile.setdefault(_orbit_profile(parts, x.torsion_coords, 0), set()).add(
                    x.torsion_coords
                )
            for x in elements:
                orbit = aut_orbit(factors, x.torsion_coords)
                # sandwich: closure is contained in the true orbit, which is
                # contained in the height class; equality pins both
                assert orbit == frozenset(by_profile[_orbit_profile(parts, x.torsion_coords, 0)])


class TestMixedAgreementSweep:
    def test_pointed_matches_coset_oracle_with_free_part(self):
        # every shape with |T| <= 16, free rank 1 and 2, contents 0..2*exponent
        # and |T|, every pair of torsion parts under equal contents
        pairs = 0
        for factors in all_shapes_up_to(16):
            order = math.prod(factors)
            exponent = factors[-1] if factors else 1
            elements = list(product(*(range(m) for m in factors)))
            for rank in (1, 2):
                g = FgAbelianGroup(rank, factors)
                for d in sorted(set(range(2 * exponent + 1)) | {order}):
                    free_a = (d,) + (0,) * (rank - 1)
                    free_b = (-d,) if rank == 1 else (2 * d, 3 * d)
                    for t in elements:
                        a = PointedGroup(g, g.element(free_a, t))
                        for s in elements:
                            b = PointedGroup(g, g.element(free_b, s))
                            assert pointed_is_isomorphic(a, b) == pointed_orbit_brute_force(
                                a, b
                            ), (factors, rank, d, t, s)
                            pairs += 1
        assert pairs > 100_000


class TestTensorZ2:
    def test_trivial(self):
        assert tensor_z2(FgAbelianGroup(0)).is_trivial

    def test_z_plus_z6(self):
        assert tensor_z2(FgAbelianGroup(1, (6,))) == FgAbelianGroup(0, (2, 2))

    def test_odd_torsion_dies(self):
        assert tensor_z2(FgAbelianGroup(0, (3,))).is_trivial

    def test_counts_even_factors_and_rank(self):
        assert tensor_z2(FgAbelianGroup(2, (3, 6, 12))) == FgAbelianGroup(0, (2, 2, 2, 2))


class TestGroupArithmetic:
    def test_element_reduction(self):
        g = FgAbelianGroup(1, (4,))
        assert g.element((5,), (7,)) == g.element((5,), (3,))

    def test_enumeration_counts_order(self):
        g = FgAbelianGroup(0, (2, 6))
        elements = list(g.all_elements())
        assert len(elements) == g.order() == 12
        assert len(set(elements)) == 12

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

    def test_rejects_non_integer_shape(self):
        with pytest.raises(ShapeError, match="torsion factor 3.0"):
            FgAbelianGroup(0, (3.0,))
        with pytest.raises(ShapeError, match="free rank True"):
            FgAbelianGroup(True)
        with pytest.raises(ShapeError, match="free rank '1'"):
            FgAbelianGroup("1")

    def test_add_negate(self):
        g = FgAbelianGroup(1, (5,))
        x = g.element((2,), (3,))
        assert g.add(x, g.negate(x)) == g.zero()
        assert g.scale(3, x) == g.element((6,), (4,))
