"""Realize any admissible invariant triple as an explicit 0/1 matrix.

The pipeline: pick a base matrix that presents the requested group with
the requested determinant sign, choose nonnegative tail lengths whose
class lies in the orbit of the requested distinguished element, graft
tails of those lengths onto the states to move the all-ones class onto
that class, and finally recode the nonnegative matrix as a 0/1 edge
shift, which has one state per unit of the tail-extended matrix.

There are two bases.  The diagonal plan (``choose_shape``,
``base_matrix``) has a diagonal entry d + 2 for each prime-power part d
of the torsion, so Z/p costs about p states, and its tails have a
closed form (``point_vector``).  A finite cyclic group Z/m
also has a 2x2 base with entries near sqrt(m) and a closed-form class map
(``cyclic_base``), so it costs a few times sqrt(m) states: 82 for Z/1009,
against 1,023.  ``realize`` keeps whichever plan ends with fewer states.
Neither plan needs a Smith form.  The stages only construct; ``realize``
verifies the result once, by recomputing the invariant of the returned
matrix and matching it against the request, the point with
``pointed_is_isomorphic``.  The returned edge shift merges back to the
tail-extended matrix (``invariant_triple`` takes its column
amalgamation), so that check, irreducibility, the permutation test and
the one Smith form of a realization, runs at the smaller size.
"""

from __future__ import annotations

import math
from itertools import chain, count

from ._value import frozen
from .errors import PreconditionError, ShapeError, VerificationError
from .groups import (
    FgAbelianGroup,
    GroupElement,
    PointedGroup,
    pointed_is_isomorphic,
)
from .intmat import _check_ints
from .invariants import MarkovInvariant, invariant_triple
from .shifts import NonNegMatrix, ZeroOneMatrix, edge_shift


@frozen
class RealizationPlan:
    """Audit trail of a realization: parameters and every intermediate matrix.

    ``d_list`` is empty when the cyclic base was chosen.
    """

    d_list: tuple[int, ...]
    c_vector: tuple[int, ...]
    base: NonNegMatrix
    extended: NonNegMatrix
    final: ZeroOneMatrix
    invariant: MarkovInvariant


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for d in chain((2,), count(3, 2)):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def choose_shape(group: FgAbelianGroup, sign: int) -> tuple[int, ...]:
    """Diagonal parameters realizing the group with the requested sign.

    One leading zero is always present; each further zero contributes a
    free generator, each prime-power part of the torsion contributes a
    cyclic factor, and trailing ones only flip the determinant's sign by
    adjusting the matrix size parity.
    """
    _check_ints("sign", (sign,))
    if sign not in (-1, 0, 1):
        raise PreconditionError("sign must be -1, 0 or 1")
    if (sign == 0) != (not group.is_finite):
        if group.is_finite:
            raise PreconditionError("a finite group needs sign -1 or 1")
        raise PreconditionError("an infinite group forces determinant 0, so sign must be 0")
    parts = [p**e for m in group.torsion_factors for p, e in _factorize(m).items()]
    d = [0] * (1 + group.free_rank) + sorted(parts)
    if group.is_finite:
        if len(d) < 2:
            d.append(1)
        if (-1) ** len(d) != sign:
            d.append(1)
    return tuple(d)


def base_matrix(d_list) -> NonNegMatrix:
    """Matrix with diagonal d_i + 2 and ones elsewhere, d_1 = 0.

    Presents Z^(zeros - 1) plus the cyclic factors Z/d_i (d_i >= 2), and
    det(id - A) = (-1)^N * product of d_2..d_N.
    """
    d = tuple(d_list)
    _check_ints("diagonal parameter", d)
    if len(d) < 2:
        raise PreconditionError("base matrix needs at least 2 diagonal parameters")
    if d[0] != 0:
        raise PreconditionError("the first diagonal parameter must be 0")
    if any(x < 0 for x in d):
        raise PreconditionError("diagonal parameters must be nonnegative")
    n = len(d)
    rows = tuple(
        tuple(d[i] + 2 if i == j else 1 for j in range(n)) for i in range(n)
    )
    return NonNegMatrix(rows)


def point_vector(group: FgAbelianGroup, point: GroupElement, d) -> tuple[int, ...]:
    """Nonnegative tails c, one per entry of d, whose class is in the point's orbit.

    ``d`` is ``choose_shape(group, sign)``, whose second entry is the first
    free slot when there is one.  The columns of id - B^t for
    B = ``base_matrix(d)`` are -1 - d_i e_i, so BF(B^t) = Z^n / <1, d_i e_i>
    and c has the class (c_i - c_1 mod d_i) for i >= 2, which the tail
    extension puts on the all-ones vector.  With g the content of the free
    coordinates (0 when there are none), c is 0 except for g in the first
    free slot and gcd(t_j, g, q) mod gcd(g, q) in each slot q split from
    the torsion factor m_j.  That class is in the orbit of the point:
    GL_r(Z) carries the free part to (g, 0, ..., 0), a unit scales each
    prime-power coordinate, and a map Z^r -> T adds any element of g*T.
    Along the chain m_1 | m_2 | ... the p-parts never decrease, so the
    factors that q divides begin with the ones whose p-part is q, one for
    each slot q of d: the slots are matched to factors in turn, with no
    factoring.
    """
    point = group.element(point.free_coords, point.torsion_coords)
    g = math.gcd(*point.free_coords)
    c = [0] * len(d)
    if group.free_rank:
        c[1] = g
    owners = {}
    for i, q in enumerate(d):
        if q > 1:
            if q not in owners:
                owners[q] = (t for t, m in zip(point.torsion_coords, group.torsion_factors) if m % q == 0)
            c[i] = math.gcd(next(owners[q]), g, q) % math.gcd(g, q)
    return tuple(c)


def cyclic_base(m: int, sign: int) -> tuple[NonNegMatrix, tuple[int, int]]:
    """2x2 base presenting Z/m (m >= 1) with det(id - A) = sign * m, and its class map.

    Returns B and weights (w1, w2): a vector v has the class w1*v1 + w2*v2
    in Z/m.  For sign -1, B = [[2, s], [t, b]] with s = isqrt(m - 1) + 1,
    t = ceil(m / s) and b = st - m + 1; the first column of id - B^t,
    -e1 - s*e2, makes e1 = -s*e2.  For sign 1, B = [[x + 1, 1], [t, y + 1]]
    with x = isqrt(m) + 1, y = floor(m / x) + 1 and t = xy - m; the second
    column makes e2 = -x*e1.  Either way id - B^t has a -1 entry, so the
    group is cyclic of order |det| = m, and no entry exceeds sqrt(m) + 2.
    """
    if sign == -1:
        s = math.isqrt(m - 1) + 1
        t = -(-m // s)
        return NonNegMatrix(((2, s), (t, s * t - m + 1))), (-s, 1)
    x = math.isqrt(m) + 1
    y = m // x + 1
    return NonNegMatrix(((x + 1, 1), (x * y - m, y + 1))), (1, -x)


def cyclic_tails(m: int, weights: tuple[int, int], u: int, bound: int) -> tuple[int, int] | None:
    """Tails c with the least c1 + c2 below ``bound`` that move the point into the orbit of u.

    The tail-extended base carries the class of 1 + c; automorphisms of
    Z/m are the unit multiples, so that class lies in the orbit of u
    exactly when gcd(class, m) = g = gcd(u, m).  Ties go to the smaller c1,
    and None means no sum below ``bound`` has such tails.  One weight of
    ``cyclic_base`` is 1: for each length o of the other tail, the class is
    r + y for the weight-1 tail y, and the least y is the least y = -r
    (mod g) with gcd(r + y, m) = g, stepped by g.  o stops once it passes
    the best sum.
    """
    w1, w2 = weights
    g = math.gcd(u, m)
    other = w2 if w1 == 1 else w1
    best, end = None, bound
    o = 0
    while o < end:
        r = other * (1 + o) + 1
        y = -r % g
        while o + y < end and math.gcd(r + y, m) != g:
            y += g
        if o + y < end:
            best = (y, o) if w1 == 1 else (o, y)
            # at an equal sum a later o has the smaller c1 only when c1 is the weight-1 tail
            end = o + y + (w1 == 1)
        o += 1
    return best


def tail_extension(a: NonNegMatrix, c) -> NonNegMatrix:
    """Graft a tail of length c_i onto state i, preserving the invariant.

    State (i, j) with j < c_i steps deterministically to (i, j + 1); state
    (i, c_i) behaves like original state i feeding the tail heads.  This
    moves the all-ones class onto the class of 1 + c while keeping the
    determinant.
    """
    c = tuple(c)
    _check_ints("tail length", c)
    if len(c) != a.size:
        raise ShapeError("tail length vector must have one entry per state")
    if any(x < 0 for x in c):
        raise PreconditionError("tail lengths must be nonnegative")
    states = [(i, j) for i in range(1, a.size + 1) for j in range(c[i - 1] + 1)]
    index = {s: k for k, s in enumerate(states)}
    size = len(states)
    rows = [[0] * size for _ in range(size)]
    for (i, j), k in index.items():
        if j == c[i - 1]:
            for t in range(1, a.size + 1):
                rows[k][index[(t, 0)]] = a.entry(i, t)
        else:
            rows[k][index[(i, j + 1)]] = 1
    return NonNegMatrix.from_rows(rows)


def _final_states(base: NonNegMatrix, c) -> int:
    """States of the edge shift of tail_extension(base, c): its entry sum."""
    return sum(map(sum, base.entries)) + sum(c)


def _plan(group: FgAbelianGroup, point: GroupElement, sign: int):
    """Diagonal parameters, base and tails of the plan with the fewest final states.

    The diagonal plan comes first; its tails have a closed form.  A finite
    cyclic group also has the cyclic plan, whose tails are searched only
    over the sums that would end strictly below the diagonal plan, so a
    tie keeps the diagonal plan, and the search costs at most the square
    of that plan's state count: a smooth m, whose diagonal base is small,
    is not searched over the whole sqrt(m) box.
    """
    d = choose_shape(group, sign)
    base = base_matrix(d)
    c = point_vector(group, point, d)
    if not group.is_finite or len(group.torsion_factors) > 1:
        return d, base, c
    m = group.order()
    cyclic, weights = cyclic_base(m, sign)
    # the sum is the one torsion coordinate, or 0 in the trivial group
    u = sum(point.torsion_coords)
    tails = cyclic_tails(m, weights, u, _final_states(base, c) - _final_states(cyclic, ()))
    if tails is None:
        return d, base, c
    return (), cyclic, tails


def realize(
    group: FgAbelianGroup,
    point: GroupElement,
    sign: int,
) -> tuple[ZeroOneMatrix, RealizationPlan]:
    """Construct an irreducible 0/1 matrix whose invariant triple is given.

    The triple must be admissible: sign 0 exactly for infinite groups.
    Finite cyclic groups take the cyclic base when it ends with fewer
    states than the diagonal plan; every other group takes the diagonal
    plan.  The returned matrix has been verified by recomputing its
    invariant and matching it against the request; the point is matched up
    to a group automorphism, since its coordinates depend on the states.
    """
    point = group.element(point.free_coords, point.torsion_coords)
    d, base, c = _plan(group, point, sign)
    extended = tail_extension(base, c)
    final = edge_shift(extended)
    # edge_shift returns a ZeroOneMatrix, so only irreducibility and the permutation
    # property are left to check; invariant_triple checks both on the merged matrix
    try:
        inv = invariant_triple(final)
    except PreconditionError as exc:
        raise VerificationError(f"realized matrix failed validation: {exc}") from exc
    if inv.group != group or inv.sign != sign:
        raise VerificationError("realized matrix has the wrong group or sign")
    if not pointed_is_isomorphic(inv.pointed, PointedGroup(group, point)):
        raise VerificationError("realized matrix does not carry the requested distinguished element")
    plan = RealizationPlan(
        d_list=d, c_vector=c, base=base, extended=extended, final=final, invariant=inv
    )
    return final, plan
