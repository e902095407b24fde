import itertools
import random

import pytest

from _util import (
    SMALL_POOL,
    affine_pattern_set,
    bits_of,
    decompose_by_split_search,
    first_violated_identity,
    identity_value,
    pattern_of,
    rand_nonzero_signature,
    rand_signature,
)
from holant.classes import (
    affine_support,
    class_report,
    compress,
    is_affine,
    is_degenerate,
    is_hadamard_matchgate,
    is_matchgate,
    is_product,
    is_twisted_affine,
    is_twisted_hadamard_matchgate,
    parity_of,
    primitive_decomposition,
    z4_polynomial,
)
from holant.fkt import pfaffian
from holant.scalar import I, ONE, SQRT2, ZERO, Scalar, ZETA8, i_power, zeta_power
from holant.signatures import (
    Signature,
    _reindex,
    crossover,
    disequality,
    equality,
    exact_one,
    flip_var,
    tensor,
    unary,
)
from holant.transforms import H2, apply_matrix, scale_by_weight

POWERS_OF_I = [ONE, I, -ONE, -I]
FIVE_VALUES = [Scalar.from_int(0)] + POWERS_OF_I


def reassemble(factors):
    """Interleaved tensor product of (positions, signature) factors."""
    acc, acc_pos = None, ()
    for pos, g in factors:
        if acc is None:
            acc, acc_pos = g, tuple(pos)
            continue
        merged = tuple(sorted(acc_pos + tuple(pos)))
        fpos = tuple(merged.index(p) + 1 for p in acc_pos)
        acc = tensor(acc, g, f_positions=fpos)
        acc_pos = merged
    return acc


def even_indicator(n):
    """[1,0,1,0,...]: 1 on even-weight assignments."""
    sym = [1 if w % 2 == 0 else 0 for w in range(n + 1)]
    return Signature.from_symmetric(sym)


# -- parity -------------------------------------------------------------------


def test_parity_of():
    assert parity_of(equality(2)) == "even"
    assert parity_of(exact_one(3)) == "odd"
    assert parity_of(Signature([0, 0, 0, 0])) == "zero"
    assert parity_of(equality(3)) == "none"
    assert parity_of(unary(1, 0)) == "even"


# -- tensor factorization -----------------------------------------------------


def test_primitive_decomposition_crossover():
    factors = primitive_decomposition(crossover())
    assert [pos for pos, _ in factors] == [(1, 3), (2, 4)]
    assert all(g == equality(2) for _, g in factors)
    assert reassemble(factors) == crossover()


def test_primitive_decomposition_reassembles():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        f = rand_nonzero_signature(rng, n)
        factors = primitive_decomposition(f)
        assert sorted(p for pos, _ in factors for p in pos) == list(range(1, n + 1))
        assert reassemble(factors) == f


def test_primitive_decomposition_finds_planted_split():
    rng = random.Random(9)
    for _ in range(15):
        f = rand_nonzero_signature(rng, 2)
        g = rand_nonzero_signature(rng, 2)
        h = tensor(f, g, f_positions=(1, 3))
        factors = primitive_decomposition(h)
        assert reassemble(factors) == h
        assert all(len(pos) <= 2 for pos, _ in factors)
    # arity 16: eight rank-2 binaries on (p, p + 8), interleaved
    pairs = [(p, p + 8) for p in range(1, 9)]
    planted = []
    while len(planted) < len(pairs):
        g = rand_nonzero_signature(rng, 2)
        if g[0] * g[3] != g[1] * g[2]:
            planted.append(g)
    f = reassemble(list(zip(pairs, planted)))
    factors = primitive_decomposition(f)
    assert [pos for pos, _ in factors] == pairs
    assert reassemble(factors) == f
    r = min(f.support())
    for pos, g in factors[1:]:
        assert g == _reindex(f, pos, r) / f[r]


def test_primitive_decomposition_rejects_zero():
    with pytest.raises(ValueError):
        primitive_decomposition(Signature([0, 0]))


def test_equality3_is_primitive():
    factors = primitive_decomposition(equality(3))
    assert len(factors) == 1
    assert factors[0][0] == (1, 2, 3)


def test_is_degenerate():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        f = unary(1, 1)
        parts = []
        for i in range(n):
            u = rand_nonzero_signature(rng, 1)
            parts.append(u)
        f = parts[0]
        for u in parts[1:]:
            f = tensor(f, u)
        ok, factors = is_degenerate(f)
        assert ok
        rebuilt = factors[0]
        for u in factors[1:]:
            rebuilt = tensor(rebuilt, u)
        assert rebuilt == f
    assert is_degenerate(equality(2))[0] is False
    assert is_degenerate(exact_one(2))[0] is False
    ok, factors = is_degenerate(Signature([0, 0, 0, 0]))
    assert ok and tensor(factors[0], factors[1]) == Signature([0, 0, 0, 0])


# -- product family -----------------------------------------------------------


def test_product_members():
    assert is_product(equality(2))
    assert is_product(equality(5))
    assert is_product(disequality())
    assert is_product(crossover())
    assert is_product(Signature([0, 0, 0, 0]))
    assert is_product(Signature.from_symmetric([3, 0, 0, 0, -2]))  # [a,0..0,b]
    assert is_product(unary(2, 5))
    # scaled antipodal-support block, support {01, 10}
    assert is_product(Signature([0, 2 * I, SQRT2, 0]))


def test_product_non_members():
    assert not is_product(Signature.from_symmetric([1, 0, 1, 0]))
    assert not is_product(exact_one(3))
    assert not is_product(Signature.from_symmetric([1, 1, 0]))
    bad = is_product(Signature([1, 1, 1, 0]))
    assert not bad and bad.witness["positions"] == (1, 2)


def test_product_random_constructions():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        f = _random_product_member(rng, n)
        assert is_product(f)
        # any diagonal rescaling of one variable stays in the family
        g = Signature([v * (I if (idx >> (n - 1)) & 1 else ONE)
                       for idx, v in enumerate(f.values)])
        assert is_product(g)


def _planted_tensor(rng, n):
    """Random nonzero blocks of size 1-3 on shuffled positions."""
    positions = list(range(1, n + 1))
    rng.shuffle(positions)
    factors = []
    while positions:
        take = min(rng.randint(1, 3), len(positions))
        block = tuple(sorted(positions[:take]))
        del positions[:take]
        factors.append((block, rand_nonzero_signature(rng, take)))
    factors.sort(key=lambda t: t[0][0])
    return reassemble(factors)


def _sparse_signature(rng, n):
    vals = [ZERO] * (1 << n)
    for _ in range(rng.randint(1, 4)):
        vals[rng.randrange(1 << n)] = rng.choice(SMALL_POOL[1:])
    return Signature(vals)


def _odd_signature(rng, n):
    while True:
        f = rand_signature(rng, n)
        f = Signature([v if idx.bit_count() % 2 else ZERO
                       for idx, v in enumerate(f.values)])
        if not f.is_zero:
            return f


def test_primitive_decomposition_matches_the_split_search(monkeypatch):
    import holant.classes as classes

    rng = random.Random(90)
    kinds = {
        "dense": rand_nonzero_signature,
        "sparse": _sparse_signature,
        "planted": _planted_tensor,
        "odd": _odd_signature,
        "hadamard": lambda rng, n: apply_matrix(
            rng.choice((_planted_tensor, _sparse_signature))(rng, n), H2),
    }
    cases = []
    for n in range(1, 9):
        for name, make in kinds.items():
            for _ in range(5 if n < 8 else 2):
                cases.append((name, make(rng, n)))
    got = [(primitive_decomposition(f), is_product(f)) for _, f in cases]
    monkeypatch.setattr(classes, "primitive_decomposition",
                        decompose_by_split_search)
    for (name, f), (blocks, product) in zip(cases, got):
        assert blocks == decompose_by_split_search(f), (name, f)
        want = is_product(f)
        assert (product.member, product.factors, product.witness) == \
            (want.member, want.factors, want.witness), (name, f)
    # the seeded cases include splittable signatures, not only primitive ones
    assert {name for (name, f), (blocks, _) in zip(cases, got)
            if len(blocks) > 1 and f.arity > 3} >= {"planted", "sparse"}


def _random_product_member(rng, n):
    positions = list(range(1, n + 1))
    rng.shuffle(positions)
    factors = []
    while positions:
        take = rng.choice([1, 1, 2, 2, 3]) if len(positions) > 2 else \
            rng.randint(1, len(positions))
        take = min(take, len(positions))
        block = tuple(sorted(positions[:take]))
        del positions[:take]
        if take == 1:
            g = rand_nonzero_signature(rng, 1)
        else:
            a = rand_nonzero_signature(rng, 0)[0]
            b = rand_nonzero_signature(rng, 0)[0]
            alpha = rng.randrange(1 << take)
            vals = [0] * (1 << take)
            vals[alpha] = a
            vals[alpha ^ ((1 << take) - 1)] = b
            g = Signature(vals)
        factors.append((block, g))
    factors.sort(key=lambda t: t[0][0])
    return reassemble(factors)


# -- affine support machinery -------------------------------------------------


def test_affine_support_equality3():
    sup = affine_support(equality(3))
    assert sup.dimension == 1
    assert sup.free == (1,)
    assert sup.point == 0
    assert sorted(sup.points()) == [0b000, 0b111]
    assert sup.contains(0b111) and not sup.contains(0b101)
    assert compress(equality(3)) == Signature([1, 1])


def test_affine_support_none_for_exact_one():
    assert affine_support(exact_one(3)) is None


def test_affine_support_even_indicator():
    f = even_indicator(3)
    sup = affine_support(f)
    assert sup.free == (1, 2)
    assert sup.dimension == 2
    assert compress(f) == Signature([1, 1, 1, 1])


def test_compress_with_chosen_free_set():
    f = equality(3)
    assert compress(f, free=(2,)) == Signature([1, 1])
    assert compress(f, free=(3,)) == Signature([1, 1])
    g = Signature([1, 0, 0, I])  # support {00, 11}
    assert compress(g, free=(2,)) == Signature([1, I])
    with pytest.raises(ValueError):
        compress(g, free=(1, 2))
    with pytest.raises(ValueError, match="cannot parameterize"):
        compress(g, free=(3,))
    # support {x2 = x3}: (x1, x3) parameterizes it, (x2, x3) does not
    h = Signature([1, 0, 0, 2, 3, 0, 0, 4])
    assert compress(h, free=(1, 3)) == Signature([1, 2, 3, 4])
    with pytest.raises(ValueError, match="cannot parameterize"):
        compress(h, free=(2, 3))


def test_compress_round_trip_values():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 8)
        # plant an affine support: random subspace via random basis
        f = _random_affine_support_signature(rng, n)
        sup = affine_support(f)
        assert sup is not None
        comp = compress(f)
        for y in range(1 << sup.dimension):
            assert comp[y] == f[sup.full_index(y)]
        assert sorted(sup.points()) == sorted(f.support())
        # the least support point is 0 on the free positions, so the
        # coset lists by doubling in the order of its free coordinates
        assert sup.points() == [sup.full_index(y)
                                for y in range(1 << sup.dimension)]
        assert sup.points()[0] == sup.point == min(f.support())
        assert all(not (sup.point >> (n - p)) & 1 for p in sup.free)


def _random_affine_support_signature(rng, n):
    dim = rng.randint(0, n)
    while True:
        vecs = [rng.randrange(1 << n) for _ in range(dim)]
        from holant._gf2 import rref

        if len(rref(vecs)) == dim:
            break
    point = rng.randrange(1 << n)
    span = {0}
    for v in vecs:
        span |= {s ^ v for s in span}
    vals = [0] * (1 << n)
    for s in span:
        vals[s ^ point] = rng.choice(POWERS_OF_I)
    return Signature(vals)


def test_z4_polynomial_equality():
    # [1, i] has exponent polynomial x1
    p = z4_polynomial(Signature([ONE, I]))
    assert p.as_dict() == {0b1: 1}
    # [1, i, i, 1] over two variables: x1 + x2 + 2*x1*x2
    q = z4_polynomial(Signature([ONE, I, I, -ONE]))
    assert q.as_dict() == {0b01: 1, 0b10: 1}
    r = z4_polynomial(Signature([ONE, I, I, ONE]))
    assert r.as_dict() == {0b01: 1, 0b10: 1, 0b11: 2}
    assert r.total_degree == 2
    assert r.monomial_positions(0b11) == (1, 2)


def test_z4_polynomial_round_trip():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(0, 4)
        f = Signature([rng.choice(POWERS_OF_I) for _ in range(1 << n)])
        p = z4_polynomial(f)
        for idx in range(1 << n):
            assert f[idx] == i_power(p.evaluate(idx))


def test_z4_polynomial_rejects_non_powers():
    with pytest.raises(ValueError):
        z4_polynomial(Signature([ONE, Scalar.from_int(2)]))


# -- affine family ------------------------------------------------------------


def test_affine_binary_lemma():
    # with f00 = 1 and the one-weight entries powers of i, membership is
    # exactly f11 = +/- f01 * f10
    for f01 in POWERS_OF_I:
        for f10 in POWERS_OF_I:
            good = f01 * f10
            for f11, expected in [(good, True), (-good, True),
                                  (I * good, False), (-I * good, False)]:
                f = Signature([ONE, f01, f10, f11])
                assert bool(is_affine(f)) is expected


def test_affine_unary_and_symmetric_binary():
    # [1, a] and [1, 0, a] belong iff a^4 is 0 or 1
    for a, expected in [(Scalar.from_int(0), True), (ONE, True), (I, True),
                        (-ONE, True), (-I, True), (Scalar.from_int(2), False),
                        (ZETA8, False), (ONE + I, False)]:
        assert bool(is_affine(unary(1, a))) is expected
        assert bool(is_affine(Signature.from_symmetric([1, 0, a]))) is expected


def test_affine_two_point_support():
    # two nonzero entries: affine iff the fourth powers agree
    f = Signature([Scalar.from_int(3), 0, 0, 3 * I])
    assert is_affine(f)
    g = Signature([1, 0, 0, 2])
    assert not is_affine(g)
    h = Signature([0, 5 * I, -5 * ONE, 0])
    assert is_affine(h)
    k = Signature([0, ONE, SQRT2, 0])
    assert not is_affine(k)


def test_affine_standard_members():
    for n in (1, 2, 3, 4):
        assert is_affine(equality(n))
        assert is_affine(even_indicator(n))
    assert is_affine(disequality())
    assert is_affine(Signature([0, 0, 0, 0]))
    assert not is_affine(exact_one(3))
    assert not is_affine(Signature.from_symmetric([0, 1, 1, 1]))


def test_is_affine_finds_the_support_once(monkeypatch):
    import holant.classes as classes

    calls = []

    def counted(f):
        calls.append(f)
        return affine_support(f)

    monkeypatch.setattr(classes, "affine_support", counted)
    res = is_affine(equality(5))
    assert res and len(calls) == 1
    assert res.polynomial == z4_polynomial(compress(equality(5)))


def test_affine_scale_invariance():
    rng = random.Random(29)
    scales = [Scalar.from_int(3), SQRT2, ONE + I, zeta_power(5)]
    for _ in range(20):
        f = rand_nonzero_signature(rng, 3)
        base = bool(is_affine(f))
        for c in scales:
            assert bool(is_affine(f * c)) is base


def test_affine_closed_under_hadamard_and_diagonal():
    rng = random.Random(31)
    pool = affine_pattern_set(2)
    members = [p for p in pool if any(v is not None for v in p)]
    for _ in range(40):
        pattern = rng.choice(members)
        f = Signature([i_power(k) if k is not None else 0 for k in pattern])
        assert is_affine(f)
        assert is_affine(apply_matrix(f, H2))
        assert is_affine(scale_by_weight(f, I))


def test_affine_matches_enumeration_oracle_arity2():
    oracle = affine_pattern_set(2)
    for values in itertools.product(FIVE_VALUES, repeat=4):
        f = Signature(values)
        assert bool(is_affine(f)) is (pattern_of(f) in oracle)


def test_affine_witnesses():
    bad_value = is_affine(Signature([ONE, SQRT2]))
    assert bad_value.reason == "entry is not a scaled power of i"
    bad_support = is_affine(exact_one(3))
    assert bad_support.reason == "support is not an affine subspace"
    # cubic phase: i on all-ones of three free variables
    vals = [ONE] * 8
    vals[0b111] = I
    bad_degree = is_affine(Signature(vals))
    assert bad_degree.reason == "phase polynomial has degree above two"
    assert bad_degree.witness["monomial"] == (1, 2, 3)
    odd_cross = is_affine(Signature([ONE, ONE, ONE, I]))
    assert odd_cross.reason == "phase polynomial has an odd cross term"


# -- matchgates ---------------------------------------------------------------


def test_matchgate_low_arity_is_parity():
    # at arity <= 3 the identities follow from parity alone
    rng = random.Random(37)
    pool = [Scalar.from_int(v) for v in (-1, 0, 1)]
    for n in (1, 2, 3):
        for _ in range(60):
            f = Signature([rng.choice(pool) for _ in range(1 << n)])
            assert bool(is_matchgate(f)) is (parity_of(f) != "none")


def test_matchgate_arity4_determinant_identity():
    rng = random.Random(41)
    for _ in range(60):
        f = _random_even_parity4(rng)
        lhs = (f[0b0000] * f[0b1111] - f[0b1100] * f[0b0011]
               + f[0b1010] * f[0b0101] - f[0b1001] * f[0b0110])
        assert bool(is_matchgate(f)) is (not lhs)


def _random_even_parity4(rng):
    pool = [Scalar.from_int(0), ONE, -ONE, I, -I,
            Scalar.from_int(2), Scalar.from_int(-2)]
    vals = [Scalar.from_int(0)] * 16
    for idx in range(16):
        if idx.bit_count() % 2 == 0:
            vals[idx] = rng.choice(pool)
    return Signature(vals)


def test_matchgate_examples():
    assert is_matchgate(exact_one(4))
    assert not is_matchgate(crossover())
    assert not is_matchgate(equality(4))
    assert is_matchgate(Signature([0, 0, 0, 0]))
    for n in range(1, 7):
        assert is_matchgate(even_indicator(n))
    # unary members are exactly the pinning signatures
    assert is_matchgate(unary(1, 0)) and is_matchgate(unary(0, 1))
    assert not is_matchgate(unary(1, 1))


def test_matchgate_witness():
    res = is_matchgate(equality(3))
    assert res.reason == "support mixes parities"
    res4 = is_matchgate(Signature.from_symmetric([1, 0, 1, 0, 1]) + crossover())
    assert not res4 and res4.parity == "even"
    assert res4.reason == "matching identity violated"
    assert res4.witness == {"pattern": 8, "positions": (1, 2, 3, 4),
                            "value": "-6"}


def _planted_matchgate(rng, n):
    """c * Pf(A[x ^ alpha]) for a random skew A, shift alpha and scale c.

    Sub-Pfaffians come from fkt.pfaffian on the principal submatrix with
    rows in increasing position order (position p is bit n - p).
    """
    a = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rng.choice(SMALL_POOL)
            a[j][i] = -a[i][j]
    minors = []
    for x in range(1 << n):
        pos = [p for p in range(n) if (x >> (n - 1 - p)) & 1]
        minors.append(pfaffian([[a[i][j] for j in pos] for i in pos]))
    alpha = rng.randrange(1 << n)
    c = rng.choice([v for v in SMALL_POOL if v])
    return Signature([c * minors[y ^ alpha] for y in range(1 << n)])


def _check_against_identity_scan(f):
    """Assert that is_matchgate agrees with the full identity scan, and
    that a reported identity witness is violated; return the verdict."""
    res = is_matchgate(f)
    scan = first_violated_identity(f)
    values = [str(v) for v in f.values]
    if parity_of(f) == "none":
        # the identities imply parity; the parity witness comes first
        assert not res and res.reason == "support mixes parities", values
        assert scan is not None, values
    elif scan is None:
        assert res.member and res.witness is None, values
    else:
        assert not res and res.reason == "matching identity violated", values
        w = res.witness
        value = identity_value(f, w["pattern"], w["positions"])
        assert value and str(value) == w["value"], values
    return res.member


def test_matchgate_pfaffian_form_matches_identity_scan():
    rng = random.Random(59)
    members = odd_members = 0
    for _ in range(300):
        n = rng.randint(1, 6 if rng.random() < 0.2 else 5)
        f = rand_signature(rng, n, SMALL_POOL)
        if rng.random() < 0.5:
            # parity-passing inputs reach the Pfaffian form
            keep = rng.randrange(2)
            f = Signature([v if idx.bit_count() % 2 == keep else ZERO
                           for idx, v in enumerate(f.values)])
        for g in (f, apply_matrix(f, H2)):
            members += _check_against_identity_scan(g)
    for n in [1, 2, 3, 4, 5, 6] * 8 + [7, 8]:
        f = _planted_matchgate(rng, n)
        assert _check_against_identity_scan(f)
        members += 1
        odd_members += parity_of(f) == "odd"
    # both verdicts, and odd-parity members, are well represented
    assert members > 100 and odd_members > 10


def test_matchgate_invariances():
    rng = random.Random(43)
    for _ in range(15):
        f = _random_even_parity4(rng)
        verdict = bool(is_matchgate(f))
        assert bool(is_matchgate(f * (2 * I))) is verdict
        flipped = f
        for i in (1, 2, 3, 4):
            flipped = flip_var(flipped, i)
        assert bool(is_matchgate(flipped)) is verdict


def test_flip_preserves_families():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(2, 4)
        f = rand_nonzero_signature(rng, n)
        i = rng.randint(1, n)
        g = flip_var(f, i)
        assert bool(is_product(g)) is bool(is_product(f))
        assert bool(is_affine(g)) is bool(is_affine(f))
        assert bool(is_matchgate(g)) is bool(is_matchgate(f))


# -- transformed families -------------------------------------------------------


def test_hadamard_matchgate_unaries():
    assert is_hadamard_matchgate(unary(1, 1))
    assert is_hadamard_matchgate(unary(3, -3))
    assert not is_hadamard_matchgate(unary(1, 0))
    assert not is_hadamard_matchgate(unary(1, I))


def test_hadamard_matchgate_members():
    # Hadamard images of matchgates: equalities come back in
    for n in (1, 2, 3, 4, 5):
        assert is_hadamard_matchgate(equality(n))
    assert is_hadamard_matchgate(Signature.from_symmetric([4, 2, 0, -2, -4]))
    assert not is_hadamard_matchgate(exact_one(3))


def test_twisted_affine():
    assert not is_twisted_affine(Signature.from_symmetric([1, 0, 1, 0]))
    res = is_twisted_affine(Signature.from_symmetric([1, 0, -I]))
    assert res and res.twist in (ZETA8, zeta_power(3))
    # anything affine twisted by zeta8 is a member by construction
    f = scale_by_weight(equality(3), ZETA8)
    assert is_twisted_affine(f)
    assert not is_affine(f)


def test_twisted_hadamard_matchgate():
    assert is_twisted_hadamard_matchgate(unary(1, I))
    assert is_twisted_hadamard_matchgate(unary(1, -I))
    assert not is_twisted_hadamard_matchgate(unary(1, 2))
    f = scale_by_weight(equality(2), I)
    assert is_twisted_hadamard_matchgate(f)


def test_hat_equalities_in_affine_and_matchgate():
    # the Hadamard images of the equalities live in both base families
    for n in range(1, 7):
        f = even_indicator(n)
        assert is_affine(f) and is_matchgate(f)


# -- combined report ------------------------------------------------------------


def test_class_report_consistency():
    rng = random.Random(53)
    for _ in range(10):
        f = rand_nonzero_signature(rng, 3)
        rep = class_report(f)
        assert rep.product == bool(is_product(f))
        assert rep.affine == bool(is_affine(f))
        assert rep.matchgate == bool(is_matchgate(f))
        rep_scaled = class_report(f * (ONE + I))
        assert rep.memberships() == rep_scaled.memberships()


def test_class_report_examples():
    rep = class_report(equality(2))
    assert rep.memberships() == {
        "degenerate": False,
        "product": True,
        "affine": True,
        "matchgate": True,
        "hadamard_matchgate": True,
        "twisted_affine": True,
        "twisted_hadamard_matchgate": True,
    }
    rep2 = class_report(Signature.from_symmetric([0, 1, 1, 1]))
    assert not any(rep2.memberships().values())
