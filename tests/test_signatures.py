import random
import time

import pytest

from _util import bits_of, rand_signature
from holant.scalar import I, ONE, TWO, ZERO, Scalar
from holant.signatures import (
    Signature,
    connect_binary,
    connect_unary,
    crossover,
    derivative,
    derivative_power,
    disequality,
    equality,
    exact_one,
    flip_var,
    link,
    normalize,
    pin,
    rotate,
    signature_matrix,
    tensor,
    unary,
)


def test_x1_is_most_significant_bit():
    f = Signature(list(range(8)))
    assert f[(1, 0, 0)] == 4
    assert f[(0, 0, 1)] == 1
    assert f[(1, 1, 0)] == 6
    assert f.bit(0b100, 1) == 1
    assert f.bit(0b100, 3) == 0


def test_from_symmetric():
    assert equality(2).values == (ONE, ZERO, ZERO, ONE)
    assert disequality().values == (ZERO, ONE, ONE, ZERO)
    assert exact_one(3).values == tuple(
        Signature.from_symmetric([0, 1, 0, 0]).values)
    assert exact_one(3)[(0, 1, 0)] == 1
    assert exact_one(3)[(1, 1, 0)] == 0
    f = Signature.from_symmetric([5])
    assert f.arity == 0 and f[0] == 5


def test_symmetric_entries_round_trip():
    entries = [1, 2, 0, -1]
    f = Signature.from_symmetric(entries)
    assert f.symmetric_entries() == [Scalar.from_int(v) for v in entries]
    g = Signature([0, 1, 0, 0, 0, 0, 0, 0])
    assert g.symmetric_entries() is None


def test_arity_cap():
    with pytest.raises(ValueError):
        Signature([ZERO] * (1 << 17))
    with pytest.raises(ValueError):
        Signature([ZERO] * 3)
    # the symmetric form is refused before its 2^22 entries are built
    start = time.perf_counter()
    with pytest.raises(ValueError, match="arity 22 exceeds the cap of 16"):
        Signature.from_symmetric([1] * 23)
    assert time.perf_counter() - start < 0.5


def test_support():
    assert disequality().support() == {0b01, 0b10}
    assert equality(3).support() == {0b000, 0b111}
    assert Signature([0, 0]).support() == frozenset()


def test_equal_signatures_built_apart_hash_equal():
    rng = random.Random(5)
    values = [Scalar.of(*(rng.randint(-3, 3) for _ in range(4)))
              for _ in range(16)]
    f, g = Signature(values), Signature(list(values))
    assert f is not g and f == g
    assert hash(f) == hash(g) == hash(f)
    table = {f: "first"}
    table[g] = "second"  # an equal key replaces the value, not the key
    assert len(table) == 1 and table[f] == "second"
    assert table[Signature(values)] == "second"
    assert exact_one(4) not in table


def test_hash_is_computed_once(monkeypatch):
    f = Signature([Scalar.from_int(k) for k in range(1 << 10)])
    calls = []
    scalar_hash = Scalar.__hash__

    def counting(self):
        calls.append(1)
        return scalar_hash(self)

    monkeypatch.setattr(Scalar, "__hash__", counting)
    first = hash(f)
    assert hash(f) == first
    assert len(calls) <= 1 << 10


def test_crossover_is_interleaved_equalities():
    x = crossover()
    assert x.support() == {0b0000, 0b0101, 0b1010, 0b1111}
    assert all(x[idx] == 1 for idx in x.support())
    # equality on (x1,x3) tensored with equality on (x2,x4)
    assert x == tensor(equality(2), equality(2), f_positions=(1, 3))


def test_tensor_default_order():
    f = unary(2, 3)
    g = unary(5, 7)
    fg = tensor(f, g)
    assert fg.values == (Scalar.from_int(10), Scalar.from_int(14),
                         Scalar.from_int(15), Scalar.from_int(21))
    # interleaving moves g's variable in front
    gf = tensor(f, g, f_positions=(2,))
    assert gf[(0, 1)] == 3 * 5
    assert gf[(1, 0)] == 2 * 7


def test_tensor_against_pointwise_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(0, 8)
        k = rng.randint(0, n)
        f = rand_signature(rng, k)
        g = rand_signature(rng, n - k)
        pos = tuple(sorted(rng.sample(range(1, n + 1), k)))
        h = tensor(f, g, f_positions=pos)
        gpos = [p for p in range(1, n + 1) if p not in pos]
        for idx in range(1 << n):
            bits = bits_of(idx, n)
            fb = tuple(bits[p - 1] for p in pos)
            gb = tuple(bits[p - 1] for p in gpos)
            assert h[bits] == f[fb] * g[gb]


def test_tensor_rejects_bad_interleavings():
    with pytest.raises(ValueError):
        tensor(unary(1, 1), unary(1, 1), f_positions=(1, 1))
    with pytest.raises(ValueError):
        tensor(unary(1, 1), unary(1, 1), f_positions=(3,))
    with pytest.raises(ValueError):
        tensor(equality(2), unary(1, 1), f_positions=(2,))


def test_pin_matches_definition():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 8)
        f = rand_signature(rng, n)
        i = rng.randint(1, n)
        b = rng.randint(0, 1)
        g = pin(f, i, b)
        assert g.arity == n - 1
        for idx in range(1 << (n - 1)):
            bits = list(bits_of(idx, n - 1))
            bits.insert(i - 1, b)
            assert g[idx] == f[tuple(bits)]


def test_pin_validation():
    with pytest.raises(ValueError):
        pin(equality(2), 3, 0)
    with pytest.raises(ValueError):
        pin(equality(2), 1, 2)


def contract_oracle(f, g, position):
    """Direct definition of the derivative, written independently."""
    n, m = f.arity, g.arity
    matched = [((position - 1 - k - 1) % n) + 1 for k in range(m)]
    rest = [((position - 1 + t) % n) + 1 for t in range(n - m)]
    out = []
    for ridx in range(1 << (n - m)):
        acc = ZERO
        rbits = bits_of(ridx, n - m)
        for z in range(1 << m):
            zbits = bits_of(z, m)
            full = [None] * n
            for var, b in zip(rest, rbits):
                full[var - 1] = b
            for var, b in zip(matched, zbits):
                full[var - 1] = b
            acc = acc + f[tuple(full)] * g[zbits]
        out.append(acc)
    return Signature(out)


def test_derivative_unary_example():
    f = Signature.from_symmetric([1, 0, 1, 0])
    assert derivative(f, unary(0, 1)) == Signature.from_symmetric([0, 1, 0])


def test_derivative_peels_equality():
    # k contractions of [1,x] against =_{k+1} leave [1, x^k]
    for x in (Scalar.from_int(2), I):
        for k in range(1, 6):
            got = derivative_power(equality(k + 1), unary(1, x), k)
            assert got == Signature([ONE, x ** k])


def test_derivative_matches_oracle():
    rng = random.Random(11)
    for n in range(1, 9):
        for m in sorted({1, rng.randint(1, n), n}):
            f = rand_signature(rng, n)
            g = rand_signature(rng, m)
            # every position, so g's edges wrap around past x1 too
            for position in range(1, n + 1):
                assert derivative(f, g, position) == \
                    contract_oracle(f, g, position)


def test_derivative_full_contraction():
    h = derivative(equality(2), equality(2))
    assert h.arity == 0
    assert h[0] == TWO


def test_derivative_arity_errors():
    with pytest.raises(ValueError):
        derivative(unary(1, 1), equality(2))
    with pytest.raises(ValueError):
        derivative(equality(2), unary(1, 1), position=5)


def test_connect_unary_equals_pin():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        f = rand_signature(rng, n)
        i = rng.randint(1, n)
        assert connect_unary(f, unary(1, 0), [i]) == pin(f, i, 0)
        assert connect_unary(f, unary(0, 1), [i]) == pin(f, i, 1)


def test_connect_unary_on_index_set():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 7)
        f = rand_signature(rng, n)
        u = rand_signature(rng, 1)
        count = rng.randint(1, n)
        idxs = sorted(rng.sample(range(1, n + 1), count))
        got = connect_unary(f, u, idxs)
        rest = [p for p in range(1, n + 1) if p not in idxs]
        for ridx in range(1 << (n - count)):
            rbits = bits_of(ridx, n - count)
            acc = ZERO
            for z in range(1 << count):
                zbits = bits_of(z, count)
                full = [None] * n
                for var, b in zip(rest, rbits):
                    full[var - 1] = b
                weight = ONE
                for var, b in zip(idxs, zbits):
                    full[var - 1] = b
                    weight = weight * u[(b,)]
                acc = acc + f[tuple(full)] * weight
            assert got[ridx] == acc


def test_rotate_binary_example():
    f = Signature([1, 2, 3, 4])
    assert rotate(f).values == (Scalar.from_int(1), Scalar.from_int(3),
                                Scalar.from_int(2), Scalar.from_int(4))


def test_rotate_cycles_arity4():
    # entry movement in the matrix view under one rotation step
    rng = random.Random(19)
    f = rand_signature(rng, 4)
    mf = signature_matrix(f, 2).rows
    mg = signature_matrix(rotate(f), 2).rows
    # corners stay put
    assert mg[0][0] == mf[0][0] and mg[3][3] == mf[3][3]
    # weight-one cycle
    assert mg[0][2] == mf[0][1]
    assert mg[0][1] == mf[1][0]
    assert mg[1][0] == mf[2][0]
    assert mg[2][0] == mf[0][2]
    # weight-two cycle and swap
    assert mg[0][3] == mf[1][1]
    assert mg[1][1] == mf[3][0]
    assert mg[3][0] == mf[2][2]
    assert mg[2][2] == mf[0][3]
    assert mg[1][2] == mf[2][1]
    assert mg[2][1] == mf[1][2]
    # weight-three cycle
    assert mg[3][1] == mf[3][2]
    assert mg[3][2] == mf[2][3]
    assert mg[2][3] == mf[1][3]
    assert mg[1][3] == mf[3][1]


def test_rotate_order():
    rng = random.Random(23)
    for n in (1, 2, 3, 4, 5):
        f = rand_signature(rng, n)
        assert rotate(f, n) == f
        assert rotate(rotate(f, 2), n - 2) == f
        assert rotate(rotate(f), -1) == f
    g = Signature([5])
    assert rotate(g) == g


def test_rotate_definition():
    rng = random.Random(29)
    for n in range(9):
        f = rand_signature(rng, n)
        for steps in (1, 2, -1, -3, n + 1):
            g = rotate(f, steps)
            for idx in range(1 << n):
                b = bits_of(idx, n)
                # g(x1..xn) = f(x(1+steps), ..., xn, x1, ...), indices mod n
                assert g[b] == f[tuple(b[(t + steps) % n] for t in range(n))]


def test_flip_var():
    rng = random.Random(31)
    f = rand_signature(rng, 3)
    for i in (1, 2, 3):
        g = flip_var(f, i)
        assert flip_var(g, i) == f
        for idx in range(8):
            b = list(bits_of(idx, 3))
            b[i - 1] ^= 1
            assert g[idx] == f[tuple(b)]


def test_signature_matrix_convention():
    rng = random.Random(37)
    f = rand_signature(rng, 4)
    m = signature_matrix(f, 2)
    assert m.shape == (4, 4)
    for r in range(4):
        base = r << 2
        # row r reads f_{r00}, f_{r10}, f_{r01}, f_{r11} in x3x4 bits
        assert m.rows[r] == (f[base | 0b00], f[base | 0b10],
                             f[base | 0b01], f[base | 0b11])
    assert m.to_signature() == f

    t = signature_matrix(f, 1)
    assert t.shape == (2, 8)
    assert t.to_signature() == f

    for n in range(7):
        f = rand_signature(rng, n)
        for split in range(n + 1):
            m = signature_matrix(f, split)
            assert m.shape == (1 << split, 1 << (n - split))
            for idx in range(1 << n):
                b = bits_of(idx, n)
                # columns read the suffix reversed: xn is the top bit
                c = 0
                for x in reversed(b[split:]):
                    c = (c << 1) | x
                assert m.rows[idx >> (n - split)][c] == f[idx]
            assert m.to_signature() == f


def test_crossover_matrix():
    m = signature_matrix(crossover(), 2).rows
    expect = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    for r in range(4):
        for c in range(4):
            assert m[r][c] == expect[r][c]


def test_link_matches_contraction():
    rng = random.Random(41)
    for _ in range(10):
        f = rand_signature(rng, 4)
        g = rand_signature(rng, 4)
        h = link(f, g)
        for idx in range(16):
            x1, x2, x3, x4 = bits_of(idx, 4)
            acc = ZERO
            for a in (0, 1):
                for b in (0, 1):
                    acc = acc + f[(x1, x2, a, b)] * g[(b, a, x3, x4)]
            assert h[idx] == acc


def test_link_via_matrix_product():
    rng = random.Random(43)
    f = rand_signature(rng, 4)
    g = rand_signature(rng, 4)
    mm = signature_matrix(f, 2) @ signature_matrix(g, 2)
    assert mm.to_signature() == link(f, g)


def test_normalize():
    f = Signature([0, 2, 4, 0])
    lam, g = normalize(f)
    assert lam == 2
    assert g.values == (ZERO, ONE, TWO, ZERO)
    assert lam * g == f
    with pytest.raises(ValueError):
        normalize(Signature([0, 0]))


def test_scaling_and_sum():
    f = equality(2)
    assert (2 * f).values == (TWO, ZERO, ZERO, TWO)
    assert (f + disequality()).values == (ONE, ONE, ONE, ONE)
    assert (f / 2 * 2) == f
    assert (-f) + f == Signature([0, 0, 0, 0])


def test_connect_binary_oracle():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(1, 8)
        f = rand_signature(rng, n)
        g = rand_signature(rng, 2)
        i = rng.randint(1, n)
        h = connect_binary(f, i, g)
        bit = 1 << (n - i)
        for idx in range(1 << n):
            xi = 1 if idx & bit else 0
            want = f[idx & ~bit] * g[(0, xi)] + f[idx | bit] * g[(1, xi)]
            assert h[idx] == want


def test_connect_binary_diagonal_scales_entries():
    # composing [1,0,a] onto xi multiplies every xi=1 entry by a
    rng = random.Random(53)
    a = Scalar.from_int(3)
    d = Signature([1, 0, 0, a])
    for _ in range(10):
        f = rand_signature(rng, 3)
        for i in (1, 2, 3):
            h = connect_binary(f, i, d)
            bit = 1 << (3 - i)
            assert h == Signature(
                [f[idx] * (a if idx & bit else ONE) for idx in range(8)])


def test_connect_binary_matrix_modification():
    # the matrix view of composing [1,0,a] onto xi: rows scale for prefix
    # variables, columns scale (in the reversed column order) for suffix ones
    rng = random.Random(59)
    a = I
    d = Signature([1, 0, 0, a])
    f = rand_signature(rng, 4)
    m = signature_matrix(f, 2).rows

    m1 = signature_matrix(connect_binary(f, 1, d), 2).rows
    assert m1 == (m[0], m[1],
                  tuple(a * v for v in m[2]), tuple(a * v for v in m[3]))

    m2 = signature_matrix(connect_binary(f, 2, d), 2).rows
    assert m2 == (m[0], tuple(a * v for v in m[1]),
                  m[2], tuple(a * v for v in m[3]))

    # columns run x4x3: x3 scales columns 2 and 4, x4 scales columns 3 and 4
    m3 = signature_matrix(connect_binary(f, 3, d), 2).rows
    assert m3 == tuple((r[0], a * r[1], r[2], a * r[3]) for r in m)

    m4 = signature_matrix(connect_binary(f, 4, d), 2).rows
    assert m4 == tuple((r[0], r[1], a * r[2], a * r[3]) for r in m)


def test_connect_binary_disequality_is_flip():
    rng = random.Random(61)
    for _ in range(10):
        f = rand_signature(rng, 3)
        i = rng.randint(1, 3)
        assert connect_binary(f, i, disequality()) == flip_var(f, i)
