import pytest

from gridseq import pairing, transforms as tr
from gridseq.schemes import Scheme, parse_scheme, tiling_scheme
from gridseq.sources import (
    BudgetExceededError,
    NonPositiveTermError,
    custom,
    euler_phi,
    from_list,
    geometric,
    identity,
    power_base,
    primes,
)
from gridseq.transforms import TransformSpec, generate_prefix
from support import (
    BRAID_L3,
    DOUBLE_RELUCTANT_INDICES,
    ETA_LISTINGS,
    MULTI_REPLICATE_L3,
    PHI_SELF_COMPOSE_TERMS,
    PRIME_DOUBLING_TERMS,
    RELUCTANT_INDICES,
    REVERSE_RELUCTANT_INDICES,
    SEGMENT_BRAID_L3,
    SUPERPOSE_FIRST6,
    f_max,
    f_segment,
    f_shifted,
    max_shift_angle_listing,
    max_shift_listing,
    s_braid,
    s_multi,
    s_segment_braid,
    segment_shift_angle_listing,
    segment_shift_listing,
    shifted_columns_angle_listing,
    shifted_columns_listing,
)

IDENT = identity()


def prefix(fn, count):
    return [fn(n) for n in range(1, count + 1)]


# -- replication families --------------------------------------------------------

def test_reluctant_listing():
    assert prefix(lambda n: tr.reluctant(IDENT, n), 6) == RELUCTANT_INDICES
    assert tr.reluctant(IDENT, 5) == 2
    assert tr.reluctant(IDENT, 1) == 1
    assert tr.reluctant(primes(), 6) == 5  # row 3 of the triangle is 2, 3, 5


def test_reverse_reluctant_listing():
    assert prefix(lambda n: tr.reverse_reluctant(IDENT, n), 6) == REVERSE_RELUCTANT_INDICES
    assert tr.reverse_reluctant(IDENT, 4) == 3
    assert tr.reverse_reluctant(IDENT, 6) == 1


def test_double_reluctant_listing():
    assert prefix(lambda n: tr.double_reluctant(IDENT, n), 21) == DOUBLE_RELUCTANT_INDICES
    assert tr.double_reluctant(IDENT, 6) == 2
    assert tr.double_reluctant(IDENT, 10) == 1


def test_reluctant_row_property():
    for k in range(1, 101):
        row = [tr.reluctant_index(n) for n in range(pairing.triangle(k - 1) + 1, pairing.triangle(k) + 1)]
        assert row == list(range(1, k + 1))
        rev = [tr.reverse_reluctant_index(n) for n in range(pairing.triangle(k - 1) + 1, pairing.triangle(k) + 1)]
        assert rev == row[::-1]


# -- self-composition --------------------------------------------------------------

def test_self_compose_phi_listing():
    phi = euler_phi()
    assert prefix(lambda n: tr.self_compose(phi, n), 21) == PHI_SELF_COMPOSE_TERMS
    assert tr.self_compose(phi, 6) == 2


def test_self_compose_identity_is_reluctant():
    for n in range(1, 300):
        assert tr.self_compose(IDENT, n) == tr.reluctant(IDENT, n)


def test_self_compose_doubling_reproduces_prime_terms():
    p = primes()
    assert prefix(lambda n: tr.self_compose(p, n, "doubling"), 10) == PRIME_DOUBLING_TERMS
    assert tr.self_compose(p, 7, "doubling") == 5381


def test_self_compose_power_tower():
    two = power_base(2)
    # column 4 of the doubling-free reading: 2, 2^2, 2^(2^2), 2^(2^(2^2))
    assert tr.self_compose(two, pairing.cantor_encode(1, 4)) == 65536
    assert tr.self_compose(two, pairing.cantor_encode(1, 5)) == 2**65536
    with pytest.raises(BudgetExceededError):
        tr.self_compose(two, pairing.cantor_encode(1, 6))


def test_self_compose_rejects_non_positive():
    broken = custom(lambda n: n - 2, "n-2")
    with pytest.raises(NonPositiveTermError):
        tr.self_compose(broken, pairing.cantor_encode(3, 3))


def test_self_compose_bad_convention():
    with pytest.raises(ValueError):
        tr.self_compose(IDENT, 1, "exponential")


# -- index-function families --------------------------------------------------------

def test_shifted_columns_listing():
    for k in range(5):
        assert prefix(lambda n: tr.shifted_columns_index(k, n), 10) == shifted_columns_listing(k)
    assert tr.shifted_columns(IDENT, 1, 4) == 3
    assert tr.shifted_columns(IDENT, 0, 5) == 2
    assert tr.shifted_columns(IDENT, 2, 2) == 3


def test_max_shift_listing():
    for k in range(1, 5):
        assert prefix(lambda n: tr.max_shift_index(k, n), 10) == max_shift_listing(k)
    assert tr.max_shift(IDENT, 2, 3) == 3
    assert tr.max_shift(IDENT, 1, 6) == 3
    assert tr.max_shift(IDENT, 3, 1) == 1


def test_segment_shift_listing():
    for k in range(1, 5):
        assert prefix(lambda n: tr.segment_shift_index(k, n), 15) == segment_shift_listing(k)
    assert tr.segment_shift(IDENT, 2, 2) == 2
    assert tr.segment_shift(IDENT, 2, 5) == 1
    assert tr.segment_shift(IDENT, 3, 1) == 1


def test_index_parameter_validation():
    with pytest.raises(ValueError):
        tr.shifted_columns_index(-1, 1)
    with pytest.raises(ValueError):
        tr.max_shift_index(0, 1)
    with pytest.raises(ValueError):
        tr.segment_shift_index(0, 1)


def test_closed_forms_match_array_fill(cantor_cells_10k):
    cells = cantor_cells_10k[:2_000]
    for k in range(5):
        for n, (i, j) in enumerate(cells, 1):
            assert tr.shifted_columns_index(k, n) == f_shifted(i, j, k)
    for k in range(1, 5):
        for n, (i, j) in enumerate(cells, 1):
            assert tr.max_shift_index(k, n) == f_max(i, j, k)
            assert tr.segment_shift_index(k, n) == f_segment(i, j, k)


# -- pair transformations --------------------------------------------------------------

def test_pair_coordinate_identity():
    for n in range(1, 2_000):
        m1, m2 = tr.pair_indices(n)
        assert m1 + m2 == pairing.diagonal_index(n) + 2
        assert m1 >= 1 and m2 >= 1


def test_concat_numbers():
    assert tr.concat_numbers(12, 345) == 12345
    assert tr.concat_numbers(1, 1) == 11
    assert tr.concat_numbers(10, 1) == 101
    with pytest.raises(ValueError):
        tr.concat_numbers(0, 3)


def test_pair_product_of_prime_powers():
    two, three = geometric(2), geometric(3)
    assert tr.pair_transform(two, three, "product", 1) == 6
    values = prefix(lambda n: tr.pair_transform(two, three, "product", n), 6)
    assert values == [6, 18, 12, 54, 36, 24]  # 2^i 3^j in enumeration order, duplicates kept


def test_pair_power_sum():
    for n in range(1, 200):
        assert tr.pair_transform(IDENT, IDENT, "power-sum", n, k=1) == pairing.diagonal_index(n) + 2
    assert tr.pair_transform(geometric(2), geometric(2), "power-sum", 5, k=2) == 2 * 16


def test_pair_iterate_fixed_point():
    for n in range(1, 300):
        assert tr.pair_transform(IDENT, IDENT, "iterate", n) == tr.reluctant(IDENT, n)
    assert tr.pair_transform(IDENT, IDENT, "iterate", 5) == 2
    p = primes()
    # n = 2 sits at (m1, m2) = (1, 2): two prime applications from 1 give p(p(1)) = 3
    assert tr.pair_transform(IDENT, p, "iterate", 2) == 3


def test_pair_callable_combiner():
    got = prefix(lambda n: tr.pair_transform(IDENT, IDENT, lambda a, b: 10 * a + b, n), 6)
    assert got == [11, 12, 21, 13, 22, 31]


def test_pair_unknown_combiner():
    with pytest.raises(ValueError):
        tr.pair_transform(IDENT, IDENT, "xor", 1)


def test_eta_listings():
    for d, expected in ETA_LISTINGS.items():
        assert prefix(lambda n: tr.eta(d, n), 10) == expected
    assert tr.eta(2, 4) == 13
    assert tr.eta(1, 7) == 7
    assert tr.eta(3, 3) == 121


def test_eta_digit_property():
    # within the first 9 anti-diagonals both decoded coordinates stay single
    # digit, so each concatenation level adds exactly one digit; the d = 1
    # base is the naturals themselves and is single-digit only up to 9
    for n in range(1, 10):
        assert len(str(tr.eta(1, n))) == 1
    for d in range(2, 5):
        for n in range(1, 46):
            assert len(str(tr.eta(d, n))) == d


# -- several-sequence families -----------------------------------------------------------

def tagged_family(l):
    return [custom((lambda r: lambda m: 100 * r + m)(r), f"tag{r}") for r in range(1, l + 1)]


def untag(value):
    return divmod(value, 100)[::-1]  # (m, r)


def test_multi_replicate_listing():
    fams = tagged_family(3)
    assert [untag(tr.multi_replicate(fams, n)) for n in range(1, 16)] == [
        (m, r) for r, m in MULTI_REPLICATE_L3
    ]
    assert tr.multi_replicate_indices(3, 4) == (1, 3)
    assert tr.multi_replicate_indices(3, 1) == (1, 1)
    assert tr.multi_replicate_indices(2, 3) == (2, 1)


def test_braid_listing():
    fams = tagged_family(3)
    assert [untag(tr.braid(fams, n)) for n in range(1, 16)] == [(m, r) for r, m in BRAID_L3]
    assert tr.braid_indices(3, 4) == (1, 3)
    assert tr.braid_indices(3, 7) == (1, 1)
    assert tr.braid_indices(2, 1) == (1, 1)


def test_segment_braid_listing():
    fams = tagged_family(3)
    assert [untag(tr.segment_braid(fams, n)) for n in range(1, 22)] == [
        (m, r) for r, m in SEGMENT_BRAID_L3
    ]
    assert tr.segment_braid_indices(3, 5) == (1, 2)
    assert tr.segment_braid_indices(3, 1) == (1, 1)
    assert tr.segment_braid_indices(3, 13) == (1, 1)


def test_multi_families_match_array_fill(cantor_cells_10k):
    cells = cantor_cells_10k[:2_000]
    for l in (2, 3, 4):
        for n, (i, j) in enumerate(cells, 1):
            assert tr.multi_replicate_indices(l, n) == (i, s_multi(i, j, l))
            assert tr.braid_indices(l, n) == (i, s_braid(i, j, l))
            assert tr.segment_braid_indices(l, n) == (f_segment(i, j, 1), s_segment_braid(i, j, l))


def test_multi_needs_two_sources():
    with pytest.raises(ValueError):
        tr.multi_replicate([IDENT], 1)


# -- square-shell order index families ------------------------------------------------------

def test_angle_order_listings():
    for k in range(1, 5):
        assert prefix(lambda n: tr.shifted_columns_angle_index(k, n), 16) == shifted_columns_angle_listing(k)
        assert prefix(lambda n: tr.max_shift_angle_index(k, n), 16) == max_shift_angle_listing(k)
        assert prefix(lambda n: tr.segment_shift_angle_index(k, n), 16) == segment_shift_angle_listing(k)


def test_angle_order_matches_array_fill(angle_cells_10k):
    cells = angle_cells_10k[:2_000]
    for k in range(1, 5):
        for n, (i, j) in enumerate(cells, 1):
            assert tr.shifted_columns_angle_index(k, n) == f_shifted(i, j, k)
            assert tr.max_shift_angle_index(k, n) == f_max(i, j, k)
            assert tr.segment_shift_angle_index(k, n) == f_segment(i, j, k)


# -- superposition ----------------------------------------------------------------------------

def test_superpose_published_terms():
    inner = tiling_scheme("const:3x2", "row")
    outer = parse_scheme("center-out")
    assert prefix(lambda n: tr.superpose(IDENT, inner, outer, n), 6) == SUPERPOSE_FIRST6
    assert tr.superpose(IDENT, inner, outer, 3) == 4
    assert tr.superpose(IDENT, inner, outer, 6) == 13


def test_superpose_identity_case():
    scheme = Scheme("cantor")
    p = primes()
    for n in range(1, 300):
        assert tr.superpose(p, scheme, scheme, n) == p.value(n)


def test_superpose_rejects_zero_based():
    with pytest.raises(ValueError):
        tr.superpose(IDENT, Scheme("cantor0"), Scheme("cantor"), 1)


# -- prefix generation --------------------------------------------------------------------------

def test_generate_prefix_examples():
    assert generate_prefix(TransformSpec("reluctant"), IDENT, 6) == [1, 1, 2, 1, 2, 3]
    assert generate_prefix(TransformSpec("eta", d=2), None, 6) == [11, 12, 21, 13, 22, 31]
    assert generate_prefix(TransformSpec("self-compose"), euler_phi(), 6) == [1, 1, 1, 1, 1, 2]


def test_generate_prefix_families():
    assert generate_prefix(TransformSpec("shifted-columns", k=2), IDENT, 3) == [1, 3, 2]
    assert generate_prefix(TransformSpec("pair", combiner="concat"), [IDENT, IDENT], 3) == [11, 12, 21]
    assert generate_prefix(TransformSpec("braid"), tagged_family(2), 3) == [101, 201, 202]
    inner = tiling_scheme("const:3x2", "row")
    outer = parse_scheme("center-out")
    spec = TransformSpec("superpose", inner=inner, outer=outer)
    assert generate_prefix(spec, IDENT, 6) == SUPERPOSE_FIRST6
    assert generate_prefix(TransformSpec("segment-shift-angle", k=1), IDENT, 4) == [1, 1, 1, 2]


def test_generate_prefix_errors():
    with pytest.raises(ValueError):
        generate_prefix(TransformSpec("fibonacci"), IDENT, 3)
    with pytest.raises(ValueError):
        generate_prefix(TransformSpec("reluctant"), IDENT, 0)
    from gridseq.sources import SourceExhaustedError

    with pytest.raises(SourceExhaustedError):
        generate_prefix(TransformSpec("reluctant"), from_list([1]), 3)
    # power-sum has no default exponent in the library: k = 0 is refused, not clamped
    with pytest.raises(ValueError, match="exponent"):
        generate_prefix(TransformSpec("pair", combiner="power-sum"), [IDENT, IDENT], 3)
    # the wrong number of sources names the family
    for family, sources in (("pair", IDENT), ("reluctant", [IDENT, IDENT]),
                            ("eta", IDENT), ("braid", [IDENT])):
        with pytest.raises(ValueError, match=f"family {family} "):
            generate_prefix(TransformSpec(family), sources, 3)
        with pytest.raises(ValueError, match=f"family {family} "):
            tr.term(TransformSpec(family), sources, 1)
    with pytest.raises(ValueError, match="superpose"):
        TransformSpec("superpose", outer=Scheme("cantor"))
    with pytest.raises(ValueError, match="superpose"):
        TransformSpec("superpose")
