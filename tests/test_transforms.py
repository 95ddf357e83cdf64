import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from gridseq import pairing, tiling, transforms as tr
from gridseq.schemes import RUN_CAP, Scheme, parse_scheme, tiling_scheme
from gridseq.sources import (
    BudgetExceededError,
    NonPositiveTermError,
    SequenceSource,
    custom,
    euler_phi,
    from_list,
    geometric,
    identity,
    power_base,
    primes,
)
from gridseq.transforms import FAMILIES, FAMILY_TABLE, TransformSpec, generate_prefix, iter_terms
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
    describe,
    direct_term,
    f_max,
    f_segment,
    f_shifted,
    max_shift_angle_listing,
    max_shift_listing,
    outcome,
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


def test_self_compose_doubling_far_out_column():
    # column j asks for 2**(j-1) steps; far past the step budget the count is
    # capped rather than built as a (j-1)-bit integer
    n = pairing.cantor_encode(5, 10**12)
    assert tr.self_compose(custom(lambda m: (m + 1) // 2), n, "doubling") == 1
    with pytest.raises(BudgetExceededError):
        tr.self_compose(custom(lambda m: m + 1), n, "doubling")


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


# -- array rules read in order against the closed forms ---------------------------------------

HALF = custom(lambda m: (m + 1) // 2, "half")  # reaches its fixed point 1 in log2(m) steps


def rule_cases():
    """(spec, sources) per family and parameter; the sources tell the sequences apart."""
    two, three = tagged_family(2), tagged_family(3)
    spec = TransformSpec
    cases = [
        (spec("reluctant"), [IDENT]),
        (spec("reverse-reluctant"), [IDENT]),
        (spec("double-reluctant"), [IDENT]),
        (spec("self-compose"), [HALF]),
        (spec("self-compose", convention="doubling"), [HALF]),
        (spec("pair"), two),
        (spec("pair", combiner="power-sum", k=2), two),
        (spec("pair", combiner="concat"), two),
        (spec("pair", combiner="iterate"), [IDENT, HALF]),
        (spec("pair", combiner=lambda a, b: a - 3 * b), two),
        (spec("eta", d=1), []),
        (spec("eta", d=2), []),
        (spec("eta", d=4), []),
        (spec("multi-replicate"), three),
        (spec("braid"), three),
        (spec("segment-braid"), three),
        (spec("segment-braid"), two),
        (spec("superpose", inner=Scheme("angle"), outer=Scheme("boustrophedon")), [IDENT]),
        (spec("superpose", inner=Scheme("oxplow"), outer=Scheme("edges-in")), [IDENT]),
    ]
    for family in FAMILIES:
        if "shift" in family:
            cases += [(spec(family, k=k), [IDENT]) for k in ((0, 3) if "columns" in family else (1, 4))]
    assert {s.family for s, _ in cases} == set(FAMILIES)
    return cases


RULE_CASES = rule_cases()


def case_id(case):
    if isinstance(case, int):
        return str(case)
    spec, sources = case
    return f"{spec.family}-k{spec.k}-d{spec.d}-{getattr(spec.combiner, '__name__', spec.combiner)}" \
           f"-{spec.convention}-{len(sources)}"


def with_positions(cases):
    """Each case with its prefix length: 10^5 for a family's first case, 10^4 for the rest."""
    seen = set()
    for case in cases:
        yield case, 10_000 if case[0].family in seen else 100_000
        seen.add(case[0].family)


@pytest.mark.parametrize("case, count", with_positions(RULE_CASES), ids=case_id)
def test_term_matches_closed_form(case, count):
    # term decodes each position; the walk from each of the first 2000 starts agrees too
    spec, sources = case
    for n in range(1, count + 1):
        expected = direct_term(spec, sources, n)
        assert tr.term(spec, sources, n) == expected, n
        if n <= 2_000:
            assert next(iter_terms(spec, sources, n)) == expected, n


def test_term_matches_closed_form_on_tilings():
    for inner, outer in (("tiling:const:3x2:row", "center-out"),
                         ("angle", "tiling:ramp:1+1x1+1:parity-tile")):
        spec = TransformSpec("superpose", inner=parse_scheme(inner), outer=parse_scheme(outer))
        expected = [direct_term(spec, [IDENT], n) for n in range(1, 2_001)]
        assert [tr.term(spec, IDENT, n) for n in range(1, 2_001)] == expected
        assert generate_prefix(spec, IDENT, 2_000) == expected


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(RULE_CASES), st.integers(1, 10**30))
def test_term_matches_closed_form_far_out(case, n):
    spec, sources = case
    expected = direct_term(spec, sources, n)
    assert tr.term(spec, sources, n) == expected
    assert next(iter_terms(spec, sources, n)) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RULE_CASES), st.integers(1, 10**30), st.integers(1, 60))
def test_iter_terms_from_any_start(case, start, m):
    spec, sources = case
    expected = [tr.term(spec, sources, n) for n in range(start, start + m)]
    assert list(islice(iter_terms(spec, sources, start=start), m)) == expected


@pytest.mark.parametrize("case", RULE_CASES, ids=case_id)
def test_iter_terms_takes_one_square_root(case, monkeypatch):
    # the walk decodes its start and then steps: over a prefix that crosses
    # many diagonals or shells, one square root in all, at the start
    spec, sources = case
    roots = []

    def counted(fn):
        return lambda *args: roots.append(fn.__name__) or fn(*args)

    for module in (pairing, tr):
        monkeypatch.setattr(module, "isqrt", counted(module.isqrt))
    for name in ("diagonal_index", "shell_index"):
        monkeypatch.setattr(pairing, name, counted(getattr(pairing, name)))
    expected = [direct_term(spec, sources, n) for n in range(1, 10_001)]
    roots.clear()
    assert generate_prefix(spec, sources, 10_000) == expected
    assert sorted(roots) in (["diagonal_index", "isqrt"], ["isqrt", "shell_index"]), roots


def test_superpose_binds_the_inner_encoder_once(monkeypatch):
    # the inner tiling's order is resolved when its scheme is built, so no
    # term of a long superpose prefix resolves it again
    spec = TransformSpec("superpose", inner=parse_scheme("tiling:const:3x2:row"),
                         outer=Scheme("center-out"))
    expected = [direct_term(spec, [IDENT], n) for n in range(1, 5_001)]
    orders = []
    canonical = tiling.canonical_order
    monkeypatch.setattr(tiling, "canonical_order", lambda order: orders.append(order) or canonical(order))
    assert generate_prefix(spec, IDENT, 5_000) == expected
    assert orders == []


def test_iter_terms_validates_when_called():
    with pytest.raises(ValueError, match="position"):
        iter_terms(TransformSpec("reluctant"), IDENT, start=0)
    with pytest.raises(ValueError, match="family braid "):
        iter_terms(TransformSpec("braid"), [IDENT])
    with pytest.raises(ValueError, match="position"):
        tr.term(TransformSpec("max-shift-angle", k=1), IDENT, 0)


def test_spec_checks_every_parameter_once():
    bad = [
        dict(family="pair", combiner="bogus"),
        dict(family="reluctant", combiner="bogus"),
        dict(family="self-compose", convention="exponential"),
        dict(family="eta", d=0),
        dict(family="shifted-columns", k=-1),
        dict(family="shifted-columns-angle", k=-1),
        dict(family="max-shift", k=0),
        dict(family="segment-shift-angle", k=0),
        dict(family="pair", combiner="power-sum", k=0),
        dict(family="superpose", inner=Scheme("cantor0"), outer=Scheme("cantor")),
        dict(family="superpose", inner=Scheme("cantor"), outer=Scheme("cantor0")),
    ]
    for fields in bad:
        with pytest.raises(ValueError):
            TransformSpec(**fields)
    # the least shifts are accepted, and a callable combiner
    for family in ("shifted-columns", "shifted-columns-angle"):
        assert generate_prefix(TransformSpec(family, k=0), IDENT, 3) == [1, 1, 2]
    assert generate_prefix(TransformSpec("max-shift", k=1), IDENT, 3) == [1, 2, 2]
    assert generate_prefix(TransformSpec("pair", combiner=max), [IDENT, IDENT], 3) == [1, 2, 2]


class CountingSource(SequenceSource):
    """The naturals, recording the length of every batched read."""

    def __init__(self, reads):
        super().__init__("counting", lambda m: m)
        self.reads = reads

    def values(self, r):
        self.reads.append(len(r))
        return super().values(r)


BLOCK_CASES = [(spec, len(sources)) for spec, sources in RULE_CASES
               if FAMILY_TABLE[spec.family].block is not None
               and FAMILY_TABLE[spec.family].block(spec, sources) is not None]


@pytest.mark.parametrize("case", BLOCK_CASES, ids=lambda case: case_id((case[0], [0] * case[1])))
def test_block_reads_stay_under_the_cap(case):
    # far out, a diagonal or shell holds about 10^15 cells; each batched read
    # stays within one run of RUN_CAP cells, so memory does not grow with it
    spec, count = case
    for start in (1, pairing.triangle(10**15) + 1, 10**30 - 17):
        reads = []
        sources = [CountingSource(reads) for _ in range(count)]
        tracemalloc.start()
        try:
            for n, v in enumerate(islice(iter_terms(spec, sources, start), 2 * RUN_CAP + 50)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 2 * RUN_CAP + 49
        assert max(reads, default=0) <= RUN_CAP, (start, max(reads))
        assert peak < 2**22, (start, peak)


# one case for each block rule that holds a prefix or a diagonal, and must
# hold nothing once its reads run past RUN_CAP
HELD_CASES = {
    "column": (TransformSpec("self-compose"), [identity()]),
    "double-reluctant": (TransformSpec("double-reluctant"), [identity()]),
    "eta-heads": (TransformSpec("eta", d=3), []),
}


@pytest.mark.parametrize("case", sorted(HELD_CASES))
def test_block_reads_past_the_cap_hold_nothing_that_grows(case):
    # two whole anti-diagonals from diagonal t, past RUN_CAP: 2x as many
    # cells at the second start must not raise the peak.  Both starts are
    # past the diagonal where eta's terms outgrow one 30-bit int digit.
    spec, sources = HELD_CASES[case]

    def peak(t):
        tracemalloc.start()
        try:
            for _ in islice(iter_terms(spec, sources, pairing.triangle(t) + 1),
                            pairing.triangle(t + 2) - pairing.triangle(t)):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    near, far = peak(8000), peak(16000)
    assert far < 1.25 * near, (near, far)


# -- the affine families' block reads against their array rules at the main diagonal --------

AFFINE_FAMILIES = ("reluctant", "reverse-reluctant", "shifted-columns", "max-shift", "segment-shift",
                   "shifted-columns-angle", "max-shift-angle", "segment-shift-angle",
                   "multi-replicate", "braid", "segment-braid")


def affine_cases():
    """(spec, sources) of each affine family at k = 0, 1 and 1000 where the family takes it."""
    cases = []
    for family in AFFINE_FAMILIES:
        row = FAMILY_TABLE[family]
        for k in (0, 1, 1000) if row.needs_k else (0,):
            if k < (row.k_min or 0):
                continue
            for l in (2, 3, 5) if row.sources == tr.SEVERAL else (1,):
                # 10m + r tells source r at index m apart from every other
                sources = [custom(lambda m, r=r: 10 * m + r, f"tag{r}") for r in range(l)]
                cases.append((TransformSpec(family, k=k), sources))
    return cases


AFFINE_CASES = affine_cases()


def block_and_cells(spec, sources, t, p0, p1):
    row = FAMILY_TABLE[spec.family]
    cell = row.rule(spec, sources)
    block = list(row.block(spec, sources)(t, p0, p1))
    return block, [cell(i, j) for i, j in row.reader.reader[1](t, p0, p1)]


def block_size(reader, t):
    return t + 1 if reader.kind == "cantor" else 2 * t - 1


def test_affine_blocks_match_their_rules_on_every_run_of_small_blocks():
    # every run p0..p1 of anti-diagonals 0..11 and shells 1..12, so every
    # run that starts, ends or crosses at the main diagonal
    for spec, sources in AFFINE_CASES:
        reader = FAMILY_TABLE[spec.family].reader
        for t in range(0, 12) if reader.kind == "cantor" else range(1, 13):
            size = block_size(reader, t)
            for p0 in range(1, size + 1):
                for p1 in range(p0, size + 1):
                    block, cells = block_and_cells(spec, sources, t, p0, p1)
                    assert block == cells, (spec, len(sources), t, p0, p1)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(AFFINE_CASES), st.integers(1, 10**30), st.sampled_from((0, 1)),
       st.integers(-40, 1), st.integers(-1, 40))
def test_affine_blocks_match_their_rules_at_the_main_diagonal_far_out(case, half, parity, before, after):
    # a run that starts or ends on, or crosses, the middle cell of an
    # anti-diagonal t, odd or even, or cell s of a shell, with t and s up to 10^30
    spec, sources = case
    reader = FAMILY_TABLE[spec.family].reader
    t = 2 * half + parity - (reader.kind == "cantor")  # cantor from 1, angle from 2
    middle = (t + 1) // 2 if reader.kind == "cantor" else t  # the last cell above i = j, or cell (s, s)
    size = block_size(reader, t)
    p0 = max(1, middle + before)
    p1 = max(p0, min(size, middle + after))
    block, cells = block_and_cells(spec, sources, t, p0, p1)
    assert block == cells


# -- self-compose and pair --combiner iterate: column j + 1 is the step over column j --------

# fixed points, a cycle, 0 and negatives, exhausted lists, and powers past a small budget;
# m -> max(1, m - 1) up to RUN_CAP - 1 first fails at cell (RUN_CAP, 1), the last of its diagonal
COLUMN_STEPS = [from_list([3, 1, 0, 2, 5, 4, 9]), from_list([2, 3, 1]), from_list([1, 4, -2, 2, 5, 3]),
                from_list([1, *range(1, RUN_CAP - 1)]), euler_phi(), power_base(2, 12),
                power_base(2, 64), HALF]


COLUMN_CASES = st.one_of(
    st.builds(lambda step: (TransformSpec("self-compose"), [step]), st.sampled_from(COLUMN_STEPS)),
    st.builds(lambda alpha, step: (TransformSpec("pair", combiner="iterate"), [alpha, step]),
              st.sampled_from([IDENT, euler_phi(), HALF, COLUMN_STEPS[0]]), st.sampled_from(COLUMN_STEPS)),
)


def terms_and_failure(terms, start):
    got, exc = outcome(terms)
    return got, describe(exc, start + len(got))


@settings(max_examples=200, deadline=None)
@example((TransformSpec("self-compose"), [COLUMN_STEPS[0]]), 0, "first", 1)  # 3 -> 0 at cell (1, 2)
@example((TransformSpec("pair", combiner="iterate"), [IDENT, COLUMN_STEPS[0]]), 0, "first", 2)
@example((TransformSpec("self-compose"), [COLUMN_STEPS[3]]), RUN_CAP - 2, "first", 2)
@given(COLUMN_CASES,
       st.one_of(st.integers(0, 40), st.integers(RUN_CAP - 2, RUN_CAP + 1)),
       st.sampled_from(("first", "middle", "last")), st.integers(0, 2))
def test_column_recurrence_matches_term_at_the_diagonal_edges(case, t, where, diagonals):
    # a walk from the first, middle or last cell of anti-diagonal t, on to
    # the end of up to two diagonals more: the first diagonal read from its
    # first cell takes the array rule, the next ones the recurrence, and
    # diagonals from RUN_CAP on the array rule again
    spec, sources = case
    p = {"first": 1, "middle": (t + 2) // 2, "last": t + 1}[where]
    start = pairing.triangle(t) + p
    count = t + 2 - p + sum(t + 2 + d for d in range(diagonals))
    want = terms_and_failure((tr.term(spec, sources, n) for n in range(start, start + count)), start)
    assert terms_and_failure(islice(iter_terms(spec, sources, start), count), start) == want


def test_a_cold_start_reads_no_more_than_term():
    # a walk that starts inside an anti-diagonal computes its own cells by the
    # array rule; it does not first build the diagonal's prefix
    calls = []
    successor = custom(lambda m: calls.append(m) or m + 1, "successor")
    n = pairing.triangle(4000) + 2000
    for spec, sources in ((TransformSpec("self-compose"), [successor]),
                          (TransformSpec("pair", combiner="iterate"), [successor, successor])):
        calls.clear()
        expected = tr.term(spec, sources, n)
        made = len(calls)
        calls.clear()
        assert next(iter_terms(spec, sources, n)) == expected
        assert len(calls) <= made, (spec.combiner, len(calls), made)
