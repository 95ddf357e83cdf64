"""Pairing functions on the positive-integer grid and sequence transformations.

The grid is enumerated by closed-form bijections (anti-diagonals and four
permuted variants, square shells straight and boustrophedon, and covers by
variable-size rectangle tiles); integer sequences are rebuilt through
those enumerations (replication, self-composition, index-function, pair,
multi-sequence, and superposition families).  Every closed form has an
independent geometric traversal oracle, and the generated sequences are
cross-checked against OEIS b-file reference data.
"""

from .oracle import VerificationReport, traverse, verify_scheme
from .pairing import (
    alternating_decode,
    alternating_encode,
    angle_decode,
    angle_encode,
    boustrophedon_decode,
    boustrophedon_encode,
    cantor_decode,
    cantor_encode,
    cantor_z,
    cantor_z_decode,
    center_out_decode,
    center_out_encode,
    edges_in_decode,
    edges_in_encode,
    oxplow_decode,
    oxplow_encode,
)
from .schemes import Scheme, decode, encode, parse_scheme, tiling_scheme, walk
from .sources import (
    BudgetExceededError,
    NonPositiveTermError,
    SequenceSource,
    SourceError,
    SourceExhaustedError,
    euler_phi,
    from_file,
    from_list,
    geometric,
    identity,
    parse_source,
    power_base,
    primes,
)
from .tiling import (
    SpecExhaustedError,
    TilingSpec,
    const_rule,
    list_rule,
    parse_tiling_spec,
    ramp_rule,
    rect_encoder,
)
from .transforms import (
    TransformSpec,
    braid,
    concat_numbers,
    double_reluctant,
    eta,
    generate_prefix,
    iter_terms,
    max_shift,
    multi_replicate,
    pair_indices,
    pair_transform,
    reluctant,
    reverse_reluctant,
    segment_braid,
    segment_shift,
    self_compose,
    shifted_columns,
    superpose,
    term,
)

__version__ = "0.1.0"
