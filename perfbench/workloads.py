"""The four workloads: seeded argv lists for ``gridseq.cli.main`` and their checks.

Each builder takes a seeded ``random.Random``, a size scale (1 for timed
runs, smaller for the traced pass; the request mix keeps its size) and the
library namespace, and returns one round of :class:`harness.Call`.  Every call carries a check that
compares its output with ground truth computed after the timed region.
"""

import random
from functools import cache
from itertools import islice
from math import isqrt

import truth
from harness import Call, text_digest

INNER, OUTER = "tiling:const:3x2:row", "center-out"
SUPERPOSE_TERMS = 20_000
FAMILY_TERMS = 50_000
LARGE_SHIFT_TERMS = 180_000  # shifted-columns --k 1000 then reads primes up to index ~6e5
VERIFY_SIMPLE_POSITIONS = 100_000
VERIFY_TILING_POSITIONS = 12_000
FIXTURE_TERMS = 100

ORDERS = ("row", "col", "parity-diag", "parity-tile")
SIMPLE = ("cantor", "cantor0", "boustrophedon", "center-out", "edges-in", "alternating",
          "angle", "oxplow")


# -- superpose: one long prefix through a search decode and a tiling encode -------

def superpose(rng, scale, lib):
    count = max(1, int((SUPERPOSE_TERMS + rng.randrange(SUPERPOSE_TERMS // 50)) * scale))
    argv = ["generate", "--family", "superpose", "--inner", INNER, "--outer", OUTER,
            "--alpha", "id", "--count", str(count)]
    expected = cache(lambda: text_digest(_superpose_truth(lib, count)))
    return [Call(argv, count, lambda o: o.digest == expected())]


def _superpose_truth(lib, count):
    """inner_encode(outer_decode(n)), both read off the oracle's geometric walks."""
    walk = lib.oracle.iter_cells
    outer = list(islice(walk(lib.schemes.parse_scheme(OUTER)), count))
    wanted = set(outer)
    position = {}
    for n, cell in enumerate(walk(lib.schemes.parse_scheme(INNER)), 1):
        if cell in wanted:
            position[cell] = n
            if len(position) == len(wanted):
                break
    return [position[cell] for cell in outer]


# -- families: every closed-form family except superpose, over id, primes, phi ----

def families(rng, scale, lib):
    k3 = lambda: rng.choice((1, 2, 3))  # noqa: E731
    three = ["id", "primes", "phi"]
    specs = [
        dict(family="reluctant", sources=["primes"]),
        dict(family="reverse-reluctant", sources=["id"]),
        dict(family="double-reluctant", sources=["phi"]),
        dict(family="self-compose", sources=["phi"]),
        dict(family="shifted-columns", sources=["primes"], k=1000, count=LARGE_SHIFT_TERMS),
        dict(family="shifted-columns", sources=["id"], k=k3()),
        dict(family="max-shift", sources=["id"], k=rng.choice((2, 3))),
        dict(family="segment-shift", sources=["phi"], k=k3()),
        dict(family="shifted-columns-angle", sources=["primes"], k=k3()),
        dict(family="max-shift-angle", sources=["phi"], k=k3()),
        dict(family="segment-shift-angle", sources=["id"], k=rng.choice((1, 2))),
        dict(family="pair", sources=["primes", "phi"], combiner="product"),
        dict(family="pair", sources=["phi", "id"], combiner="concat"),
        dict(family="eta", sources=[], d=2),
        dict(family="multi-replicate", sources=rng.sample(three, 3)),
        dict(family="braid", sources=rng.sample(three, 3)),
        dict(family="segment-braid", sources=rng.sample(three, 3)),
    ]
    # a fixed order: when the sieve grows relative to the other calls sets peak memory
    calls = []
    for spec in specs:
        size = max(1, int(spec.get("count", FAMILY_TERMS) * scale))
        spec["count"] = size + rng.randrange(max(1, size // 100))
        calls.append(Call(_generate_argv(spec), spec["count"], _family_check(lib, spec)))
    return calls


def _generate_argv(spec, command="generate"):
    argv = [command, "--family", spec["family"]]
    names = spec["sources"]
    if spec["family"] in ("multi-replicate", "braid", "segment-braid"):
        argv += ["--sources", *names]
    elif names:
        argv += ["--alpha", names[0]]
        if len(names) > 1:
            argv += ["--beta", names[1]]
    for key in ("k", "d", "combiner"):
        if key in spec:
            argv += [f"--{key}", str(spec[key])]
    return argv + ["--count", str(spec["count"])]


def _pin(spec):
    """A-number of the shipped b-file that pins this call's prefix, if any."""
    if spec["sources"] not in (["id"], []):
        return None
    return truth.FIXTURE_PINS.get((spec["family"], spec.get("k", spec.get("d"))))


def _family_check(lib, spec):
    anum = _pin(spec)

    @cache
    def expected():
        values = truth.family_values(spec)
        if anum is not None:
            _require_fixture(lib, anum, values[:FIXTURE_TERMS])
        return text_digest(values)

    def check(outcome):
        if anum is not None:
            head = outcome.head.split("\n")[:FIXTURE_TERMS]
            try:
                prefix = [int(v) for v in head]
            except ValueError:
                return False
            if truth.fixture_offset(_fixture(lib.root, anum), prefix) is None:
                return False
        return outcome.digest == expected()

    return check


@cache
def _fixture(root, anum):
    return truth.read_fixture(root, anum)


def _require_fixture(lib, anum, values):
    if truth.fixture_offset(_fixture(lib.root, anum), values) is None:
        raise AssertionError(f"benchmark ground truth disagrees with the {anum} fixture")


# -- verify: every scheme kind and all three tiling rule kinds under all four orders

def verify(rng, scale, lib):
    calls = []
    for kind in SIMPLE:
        calls.append(_verify_call(kind, ["--scheme", kind], int(VERIFY_SIMPLE_POSITIONS * scale)))
    positions = int(VERIFY_TILING_POSITIONS * scale)
    lengths, heights = _side_lists(rng, positions)
    specs = ["const:3x2", "ramp:1+1x1+1",
             f"list:{','.join(map(str, lengths))}x{','.join(map(str, heights))}"]
    for spec in specs:
        for order in ORDERS:
            calls.append(_verify_call(f"tiling:{spec}:{order}",
                                      ["--scheme", "tiling", "--spec", spec, "--order", order],
                                      positions))
    rng.shuffle(calls)
    return calls


def _verify_call(label, scheme_args, positions):
    """The CLI exits 0 and prints this line exactly when VerificationReport.ok holds."""
    positions = max(1, positions)
    argv = ["verify", *scheme_args, "--n-max", str(positions)]
    line = f"{label}: {positions} positions verified\n"
    return Call(argv, positions, lambda o: o.head == line)


def _side_lists(rng, positions):
    """Seeded side lists, long enough that their tile diagonals cover ``positions`` cells.

    Each run of three sides is a shuffle of 1, 2, 3, so that every seed's
    tiles have the same mean size and its encodes the same cost.
    """
    lengths, heights = [], []
    while _covered(lengths, heights) < positions:
        for sides in (lengths, heights):
            block = [1, 2, 3]
            rng.shuffle(block)
            sides.extend(block)
    return lengths, heights


def _covered(lengths, heights):
    # cells in the tile diagonals both lists describe, keeping one entry to spare
    m = len(lengths) - 1
    return sum(heights[r] * lengths[e - r] for e in range(m) for r in range(e + 1))


# -- requests: one-shot encode, decode and oeis-check calls of mixed magnitude ------

E3, E6, E9, E30 = 10**3, 10**6, 10**9, 10**30
CLOSED = ("cantor", "cantor0", "angle", "oxplow")
PERMUTED = ("boustrophedon", "center-out", "edges-in", "alternating")
CONST = tuple(f"tiling:const:3x2:{o}" for o in ORDERS)
RAMP = tuple(f"tiling:ramp:1+1x1+1:{o}" for o in ORDERS)

# (command, schemes, magnitudes, requests per scheme and magnitude).  Each
# scheme stops at the largest magnitude the library answers, and the check
# can confirm, in bounded time: the permuted diagonals decode by block
# search (O(sqrt n); about 10^15 cells at 10^30), constant-tiling decode is
# quadratic in the tile diagonal (about 25 s at 10^9), and a ramp tiling
# or permuted-diagonal encode is checked by decoding its answer.  The 10^9
# search decodes are about a twelfth of the mix, so that p99 falls well
# inside them rather than on the edge of a small class.
REQUEST_MIX = (
    ("encode", CLOSED, (E3, E6, E9, E30), 12),
    ("decode", CLOSED, (E3, E6, E9, E30), 12),
    ("encode", PERMUTED, (E3, E6, E9), 12),
    ("decode", PERMUTED, (E3, E6), 12),
    ("decode", PERMUTED, (E9,), 24),
    ("encode", CONST, (E3, E6), 8),
    ("encode", CONST, (E9,), 3),
    ("decode", CONST, (E3,), 8),
    ("decode", CONST, (E6,), 1),
    ("encode", RAMP, (E3, E6, E9), 6),
    ("decode", RAMP, (E3, E6), 6),
    ("decode", RAMP, (E9,), 2),
)
OEIS_CHECKS_PER_PIN = 16
SMALL_WALK = 5000  # oracle cells that cover every 10^3 request


def requests(rng, scale, lib):
    oracle = _SmallOracle(lib)
    calls = []
    for command, schemes, magnitudes, per in REQUEST_MIX:
        for scheme in schemes:
            for magnitude in magnitudes:
                for k in range(per):
                    u = (k + rng.random()) / per  # stratified, so cost spreads evenly
                    make = _decode_call if command == "decode" else _encode_call
                    calls.append(make(rng, lib, oracle, scheme, magnitude, u))
    for (family, param), anum in truth.FIXTURE_PINS.items():
        for _ in range(OEIS_CHECKS_PER_PIN):
            calls.append(_oeis_call(rng, lib, family, param, anum))
    rng.shuffle(calls)
    return calls


def _decode_call(rng, lib, oracle, scheme, magnitude, u):
    if scheme in PERMUTED:
        # answers spread evenly along their diagonal: a diagonal's positions
        # are permuted, and a decode's cost can follow where its cell lies
        d0 = isqrt(2 * magnitude)
        d = d0 + rng.randrange(max(1, d0 // 20))
        r = 1 + int(u * d)
        n = lib.schemes.encode(lib.schemes.parse_scheme(scheme), r, d + 1 - r)
    else:
        n = magnitude + int(u * (magnitude // 10))
    argv = ["decode", "--scheme", scheme, "--n", str(n)]

    def check(outcome):
        try:
            i, j = (int(v) for v in outcome.head.split())
        except ValueError:
            return False
        if outcome.head != f"{i} {j}\n":
            return False
        if magnitude == E3:
            return oracle.cell(scheme, n) == (i, j)
        if scheme in CONST:
            return min(i, j) >= 1 and truth.const_tiling_position(i, j, 3, 2, _order(scheme)) == n
        return lib.schemes.encode(lib.schemes.parse_scheme(scheme), i, j) == n

    return Call(argv, 1, check)


def _encode_call(rng, lib, oracle, scheme, magnitude, u):
    c = isqrt(magnitude // 2)
    i = c + rng.randrange(c // 10 + 1)
    j = c + int(u * (c // 10 + 1))
    argv = ["encode", "--scheme", scheme, "--i", str(i), "--j", str(j)]

    def check(outcome):
        try:
            n = int(outcome.head)
        except ValueError:
            return False
        if outcome.head != f"{n}\n":
            return False
        if magnitude == E3:
            return oracle.position(scheme, (i, j)) == n
        if scheme in CONST:
            return truth.const_tiling_position(i, j, 3, 2, _order(scheme)) == n
        return lib.schemes.decode(lib.schemes.parse_scheme(scheme), n) == (i, j)

    return Call(argv, 1, check)


def _oeis_call(rng, lib, family, param, anum):
    spec = {"family": family, "sources": [] if family == "eta" else ["id"]}
    if param is not None:
        spec["d" if family == "eta" else "k"] = param
    spec["count"] = rng.randint(20, 120)
    argv = _generate_argv(spec, "oeis-check") + ["--anum", anum]
    fixture_spec = dict(spec, count=FIXTURE_TERMS)

    @cache
    def pinned():
        _require_fixture(lib, anum, truth.family_values(fixture_spec))
        return True

    return Call(argv, 1,
                lambda o: pinned() and o.head.startswith(f"{anum}: match ({spec['count']} terms"))


def _order(scheme):
    return scheme.rpartition(":")[2]


class _SmallOracle:
    """Positions of the first SMALL_WALK cells of each scheme, from the geometric walk."""

    def __init__(self, lib):
        self._lib = lib
        self._walks = {}

    def _walk(self, scheme):
        if scheme not in self._walks:
            parsed = self._lib.schemes.parse_scheme(scheme)
            cells = list(islice(self._lib.oracle.iter_cells(parsed), SMALL_WALK))
            first = 0 if scheme == "cantor0" else 1
            self._walks[scheme] = (cells, {c: n for n, c in enumerate(cells, first)}, first)
        return self._walks[scheme]

    def cell(self, scheme, n):
        cells, _, first = self._walk(scheme)
        return cells[n - first] if 0 <= n - first < len(cells) else None

    def position(self, scheme, cell):
        return self._walk(scheme)[1].get(cell)


WORKLOADS = {
    "superpose": (superpose, "term"),
    "families": (families, "term"),
    "verify": (verify, "verified position"),
    "requests": (requests, "request"),
}


def build(name, seed, scale, lib):
    builder, _ = WORKLOADS[name]
    return builder(random.Random(f"{name}:{seed}"), scale, lib)
