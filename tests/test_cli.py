import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from gridseq import cli, oeis, oracle
from gridseq.oracle import VerificationReport
from gridseq.schemes import Scheme, parse_scheme
from gridseq.sources import parse_source
from gridseq.transforms import FAMILIES, FAMILY_TABLE, SEVERAL, TransformSpec, generate_prefix
from support import direct_term


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    capsys.readouterr()
    return err.value.code


def test_encode(capsys):
    assert run(capsys, "encode", "--scheme", "cantor", "--i", "2", "--j", "1")[:2] == (0, "3\n")
    assert run(capsys, "encode", "--scheme", "angle", "--i", "3", "--j", "2")[:2] == (0, "8\n")
    assert run(capsys, "encode", "--scheme", "oxplow", "--i", "1", "--j", "1")[:2] == (0, "1\n")
    assert run(capsys, "encode", "--scheme", "cantor0", "--i", "0", "--j", "0")[:2] == (0, "0\n")


def test_encode_tiling(capsys):
    code, out, _ = run(capsys, "encode", "--scheme", "tiling", "--spec", "const:3x2",
                       "--order", "row", "--i", "1", "--j", "4")
    assert (code, out) == (0, "7\n")
    code, out, _ = run(capsys, "encode", "--scheme", "tiling:const:3x2:row", "--i", "2", "--j", "3")
    assert (code, out) == (0, "6\n")
    for order, position in (("row", "4\n"), ("col", "2\n"), (None, "4\n")):
        flags = ("--order", order) if order else ()
        code, out, _ = run(capsys, "encode", "--scheme", "tiling", "--spec", "const:3x2", *flags,
                           "--i", "2", "--j", "1")
        assert (code, out) == (0, position), order


def test_decode(capsys):
    assert run(capsys, "decode", "--scheme", "cantor", "--n", "5")[:2] == (0, "2 2\n")
    assert run(capsys, "decode", "--scheme", "angle", "--n", "7")[:2] == (0, "3 3\n")
    assert run(capsys, "decode", "--scheme", "cantor", "--n", "1")[:2] == (0, "1 1\n")
    assert run(capsys, "decode", "--scheme", "tiling:const:3x2:row", "--n", "7")[:2] == (0, "1 4\n")


def test_generate_families(capsys):
    code, out, _ = run(capsys, "generate", "--family", "reluctant", "--alpha", "id", "--count", "6")
    assert code == 0 and out.split() == ["1", "1", "2", "1", "2", "3"]
    code, out, _ = run(capsys, "generate", "--family", "eta", "--d", "2", "--count", "6")
    assert code == 0 and out.split() == ["11", "12", "21", "13", "22", "31"]
    # deeper than the default recursion limit
    code, out, _ = run(capsys, "generate", "--family", "eta", "--d", "2000", "--count", "1")
    assert (code, out) == (0, "1" * 2000 + "\n")
    code, out, _ = run(capsys, "generate", "--family", "self-compose", "--alpha", "phi", "--count", "6")
    assert code == 0 and out.split() == ["1", "1", "1", "1", "1", "2"]
    code, out, _ = run(capsys, "generate", "--family", "shifted-columns", "--k", "2",
                       "--alpha", "id", "--count", "3")
    assert code == 0 and out.split() == ["1", "3", "2"]
    code, out, _ = run(capsys, "generate", "--family", "braid", "--sources", "id", "primes",
                       "--count", "3")
    assert code == 0 and out.split() == ["1", "2", "3"]
    code, out, _ = run(capsys, "generate", "--family", "superpose", "--alpha", "id",
                       "--inner", "tiling:const:3x2:row", "--outer", "center-out", "--count", "6")
    assert code == 0 and out.split() == ["1", "2", "4", "5", "3", "13"]


# source count -> (CLI flags, the same sources as specs)
SOURCES = {
    0: ([], []),
    1: (["--alpha", "primes"], ["primes"]),
    2: (["--alpha", "primes", "--beta", "phi"], ["primes", "phi"]),
    SEVERAL: (["--sources", "id", "primes", "phi"], ["id", "primes", "phi"]),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_through_cli(capsys, family):
    rule = FAMILY_TABLE[family]
    flags, texts = SOURCES[rule.sources]
    argv = ["generate", "--family", family, *flags, "--count", "10"]
    if family == "eta":  # every other family refuses a flag it does not read
        argv += ["--d", "3"]
    k = 1
    if rule.needs_k:
        assert run_usage_error(capsys, *argv) == 2  # --k has no default here
        k = 2
        argv += ["--k", "2"]
    inner = outer = None
    if family == "superpose":
        inner, outer = parse_scheme("tiling:const:3x2:row"), parse_scheme("center-out")
        argv += ["--inner", "tiling:const:3x2:row", "--outer", "center-out"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    spec = TransformSpec(family, k=k, d=3, inner=inner, outer=outer)
    sources = [parse_source(text) for text in texts]
    expected = generate_prefix(spec, sources, 10)
    assert out.split() == [str(v) for v in expected]
    assert expected == [direct_term(spec, sources, n) for n in range(1, 11)]


def test_generate_json(capsys):
    code, out, _ = run(capsys, "generate", "--family", "pair", "--alpha", "geo:10",
                       "--beta", "geo:10", "--combiner", "power-sum", "--k", "7",
                       "--count", "6", "--format", "json")
    assert code == 0
    values = json.loads(out)
    assert all(isinstance(v, str) for v in values)
    assert int(values[5]) == 10**21 + 10**7  # needs more than 64 bits
    assert int(values[0]) == 2 * 10**7


def test_generate_source_exhausted_exit3(capsys):
    code, out, err = run(capsys, "generate", "--family", "reluctant", "--alpha", "list:1",
                         "--count", "3")
    assert code == 3
    assert out == ""
    assert "n=3" in err
    # deep in a diagonal the failing position is still exact, and nothing is printed
    forty = "list:" + ",".join(map(str, range(1, 41)))
    cantor = list(islice(oracle.iter_cells(Scheme("cantor")), 2000))
    first_bad = next(n for n, (i, j) in enumerate(cantor, 1) if i > 40)  # reluctant reads row i
    assert first_bad == 861
    code, out, err = run(capsys, "generate", "--family", "reluctant", "--alpha", forty,
                         "--count", "2000")
    assert (code, out) == (3, "")
    assert err.startswith(f"error at n={first_bad}: ")
    # superpose reads the inner numbering along its outer scheme's walk
    position = {cell: n for n, cell in enumerate(cantor, 1)}
    angle = islice(oracle.iter_cells(Scheme("angle")), 2000)
    first_bad = next(n for n, cell in enumerate(angle, 1) if position[cell] > 40)
    code, out, err = run(capsys, "generate", "--family", "superpose", "--alpha", forty,
                         "--inner", "cantor", "--outer", "angle", "--count", "2000")
    assert (code, out) == (3, "")
    assert err.startswith(f"error at n={first_bad}: ")


def test_generate_budget_exit3(capsys):
    code, _, err = run(capsys, "generate", "--family", "self-compose", "--alpha", "pow:2",
                       "--count", "16")
    assert code == 3
    assert "n=16" in err
    # concatenation needs positive terms, and says where it met the first one
    code, out, err = run(capsys, "generate", "--family", "pair", "--combiner", "concat",
                         "--alpha", "list:0,1,2", "--count", "3")
    assert (code, out) == (3, "")
    assert "n=1" in err
    # a term too long to print as a decimal is found before anything is written
    for fmt in ("plain", "json"):
        code, out, err = run(capsys, "generate", "--family", "self-compose", "--alpha", "pow:2",
                             "--count", "11", "--format", fmt)
        assert (code, out) == (3, "")
        assert err.startswith("error at n=11: ")  # 2**65536, after ten printable terms
    # 1 + 91**2200 at cell (1, 91), position 4096, past the first output chunk
    code, out, err = run(capsys, "generate", "--family", "pair", "--combiner", "power-sum",
                         "--k", "2200", "--count", "5000")
    assert (code, out) == (3, "")
    assert err.startswith("error at n=4096: ")


CANTOR = list(islice(oracle.iter_cells(Scheme("cantor")), 9000))


def _list_source(values):
    return "list:" + ",".join(map(str, values))


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("rows, chunk", [(100, 2), (127, 3)])
def test_generate_source_error_past_the_first_chunk(capsys, fmt, rows, chunk):
    # reluctant reads row i; the first row past the list is in a later chunk
    first_bad = next(n for n, (i, j) in enumerate(CANTOR, 1) if i > rows)
    assert (first_bad - 1) // cli.OUTPUT_CHUNK + 1 == chunk
    code, out, err = run(capsys, "generate", "--family", "reluctant",
                         "--alpha", _list_source(range(1, rows + 1)),
                         "--count", "9000", "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith(f"error at n={first_bad}: ")


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_generate_source_error_wins_over_an_earlier_unprintable_term(capsys, fmt):
    # alpha(i)**2500 + j**2500: 53**2500 has more decimal digits than CPython
    # prints by default, 52**2500 fewer; alpha runs out at row 101, in chunk 2
    first_long = next(n for n, (i, j) in enumerate(CANTOR, 1) if max(i, j) >= 53)
    first_bad = next(n for n, (i, j) in enumerate(CANTOR, 1) if i > 100)
    assert first_long <= cli.OUTPUT_CHUNK < first_bad <= 2 * cli.OUTPUT_CHUNK
    code, out, err = run(capsys, "generate", "--family", "pair", "--combiner", "power-sum",
                         "--k", "2500", "--alpha", _list_source(range(1, 101)), "--beta", "id",
                         "--count", "6000", "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith(f"error at n={first_bad}: ")
    # with a source that does not run out, the long term is the error
    code, out, err = run(capsys, "generate", "--family", "pair", "--combiner", "power-sum",
                         "--k", "2500", "--count", "6000", "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith(f"error at n={first_long}: the term has more than ")


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_generate_unprintable_first_term_of_chunk_two(capsys, fmt):
    # alpha(2) * beta(90) = 10**4400 is the first term over the digit limit,
    # at cell (2, 90); every term before it has at most 2203 digits
    big = 10**2200
    alpha = [big if i == 2 else i for i in range(1, 101)]
    beta = [big if j == 90 else j for j in range(1, 101)]
    first_long = CANTOR.index((2, 90)) + 1
    assert first_long == cli.OUTPUT_CHUNK + 1
    code, out, err = run(capsys, "generate", "--family", "pair", "--alpha", _list_source(alpha),
                         "--beta", _list_source(beta), "--count", "4200", "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith(f"error at n={first_long}: the term has more than ")


# negative terms, and terms past 64 bits of both signs
SIGNED = _list_source((-1) ** k * k**9 for k in range(1, 131))
BYTE_CASES = {
    "signed-product": ["--family", "pair", "--alpha", SIGNED,
                       "--beta", _list_source(range(-60, 70))],
    "power-sum": ["--family", "pair", "--combiner", "power-sum", "--k", "7",
                  "--alpha", "geo:10", "--beta", "id"],
}


@pytest.mark.parametrize("count", [4095, 4096, 4097, 8193])
@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_generate_output_bytes_match_str_and_json_dumps(capsys, case, count):
    argv = ["generate", *BYTE_CASES[case], "--count", str(count)]
    args = cli.build_parser().parse_args(argv)
    spec, sources = cli._transform_from_args(args.command_parser, args)
    terms = generate_prefix(spec, sources, count)
    assert max(abs(v) for v in terms).bit_length() > 64
    assert (min(terms) < 0) == (case == "signed-product")
    assert run(capsys, *argv) == (0, "\n".join(map(str, terms)) + "\n", "")
    assert run(capsys, *argv, "--format", "json") == (0, json.dumps([str(v) for v in terms]) + "\n", "")


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("fmt, per_term", [("plain", 12), ("json", 24)])
def test_generate_memory_grows_only_with_the_text(fmt, per_term):
    # peak RSS of a fresh interpreter at 100k and at 1M terms; the ints are
    # dropped chunk by chunk, so what grows is the formatted text alone.
    # VmHWM is the peak of the interpreter's own memory: ru_maxrss after exec
    # starts from the RSS of the process that spawned it.
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
            "from gridseq import cli; sys.stdout = open(os.devnull, 'w'); "
            "cli.main(['generate', '--family', 'shifted-columns', '--k', '3', '--alpha', 'id', "
            "'--count', sys.argv[2], '--format', sys.argv[3]]); sys.stdout.close(); "
            "print(*[line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')], file=sys.stderr)")

    def peak_bytes(count):
        done = subprocess.run([sys.executable, "-I", "-c", code, src, str(count), fmt],
                              capture_output=True, text=True, timeout=120, check=True)
        return int(done.stderr) * 1024

    grown = (peak_bytes(1_000_000) - peak_bytes(100_000)) / 900_000
    assert grown < per_term, f"{grown:.1f} bytes per term"


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--scheme", "cantor", "--n-max", "10000")
    assert code == 0 and "verified" in out
    code, out, _ = run(capsys, "verify", "--scheme", "tiling", "--spec", "const:3x2",
                       "--order", "row", "--n-max", "10000")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--scheme", "angle", "--n-max", "10000")
    assert code == 0


def test_verify_mismatch_exit1(capsys, monkeypatch):
    bad = VerificationReport(Scheme("cantor"), 4, False, 5, (2, 2), 99)
    monkeypatch.setattr(cli.oracle, "verify_scheme", lambda scheme, count: bad)
    code, out, _ = run(capsys, "verify", "--scheme", "cantor", "--n-max", "10")
    assert code == 1
    assert "mismatch" in out


def test_oeis_check_match(capsys):
    code, out, _ = run(capsys, "oeis-check", "--family", "shifted-columns", "--k", "2",
                       "--alpha", "id", "--anum", "A128076", "--count", "100")
    assert code == 0 and "match" in out
    code, out, _ = run(capsys, "oeis-check", "--family", "segment-shift", "--k", "2",
                       "--alpha", "id", "--anum", "A143182", "--count", "100")
    assert code == 0


# naturals placed by the inner scheme and read by anti-diagonals: superpose
# stays on the array rule, read along its outer scheme's walk
@pytest.mark.parametrize("inner, anum", [("oxplow", "A081344"), ("angle", "A060734"),
                                         ("boustrophedon", "A056011"), ("edges-in", "A064578")])
def test_oeis_check_superpose_fixtures(capsys, inner, anum):
    code, out, err = run(capsys, "oeis-check", "--family", "superpose", "--inner", inner,
                         "--outer", "cantor", "--alpha", "id", "--anum", anum, "--count", "100")
    assert (code, out, err) == (0, f"{anum}: match (100 terms, offset 1)\n", "")


def test_oeis_check_alignment(capsys, monkeypatch):
    argv = ("oeis-check", "--family", "reluctant", "--alpha", "id", "--anum", "A002260",
            "--count", "50", "--alignment")
    for alignment in ("auto", "1"):
        code, out, _ = run(capsys, *argv, alignment)
        assert code == 0 and "match" in out, alignment

    # a bad value is refused while parsing, before any term is made
    def explode(*args, **kwargs):
        raise AssertionError("terms generated")

    monkeypatch.setattr(cli.transforms, "iter_terms", explode)
    with pytest.raises(SystemExit) as err:
        cli.main([*argv, "x"])
    assert err.value.code == 2 and "--alignment:" in capsys.readouterr().err


def test_oeis_check_mismatch_exit1(capsys):
    # the reversed-rows triangle is a different sequence
    code, out, _ = run(capsys, "oeis-check", "--family", "reluctant", "--alpha", "id",
                       "--anum", "A004736", "--count", "100")
    assert code == 1 and "mismatch" in out


def test_oeis_check_insufficient_exit4(capsys):
    code, _, _ = run(capsys, "oeis-check", "--family", "reluctant", "--alpha", "id",
                     "--anum", "A002260", "--count", "500")
    assert code == 4
    code, _, err = run(capsys, "oeis-check", "--family", "reluctant", "--alpha", "id",
                       "--anum", "A999999", "--count", "10")
    assert code == 4 and "A999999" in err


def test_oeis_check_source_error_exit3(capsys, monkeypatch):
    # the failing position is reported as generate reports it, before any b-file is
    # read; reluctant reads row i, and row 128 is first reached in the third chunk
    def explode(anum, offline=True):
        raise AssertionError("b-file read")

    monkeypatch.setattr(cli.oeis, "fetch_bfile", explode)
    first_bad = next(n for n, (i, j) in enumerate(CANTOR, 1) if i > 127)
    for rows, count, n in ((3, 10, 10), (127, 9000, first_bad)):
        argv = ("--family", "reluctant", "--alpha", _list_source(range(1, rows + 1)),
                "--count", str(count))
        code, out, err = run(capsys, "generate", *argv)
        assert (code, out) == (3, "") and err.startswith(f"error at n={n}: ")
        for anum in ("A002260", "A999999"):
            assert run(capsys, "oeis-check", *argv, "--anum", anum) == (3, "", err)


def test_oeis_check_network_exit5(capsys, monkeypatch):
    def explode(anum, offline=True):
        raise oeis.NetworkError("no route")

    monkeypatch.setattr(cli.oeis, "fetch_bfile", explode)
    code, _, err = run(capsys, "oeis-check", "--family", "reluctant", "--alpha", "id",
                       "--anum", "A002260", "--count", "10", "--online")
    assert code == 5 and "no route" in err


# the flags each family reads, stated here rather than taken from the family table
FAMILY_READS = {
    "reluctant": ("alpha",),
    "reverse-reluctant": ("alpha",),
    "double-reluctant": ("alpha",),
    "self-compose": ("alpha", "convention"),
    "shifted-columns": ("alpha", "k"),
    "max-shift": ("alpha", "k"),
    "segment-shift": ("alpha", "k"),
    "shifted-columns-angle": ("alpha", "k"),
    "max-shift-angle": ("alpha", "k"),
    "segment-shift-angle": ("alpha", "k"),
    "pair": ("alpha", "beta", "combiner", "k"),
    "eta": ("d",),
    "multi-replicate": ("sources",),
    "braid": ("sources",),
    "segment-braid": ("sources",),
    "superpose": ("alpha", "inner", "outer"),
}
FLAG_VALUES = {"alpha": ["primes"], "beta": ["phi"], "sources": ["id", "phi"], "k": ["2"],
               "d": ["3"], "combiner": ["concat"], "convention": ["doubling"],
               "inner": ["cantor"], "outer": ["angle"]}


def test_usage_errors_exit2(capsys, tmp_path):
    # a bad value of any text flag is refused in the subcommand's usage, and names its flag
    missing = f"file:{tmp_path / 'missing.txt'}"
    for flag, argv in (
            ("--scheme", ("encode", "--scheme", "moore", "--i", "1", "--j", "1")),
            ("--scheme", ("encode", "--scheme", "tiling:const:0x2:row", "--i", "1", "--j", "1")),
            ("--spec", ("verify", "--scheme", "tiling", "--spec", "const:0x2", "--n-max", "5")),
            ("--order", ("decode", "--scheme", "tiling", "--spec", "const:3x2",
                         "--order", "diagonal", "--n", "5")),
            ("--inner", ("generate", "--family", "superpose", "--inner", "moore",
                         "--outer", "cantor", "--count", "3")),
            ("--outer", ("generate", "--family", "superpose", "--inner", "cantor",
                         "--outer", "tiling:const:3x2", "--count", "3")),
            ("--alpha", ("generate", "--family", "reluctant", "--alpha", "fib", "--count", "3")),
            ("--beta", ("oeis-check", "--family", "pair", "--beta", "pow:x", "--anum", "A002260")),
            ("--sources", ("generate", "--family", "braid", "--sources", "id", missing,
                           "--count", "3")),
            ("--anum", ("oeis-check", "--family", "reluctant", "--anum", "A0"))):
        with pytest.raises(SystemExit) as err:
            cli.main(list(argv))
        text = capsys.readouterr().err
        assert err.value.code == 2, argv
        assert text.startswith(f"usage: gridseq {argv[0]} "), argv
        assert f"gridseq {argv[0]}: error: {flag}: " in text, argv
    # a scheme name is refused with the same text whichever flag gives it
    for argv in (("encode", "--scheme", "moore", "--i", "1", "--j", "1"),
                 ("generate", "--family", "superpose", "--inner", "moore", "--count", "3")):
        with pytest.raises(SystemExit):
            cli.main(list(argv))
        assert capsys.readouterr().err.endswith(
            ": unknown scheme 'moore'; expected one of cantor, cantor0, boustrophedon, "
            "center-out, edges-in, alternating, angle, oxplow or tiling:<spec>:<order>\n")
    # errors found after parsing print the subcommand's usage, as argparse's own do
    for argv in (("decode", "--scheme", "cantor", "--n", "0"),
                 ("decode", "--scheme", "tiling", "--n", "5"),
                 ("generate", "--family", "shifted-columns", "--count", "3"),
                 ("generate", "--family", "reluctant", "--count", "0"),
                 ("oeis-check", "--family", "reluctant", "--anum", "bogus"),
                 ("encode", "--scheme", "tiling:list:1x1:row", "--i", "9", "--j", "9")):
        with pytest.raises(SystemExit) as err:
            cli.main(list(argv))
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: gridseq {argv[0]} "), argv
    assert run_usage_error(capsys, "encode", "--scheme", "cantor", "--i", "0", "--j", "1") == 2
    assert run_usage_error(capsys, "encode", "--scheme", "tiling", "--i", "1", "--j", "1") == 2
    # --spec and --order are read only with the bare --scheme tiling, never dropped
    for argv, flag in ((("encode", "--scheme", "tiling:const:3x2:row", "--order", "col",
                         "--i", "2", "--j", "1"), "--order"),
                       (("decode", "--scheme", "cantor", "--spec", "const:3x2", "--n", "5"), "--spec"),
                       (("decode", "--scheme", "tiling:const:3x2:col", "--spec", "const:3x2",
                         "--n", "5"), "--spec"),
                       (("verify", "--scheme", "angle", "--order", "row", "--n-max", "5"), "--order")):
        with pytest.raises(SystemExit) as err:
            cli.main(list(argv))
        assert err.value.code == 2 and flag in capsys.readouterr().err, argv
    assert run_usage_error(capsys, "generate", "--family", "shifted-columns", "--count", "3") == 2
    assert run_usage_error(capsys, "generate", "--family", "warp", "--count", "3") == 2
    assert run_usage_error(capsys, "generate", "--family", "braid", "--sources", "id", "--count", "3") == 2
    assert run_usage_error(capsys, "generate", "--family", "superpose", "--count", "3") == 2
    # a power-sum exponent below 1 is refused, not clamped to 1
    for k in ("0", "-4"):
        assert run_usage_error(capsys, "generate", "--family", "pair", "--combiner", "power-sum",
                               "--k", k, "--count", "3") == 2
    # a flag the family does not read is refused, not ignored
    assert run_usage_error(capsys, "generate", "--family", "reluctant", "--sources", "primes", "phi",
                           "--beta", "geo:3", "--combiner", "bogus", "--count", "3") == 2
    assert run_usage_error(capsys, "generate", "--family", "pair", "--combiner", "bogus",
                           "--count", "3") == 2
    # an empty value is a value, refused like any other bad one, not the default
    assert run_usage_error(capsys, "generate", "--family", "reluctant", "--alpha", "",
                           "--count", "3") == 2
    assert run_usage_error(capsys, "generate", "--family", "pair", "--combiner", "",
                           "--count", "3") == 2
    assert set(FAMILY_READS) == set(FAMILIES)
    for family, reads in FAMILY_READS.items():
        argv = ["generate", "--family", family, "--count", "3"]
        for flag in reads:
            argv += [f"--{flag}", *FLAG_VALUES[flag]]
        assert run(capsys, *argv)[0] == 0, family
        for flag, values in FLAG_VALUES.items():
            if flag not in reads:
                assert run_usage_error(capsys, *argv, f"--{flag}", *values) == 2, (family, flag)
    assert run_usage_error(capsys, "oeis-check", "--family", "reluctant", "--anum", "bogus") == 2
    assert run_usage_error(capsys) == 2


def test_decode_validation_exit2(capsys):
    assert run_usage_error(capsys, "decode", "--scheme", "cantor", "--n", "0") == 2
    assert run_usage_error(capsys, "decode", "--scheme", "cantor", "--n", "-3") == 2


def test_finite_tiling_spec_exhaustion(capsys):
    # a finite list cover cannot serve positions past its last tile diagonal
    assert run(capsys, "verify", "--scheme", "tiling", "--spec", "list:2,1,3x1,2,2",
               "--order", "col", "--n-max", "16")[0] == 0
    assert run_usage_error(capsys, "verify", "--scheme", "tiling", "--spec", "list:2,1,3x1,2,2",
                           "--order", "col", "--n-max", "20") == 2
    assert run_usage_error(capsys, "encode", "--scheme", "tiling", "--spec", "list:2x1",
                           "--i", "1", "--j", "5") == 2
    code, _, err = run(capsys, "generate", "--family", "superpose", "--alpha", "id",
                       "--inner", "tiling:list:2x1:row", "--outer", "cantor", "--count", "9")
    assert code == 3 and "n=" in err
