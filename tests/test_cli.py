import json

import pytest

from gridseq import cli, oeis, transforms
from gridseq.oracle import VerificationReport
from gridseq.schemes import Scheme, parse_scheme
from gridseq.sources import parse_source
from gridseq.transforms import FAMILIES, FAMILY_TABLE, SEVERAL, TransformSpec, generate_prefix


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


def direct_term(spec, sources, n):
    """omega(n) from the function named after the family, not through the family table."""
    family = spec.family
    fn = getattr(transforms, "pair_transform" if family == "pair" else family.replace("-", "_"))
    rule = FAMILY_TABLE[family]
    if family == "pair":
        return fn(*sources, spec.combiner, n, spec.k)
    if family == "eta":
        return fn(spec.d, n)
    if family == "self-compose":
        return fn(sources[0], n, spec.convention)
    if family == "superpose":
        return fn(sources[0], spec.inner, spec.outer, n)
    if rule.sources == SEVERAL:
        return fn(sources, n)
    return fn(sources[0], spec.k, n) if rule.needs_k else fn(sources[0], n)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_through_cli(capsys, family):
    rule = FAMILY_TABLE[family]
    flags, texts = SOURCES[rule.sources]
    argv = ["generate", "--family", family, "--d", "3", *flags, "--count", "10"]
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


def test_oeis_check_network_exit5(capsys, monkeypatch):
    def explode(anum, offline=True):
        raise oeis.NetworkError("no route")

    monkeypatch.setattr(cli.oeis, "fetch_bfile", explode)
    code, _, err = run(capsys, "oeis-check", "--family", "reluctant", "--alpha", "id",
                       "--anum", "A002260", "--count", "10", "--online")
    assert code == 5 and "no route" in err


def test_usage_errors_exit2(capsys):
    assert run_usage_error(capsys, "encode", "--scheme", "moore", "--i", "1", "--j", "1") == 2
    assert run_usage_error(capsys, "encode", "--scheme", "cantor", "--i", "0", "--j", "1") == 2
    assert run_usage_error(capsys, "encode", "--scheme", "tiling", "--i", "1", "--j", "1") == 2
    assert run_usage_error(capsys, "generate", "--family", "shifted-columns", "--count", "3") == 2
    assert run_usage_error(capsys, "generate", "--family", "warp", "--count", "3") == 2
    assert run_usage_error(capsys, "generate", "--family", "braid", "--sources", "id", "--count", "3") == 2
    assert run_usage_error(capsys, "generate", "--family", "superpose", "--count", "3") == 2
    # a power-sum exponent below 1 is refused, not clamped to 1
    for k in ("0", "-4"):
        assert run_usage_error(capsys, "generate", "--family", "pair", "--combiner", "power-sum",
                               "--k", k, "--count", "3") == 2
    assert run_usage_error(capsys, "verify", "--scheme", "tiling", "--spec", "const:0x2", "--n-max", "5") == 2
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
