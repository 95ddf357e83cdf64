import subprocess
import sys
from pathlib import Path

import pytest

import gridseq
from gridseq import oeis, transforms as tr
from gridseq.oeis import (
    FIXTURE_ANUMS,
    BFileFormatError,
    BFileRecord,
    CacheWriteError,
    ComparisonReport,
    NetworkError,
    NotFoundError,
    compare_prefix,
    fetch_bfile,
    fixture_text,
    format_bfile,
    load_fixture,
    normalize_anum,
    parse_bfile,
)
from gridseq.sources import identity


def test_parse_basic():
    assert parse_bfile("1 1\n2 1\n3 2\n") == [
        BFileRecord(1, 1),
        BFileRecord(2, 1),
        BFileRecord(3, 2),
    ]


def test_parse_comments_and_offsets():
    assert parse_bfile("# comment\n0 5\n1 7\n") == [BFileRecord(0, 5), BFileRecord(1, 7)]
    assert parse_bfile(b"\n# x\n5 -3\n6 0\n") == [BFileRecord(5, -3), BFileRecord(6, 0)]


def test_parse_rejects_gaps():
    with pytest.raises(BFileFormatError) as err:
        parse_bfile("1 1\n3 2\n")
    assert err.value.line_number == 2


def test_parse_rejects_malformed():
    with pytest.raises(BFileFormatError) as err:
        parse_bfile("1 1\n2\n")
    assert err.value.line_number == 2
    with pytest.raises(BFileFormatError):
        parse_bfile("1 one\n")


def test_format_parse_roundtrip():
    records = [BFileRecord(0, 5), BFileRecord(1, -7), BFileRecord(2, 10**30)]
    assert parse_bfile(format_bfile(records)) == records


def test_normalize_anum():
    assert normalize_anum(2260) == "A002260"
    assert normalize_anum("a2024") == "A002024"
    assert normalize_anum("A204004") == "A204004"
    with pytest.raises(ValueError):
        normalize_anum(0)


def test_fixture_integrity():
    for anum in FIXTURE_ANUMS:
        records = load_fixture(anum)
        assert len(records) >= 100, anum
        assert records[0].index == 1, anum


def test_compare_match():
    generated = [tr.reluctant(identity(), n) for n in range(1, 101)]
    report = compare_prefix(generated, load_fixture("A002260"), 100, anum="A002260")
    assert report.status == "match"
    assert report.compared == 100
    assert report.offset == 1
    assert "match" in str(report)


def test_compare_mismatch():
    report = compare_prefix([1, 2, 4], load_fixture("A002260"), 3)
    assert report.status == "mismatch"
    assert report.mismatch_position == 2
    assert report.expected == 1
    assert report.actual == 2


def test_compare_insufficient():
    records = parse_bfile("1 1\n2 1\n3 2\n")
    report = compare_prefix([1, 1, 2, 1], records, 4)
    assert report.status == "insufficient-data"
    assert report.compared == 3
    assert compare_prefix([5], [], 1).status == "insufficient-data"


def test_compare_auto_offset_zero():
    records = parse_bfile("0 9\n1 8\n2 7\n")
    report = compare_prefix([9, 8, 7], records, 3)
    assert report.status == "match"
    assert report.offset == 0


def test_compare_fixed_offset():
    records = parse_bfile("0 9\n1 8\n2 7\n")
    assert compare_prefix([8, 7], records, 2, alignment=1).status == "match"
    assert compare_prefix([9, 8], records, 2, alignment=1).status == "mismatch"
    assert compare_prefix([9], records, 1, alignment=5).status == "insufficient-data"


def test_compare_validation():
    with pytest.raises(ValueError):
        compare_prefix([1], [], 0)
    with pytest.raises(ValueError):
        compare_prefix([1], [], 2)


def test_fixture_text_and_missing():
    assert parse_bfile(fixture_text("A002260"))[0] == BFileRecord(1, 1)
    with pytest.raises(NotFoundError):
        fixture_text("A999999")


def test_fetch_offline_uses_fixture(tmp_path, monkeypatch):
    monkeypatch.setenv(oeis.CACHE_ENV, str(tmp_path))
    text = fetch_bfile("A002260")
    assert parse_bfile(text)[0] == BFileRecord(1, 1)
    with pytest.raises(NotFoundError):
        fetch_bfile("A999999")


def test_fetch_online_caches(tmp_path, monkeypatch):
    monkeypatch.setenv(oeis.CACHE_ENV, str(tmp_path))
    calls = []

    def opener(url):
        calls.append(url)
        return b"1 42\n2 43\n"

    text1 = fetch_bfile("A999998", offline=False, opener=opener)
    text2 = fetch_bfile("A999998", offline=False, opener=opener)
    assert text1 == text2 == "1 42\n2 43\n"
    assert len(calls) == 1
    assert "A999998" in calls[0] or "999998" in calls[0]
    # cached copy also serves offline mode now
    assert fetch_bfile("A999998") == text1


def test_fetch_online_errors(tmp_path, monkeypatch):
    monkeypatch.setenv(oeis.CACHE_ENV, str(tmp_path))

    def not_found(url):
        raise NotFoundError(url)

    with pytest.raises(NotFoundError):
        fetch_bfile("A999997", offline=False, opener=not_found)

    def broken(url):
        raise OSError("connection reset")

    with pytest.raises(NetworkError):
        fetch_bfile("A999997", offline=False, opener=broken)


def test_fetch_cache_write_error(tmp_path, monkeypatch):
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    monkeypatch.setenv(oeis.CACHE_ENV, str(blocker))
    with pytest.raises(CacheWriteError):
        fetch_bfile("A999996", offline=False, opener=lambda url: b"1 1\n")


def test_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(oeis.CACHE_ENV, str(tmp_path / "elsewhere"))
    assert oeis.cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv(oeis.CACHE_ENV)
    assert oeis.cache_dir().name == "gridseq-oeis"


def test_report_str():
    assert "insufficient" in str(ComparisonReport("A000001", "insufficient-data", 3))


def test_cli_import_leaves_the_fetch_client_unloaded():
    # urllib.request costs more to import than the rest of the package, and
    # only online mode needs it; -I keeps the environment from preloading it.
    # The tiling arithmetic is exact integers through math.comb and isqrt, so
    # neither fractions nor decimal belongs in the import either.
    src = str(Path(gridseq.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gridseq.cli; "
            "print([m in sys.modules for m in "
            "('urllib.request', 'urllib.error', 'fractions', 'decimal')])")
    done = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[False, False, False, False]\n"
