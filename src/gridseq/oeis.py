"""OEIS b-file parsing, prefix comparison, and a small fetch/cache client.

A b-file holds one ``<index> <value>`` pair per line; ``#`` lines and
blank lines are ignored.  Offline reference copies for the sequences this
library reproduces ship in ``gridseq/oeis_fixtures`` (see the tool that
generates them for the definition each copy was built from).  The fetch
client is opt-in: nothing touches the network unless asked to.
"""

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

CACHE_ENV = "GRIDSEQ_OEIS_CACHE"
URL_PATTERN = "https://oeis.org/A{num:06d}/b{num:06d}.txt"

#: A-numbers with shipped offline fixtures (>= 100 terms each).
FIXTURE_ANUMS = (
    "A000010",
    "A000040",
    "A002024",
    "A002260",
    "A004736",
    "A004738",
    "A004739",
    "A006450",
    "A010554",
    "A049099",
    "A049100",
    "A056011",
    "A056023",
    "A060734",
    "A060736",
    "A064578",
    "A066686",
    "A081344",
    "A128076",
    "A131914",
    "A143182",
    "A194982",
    "A204004",
    "A204008",
)


class BFileFormatError(ValueError):
    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class FetchError(Exception):
    pass


class NotFoundError(FetchError):
    pass


class NetworkError(FetchError):
    pass


class CacheWriteError(FetchError):
    pass


@dataclass(frozen=True)
class BFileRecord:
    index: int
    value: int


def normalize_anum(anum) -> str:
    """Canonical A-number string: 2260 or 'a2260' or 'A002260' -> 'A002260'."""
    if isinstance(anum, int):
        num = anum
    else:
        text = str(anum).strip()
        if text[:1] in ("A", "a"):
            text = text[1:]
        num = int(text)
    if not 0 < num < 10_000_000:
        raise ValueError(f"bad A-number {anum!r}")
    return f"A{num:06d}"


def parse_bfile(data) -> list[BFileRecord]:
    """Parse b-file text (str or bytes) into records with consecutive indices."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    records = []
    for line_number, raw in enumerate(data.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileFormatError(f"expected '<index> <value>', got {raw!r}", line_number)
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise BFileFormatError(f"non-integer field in {raw!r}", line_number) from None
        if records and index != records[-1].index + 1:
            raise BFileFormatError(
                f"index {index} does not follow {records[-1].index}", line_number
            )
        records.append(BFileRecord(index, value))
    return records


def format_bfile(records) -> str:
    """Render records back to b-file text (parse_bfile round-trips it)."""
    return "".join(f"{r.index} {r.value}\n" for r in records)


@dataclass
class ComparisonReport:
    anum: str | None
    status: str  # "match" | "mismatch" | "insufficient-data"
    compared: int
    offset: int | None = None
    mismatch_position: int | None = None
    expected: int | None = None
    actual: int | None = None

    def __str__(self):
        name = self.anum or "reference"
        if self.status == "match":
            return f"{name}: match ({self.compared} terms, offset {self.offset})"
        if self.status == "mismatch":
            return (
                f"{name}: mismatch at position {self.mismatch_position}: "
                f"reference has {self.expected}, generated {self.actual}"
            )
        return f"{name}: insufficient data ({self.compared} of the requested terms available)"


def compare_prefix(generated, records, count: int, alignment="auto", anum=None) -> ComparisonReport:
    """Compare a generated 1-based prefix against b-file records.

    ``alignment`` is ``"auto"`` (try pairing term 1 with b-file index 1,
    then 0, keeping whichever agrees) or an integer k pairing term 1 with
    index k.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(generated) < count:
        raise ValueError(f"generated prefix has {len(generated)} terms, need {count}")
    if anum is not None:
        anum = normalize_anum(anum)
    if not records:
        return ComparisonReport(anum, "insufficient-data", 0)
    first, last = records[0].index, records[-1].index

    def value_at(idx):
        return records[idx - first].value

    if alignment == "auto":
        candidates = [k for k in (1, 0) if first <= k <= last]
        if not candidates:
            return ComparisonReport(anum, "insufficient-data", 0)
        offset = next((k for k in candidates if value_at(k) == generated[0]), candidates[0])
    else:
        offset = int(alignment)
        if not first <= offset <= last:
            return ComparisonReport(anum, "insufficient-data", 0, offset=offset)

    available = min(count, last - offset + 1)
    for p in range(1, available + 1):
        expected = value_at(offset + p - 1)
        if generated[p - 1] != expected:
            return ComparisonReport(
                anum, "mismatch", p, offset, p, expected, generated[p - 1]
            )
    if available < count:
        return ComparisonReport(anum, "insufficient-data", available, offset)
    return ComparisonReport(anum, "match", count, offset)


# -- fixtures and fetching -----------------------------------------------------

def fixture_text(anum) -> str:
    """Text of a shipped fixture; NotFoundError if this A-number has none."""
    anum = normalize_anum(anum)
    path = resources.files(__package__).joinpath("oeis_fixtures", f"b{anum[1:]}.txt")
    if not path.is_file():
        raise NotFoundError(f"no shipped fixture for {anum}")
    return path.read_text()


def load_fixture(anum) -> list[BFileRecord]:
    return parse_bfile(fixture_text(anum))


def cache_dir() -> Path:
    configured = os.environ.get(CACHE_ENV)
    if configured:
        return Path(configured)
    return Path.home() / ".cache" / "gridseq-oeis"


def fetch_bfile(anum, *, offline=True, opener=None) -> str:
    """B-file text for an A-number.

    Offline (the default) serves shipped fixtures, then previously cached
    downloads.  Online checks the cache, then fetches from the standard
    URL and caches the result; ``opener`` (url -> bytes) can replace the
    urllib transport.
    """
    anum = normalize_anum(anum)
    cached = cache_dir() / f"b{anum[1:]}.txt"
    if offline:
        try:
            return fixture_text(anum)
        except NotFoundError:
            if cached.is_file():
                return cached.read_text()
            raise NotFoundError(
                f"{anum}: no shipped fixture or cached download (offline mode)"
            ) from None
    if cached.is_file():
        return cached.read_text()
    url = URL_PATTERN.format(num=int(anum[1:]))
    if opener is None:
        opener = _urllib_opener
    try:
        data = opener(url)
    except NotFoundError:
        raise NotFoundError(f"{anum}: not found at {url}") from None
    except OSError as exc:
        raise NetworkError(f"{anum}: fetch failed: {exc}") from exc
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        cached.parent.mkdir(parents=True, exist_ok=True)
        tmp = cached.with_suffix(".tmp")
        tmp.write_text(text)
        os.replace(tmp, cached)  # atomic: concurrent readers see old or new
    except OSError as exc:
        raise CacheWriteError(f"{anum}: could not cache to {cached}: {exc}") from exc
    return text


def _urllib_opener(url: str) -> bytes:
    # imported here, not at load time: urllib.request alone costs more to
    # import than the rest of the package, and only online mode needs it
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise NotFoundError(url) from None
        raise NetworkError(f"HTTP {exc.code} for {url}") from exc
    except urllib.error.URLError as exc:
        raise NetworkError(f"{url}: {exc.reason}") from exc
