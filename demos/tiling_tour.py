"""Tour of the rectangle-cover enumerations and superposition.

Shows how a cover by tiles numbers the grid under the three inner orders,
and how reading one enumeration out through another transforms a sequence.
"""

from itertools import islice

from gridseq import oracle, transforms as tr
from gridseq.schemes import encode, parse_scheme, tiling_scheme, walk
from gridseq.sources import identity


def corner(scheme, rows=6, cols=9):
    for i in range(1, rows + 1):
        print("   " + " ".join(f"{encode(scheme, i, j):3d}" for j in range(1, cols + 1)))
    print()


def main():
    for spec_text in ("const:3x2", "ramp:1+1x1+1"):
        for order in ("row", "col", "parity-diag"):
            scheme = tiling_scheme(spec_text, order)
            report = oracle.verify_scheme(scheme, 5_000)
            print(f"{scheme}  ({'ok' if report.ok else report})")
            corner(scheme)

    print("an explicit finite cover, decoded back cell by cell:")
    cells = islice(walk(tiling_scheme("list:2,1,3x1,2,2", "row")), 12)
    print("  ", " ".join(f"{i},{j}" for i, j in cells))

    print("\nsuperposition: place by 3x2 tiles row-wise, read out centre-out:")
    inner = tiling_scheme("const:3x2", "row")
    outer = parse_scheme("center-out")
    ident = identity()
    terms = [tr.superpose(ident, inner, outer, n) for n in range(1, 22)]
    print("  ", " ".join(str(v) for v in terms))


if __name__ == "__main__":
    main()
