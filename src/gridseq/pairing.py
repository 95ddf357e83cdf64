"""Closed-form pairing functions between grid cells and positive integers.

A cell is a pair ``(i, j)`` of positive integers (row, column) in an
infinite array; each enumeration assigns every cell a distinct position
``n >= 1``.  All arithmetic is exact: square roots go through
``math.isqrt``, never floating point, so the diagonal/shell index is
correct arbitrarily far out.
"""

from math import isqrt

Cell = tuple[int, int]


def _check_cell(i: int, j: int) -> None:
    if i < 1 or j < 1:
        raise ValueError(f"cell coordinates must be >= 1, got ({i}, {j})")


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError(f"position must be >= 1, got {n}")


def triangle(t: int) -> int:
    """Number of cells on the first t anti-diagonals: t*(t+1)/2."""
    return t * (t + 1) // 2


def diagonal_index(n: int) -> int:
    """The t with t*(t+1)/2 < n <= (t+1)*(t+2)/2, i.e. floor((sqrt(8n-7)-1)/2)."""
    _check_index(n)
    return (isqrt(8 * n - 7) - 1) // 2


def shell_index(n: int) -> int:
    """The s with (s-1)^2 < n <= s^2, i.e. floor(sqrt(n-1)) + 1."""
    _check_index(n)
    return isqrt(n - 1) + 1


def half_round_sqrt(n: int) -> int:
    """floor(sqrt(n) + 1/2), computed exactly as (isqrt(4n) + 1) // 2."""
    return (isqrt(4 * n) + 1) // 2


# -- classical anti-diagonal enumeration -------------------------------------

def cantor_encode(i: int, j: int) -> int:
    """Position of (i, j) in the anti-diagonal order: (i+j-1)(i+j-2)/2 + i."""
    _check_cell(i, j)
    return (i + j - 1) * (i + j - 2) // 2 + i


def cantor_decode(n: int) -> Cell:
    """Inverse of cantor_encode: i = n - t(t+1)/2, j = (t^2+3t+4)/2 - n."""
    t = diagonal_index(n)
    return n - triangle(t), (t * t + 3 * t + 4) // 2 - n


def cantor_z(x: int, y: int) -> int:
    """Zero-based pairing ((x+y)^2 + 3x + y)/2; maps (0, 0) to 0."""
    if x < 0 or y < 0:
        raise ValueError(f"zero-based pair must be non-negative, got ({x}, {y})")
    return ((x + y) ** 2 + 3 * x + y) // 2


def cantor_z_decode(z: int) -> tuple[int, int]:
    """Inverse of cantor_z."""
    if z < 0:
        raise ValueError(f"zero-based position must be >= 0, got {z}")
    s = (isqrt(8 * z + 1) - 1) // 2
    x = z - s * (s + 1) // 2
    return x, s - x


# -- permuted diagonal enumerations ------------------------------------------
# Position n is the p-th cell of the diagonal i + j = t + 2; each decoder
# inverts its scheme's permutation of that diagonal to the row i = r.

def boustrophedon_encode(i: int, j: int) -> int:
    """Diagonal order with neighbouring diagonals traversed in opposite directions."""
    _check_cell(i, j)
    sign = 1 if (i + j) % 2 == 0 else -1
    return ((i + j - 1) * (i + j - 2) - (sign - 1) * i + (sign + 1) * j) // 2


def boustrophedon_decode(n: int) -> Cell:
    """Inverse of boustrophedon_encode: even t runs bottom-left to top-right."""
    t = diagonal_index(n)
    p = n - triangle(t)
    r = p if t % 2 else t + 2 - p
    return r, t + 2 - r


def center_out_encode(i: int, j: int) -> int:
    """Diagonal order walking each diagonal symmetrically from its centre outwards."""
    _check_cell(i, j)
    n = (i * (i + 1) + (j - 1) * (2 * i + j - 4)) // 2
    if i < j:
        n += 2 * (j - i) - 1
    return n


def center_out_decode(n: int) -> Cell:
    """Inverse of center_out_encode: p // 2 steps from the centre, side set by p + t."""
    t = diagonal_index(n)
    p = n - triangle(t)
    r = t // 2 + 1 + (p // 2 if (p + t) % 2 else -(p // 2))
    return r, t + 2 - r


def edges_in_encode(i: int, j: int) -> int:
    """Diagonal order walking each diagonal symmetrically from its edges inwards."""
    _check_cell(i, j)
    if i <= j:
        return i * (2 * i - 1) + (j - i) * (3 * i + j - 3) // 2
    return j * (2 * j - 1) + (i - j) * (3 * j + i - 3) // 2 + 1


def edges_in_decode(n: int) -> Cell:
    """Inverse of edges_in_encode: odd p walk down from the top edge, even p up from the bottom."""
    t = diagonal_index(n)
    p = n - triangle(t)
    r = (p + 1) // 2 if p % 2 else t + 2 - p // 2
    return r, t + 2 - r


def alternating_encode(i: int, j: int) -> int:
    """Diagonal order alternating sides edge-to-centre, reversing on neighbours."""
    _check_cell(i, j)
    sign = 1 if max(i, j) % 2 == 0 else -1
    return ((i + j - 1) * (i + j - 2) + (sign + 1) * i - (sign - 1) * j) // 2


def alternating_decode(n: int) -> Cell:
    """Inverse of alternating_encode: the offset p is i when max(i, j) is even, else j."""
    t = diagonal_index(n)
    p = n - triangle(t)
    r = p if max(p, t + 2 - p) % 2 == 0 else t + 2 - p
    return r, t + 2 - r


# -- square-shell enumerations -----------------------------------------------

def angle_encode(i: int, j: int) -> int:
    """Position along square shells, walked from (1, s) to (s, s) to (s, 1)."""
    _check_cell(i, j)
    if i >= j:
        return i * i - j + 1
    return (j - 1) ** 2 + i


def angle_decode(n: int) -> Cell:
    """Inverse of angle_encode: i = min(t, n-(t-1)^2), j = min(t, t^2-n+1)."""
    t = shell_index(n)
    return min(t, n - (t - 1) ** 2), min(t, t * t - n + 1)


def oxplow_encode(i: int, j: int) -> int:
    """Square shells walked boustrophedon style (alternating turn direction)."""
    _check_cell(i, j)
    if i <= j:
        return (j - 1) ** 2 + j + (-1) ** (j - 1) * (j - i)
    return (i - 1) ** 2 + i - (-1) ** (i - 1) * (i - j)


def oxplow_decode(n: int) -> Cell:
    """Inverse of oxplow_encode; swaps the two shell coordinates on odd shells."""
    t = shell_index(n)
    a = min(t, n - (t - 1) ** 2)
    b = min(t, t * t - n + 1)
    if t % 2:
        return b, a
    return a, b
