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


def diagonal_position(n: int) -> tuple[int, int]:
    """(t, p): position n is the p-th cell, 1 <= p <= t + 1, of anti-diagonal t."""
    t = diagonal_index(n)
    return t, n - triangle(t)


def shell_position(n: int) -> tuple[int, int]:
    """(s, q): position n is the q-th cell, 1 <= q <= 2s - 1, of square shell s."""
    s = shell_index(n)
    return s, n - (s - 1) ** 2


def half_round_sqrt(n: int) -> int:
    """floor(sqrt(n) + 1/2), computed exactly as (isqrt(4n) + 1) // 2."""
    return (isqrt(4 * n) + 1) // 2


# -- classical anti-diagonal enumeration -------------------------------------

def cantor_encode(i: int, j: int) -> int:
    """Position of (i, j) in the anti-diagonal order: (i+j-1)(i+j-2)/2 + i."""
    _check_cell(i, j)
    return (i + j - 1) * (i + j - 2) // 2 + i


def cantor_cell(t: int, p: int) -> Cell:
    """The p-th cell of diagonal t in the anti-diagonal order: row p."""
    return p, t + 2 - p


def cantor_decode(n: int) -> Cell:
    """Inverse of cantor_encode: i = n - t(t+1)/2, j = (t^2+3t+4)/2 - n."""
    return cantor_cell(*diagonal_position(n))


def cantor_z(x: int, y: int) -> int:
    """Zero-based pairing ((x+y)^2 + 3x + y)/2; maps (0, 0) to 0."""
    if x < 0 or y < 0:
        raise ValueError(f"zero-based pair must be non-negative, got ({x}, {y})")
    return ((x + y) ** 2 + 3 * x + y) // 2


def cantor_z_cell(t: int, p: int) -> tuple[int, int]:
    """The p-th pair of diagonal t in the zero-based order: (p - 1, t + 1 - p)."""
    return p - 1, t + 1 - p


def cantor_z_position(z: int) -> tuple[int, int]:
    """(t, p) of zero-based position z: the diagonal position of z + 1."""
    if z < 0:
        raise ValueError(f"zero-based position must be >= 0, got {z}")
    return diagonal_position(z + 1)


def cantor_z_decode(z: int) -> tuple[int, int]:
    """Inverse of cantor_z: position z is the 1-based position z + 1, shifted down."""
    return cantor_z_cell(*cantor_z_position(z))


# -- permuted diagonal enumerations ------------------------------------------
# Position n is the p-th cell of the diagonal i + j = t + 2; each decoder
# takes (t, p) from diagonal_position, then its scheme's cell formula
# inverts the permutation of that diagonal to the row i = r.
# ``schemes.walk`` steps the same formulas.

def boustrophedon_encode(i: int, j: int) -> int:
    """Diagonal order with neighbouring diagonals traversed in opposite directions."""
    _check_cell(i, j)
    sign = 1 if (i + j) % 2 == 0 else -1
    return ((i + j - 1) * (i + j - 2) - (sign - 1) * i + (sign + 1) * j) // 2


def boustrophedon_cell(t: int, p: int) -> Cell:
    """The p-th cell of diagonal t: even t runs bottom-left to top-right."""
    r = p if t % 2 else t + 2 - p
    return r, t + 2 - r


def boustrophedon_decode(n: int) -> Cell:
    """Inverse of boustrophedon_encode."""
    return boustrophedon_cell(*diagonal_position(n))


def center_out_encode(i: int, j: int) -> int:
    """Diagonal order walking each diagonal symmetrically from its centre outwards."""
    _check_cell(i, j)
    n = (i * (i + 1) + (j - 1) * (2 * i + j - 4)) // 2
    if i < j:
        n += 2 * (j - i) - 1
    return n


def center_out_cell(t: int, p: int) -> Cell:
    """The p-th cell of diagonal t: p // 2 steps from the centre, side set by p + t."""
    r = t // 2 + 1 + (p // 2 if (p + t) % 2 else -(p // 2))
    return r, t + 2 - r


def center_out_decode(n: int) -> Cell:
    """Inverse of center_out_encode."""
    return center_out_cell(*diagonal_position(n))


def edges_in_encode(i: int, j: int) -> int:
    """Diagonal order walking each diagonal symmetrically from its edges inwards."""
    _check_cell(i, j)
    if i <= j:
        return i * (2 * i - 1) + (j - i) * (3 * i + j - 3) // 2
    return j * (2 * j - 1) + (i - j) * (3 * j + i - 3) // 2 + 1


def edges_in_cell(t: int, p: int) -> Cell:
    """The p-th cell of diagonal t: odd p walk down from the top edge, even p up from the bottom."""
    r = (p + 1) // 2 if p % 2 else t + 2 - p // 2
    return r, t + 2 - r


def edges_in_decode(n: int) -> Cell:
    """Inverse of edges_in_encode."""
    return edges_in_cell(*diagonal_position(n))


def alternating_encode(i: int, j: int) -> int:
    """Diagonal order alternating sides edge-to-centre, reversing on neighbours."""
    _check_cell(i, j)
    sign = 1 if max(i, j) % 2 == 0 else -1
    return ((i + j - 1) * (i + j - 2) + (sign + 1) * i - (sign - 1) * j) // 2


def alternating_cell(t: int, p: int) -> Cell:
    """The p-th cell of diagonal t: the offset p is i when max(i, j) is even, else j."""
    r = p if max(p, t + 2 - p) % 2 == 0 else t + 2 - p
    return r, t + 2 - r


def alternating_decode(n: int) -> Cell:
    """Inverse of alternating_encode."""
    return alternating_cell(*diagonal_position(n))


# -- square-shell enumerations -----------------------------------------------
# Position n is the q-th cell, 1 <= q <= 2s - 1, of the shell max(i, j) = s.

def angle_encode(i: int, j: int) -> int:
    """Position along square shells, walked from (1, s) to (s, s) to (s, 1)."""
    _check_cell(i, j)
    if i >= j:
        return i * i - j + 1
    return (j - 1) ** 2 + i


def angle_cell(s: int, q: int) -> Cell:
    """The q-th cell of shell s: down the column j = s, then left along the row i = s."""
    return (q, s) if q <= s else (s, 2 * s - q)


def angle_decode(n: int) -> Cell:
    """Inverse of angle_encode: i = min(s, n-(s-1)^2), j = min(s, s^2-n+1)."""
    return angle_cell(*shell_position(n))


def oxplow_encode(i: int, j: int) -> int:
    """Square shells walked boustrophedon style (alternating turn direction)."""
    _check_cell(i, j)
    if i <= j:
        return (j - 1) ** 2 + j + (-1) ** (j - 1) * (j - i)
    return (i - 1) ** 2 + i - (-1) ** (i - 1) * (i - j)


def oxplow_cell(s: int, q: int) -> Cell:
    """The q-th cell of shell s: the angle cell, transposed on odd shells."""
    a, b = angle_cell(s, q)
    if s % 2:
        return b, a
    return a, b


def oxplow_decode(n: int) -> Cell:
    """Inverse of oxplow_encode; swaps the two shell coordinates on odd shells."""
    return oxplow_cell(*shell_position(n))
