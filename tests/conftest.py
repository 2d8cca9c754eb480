import math
import sys
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semicubic.counting import point_classes  # noqa: E402


@pytest.fixture(scope="session")
def height40():
    """Exhaustive primitive points with x >= 1 and height <= 40 (k = 1).

    Returns (total point count, one representative per (x, h, z) class).
    Every geometric predicate under test depends on the point only
    through (x, h, z), so the representatives carry full coverage.
    """
    classes = point_classes(40)
    return sum(n for _, n in classes), [pt for pt, _ in classes]


@pytest.fixture(scope="session")
def literal_vector_counts():
    """{(m, j): number of y in Z^j with |y|^2 = m} for m <= 60, j <= 8, by listing.

    A vector of length j is a half of length ceil(j/2) followed by a half
    of length floor(j/2); each half runs over every tuple of [-7, 7]^h, so
    no recurrence over the coordinates enters.
    """
    top = 60
    r = math.isqrt(top)
    halves = []
    for h in range(5):
        counts = [0] * (top + 1)
        for ys in product(range(-r, r + 1), repeat=h):
            if (n := sum(y * y for y in ys)) <= top:
                counts[n] += 1
        halves.append(counts)
    return {(m, j): sum(halves[(j + 1) // 2][i] * halves[j // 2][m - i] for i in range(m + 1))
            for j in range(9) for m in range(top + 1)}
