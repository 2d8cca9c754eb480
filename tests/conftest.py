import sys
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
