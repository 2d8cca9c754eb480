"""The names the benchmark tracer looks up must keep resolving.

perfbench/tracer.py wraps module-level callables it fetches with getattr
and reads two oracle caches; a renamed or deleted name would make a
traced benchmark run (`--trace 1`) fail.  This test only reads the
tracer's tables; it never installs the wrappers.
"""

import importlib

from semicubic import arith, counting
from semicubic.arith import PrimeSet
from semicubic.counting import indicator_1S
from semicubic.reps import r4k_star


def test_traced_names_resolve(perfbench):
    tracer = perfbench("tracer")
    for table in (tracer.TRACED, tracer.GENERATORS):
        for layer, names in table.items():
            mod = importlib.import_module(f"semicubic.{layer}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"{layer}.{name}"
    for layer, cls_name in tracer.POST_INIT.items():
        cls = getattr(importlib.import_module(f"semicubic.{layer}"), cls_name)
        assert callable(cls.__post_init__), f"{layer}.{cls_name}"


def test_profile_and_cache_shapes():
    # n = 12 = 2^2 * 3: the tracer's profile hook counts len(result[0]), the
    # allowed cofactors c = 12^3/d up to the cap, each paired with its weight
    cap = 100
    items, total = counting._profile([(2, 2), (3, 1)], 1, PrimeSet.empty(), cap)
    allowed = [c for c in range(1, 12**3 + 1)
               if 12**3 % c == 0 and indicator_1S(144 * c, 12**3, PrimeSet.empty())]
    assert sorted(c for c, _ in items) == [c for c in allowed if c <= cap]
    assert all(w == r4k_star(12**3 // c, 1) for c, w in items)
    assert total == sum(r4k_star(12**3 // c, 1) for c in allowed)
    window = counting._window(items, 10)
    assert isinstance(window, int)
    assert window == sum(w for c, w in items if c >= 10)
    assert isinstance(counting._signed_cache, dict)
    assert isinstance(counting._coprime_cache, dict)
    for name in ("is_prime", "factorize"):
        assert callable(getattr(arith, name).cache_info)
