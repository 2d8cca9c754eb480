"""The names the benchmark tracer looks up must keep resolving.

perfbench/tracer.py wraps module-level callables it fetches with getattr
and reads two oracle caches; a renamed or deleted name would make a
traced benchmark run (`--trace 1`) fail.  This test only reads the
tracer's tables; it never installs the wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

from semicubic import arith, counting
from semicubic.arith import PrimeSet

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracer = _tracer()
    for table in (tracer.TRACED, tracer.GENERATORS):
        for layer, names in table.items():
            mod = importlib.import_module(f"semicubic.{layer}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"{layer}.{name}"
    for layer, cls_name in tracer.POST_INIT.items():
        cls = getattr(importlib.import_module(f"semicubic.{layer}"), cls_name)
        assert callable(cls.__post_init__), f"{layer}.{cls_name}"


def test_profile_and_cache_shapes():
    # n = 12 = 2^2 * 3: the tracer's profile hook counts len(result[0])
    ds, prefix = counting._profile([(2, 2), (3, 1)], 1, PrimeSet.empty(), 10**6)
    assert ds == sorted(ds) and len(prefix) == len(ds) + 1
    assert isinstance(counting._signed_cache, dict)
    assert isinstance(counting._coprime_cache, dict)
    for name in ("is_prime", "factorize"):
        assert callable(getattr(arith, name).cache_info)
