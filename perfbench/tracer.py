"""Outside-in tracer for semicubic: spans and counters without touching src/.

install() replaces each traced module-level callable of the six layers by a
timing wrapper, under every name its callers look up: each semicubic
module's globals that hold the original object get the wrapper, so
`counting.smallest_prime_factors` and `analytic.is_prime` are traced even
though they were imported from arith.  The __post_init__ validators of
SurfacePoint and EulerFactorInput are wrapped on their classes.  Wrappers of
lru_cache functions keep cache_info() and cache_clear().

Spans are aggregated by call path in memory: one node per (parent node,
callable), holding its call count, total time and self time (total minus
the time of traced children).  record() returns the nodes with parent ids,
the counters and the cache snapshots; layer_metrics() turns one record
into the per-layer metrics.  Recursive oracle helpers (_signed_count,
_coprime_count) are left unwrapped: their time is the oracle's self time.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("arith", "reps", "counting", "geometry", "analytic", "cli")

TRACED = {
    "arith": ("is_prime", "factorize", "primes_up_to", "mobius_sieve",
              "smallest_prime_factors", "divisors_of_cube", "zeta_real", "bernoulli"),
    "reps": ("r4k_bruteforce", "r4k_star_prime_power"),
    "counting": ("_profile", "_window", "n_star_by_divisor", "n_mobius", "n_oracle",
                 "s_sum", "t_sum", "count_report"),
    "geometry": ("intersection_mults", "semi_integral_ok", "m_point_ok"),
    "analytic": ("euler_product", "gp", "fp_series", "gp_special", "constants_report",
                 "leading_constant"),
    "cli": ("_emit", "_emit_json", "_emit_csv", "_cmd_count", "_cmd_predict",
            "_cmd_compare", "_cmd_local_factors", "_cmd_table", "_cmd_verify",
            "_suite_mpoints", "_suite_routes", "_suite_euler"),
}
GENERATORS = {"counting": ("iter_points",)}
POST_INIT = {"geometry": "SurfacePoint", "analytic": "EulerFactorInput"}


def _cube_divisor_count(n: int) -> int:
    """prod (3e + 1) over n = prod p^e: the divisors of n^3 before filtering."""
    total, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        total *= 3 * e + 1
        p += 1
    return total * (4 if n > 1 else 1)


def _hooks(counters: dict) -> dict:
    """Per-callable counters, fed (args, result) after each call."""

    def sieve(args, result):
        counters["sieve_len"] += args[0]

    def divisors(args, result):
        counters["cube_divisors_kept"] += len(result)
        counters["cube_divisors_generated"] += _cube_divisor_count(args[0])

    def table(args, result):
        counters["table_cells"] += (args[0] + 1) * 4 * args[1]

    def profile(args, result):
        counters["profile_items"] += len(result[0])

    def window(args, result):
        counters["window_hits"] += result != 0

    def emit(args, result):
        counters["artifact_bytes"] += len(args[0])

    return {
        "arith.smallest_prime_factors": sieve,
        "arith.primes_up_to": sieve,
        "arith.mobius_sieve": sieve,
        "arith.divisors_of_cube": divisors,
        "reps.r4k_bruteforce": table,
        "counting._profile": profile,
        "counting._window": window,
        "cli._emit": emit,
    }


class Tracer:
    def __init__(self):
        self.names = ["<root>"]
        self.parents = [None]
        self.children = [{}]
        self.stats = [[0, 0, 0]]        # calls, total ns, child ns
        self.stack = [[0, 0]]           # node id, child ns of the open span
        self.counters: dict = {}
        self.modules: dict = {}

    def _node(self, name: str, parent: int) -> int:
        node = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.children.append({})
        self.stats.append([0, 0, 0])
        self.children[parent][name] = node
        return node

    def _wrap(self, name: str, fn, hook=None):
        stack, children, stats, new = self.stack, self.children, self.stats, self._node
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][0]
            node = children[parent].get(name)
            if node is None:
                node = new(name, parent)
            frame = [node, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st = stats[node]
                st[0] += 1
                st[1] += dur
                st[2] += frame[1]
                stack[-1][1] += dur
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each resume of the generator is one span; yields are counted."""
        step = self._wrap(name, next)
        counters = self.counters

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                counters[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span of its own, e.g. one CLI op."""
        return self._wrap(name, fn)(*args)

    def install(self, package: str = "semicubic"):
        mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        self.modules = mods
        holders = list(mods.values()) + [importlib.import_module(package)]
        counters = self.counters
        for key in ("sieve_len", "cube_divisors_kept", "cube_divisors_generated",
                    "table_cells", "profile_items", "window_hits", "artifact_bytes",
                    "counting.iter_points"):
            counters[key] = 0
        hooks = _hooks(counters)

        def replace(original, wrapper):
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)

        for layer, names in TRACED.items():
            for attr in names:
                original = getattr(mods[layer], attr)
                name = f"{layer}.{attr}"
                replace(original, self._wrap(name, original, hooks.get(name)))
        for layer, names in GENERATORS.items():
            for attr in names:
                original = getattr(mods[layer], attr)
                replace(original, self._wrap_generator(f"{layer}.{attr}", original))
        for layer, cls_name in POST_INIT.items():
            cls = getattr(mods[layer], cls_name)
            cls.__post_init__ = self._wrap(f"{layer}.{cls_name}.__post_init__",
                                           cls.__post_init__)

    def record(self) -> dict:
        """Span nodes, counters and cache snapshots, as plain JSON data."""
        arith, counting = self.modules["arith"], self.modules["counting"]
        caches = {
            "is_prime": arith.is_prime.cache_info()._asdict(),
            "factorize": arith.factorize.cache_info()._asdict(),
            "oracle_entries": len(counting._signed_cache) + len(counting._coprime_cache),
        }
        nodes = [
            {"id": i, "name": self.names[i], "parent": self.parents[i],
             "calls": st[0], "total_s": st[1] / 1e9, "self_s": (st[1] - st[2]) / 1e9}
            for i, st in enumerate(self.stats) if i
        ]
        return {"nodes": nodes, "counters": dict(self.counters), "caches": caches}


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(rec: dict) -> dict:
    """The per-layer metrics of one traced rep.  Every `_s` metric is self
    time: time inside the named callables minus their traced children."""
    nodes, counters, caches = rec["nodes"], rec["counters"], rec["caches"]
    names = {node["id"]: node["name"] for node in nodes}

    def self_s(*wanted):
        return sum(node["self_s"] for node in nodes if node["name"] in wanted)

    def calls(name):
        return sum(node["calls"] for node in nodes if node["name"] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    ip, fz = caches["is_prime"], caches["factorize"]
    fz_calls = fz["hits"] + fz["misses"]
    return {
        "arith.sieve_s": self_s("arith.smallest_prime_factors", "arith.primes_up_to",
                                "arith.mobius_sieve"),
        "arith.sieve_len": counters["sieve_len"],
        "arith.is_prime_calls": ip["hits"] + ip["misses"],
        "arith.is_prime_s": self_s("arith.is_prime"),
        "arith.is_prime_cache_entries": ip["currsize"],
        "arith.factorize_calls": fz_calls,
        "arith.factorize_hit_ratio": ratio(fz["hits"], fz_calls),
        "arith.divisors_of_cube_calls": calls("arith.divisors_of_cube"),
        "arith.divisors_of_cube_s": self_s("arith.divisors_of_cube"),
        "arith.cube_divisors_kept_ratio": ratio(counters["cube_divisors_kept"],
                                                counters["cube_divisors_generated"]),
        "arith.zeta_s": self_s("arith.zeta_real", "arith.bernoulli"),
        "reps.table_s": self_s("reps.r4k_bruteforce"),
        "reps.table_cells": counters["table_cells"],
        "reps.rstar_pp_calls": calls("reps.r4k_star_prime_power"),
        "reps.rstar_pp_s": self_s("reps.r4k_star_prime_power"),
        "counting.profile_calls": calls("counting._profile"),
        "counting.profile_s": self_s("counting._profile"),
        "counting.profile_items": counters["profile_items"],
        "counting.window_calls": calls("counting._window"),
        "counting.window_s": self_s("counting._window"),
        "counting.window_hit_ratio": ratio(counters["window_hits"],
                                           calls("counting._window")),
        "counting.mobius_s": self_s("counting.n_star_by_divisor", "counting.n_mobius",
                                    "counting.count_report"),
        "counting.st_s": self_s("counting.s_sum", "counting.t_sum"),
        "counting.oracle_s": self_s("counting.n_oracle"),
        "counting.oracle_cache_entries": caches["oracle_entries"],
        "counting.iter_points_s": self_s("counting.iter_points"),
        "counting.points_yielded": counters["counting.iter_points"],
        "geometry.surface_points": calls("geometry.SurfacePoint.__post_init__"),
        "geometry.point_init_s": self_s("geometry.SurfacePoint.__post_init__"),
        "geometry.mults_calls": calls("geometry.intersection_mults"),
        "geometry.mults_s": self_s("geometry.intersection_mults"),
        "geometry.predicate_s": self_s("geometry.semi_integral_ok", "geometry.m_point_ok"),
        "analytic.euler_s": self_s("analytic.euler_product"),
        "analytic.primes_visited": sum(
            node["calls"] for node in nodes
            if node["name"] == "analytic.gp"
            and names.get(node["parent"]) == "analytic.euler_product"),
        "analytic.gp_calls": calls("analytic.gp"),
        "analytic.gp_s": self_s("analytic.gp"),
        "analytic.factor_input_s": self_s("analytic.EulerFactorInput.__post_init__"),
        "analytic.fp_series_calls": calls("analytic.fp_series"),
        "analytic.fp_series_s": self_s("analytic.fp_series"),
        "cli.emit_s": self_s("cli._emit", "cli._emit_json", "cli._emit_csv"),
        "cli.artifact_bytes": counters["artifact_bytes"],
    }
