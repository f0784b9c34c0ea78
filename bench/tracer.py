"""Call tracing for the benchmark's traced runs, from outside the package.

`Tracer.install()` replaces, in every loaded `infree.*` module, each public
function of the eight layer modules with a timing wrapper, so that aliases
made by `from .ck import ck_mul` are caught too.  It also wraps the
constructor, the arithmetic operators and the public methods of each public
class.  Every call is one span: name, start, end, parent span and job id.  A
function's self time is its span minus the time its child spans cover, kept
on a stack as the calls nest.  Calls made once per scalar, word or partition
are only aggregated (count, total and self time); the other spans are kept in
memory and written out when the traced run ends.

Importing this module changes nothing; only `install()` does.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("ck", "partitions", "typek", "cumulants", "convolve", "freeness", "jsonio", "cli")

# Dunder methods wrapped on public classes besides their public methods.
_CLASS_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__"})

# Functions called once per scalar, word, block or partition: aggregated only,
# because one stored span per call would not fit in memory.  Methods of
# classes are always aggregated only.
HOT = frozenset({
    "ck.ck_mul", "ck.ck_prod_many", "ck.ck_inverse", "ck.multinomial",
    "partitions.kreweras", "partitions.biane_permutation", "partitions.is_noncrossing",
    "partitions.catalan", "partitions.mobius_to_top", "partitions.block_order_cmp",
    "partitions.refines", "partitions.partition_join", "partitions.ordered_blocks",
    "typek.residue", "typek.reduce_mod", "typek.reduction_partition", "typek.is_type_k",
    "typek.shape_of", "typek.is_star", "typek.fiber_over", "typek.star_shape",
    "cumulants.restrict", "cumulants.kappa_pi", "cumulants.interval_partition",
    "cumulants.infinitesimal_component",
    "jsonio.decode_rational", "jsonio.encode_rational", "jsonio.decode_ck_scalar",
    "jsonio.encode_ck_scalar", "jsonio.to_jsonable", "jsonio.encode_partition",
    "jsonio.encode_type_k", "jsonio.decode_partition",
})

# Stored spans beyond this many are counted in `dropped` instead.
MAX_SPANS = 200_000


def _words_out(counters: dict, result) -> None:
    counters["cumulants.words_out"] = counters.get("cumulants.words_out", 0) + len(result.values)


def _bytes_out(counters: dict, result) -> None:
    counters["jsonio.bytes_out"] = counters.get("jsonio.bytes_out", 0) + len(result.encode())


# Counters read off a function's result, keyed by the traced name.
_RESULT_HOOKS = {
    "cumulants.cumulants_to_moments": _words_out,
    "cumulants.moments_to_cumulants": _words_out,
    "jsonio.encode": _bytes_out,
}


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # traced name -> [calls, total_s, self_s, errors]
        self.spans: list = []  # (span id, parent span id, job, name, start, end)
        self.counters: dict = {}
        self.job = None
        self.dropped = 0
        self._stack: list = []  # one [child_s, span id] frame per open call
        self._next_id = 0
        self._restore: list = []  # (owner, attribute, original)

    def install(self) -> None:
        """Wrap every traced callable, and its aliases in every loaded
        `infree.*` module."""
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"infree.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    for name, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                            name in _CLASS_DUNDERS or not name.startswith("_")
                        ):
                            self._set(obj, name, self._wrap(meth, f"{layer}.{attr}.{name}"))
        owners = [m for n, m in sys.modules.items() if n == "infree" or n.startswith("infree.")]
        for mod in owners:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        if inspect.isgeneratorfunction(fn):
            # The body runs while the caller iterates, so only calls are counted.
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)

            return counted

        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        store = name not in HOT and name.count(".") == 1
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if store:
                tracer._next_id += 1
                sid = tracer._next_id
            else:
                sid = parent[1] if parent is not None else 0
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, in the innermost traced call it left
                if not getattr(exc, "_bench_counted", False):
                    stat[3] += 1
                    try:
                        exc._bench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                if store:
                    if len(spans) < MAX_SPANS:
                        pid = parent[1] if parent is not None else 0
                        spans.append((sid, pid, tracer.job, name, t0, t1))
                    else:
                        tracer.dropped += 1
            if hook is not None:
                hook(tracer.counters, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates, for a report or a parent process."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counters": dict(self.counters),
            "spans": len(self.spans),
            "dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, pid, job, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, pid, job, name, t0, t1]) + "\n")


def merge(snapshots) -> dict:
    """Sum several snapshots, as from one CLI child per job."""
    out = {"stats": {}, "counters": {}, "spans": 0, "dropped": 0}
    for snap in snapshots:
        for name, vals in snap["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, v in snap["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + v
        out["spans"] += snap["spans"]
        out["dropped"] += snap["dropped"]
    return out


def _calls(stats: dict, name: str) -> int:
    return stats.get(name, (0,))[0]


def layer_metrics(snap: dict) -> dict:
    """Per-layer metric values (without units) from a snapshot."""
    stats = snap["stats"]
    counters = snap["counters"]
    out = {}
    for layer in LAYERS:
        mine = [v for k, v in stats.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(v[2] for v in mine)
        out[f"{layer}.errors"] = sum(v[3] for v in mine)
    out["ck.mul_calls"] = _calls(stats, "ck.ck_mul")
    out["ck.scalars_built"] = _calls(stats, "ck.CkScalar.__init__")
    out["convolve.boxed_calls"] = sum(
        v[0] for k, v in stats.items() if k.startswith("convolve.boxed_")
    )
    out["cumulants.words_out"] = counters.get("cumulants.words_out", 0)
    # module-level entry points only, not the methods of NcPolynomial and friends
    out["freeness.calls"] = sum(
        v[0] for k, v in stats.items() if k.startswith("freeness.") and k.count(".") == 1
    )
    out["partitions.enumerate_nc_s"] = stats.get("partitions.enumerate_nc", (0, 0.0))[1]
    out["partitions.kreweras_calls"] = _calls(stats, "partitions.kreweras")
    out["typek.elements_built"] = _calls(stats, "typek.TypeKPartition.__init__")
    out["typek.membership_checks"] = _calls(stats, "typek.is_type_k")
    out["jsonio.bytes_in"] = counters.get("jsonio.bytes_in", 0)
    out["jsonio.bytes_out"] = counters.get("jsonio.bytes_out", 0)
    out["cli.startup_s"] = counters.get("cli.startup_s", 0.0)
    return out
