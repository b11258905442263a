"""Outside-in tracing of the polarfractal layers.

The tracer wraps named functions of the library modules from outside the
package: every alias of a wrapped function, in every loaded
``polarfractal`` module, is rebound to the wrapper, because the modules
import these names directly (``fractal`` calls ``threshold_of_rational``
and ``bec_leaf_chunks``, ``thresholds`` calls ``real_to_expansion`` and
``apply_path``).  A span wrapper records name, start, end, parent span,
job id and thread; a count-only wrapper just counts calls and work, for
functions called too often to span.  A named function that no longer
exists is skipped, so the tracer survives refactors of the library.

Spans live in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "expansions", "polarization", "thresholds", "codes", "fractal")

# (layer, function) pairs that get a span.
SPANNED = (
    ("cli", "main"),
    ("expansions", "real_to_expansion"),
    ("thresholds", "threshold_of_rational"),
    ("thresholds", "period_fixed_points"),
    ("thresholds", "threshold_estimate_batch"),
    ("polarization", "bec_leaf_values"),
    ("polarization", "bec_leaf_chunks"),
    ("codes", "polar_index_set"),
    ("codes", "rm_index_set"),
    ("codes", "index_set_to_json"),
    ("codes", "generator_matrix"),
    ("codes", "matrix_to_text"),
    ("codes", "matrix_to_bytes"),
    ("codes", "heavy_membership"),
    ("fractal", "walk_min_nonnegative_fraction"),
    ("fractal", "walk_distribution"),
    ("fractal", "measure_scan"),
    ("fractal", "selfsim_threshold_check"),
    ("fractal", "heavy_selfsim_check"),
    ("fractal", "feller_identity_table"),
    ("fractal", "entropy_count"),
)

# (layer, function) pairs that are only counted, so their time stays in
# the caller's self time: apply_path runs about 10^5 times per rationals
# run, and the chunked Monte Carlo loop _mc_accumulate is timed only for
# mc_trials and the CPU-over-wall ratio that shows how many threads worked.
COUNTED = (
    ("expansions", "parse_rational"),
    ("polarization", "apply_path"),
    ("polarization", "apply_path_array"),
    ("codes", "kronecker_row"),
    ("fractal", "_mc_accumulate"),
)

# Counters derived from arguments and results, named as reported.
COUNTERS = (
    "cli.output_bytes",
    "expansions.period_bits",
    "thresholds.interior_roots",
    "thresholds.multiplicity_flags",
    "thresholds.estimate_rows",
    "polarization.path_steps",
    "polarization.array_steps",
    "polarization.leaves",
    "polarization.leaf_bytes_computed",
    "codes.indices_out",
    "codes.matrix_cells",
    "fractal.mc_trials",
    "fractal.walk_steps",
)


def metric_names() -> list[str]:
    """Every per-layer metric :meth:`Tracer.metrics` reports, in order."""
    names = []
    for layer, fn in SPANNED:
        if (layer, fn) == ("cli", "main"):
            names += ["cli.main.calls", "cli.self_s"]
        else:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
    names += [f"{layer}.{fn}.calls" for layer, fn in COUNTED]
    names += COUNTERS
    names += ["thresholds.cache_hit_ratio", "fractal.mc_cpu_over_wall"]
    names += [f"{layer}.raised" for layer in LAYERS]
    return names


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_over_wall"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def metric_units() -> dict[str, str]:
    return {name: _unit(name) for name in metric_names()}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent_id, job_id, thread_id, child_ns]
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self.nondyadic_queries = 0
        self.mc_cpu_s = 0.0
        self.mc_wall_s = 0.0
        self.job = -1
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._layer_of: dict[str, str] = {}

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        sid = len(self.spans)
        parent = stack[-1] if stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job,
                           threading.get_ident(), 0])
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter_ns()
        self._stack().pop()
        if span[3] is not None:
            self.spans[span[3]][6] += span[2] - span[1]

    def _note_raise(self, layer: str) -> None:
        """Count an exception once, where it leaves its layer."""
        stack = self._stack()
        outer = self.spans[stack[-1]][0] if stack else None
        if outer is None or self._layer_of[outer] != layer:
            self.raised[layer] += 1

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, layer: str, fn: str, orig):
        name = f"{layer}.{fn}"
        self._layer_of[name] = layer
        if fn == "bec_leaf_chunks":
            return self._chunk_wrapper(name, layer, orig)
        after = getattr(self, f"_after_{fn}", None)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            sid = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer._close(sid)
                tracer._note_raise(layer)
                raise
            tracer._close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _chunk_wrapper(self, name: str, layer: str, orig):
        """Spans the generator's creation and each ``next()``, so the
        work done lazily inside iteration is timed too."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            sid = tracer._open(name)
            try:
                inner = orig(*args, **kwargs)
            finally:
                tracer._close(sid)
            while True:
                sid = tracer._open(name)
                before = tracer.counts["polarization.leaves"]
                try:
                    chunk = next(inner)
                except StopIteration:
                    tracer._close(sid)
                    return
                except BaseException:
                    tracer._close(sid)
                    tracer._note_raise(layer)
                    raise
                tracer._close(sid)
                # A chunk that came from a nested bec_leaf_values span is
                # already counted there.
                if tracer.counts["polarization.leaves"] == before:
                    tracer._count_leaves(chunk)
                yield chunk

        return wrapper

    def _count_wrapper(self, layer: str, fn: str, orig):
        name = f"{layer}.{fn}"
        tracer = self
        calls = self.calls
        counts = self.counts

        if fn == "apply_path":
            def wrapper(z, bits):
                calls[name] += 1
                counts["polarization.path_steps"] += len(bits)
                try:
                    return orig(z, bits)
                except BaseException:
                    tracer._note_raise(layer)
                    raise
        elif fn == "apply_path_array":
            def wrapper(z, bits):
                calls[name] += 1
                try:
                    result = orig(z, bits)
                except BaseException:
                    tracer._note_raise(layer)
                    raise
                counts["polarization.array_steps"] += result.size * len(bits)
                return result
        elif fn == "_mc_accumulate":
            def wrapper(trials, *args, **kwargs):
                calls[name] += 1
                counts["fractal.mc_trials"] += trials
                wall0, cpu0 = time.perf_counter(), time.process_time()
                try:
                    return orig(trials, *args, **kwargs)
                except BaseException:
                    tracer._note_raise(layer)
                    raise
                finally:
                    tracer.mc_wall_s += time.perf_counter() - wall0
                    tracer.mc_cpu_s += time.process_time() - cpu0
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                try:
                    return orig(*args, **kwargs)
                except BaseException:
                    tracer._note_raise(layer)
                    raise
        return wrapper

    # -- counters read from arguments and results ---------------------------

    def _count_leaves(self, leaves) -> None:
        self.counts["polarization.leaves"] += leaves.size
        self.counts["polarization.leaf_bytes_computed"] += leaves.nbytes

    def _after_real_to_expansion(self, args, kwargs, spec):
        self.counts["expansions.period_bits"] += len(spec.period)

    def _after_threshold_of_rational(self, args, kwargs, result):
        q = result.x.denominator
        if q & (q - 1):
            self.nondyadic_queries += 1

    def _after_period_fixed_points(self, args, kwargs, report):
        self.counts["thresholds.interior_roots"] += len(report.interior)
        self.counts["thresholds.multiplicity_flags"] += not report.interior_unique

    def _after_threshold_estimate_batch(self, args, kwargs, result):
        self.counts["thresholds.estimate_rows"] += result.size

    def _after_bec_leaf_values(self, args, kwargs, leaves):
        self._count_leaves(leaves)

    def _after_polar_index_set(self, args, kwargs, index_set):
        self.counts["codes.indices_out"] += len(index_set.indices)

    _after_rm_index_set = _after_polar_index_set

    def _after_generator_matrix(self, args, kwargs, gm):
        self.counts["codes.matrix_cells"] += gm.rows.size

    def _after_walk_min_nonnegative_fraction(self, args, kwargs, frac):
        n, trials = args[0], args[1] if len(args) > 1 else kwargs["trials"]
        self.counts["fractal.walk_steps"] += n * trials

    def _after_walk_distribution(self, args, kwargs, stats):
        if stats.mode == "monte-carlo":
            self.counts["fractal.walk_steps"] += stats.n * stats.total

    # -- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Rebind every alias of every named function in all loaded
        polarfractal modules; returns the names that were skipped."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "polarfractal"
                                         or key.startswith("polarfractal."))]
        skipped = []
        for layer, fn in (*SPANNED, *COUNTED):
            home = sys.modules.get(f"polarfractal.{layer}")
            orig = getattr(home, fn, None) if home is not None else None
            if orig is None:
                skipped.append(f"{layer}.{fn}")
                continue
            if (layer, fn) in SPANNED:
                wrapped = self._span_wrapper(layer, fn, orig)
            else:
                wrapped = self._count_wrapper(layer, fn, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, attr, orig))
                        setattr(module, attr, wrapped)
        return skipped

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    # -- reporting ----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _job, _thread, child in self.spans:
            out[name] += (end - start - child) / 1e9
        return out

    def metrics(self) -> dict[str, float]:
        self_s = self.self_seconds()
        values: dict[str, float] = {}
        for name in metric_names():
            if name == "cli.self_s":
                values[name] = self_s["cli.main"]
            elif name.endswith(".calls"):
                values[name] = self.calls[name[:-len(".calls")]]
            elif name.endswith(".self_s"):
                values[name] = self_s[name[:-len(".self_s")]]
            elif name.endswith(".raised"):
                values[name] = self.raised[name[:-len(".raised")]]
            elif name in COUNTERS:
                values[name] = self.counts[name]
        # Base: non-dyadic threshold_of_rational calls; each miss of the
        # threshold cache runs period_fixed_points once.
        base = self.nondyadic_queries
        misses = self.calls["thresholds.period_fixed_points"]
        values["thresholds.cache_hit_ratio"] = 1.0 - misses / base if base else 0.0
        values["fractal.mc_cpu_over_wall"] = (
            self.mc_cpu_s / self.mc_wall_s if self.mc_wall_s else 0.0)
        return values

    def total_self_s(self) -> float:
        return sum(self.self_seconds().values())

    def write_spans(self, path: str) -> None:
        """One JSON object per span: id, name, start/end (ns), parent id,
        job id, thread id and self time (ns)."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, job, thread, child) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "job": job, "thread": thread,
                    "self_ns": end - start - child}) + "\n")
