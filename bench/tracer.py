"""Outside-in span tracer for whipchain's layer entry points.

The tracer replaces module attributes with timing wrappers; nothing in
``src/`` knows it exists.  Each entry of :data:`TABLE` names a module, an
attribute in it (``Class.method`` for a method) and the span the calls are
recorded under.  A function is wrapped in every whipchain namespace that binds
it, including module-level dicts such as ``initial_data.GENERATORS``, so
calls made through ``from .x import f`` are caught too.  An attribute that no
longer exists is reported as absent, never raised.

Spans carry an id and the id of the enclosing span; they stay in memory and
are written out once, by :meth:`Tracer.write`, when the pass has ended.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, attribute, span).  ``harness.emit_series`` is split by format.
TABLE = (
    ("cli", "main", "cli.main"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "emit_series", "harness.emit_series"),
    ("initial_data", "make_initial", "initial_data.make_initial"),
    ("initial_data", "random_chain", "initial_data.random_chain"),
    ("dynamics", "run", "dynamics.run"),
    ("dynamics", "_advance", "dynamics.advance"),
    ("dynamics", "_acceleration_arrays", "dynamics.acceleration"),
    ("dynamics", "_project_arrays", "dynamics.project"),
    ("dynamics", "snapshot_report", "dynamics.snapshot_report"),
    ("tension", "_solve_sigma_arrays", "tension.stage_solve"),
    ("tension", "solve_tension", "tension.solve_tension"),
    ("tension", "solve_sigma_dot", "tension.solve_sigma_dot"),
    ("tension", "diagnostics_abc", "tension.diagnostics_abc"),
    ("tension", "sigma_sobolev", "tension.sigma_sobolev"),
    ("tension", "compute_alpha_beta", "tension.compute_alpha_beta"),
    ("tension", "green_matrix_for_chain", "tension.green_matrix_for_chain"),
    ("tension", "certify_bounds", "tension.certify_bounds"),
    ("core", "discrete_energy", "core.discrete_energy"),
    ("core", "sigma_weighted_energy", "core.sigma_weighted_energy"),
    ("core", "u0_v0", "core.u0_v0"),
    ("core", "rising_weight", "core.rising_weight"),
    ("core", "ChainState.__init__", "core.chain_state"),
    ("spectral", "basis_q_table", "spectral.basis_q_table"),
    ("spectral", "continuize_Gn", "spectral.continuize_Gn"),
    ("spectral", "discretize_Fn", "spectral.discretize_Fn"),
    ("spectral", "theta_to_eta", "spectral.theta_to_eta"),
)

EMIT_FORMATS = ("csv", "jsonl")


def span_names() -> list:
    """Every span name the table can produce, in table order."""
    names = []
    for _, _, span in TABLE:
        if span == "harness.emit_series":
            names += [f"{span}.{fmt}" for fmt in EMIT_FORMATS]
        else:
            names.append(span)
    return names


def _emit_span(args, kwargs) -> str:
    fmt = kwargs["fmt"] if "fmt" in kwargs else args[1]
    return f"harness.emit_series.{fmt}"


class Tracer:
    """Records (id, parent, name, start_ns, end_ns) for every wrapped call."""

    def __init__(self):
        self.spans: list = []
        self.emitted_bytes: dict = {}
        self.absent: list = []
        self.originals: dict = {}
        self._stack = [0]
        self._next_id = 1

    def wrap(self, func, span: str):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        emitter = span == "harness.emit_series"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                name = _emit_span(args, kwargs) if emitter else span
                spans.append((sid, parent, name, start, end))
            if emitter:
                self.emitted_bytes[name] = self.emitted_bytes.get(name, 0) + os.path.getsize(result)
            return result

        return traced

    def install(self, package: str = "whipchain") -> "Tracer":
        """Wrap every table entry in every loaded module of ``package``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for modname, attr, span in TABLE:
            try:
                owner = importlib.import_module(f"{package}.{modname}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            self.originals[span] = orig
            wrapped = self.wrap(orig, span)
            if path:  # a method: rebind on its class
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is orig:
                                value[k] = wrapped
        return self

    def cache_misses(self, span: str) -> int | None:
        """Cache misses of a wrapped ``functools.lru_cache`` function."""
        orig = self.originals.get(span)
        info = getattr(orig, "cache_info", None)
        return None if info is None else info().misses

    def write(self, path) -> None:
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        out = []
        for line in fh:
            sid, parent, name, start, end = line.rstrip("\n").split("\t")
            out.append((int(sid), int(parent), name, int(start), int(end)))
    return out


def summarize(spans: list) -> dict:
    """Per span name: calls, self time in seconds and the per-call durations
    in microseconds.  Self time is a span's duration minus its children's."""
    child_ns: dict = {}
    for _, parent, _, start, end in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: dict = {}
    for sid, _, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "self_ns": 0, "us": []})
        entry["calls"] += 1
        entry["self_ns"] += (end - start) - child_ns.get(sid, 0)
        entry["us"].append((end - start) / 1e3)
    return {name: {"calls": e["calls"], "self_s": e["self_ns"] / 1e9, "us": e["us"]}
            for name, e in out.items()}
