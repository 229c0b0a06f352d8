"""Span tracing of lorentzheat from outside the package.

`install` wraps the public functions named in LAYERS at the places where
their callers look them up: a module-level function is replaced in every
lorentzheat module that binds it (so `from .harmonic import derivative_h`
in rates is covered), a method is replaced on its class.  Each call records
a span (name, start, end, parent) in memory; probes add counters such as
RK45 evaluations or bytes written.  Names that no longer exist are skipped
and reported, so deleting a public function does not break the benchmark.

`per_layer` turns the spans into the benchmark's per-layer metrics; self
time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
import weakref

import numpy as np

_clock = time.perf_counter


def _columns(args, kwargs, result):
    w0 = np.asarray(args[1])
    return {"semigroup.columns": 1 if w0.ndim == 1 else w0.shape[1]}


def _nfev(args, kwargs, result):
    return {"harmonic.rk45_nfev": int(result.nfev)}


def _norm_nodes(args, kwargs, result):
    return {"params.norm_nodes": int(np.size(args[1]))}


def _bytes_of(path):
    return {"cli.files": 1, "cli.bytes_written": os.path.getsize(path)}


def _written(args, kwargs, result):
    return _bytes_of(args[0])


def _manifest_written(args, kwargs, result):
    return _bytes_of(os.path.join(args[0].out_dir, "manifest.txt"))


class _Distinct:
    """Counts distinct keys seen; keys hold no reference to the arguments."""

    def __init__(self, counter, key):
        self.counter = counter
        self.key = key
        self.seen = set()

    def __call__(self, args, kwargs, result):
        key = self.key(args)
        if key in self.seen:
            return {}
        self.seen.add(key)
        return {self.counter: 1}


class _DistinctObjects:
    """Counts distinct live objects passed as the first argument."""

    def __init__(self, counter):
        self.counter = counter
        self.seen = weakref.WeakSet()

    def __call__(self, args, kwargs, result):
        if args[0] in self.seen:
            return {}
        self.seen.add(args[0])
        return {self.counter: 1}


# span name -> (defining module, attribute path, probe factory or None)
LAYERS = {
    "harmonic.build": ("harmonic", "ProfileSet.build", None),
    "harmonic.solve_ivp": ("harmonic", "solve_ivp", lambda: _nfev),
    "spectral.classify_criticality": ("spectral", "classify_criticality", None),
    "semigroup.evolve_modes": ("semigroup", "evolve_modes", lambda: _columns),
    "semigroup.solve_banded": ("semigroup", "solve_banded", None),
    "semigroup.radial_derivative": ("semigroup", "radial_derivative", None),
    "semigroup.build_test_family": ("semigroup", "build_test_family", None),
    "params.lorentz_norm": ("params", "RadialProfile.lorentz_norm", None),
    "params.lorentz_norm_on_ball": ("params", "RadialProfile.lorentz_norm_on_ball",
                                    None),
    "params.restrict": ("params", "RadialProfile.restrict", None),
    "params.segments": ("params", "RadialProfile.segments",
                        lambda: _DistinctObjects("params.segments.profiles")),
    "params.mu_batch": ("params", "_SegmentSet.mu_batch", lambda: _norm_nodes),
    "iterated.envelope_nabla_J": (
        "iterated", "envelope_nabla_J",
        lambda: _Distinct("iterated.envelope_nabla_J.distinct",
                          lambda a: (a[0].k, a[1].n, a[2]))),
    "iterated.iterate_I": ("iterated", "iterate_I", None),
    "rates.upper_envelope_J": ("rates", "upper_envelope_J", None),
    "rates.lower_envelope": ("rates", "lower_envelope", None),
    "rates.phi_alpha": ("rates", "phi_alpha", None),
    "rates.fit_rate": ("rates", "fit_rate", None),
    "harmonic.derivative_h": ("harmonic", "derivative_h", None),
    "harmonic.gamma_ratio": ("harmonic", "gamma_ratio", None),
    "quadrature.cumulative_integral": ("quadrature", "cumulative_integral", None),
    "quadrature.radial_derivative_values": ("quadrature", "radial_derivative_values",
                                            None),
    "cli.write_csv": ("cli", "write_csv", lambda: _written),
    "cli.write_columns": ("cli", "write_columns", lambda: _written),
    "cli.manifest_write": ("cli", "Manifest.write", lambda: _manifest_written),
    "cli.add_file": ("cli", "Manifest.add_file", None),
}

# per-layer metric -> (unit, how it is read from the aggregated spans)
#   ("calls", span) | ("self", span) | ("total", [spans]) | ("counter", name)
METRICS = {
    "harmonic.build_s": ("s", "total", ["harmonic.build"]),
    "harmonic.rk45_nfev": ("count", "counter", "harmonic.rk45_nfev"),
    "spectral.classify_s": ("s", "total", ["spectral.classify_criticality"]),
    "semigroup.evolve_modes.calls": ("count", "calls", "semigroup.evolve_modes"),
    "semigroup.evolve_modes.self_s": ("s", "self", "semigroup.evolve_modes"),
    "semigroup.columns": ("count", "counter", "semigroup.columns"),
    "semigroup.steps": ("count", "calls", "semigroup.solve_banded"),
    "semigroup.solve_s": ("s", "total", ["semigroup.solve_banded"]),
    "semigroup.radial_derivative.calls": ("count", "calls",
                                          "semigroup.radial_derivative"),
    "semigroup.radial_derivative.self_s": ("s", "self", "semigroup.radial_derivative"),
    "semigroup.build_test_family.self_s": ("s", "self", "semigroup.build_test_family"),
    "params.lorentz_norm.calls": ("count", "calls", "params.lorentz_norm"),
    "params.lorentz_norm.self_s": ("s", "self", "params.lorentz_norm"),
    "params.lorentz_norm_on_ball.calls": ("count", "calls",
                                          "params.lorentz_norm_on_ball"),
    "params.lorentz_norm_on_ball.self_s": ("s", "self", "params.lorentz_norm_on_ball"),
    "params.restrict.self_s": ("s", "self", "params.restrict"),
    "params.segments.calls": ("count", "calls", "params.segments"),
    "params.segments.self_s": ("s", "self", "params.segments"),
    "params.segments.profiles": ("count", "counter", "params.segments.profiles"),
    "params.mu_batch.self_s": ("s", "self", "params.mu_batch"),
    "params.norm_nodes": ("count", "counter", "params.norm_nodes"),
    "iterated.envelope_nabla_J.calls": ("count", "calls", "iterated.envelope_nabla_J"),
    "iterated.envelope_nabla_J.distinct": ("count", "counter",
                                           "iterated.envelope_nabla_J.distinct"),
    "iterated.envelope_nabla_J.self_s": ("s", "self", "iterated.envelope_nabla_J"),
    "iterated.iterate_I.calls": ("count", "calls", "iterated.iterate_I"),
    "iterated.iterate_I.self_s": ("s", "self", "iterated.iterate_I"),
    "rates.upper_envelope_J.calls": ("count", "calls", "rates.upper_envelope_J"),
    "rates.upper_envelope_J.self_s": ("s", "self", "rates.upper_envelope_J"),
    "rates.lower_envelope.calls": ("count", "calls", "rates.lower_envelope"),
    "rates.lower_envelope.self_s": ("s", "self", "rates.lower_envelope"),
    "rates.phi_alpha.calls": ("count", "calls", "rates.phi_alpha"),
    "rates.phi_alpha.self_s": ("s", "self", "rates.phi_alpha"),
    "harmonic.derivative_h.calls": ("count", "calls", "harmonic.derivative_h"),
    "harmonic.derivative_h.self_s": ("s", "self", "harmonic.derivative_h"),
    "harmonic.gamma_ratio.calls": ("count", "calls", "harmonic.gamma_ratio"),
    "harmonic.gamma_ratio.self_s": ("s", "self", "harmonic.gamma_ratio"),
    "quadrature.cumulative_integral.calls": ("count", "calls",
                                             "quadrature.cumulative_integral"),
    "quadrature.cumulative_integral.self_s": ("s", "self",
                                              "quadrature.cumulative_integral"),
    "quadrature.radial_derivative_values.calls": (
        "count", "calls", "quadrature.radial_derivative_values"),
    "quadrature.radial_derivative_values.self_s": (
        "s", "self", "quadrature.radial_derivative_values"),
    "rates.fit_rate.self_s": ("s", "self", "rates.fit_rate"),
    "cli.write_s": ("s", "total", ["cli.write_csv", "cli.write_columns",
                                   "cli.manifest_write"]),
    "cli.hash_s": ("s", "total", ["cli.add_file"]),
    "cli.bytes_written": ("B", "counter", "cli.bytes_written"),
    "cli.files": ("count", "counter", "cli.files"),
}


class Tracer:
    """In-memory span recorder; one per traced process, single-threaded."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = {}
        self.skipped = []
        self._stack = [-1]

    def wrap(self, name, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1])
            tracer.starts.append(_clock())
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = _clock()
                tracer._stack.pop()
            if probe is not None:
                for key, inc in probe(args, kwargs, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + inc
            return result

        return traced

    def dump(self, path):
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        np.savez(path, names=np.array(names, dtype=str),
                 name_idx=np.array([index[n] for n in self.names], dtype=np.int32),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents, dtype=np.int64),
                 counter_names=np.array(sorted(self.counters), dtype=str),
                 counter_values=np.array([self.counters[k]
                                          for k in sorted(self.counters)],
                                         dtype=np.int64),
                 skipped=np.array(self.skipped, dtype=str))


def _package_modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def _resolve(module, path):
    """(owner, attribute name, static object) or None when the name is gone."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        obj = inspect.getattr_static(owner, parts[-1])
    except AttributeError:
        return None
    if inspect.isclass(owner):
        for klass in owner.__mro__:
            if parts[-1] in vars(klass):
                return klass, parts[-1], obj
    return owner, parts[-1], obj


def install(tracer, package, layers=LAYERS):
    """Wrap each layer; record the ones whose name no longer exists."""
    modules = _package_modules(package)
    for name, (mod_name, path, probe_factory) in layers.items():
        module = getattr(package, mod_name, None)
        found = None if module is None else _resolve(module, path)
        if found is None:
            tracer.skipped.append(name)
            continue
        owner, attr, obj = found
        probe = probe_factory() if probe_factory else None
        if isinstance(obj, (classmethod, staticmethod)):
            setattr(owner, attr, type(obj)(tracer.wrap(name, obj.__func__, probe)))
        elif inspect.isclass(owner):
            setattr(owner, attr, tracer.wrap(name, obj, probe))
        else:
            wrapped = tracer.wrap(name, obj, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, key, wrapped)


def load(path):
    with np.load(path) as z:
        return {key: z[key] for key in z.files}


def aggregate(dump):
    """{span name: (calls, total_s, self_s)}, counters, skipped names."""
    names = dump["names"]
    idx = dump["name_idx"]
    dur = dump["end"] - dump["start"]
    parent = dump["parent"]
    child_time = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    spans = {}
    for i, name in enumerate(names):
        sel = idx == i
        spans[str(name)] = (int(np.count_nonzero(sel)), float(dur[sel].sum()),
                            float(self_time[sel].sum()))
    counters = {str(k): int(v) for k, v in zip(dump["counter_names"],
                                                 dump["counter_values"])}
    return spans, counters, [str(s) for s in dump["skipped"]]


def per_layer(dump):
    """Per-layer metric values from one traced process; missing layers read 0."""
    spans, counters, skipped = aggregate(dump)
    out = {}
    for metric, (unit, kind, source) in METRICS.items():
        if kind == "calls":
            value = spans.get(source, (0, 0.0, 0.0))[0]
        elif kind == "self":
            value = spans.get(source, (0, 0.0, 0.0))[2]
        elif kind == "total":
            value = sum(spans.get(s, (0, 0.0, 0.0))[1] for s in source)
        else:
            value = counters.get(source, 0)
        out[metric] = (value, unit)
    return out, skipped
