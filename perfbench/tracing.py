"""Spans and counters around the program's layers, installed from outside ``src/``.

:func:`install` replaces each traced function or method by a wrapper in
every ``nonlocal_logistic`` namespace that binds it (``principal_eigenpair``
is bound in ``spectral``, ``steady``, ``parabolic``, ``cli`` and the
package), and returns a function that puts the originals back.

A span's self time is its duration minus the durations of the spans it
called.  Counts come from the wrapped call's arguments or its return value.
All spans are recorded on the calling thread; the benchmark runs the CLI
with one worker, so no span has children on another thread.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("bernstein.quad_s", "s"),
    ("bernstein.quad_cells", "count"),
    ("operator.assemble_s", "s"),
    ("operator.assemble_calls", "count"),
    ("operator.green_solve_s", "s"),
    ("operator.green_solve_calls", "count"),
    ("operator.matrix_mb", "MB"),
    ("spectral.eigen_s", "s"),
    ("spectral.eigen_calls", "count"),
    ("spectral.eigen_iters", "count"),
    ("steady.maximal_s", "s"),
    ("steady.maximal_steps", "count"),
    ("steady.scan_s", "s"),
    ("steady.scan_probes", "count"),
    ("steady.steps_per_probe", "steps/probe"),
    ("steady.small_branch_s", "s"),
    ("steady.newton_steps", "count"),
    ("steady.stability_s", "s"),
    ("steady.logistic_s", "s"),
    ("steady.logistic_steps", "count"),
    ("parabolic.evolve_s", "s"),
    ("parabolic.longtime_s", "s"),
    ("parabolic.steps", "count"),
    ("parabolic.us_per_step", "us"),
    ("stochastic.sampler_s", "s"),
    ("stochastic.path_steps", "count"),
    ("stochastic.mc_green_s", "s"),
    ("stochastic.survival_s", "s"),
    ("stochastic.trace_s", "s"),
    ("stochastic.trace_steps", "count"),
    ("boundary.ratio_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "count"),
]


class Tracer:
    """Per-span self and inclusive times, call counts and counters for one round."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._children = []  # child time of each open span, innermost last

    def wrap(self, fn, span: str, count=None):
        """Wrapper recording ``span`` around ``fn``; ``count(args, kwargs, result)``
        returns counter increments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                child = self._children.pop()
                self.self_s[span] += duration - child
                self.total_s[span] += duration
                self.counts[span + ".calls"] += 1
                if self._children:
                    self._children[-1] += duration
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    self.counts[key] += inc
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        s, c = self.self_s, self.counts
        probes = c["steady.scan_probes"]
        steps = c["parabolic.steps"]
        return {
            "bernstein.quad_s": s["bernstein.quad"],
            "bernstein.quad_cells": c["bernstein.quad_cells"],
            "operator.assemble_s": s["operator.assemble"],
            "operator.assemble_calls": c["operator.assemble.calls"],
            "operator.green_solve_s": s["operator.green_solve"],
            "operator.green_solve_calls": c["operator.green_solve.calls"],
            "operator.matrix_mb": self.maxima["operator.matrix_mb"],
            "spectral.eigen_s": s["spectral.eigen"],
            "spectral.eigen_calls": c["spectral.eigen.calls"],
            "spectral.eigen_iters": c["spectral.eigen_iters"],
            "steady.maximal_s": s["steady.maximal"],
            "steady.maximal_steps": c["steady.maximal_steps"],
            # inclusive: the scan's probes and its logistic solve are part of it
            "steady.scan_s": self.total_s["steady.scan"],
            "steady.scan_probes": probes,
            "steady.steps_per_probe": c["steady.scan_steps"] / probes if probes else 0.0,
            "steady.small_branch_s": s["steady.small_branch"],
            "steady.newton_steps": c["steady.newton_steps"],
            # inclusive: a stability index is one eigen solve with a potential
            "steady.stability_s": self.total_s["steady.stability"],
            "steady.logistic_s": s["steady.logistic"],
            "steady.logistic_steps": c["steady.logistic_steps"],
            "parabolic.evolve_s": s["parabolic.evolve"],
            "parabolic.longtime_s": s["parabolic.longtime"],
            "parabolic.steps": steps,
            "parabolic.us_per_step": (
                1e6 * (s["parabolic.evolve"] + s["parabolic.longtime"]) / steps if steps else 0.0),
            "stochastic.sampler_s": s["stochastic.sampler"],
            "stochastic.path_steps": c["stochastic.path_steps"],
            "stochastic.mc_green_s": s["stochastic.mc_green"],
            "stochastic.survival_s": s["stochastic.survival"],
            "stochastic.trace_s": s["stochastic.trace"],
            "stochastic.trace_steps": c["stochastic.trace_steps"],
            "boundary.ratio_s": s["boundary.ratio"],
            "cli.write_s": s["cli.write"],
            "cli.bytes_written": c["cli.bytes_written"],
        }


# -- counters read from arguments and return values ---------------------------

def _assembled(tracer):
    def count(args, kwargs, op):
        mb = op.n * op.n * 8 / 1e6
        tracer.maxima["operator.matrix_mb"] = max(tracer.maxima["operator.matrix_mb"], mb)
        return {}
    return count


def _field_sum(key, attr):
    return lambda args, kwargs, result: {key: getattr(result, attr)}


def _scan(args, kwargs, scan):
    return {"steady.scan_probes": len(scan.samples),
            "steady.scan_steps": sum(s.state.iterations for s in scan.samples)}


def _evolve(args, kwargs, run):
    return {"parabolic.steps": int(round(run.horizon / run.dt))}


def _longtime(args, kwargs, res):
    return {"parabolic.steps": res.times.size - 1}


def _draws(args, kwargs, result):
    return {"stochastic.path_steps": np.size(result)}


def _trace(args, kwargs, path):
    return {"stochastic.trace_steps": path.positions.size - 1}


def _written(args, kwargs, result):
    out, outdir = args[0], Path(args[1])
    names = [*out.csvs, *out.jsons, *out.texts]
    # the manifest carries timestamps, so its size is not a repeatable count
    return {"cli.bytes_written": sum((outdir / name).stat().st_size
                                     for name in names if name != "manifest.json")}


def _targets(tracer):
    """(module, attribute path, span, counter) of every traced callable."""
    return [
        ("bernstein", "LevyKernel.sigma2_local", "bernstein.quad", None),
        ("bernstein", "LevyKernel.tail_mass", "bernstein.quad", None),
        ("bernstein", "LevyKernel.cell_second_moments", "bernstein.quad", None),
        ("bernstein", "LevyKernel.cell_masses", "bernstein.quad", None),
        ("operator", "assemble", "operator.assemble", _assembled(tracer)),
        ("operator", "green_solve", "operator.green_solve", None),
        ("spectral", "principal_eigenpair", "spectral.eigen",
         _field_sum("spectral.eigen_iters", "iterations")),
        ("steady", "maximal_harvest", "steady.maximal",
         _field_sum("steady.maximal_steps", "iterations")),
        ("steady", "scan_cstar", "steady.scan", _scan),
        ("steady", "small_branch", "steady.small_branch",
         _field_sum("steady.newton_steps", "iterations")),
        ("steady", "stability_index", "steady.stability", None),
        ("steady", "solve_logistic", "steady.logistic",
         _field_sum("steady.logistic_steps", "iterations")),
        ("parabolic", "evolve", "parabolic.evolve", _evolve),
        ("parabolic", "longtime_classify", "parabolic.longtime", _longtime),
        ("stochastic", "SubordinatorSampler.increments", "stochastic.sampler", _draws),
        ("stochastic", "mc_green", "stochastic.mc_green", None),
        ("stochastic", "survival_lambda1", "stochastic.survival", None),
        ("stochastic", "simulate_killed_path", "stochastic.trace", _trace),
        ("boundary", "hopf_ratio", "boundary.ratio", None),
        ("boundary", "v_modulus", "boundary.ratio", None),
        ("cli", "RunOutput.write", "cli.write", _written),
    ]


def install(tracer: Tracer):
    """Wrap every traced callable in every namespace that binds it; return an undo."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "nonlocal_logistic"
                                     or name.startswith("nonlocal_logistic."))]
    for module_name, path, span, count in _targets(tracer):
        module = sys.modules[f"nonlocal_logistic.{module_name}"]
        if "." in path:  # a method: one binding, on its class
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(original, span, count))
            undo.append((cls, attr, original))
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(original, span, count)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
                    undo.append((m, attr, original))

    # adaptive quadrature calls: the kernel's only use of scipy.integrate
    bernstein = sys.modules["nonlocal_logistic.bernstein"]
    integrate = bernstein.integrate

    def quad(*args, **kwargs):
        tracer.counts["bernstein.quad_cells"] += 1
        return integrate.quad(*args, **kwargs)

    bernstein.integrate = types.SimpleNamespace(quad=quad)
    undo.append((bernstein, "integrate", integrate))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
