"""In-memory spans and counters around calls into the sdeinvariance modules.

The tracer never edits the package.  It wraps, at run time, the module
attributes through which the package's own code reaches one layer from
another (for example ``sdeinvariance.ensemble.integrate_batch``), plus the
drift, diffusion and Jacobian callables of each model (through
``dataclasses.replace``).  Every wrapped call records one span
``(name, start, end, parent)``; a span's layer is the module named before
the first dot.  ``instrument`` restores every attribute on exit.

A span's self time is its duration minus the part covered by its child
spans.  Every span name belongs to exactly one term of SELF_TIME_PARTITION
(``SPAN_TERMS``), and ``trace.unattributed_s`` is the wall time outside any
span, so the terms add up to the traced job's wall time by construction.
What can go wrong is the mapping, and ``Tracer.structure_problems`` checks
it: a span name outside ``SPAN_TERMS``, or a child under a span whose term
is reported as a total (``wiener.s``, ``integrators.csv_s``, ``svgplot.s``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from collections import Counter
from time import perf_counter

import numpy as np

import sdeinvariance.cli
import sdeinvariance.conversion
import sdeinvariance.ensemble
import sdeinvariance.integrators
import sdeinvariance.invariance
import sdeinvariance.wiener

# Where the tracer cannot see; printed with every traced run.
NOTES = (
    "spans wrap calls between modules and into the model callables; time a "
    "layer spends in core's batch helpers counts to that layer",
    "integrators.step_us is the gap between successive noise-provider calls "
    "and includes the tracer's own cost inside the step",
    "layers a workload does not exercise report 0",
)

# Span name -> the self-time term of SELF_TIME_PARTITION it belongs to.
SPAN_TERMS = {
    "wiener.increments_for_step": "wiener.s",
    "wiener.generate": "wiener.s",
    "hodgkin_huxley.drift": "hodgkin_huxley.self_s",
    "hodgkin_huxley.diffusion": "hodgkin_huxley.self_s",
    "hodgkin_huxley.jacobian": "hodgkin_huxley.self_s",
    "hodgkin_huxley.build_model": "hodgkin_huxley.self_s",
    "conversion.drift": "conversion.self_s",
    "conversion.correction_batch": "conversion.self_s",
    "integrators.integrate_batch": "integrators.self_s",
    "integrators.simulate": "integrators.self_s",
    "integrators.write_trajectory_csv": "integrators.csv_s",
    "ensemble.run_ensemble": "ensemble.self_s",
    "ensemble.integrate_paths": "ensemble.self_s",
    "invariance.check_box": "invariance.self_s",
    "invariance.check_polyhedron": "invariance.self_s",
    "invariance.check_comparison": "invariance.self_s",
    "svgplot.line_chart": "svgplot.s",
    "cli.main": "cli.self_s",
}

# Terms reported as the total time of their spans, which is their self time
# only while those spans have no children.
LEAF_TERMS = ("wiener.s", "integrators.csv_s", "svgplot.s")

# Metrics that partition the traced wall time.
SELF_TIME_PARTITION = tuple(dict.fromkeys(SPAN_TERMS.values())) + (
    "trace.unattributed_s",)

# (name, unit) of every per-layer metric, in print order.
METRICS = (
    ("wiener.normals", "count"),
    ("wiener.s", "s"),
    ("wiener.ns_per_normal", "ns"),
    ("hodgkin_huxley.drift_calls", "count"),
    ("hodgkin_huxley.drift_rows", "count"),
    ("hodgkin_huxley.drift_s", "s"),
    ("hodgkin_huxley.diffusion_calls", "count"),
    ("hodgkin_huxley.diffusion_rows", "count"),
    ("hodgkin_huxley.diffusion_s", "s"),
    ("hodgkin_huxley.self_s", "s"),
    ("conversion.correction_calls", "count"),
    ("conversion.correction_s", "s"),
    ("conversion.self_s", "s"),
    ("integrators.steps", "count"),
    ("integrators.path_steps", "count"),
    ("integrators.self_s", "s"),
    ("integrators.step_us.p50", "us"),
    ("integrators.step_us.p99", "us"),
    ("integrators.useful_path_step_frac", "ratio"),
    ("integrators.csv_s", "s"),
    ("integrators.csv_bytes", "bytes"),
    ("ensemble.reduce_s", "s"),
    ("ensemble.self_s", "s"),
    ("ensemble.states_mb_computed", "MiB"),
    ("ensemble.nonfinite_paths", "count"),
    ("ensemble.violating_paths", "count"),
    ("invariance.check_box_s", "s"),
    ("invariance.check_polyhedron_s", "s"),
    ("invariance.check_comparison_s", "s"),
    ("invariance.self_s", "s"),
    ("invariance.face_points", "count"),
    ("invariance.witnesses", "count"),
    ("invariance.faces_violated", "count"),
    ("svgplot.s", "s"),
    ("svgplot.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)

UNITS = dict(METRICS)

# Counters that must repeat exactly for the same seed.
EXACT = tuple(name for name, unit in METRICS
              if unit in ("count", "bytes", "MiB")) + (
    "integrators.useful_path_step_frac",)


def self_check(tracer, metrics: dict, first: dict) -> list:
    """Problems of a traced job, checked against the run's first one.

    Every span must map to one partition term, and every exact counter must
    repeat, because both jobs ran the same inputs.
    """
    return tracer.structure_problems() + [
        f"{k} = {metrics[k]}, first traced job {first[k]}"
        for k in EXACT if metrics[k] != first[k]]


def _rows(x) -> int:
    x = np.asarray(x)
    return int(x.shape[0]) if x.ndim == 2 else 1


class Tracer:
    """Spans and counters of one traced job."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.step_gaps: list = []  # seconds between noise-provider calls
        self._stack: list = []

    def wrap(self, name, fn, count=None):
        """fn, recording a span called name; count(counts, args, out)."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    # -- models ---------------------------------------------------------

    def wrap_model(self, system):
        """The model with traced drift, diffusion and Jacobian callables."""

        def rows(kind):
            def count(counts, args, out):
                counts[f"hodgkin_huxley.{kind}_calls"] += 1
                counts[f"hodgkin_huxley.{kind}_rows"] += _rows(args[1])
            return count

        jac = system.diffusion_jacobian
        return dataclasses.replace(
            system,
            drift=self.wrap("hodgkin_huxley.drift", system.drift,
                            rows("drift")),
            diffusion=self.wrap("hodgkin_huxley.diffusion", system.diffusion,
                                rows("diffusion")),
            diffusion_jacobian=None if jac is None else self.wrap(
                "hodgkin_huxley.jacobian", jac))

    def wrap_converted(self, system):
        """A converted system whose shifted drift is traced as conversion."""
        return dataclasses.replace(
            system, drift=self.wrap("conversion.drift", system.drift))

    # -- package entry points -------------------------------------------

    def _integrate_batch(self, fn):
        def count(counts, args, out):
            states, dead = out
            n_paths, n_grid = states.shape[0], states.shape[1]
            n_steps = n_grid - 1
            counts["integrators.path_steps"] += n_paths * n_steps
            counts["integrators.alive_path_steps"] += int(
                np.where(dead >= 0, dead, n_steps).sum())

        traced = self.wrap("integrators.integrate_batch", fn, count)

        def integrate_batch(*args, **kwargs):
            args = list(args)
            provider = (args[4] if len(args) > 4
                        else kwargs["increments_for"])
            stamps = []

            def timed_provider(step):
                stamps.append(perf_counter())
                return provider(step)

            if len(args) > 4:
                args[4] = timed_provider
            else:
                kwargs["increments_for"] = timed_provider
            try:
                return traced(*args, **kwargs)
            finally:
                self.counts["integrators.steps"] += len(stamps)
                self.step_gaps.extend(np.diff(stamps).tolist())

        return integrate_batch

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        cli = sdeinvariance.cli
        conv = sdeinvariance.conversion
        ens = sdeinvariance.ensemble
        integ = sdeinvariance.integrators
        inv = sdeinvariance.invariance
        grid_cls = sdeinvariance.wiener.WienerGrid

        def normals(counts, args, out):
            counts["wiener.normals"] += int(np.size(out))

        def generate_normals(counts, args, out):
            counts["wiener.normals"] += int(np.size(out.increments))

        def stats(counts, args, out):
            counts["ensemble.nonfinite_paths"] += len(out.nonfinite_paths)
            counts["ensemble.violating_paths"] += out.n_violating

        def states(counts, args, out):
            counts["ensemble.states_bytes_computed"] += out[0].size * 8

        def report(counts, args, out):
            n_times = out.config.n_time_samples
            for face in out.faces:
                counts["invariance.face_points"] += face.n_samples * n_times
                counts["invariance.witnesses"] += len(face.witnesses)
                counts["invariance.faces_violated"] += bool(face.witnesses)

        def correction(counts, args, out):
            counts["conversion.correction_calls"] += 1

        def svg(counts, args, out):
            counts["svgplot.bytes"] += len(out.encode())

        csv = self.wrap("integrators.write_trajectory_csv",
                        cli.write_trajectory_csv)

        def write_csv(traj, target, *rest, **kwargs):
            before = target.tell()
            csv(traj, target, *rest, **kwargs)
            self.counts["integrators.csv_bytes"] += target.tell() - before

        build = self.wrap("hodgkin_huxley.build_model", cli.build_model)

        def build_model(*args, **kwargs):
            system, info = build(*args, **kwargs)
            return self.wrap_model(system), info

        generate = grid_cls.__dict__["generate"].__func__
        batch = self._integrate_batch(integ.integrate_batch)
        return [
            (ens, "run_ensemble",
             self.wrap("ensemble.run_ensemble", ens.run_ensemble, stats)),
            (ens, "integrate_paths",
             self.wrap("ensemble.integrate_paths", ens.integrate_paths,
                       states)),
            (ens, "integrate_batch", batch),
            (integ, "integrate_batch", batch),
            (ens, "increments_for_step",
             self.wrap("wiener.increments_for_step", ens.increments_for_step,
                       normals)),
            (grid_cls, "generate", classmethod(
                self.wrap("wiener.generate", generate, generate_normals))),
            (conv, "correction_batch",
             self.wrap("conversion.correction_batch", conv.correction_batch,
                       correction)),
            (inv, "check_box",
             self.wrap("invariance.check_box", inv.check_box, report)),
            (inv, "check_polyhedron",
             self.wrap("invariance.check_polyhedron", inv.check_polyhedron,
                       report)),
            (inv, "check_comparison",
             self.wrap("invariance.check_comparison", inv.check_comparison,
                       report)),
            (cli, "main", self.wrap("cli.main", cli.main)),
            (cli, "build_model", build_model),
            (cli, "simulate", self.wrap("integrators.simulate", cli.simulate)),
            (cli, "write_trajectory_csv", write_csv),
            (cli, "line_chart",
             self.wrap("svgplot.line_chart", cli.line_chart, svg)),
        ]

    @contextlib.contextmanager
    def instrument(self):
        """Route the package's inter-module calls through this tracer."""
        saved = []
        try:
            for owner, attr, new in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    # -- reduction ------------------------------------------------------

    def structure_problems(self) -> list:
        """Spans that break the self-time partition."""
        names = {span[0] for span in self.spans}
        parents = {self.spans[span[3]][0] for span in self.spans
                   if span[3] >= 0}
        return ([f"span {nm} belongs to no partition term"
                 for nm in sorted(names - SPAN_TERMS.keys())]
                + [f"span {nm} of the total {SPAN_TERMS[nm]} has children"
                   for nm in sorted(parents)
                   if SPAN_TERMS.get(nm) in LEAF_TERMS])

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer metric except trace.overhead_frac."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=float)
        parent = np.array([s[3] for s in self.spans], dtype=int)
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        by_name: dict = {}  # span name -> [total, self]
        terms = dict.fromkeys(SELF_TIME_PARTITION, 0.0)
        for span, d, o in zip(self.spans, dur.tolist(),
                              (dur - covered).tolist()):
            acc = by_name.setdefault(span[0], [0.0, 0.0])
            acc[0] += d
            acc[1] += o
            if span[0] in SPAN_TERMS:
                terms[SPAN_TERMS[span[0]]] += o

        def total(*span_names):
            return sum((by_name.get(nm, (0.0, 0.0))[0] for nm in span_names),
                       0.0)

        def self_of(span_name):
            return by_name.get(span_name, (0.0, 0.0))[1]

        c = self.counts
        gaps_us = np.asarray(self.step_gaps) * 1e6
        out = {name: 0.0 for name, _ in METRICS}
        out.update(terms)
        out.update({
            "wiener.normals": c["wiener.normals"],
            "hodgkin_huxley.drift_calls": c["hodgkin_huxley.drift_calls"],
            "hodgkin_huxley.drift_rows": c["hodgkin_huxley.drift_rows"],
            "hodgkin_huxley.drift_s": total("hodgkin_huxley.drift"),
            "hodgkin_huxley.diffusion_calls":
                c["hodgkin_huxley.diffusion_calls"],
            "hodgkin_huxley.diffusion_rows":
                c["hodgkin_huxley.diffusion_rows"],
            "hodgkin_huxley.diffusion_s": total("hodgkin_huxley.diffusion"),
            "conversion.correction_calls": c["conversion.correction_calls"],
            "conversion.correction_s": total("conversion.correction_batch"),
            "integrators.steps": c["integrators.steps"],
            "integrators.path_steps": c["integrators.path_steps"],
            "integrators.csv_bytes": c["integrators.csv_bytes"],
            "ensemble.reduce_s": self_of("ensemble.run_ensemble"),
            "ensemble.states_mb_computed":
                c["ensemble.states_bytes_computed"] / 2 ** 20,
            "ensemble.nonfinite_paths": c["ensemble.nonfinite_paths"],
            "ensemble.violating_paths": c["ensemble.violating_paths"],
            "invariance.check_box_s": total("invariance.check_box"),
            "invariance.check_polyhedron_s":
                total("invariance.check_polyhedron"),
            "invariance.check_comparison_s":
                total("invariance.check_comparison"),
            "invariance.face_points": c["invariance.face_points"],
            "invariance.witnesses": c["invariance.witnesses"],
            "invariance.faces_violated": c["invariance.faces_violated"],
            "svgplot.bytes": c["svgplot.bytes"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - float(dur[~has_parent].sum()),
            "trace.spans": n,
        })
        if out["wiener.normals"]:
            out["wiener.ns_per_normal"] = (
                out["wiener.s"] / out["wiener.normals"] * 1e9)
        if gaps_us.size:
            out["integrators.step_us.p50"] = float(np.percentile(gaps_us, 50))
            out["integrators.step_us.p99"] = float(np.percentile(gaps_us, 99))
        if c["integrators.path_steps"]:
            out["integrators.useful_path_step_frac"] = (
                c["integrators.alive_path_steps"]
                / c["integrators.path_steps"])
        return out

    def dump(self, path, extra: dict) -> None:
        """Write the spans and counters as JSON."""
        payload = dict(extra)
        payload["notes"] = list(NOTES)
        payload["counters"] = dict(self.counts)
        payload["spans"] = [{"name": nm, "start": s, "end": e, "parent": p}
                            for nm, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh)
