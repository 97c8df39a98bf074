"""Layer tracing for the polysect benchmark, installed from outside the program.

The tracer replaces selected public polysect functions with timing wrappers
in every polysect module namespace that binds them (``convex_hull``, for
example, is imported by name into criteria, cones, bodies, offio and
silhouette), plus three methods on their classes.  Oracle bodies built by
the ``bodies`` constructors get counted ``member``/``support`` callables,
and the cone oracle handed to ``mirkil_scan`` gets a counted ``member``.

Each wrapped call is a span with a request id and its parent span.  A
layer's self time is its span's duration minus the time of its child spans.
Calls on the hot leaves (oracle membership, point containment, chart
coordinates) are only aggregated, because a single T1.2 request makes
millions of them; every other span is also kept in memory and written out
when the run ends.  Nothing is installed unless a traced run asks for it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
from collections import Counter
from time import perf_counter

# module -> public functions wrapped at their layer boundary
FUNCTIONS = {
    "hull": ("hull_full_dim",),
    "geometry": ("nullspace",),
    "polytope": ("convex_hull", "section", "project", "is_extreme"),
    "bodies": (
        "make_ball", "make_ellipsoid", "wrap_polytope", "glue_cap",
        "sample_section_boundary",
    ),
    "cones": ("visual_cone", "cone_section", "mirkil_scan"),
    "criteria": (
        "klee_section_test", "klee_projection_test", "visual_cone_test",
        "polygonality_detect", "epsilon_certificate", "no_extreme_in_cone",
    ),
    "silhouette": ("shadow_walk", "step_g"),
    "offio": ("load_polytope",),
    "svg": ("render_polygon",),
}

# (module, class, method) -> span name
METHODS = {
    ("geometry", "AffineFlat", "spanning"): "geometry.flat_spanning",
    ("geometry", "AffineFlat", "projected_coordinates"): "geometry.projected_coordinates",
    ("polytope", "Polytope", "contains"): "polytope.contains",
}

# aggregated only: no span record per call
HOT = frozenset({
    "bodies.member", "bodies.support", "cones.cone_member",
    "polytope.contains", "geometry.projected_coordinates",
})

TESTERS = ("klee_section_test", "klee_projection_test", "visual_cone_test")

def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.request = "setup"
        self.paused = 0
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None, before=None):
        """Return fn timed as span `name`; after(args, result) may replace the result."""
        stats = self.stats.setdefault(name, [0, 0.0])
        keep = name not in HOT
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur - frame[1]
                if keep:
                    tracer.spans.append(
                        (frame[0], parent, tracer.request, name, t0, t1)
                    )
            if after is not None:
                result = after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside the block run unwrapped (used for output checks)."""
        self.paused += 1
        try:
            yield
        finally:
            self.paused -= 1

    # -- per-layer hooks ---------------------------------------------------

    def _oracle(self, args, body):
        return dataclasses.replace(
            body,
            member=self.wrap("bodies.member", body.member),
            support=self.wrap("bodies.support", body.support),
        )

    def _cone_oracle(self, args):
        cone = args[0]
        cone = dataclasses.replace(
            cone, member=self.wrap("cones.cone_member", cone.member)
        )
        return (cone,) + tuple(args[1:])

    def _hull(self, args, result):
        self.counts["hull.hull_full_dim.points_in"] += len(args[0])
        self.counts["hull.hull_full_dim.vertices_out"] += len(result.vertex_indices)
        self.counts["hull.hull_full_dim.facets_out"] += len(result.facets)
        return result

    def _convex_hull(self, args, poly):
        for v in poly.vertices:
            for x in v:
                b = _bits(x)
                if b > self.max_bits:
                    self.max_bits = b
        return poly

    def _section(self, args, sec):
        if sec is None:
            self.counts["polytope.section.misses"] += 1
        return sec

    def _walk(self, args, result):
        self.counts["silhouette.steps"] += result.steps
        return result

    def _tester(self, args, report):
        self.counts["criteria.samples_used"] += report.samples_used
        covered = {n.split(":")[0] for n in report.notes if "coverage" in n}
        self.counts["criteria.coverage_samples"] += len(covered)
        return report

    def _offio(self, args, result):
        self.counts["offio.bytes_in"] += len(args[0])
        return result

    def _svg(self, args, text):
        self.counts["svg.bytes_out"] += len(text)
        return text

    def _hooks(self, name):
        if name in ("make_ball", "make_ellipsoid", "wrap_polytope", "glue_cap"):
            return self._oracle, None
        if name in TESTERS:
            return self._tester, None
        return {
            "hull_full_dim": (self._hull, None),
            "convex_hull": (self._convex_hull, None),
            "section": (self._section, None),
            "shadow_walk": (self._walk, None),
            "mirkil_scan": (None, self._cone_oracle),
            "load_polytope": (self._offio, None),
            "render_polygon": (self._svg, None),
        }.get(name, (None, None))

    # -- install / uninstall -----------------------------------------------

    def install(self):
        """Wrap every listed function in each polysect namespace that binds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "polysect" or n.startswith("polysect."))
        ]
        for short, names in FUNCTIONS.items():
            home = sys.modules[f"polysect.{short}"]
            for fname in names:
                original = getattr(home, fname)
                after, before = self._hooks(fname)
                wrapped = self.wrap(f"{short}.{fname}", original, after, before)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapped)
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules[f"polysect.{short}"], cls_name)
            raw = cls.__dict__[meth]
            self._restore.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))

    def uninstall(self):
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "max_bits": self.max_bits,
        }

    def reset(self) -> None:
        """Zero the counts and times; installed wrappers keep their stats lists."""
        for st in self.stats.values():
            st[0], st[1] = 0, 0.0
        self.counts.clear()
        self.max_bits = 0

    def merge(self, snap: dict, request) -> None:
        """Fold a child process's snapshot and spans into this tracer."""
        for name, (calls, self_s) in snap["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0])
            st[0] += calls
            st[1] += self_s
        self.counts.update(snap["counts"])
        self.max_bits = max(self.max_bits, snap["max_bits"])
        for span in snap.get("spans", ()):
            self.spans.append(tuple(span[:2]) + (request,) + tuple(span[3:]))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
