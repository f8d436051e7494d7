"""Spans around calls into each ``network_spectra`` module, from outside it.

``Tracer.install`` replaces each traced function with a wrapper at every
module attribute that binds it, because ``cli`` and ``ydelta`` import names
from the modules that define them; methods are replaced on their class.
A span is (name, start, end, parent span, job id, escaped exception type).
Spans stay in memory and are written when the run ends.  Self time is a
span's duration minus the part covered by its child spans.

Only entry points that a layer metric needs are traced.  Hot helpers such as
``LaurentPoly2`` arithmetic or ``graph_core.vadd`` run millions of times per
pass and are left alone; the ``laurent`` metrics are read from the
polynomials ``charpoly`` returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "network_spectra"

# module -> traced functions ("Class.method" for methods)
TRACED = {
    "laplacian": ["build_laplacian", "charpoly", "principal_minor", "node_check", "laplacian_matrix_at"],
    "spectral": ["fiber_roots", "null_vectors", "real_ovals", "amoeba", "spectral_divisor",
                 "write_amoeba_csv", "write_amoeba_svg"],
    "ydelta": ["run_program", "apply_move", "conserved_vector", "invariance_check", "discrete_abel"],
    "graph_core": ["TorusGraph.validate", "TorusGraph.dual", "TorusGraph.superpose"],
    "forests": ["pfnlap_sum", "enumerate_ocrsfs", "enumerate_dual_pairs", "boundary_point_counts"],
    "temperley": ["enumerate_dimers", "temperley_map"],
    "zigzag": ["trace_strands", "minimality_check", "zigzag_polygon"],
    "cli": ["_load_network", "_write_report", "cmd_validate", "cmd_charpoly", "cmd_zigzag", "cmd_newton",
            "cmd_ocrsf_check", "cmd_temperley_check", "cmd_ydelta", "cmd_evolve", "cmd_amoeba",
            "cmd_divisor", "cmd_abel"],
}

SUBCOMMANDS = ["validate", "charpoly", "zigzag", "newton", "ocrsf_check", "temperley_check", "ydelta",
               "evolve", "amoeba", "divisor", "abel"]


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _on_charpoly(tracer, p):
    tracer.add("laurent.charpoly_terms", len(p))
    tracer.peak("laurent.coeff_bits_max", max((_bits(c) for _, c in p.terms()), default=0))


def _on_apply_move(tracer, result):
    tracer.peak("ydelta.conductance_bits_max", max(_bits(c) for c in result[1].values()))


def _on_divisor(tracer, res):
    tracer.add("spectral.divisor_points", len(res.points))
    tracer.add("spectral.divisor_genus", res.genus)


def _count_len(counter: str, attr: str | None = None):
    def hook(tracer, result):
        tracer.add(counter, len(getattr(result, attr) if attr else result))
    return hook


# counts read from return values, keyed by span name
RESULT_HOOKS = {
    "laplacian.charpoly": _on_charpoly,
    "ydelta.apply_move": _on_apply_move,
    "spectral.spectral_divisor": _on_divisor,
    "spectral.amoeba": _count_len("spectral.amoeba_points", "samples"),
    "forests.enumerate_ocrsfs": _count_len("forests.ocrsfs"),
    "forests.enumerate_dual_pairs": _count_len("forests.dual_pairs"),
    "temperley.enumerate_dimers": _count_len("temperley.dimer_covers"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, job, exception]
        self.stack: list[int] = []
        self.job: str | None = None
        self.count: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    def add(self, name: str, value: int) -> None:
        self.count[name] += value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def _wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for qual in funcs:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[attr]
                    self._replace(owner, attr, original, self._wrap(f"{mod_name}.{qual}", original))
                    continue
                original = getattr(mod, qual)
                wrapper = self._wrap(f"{mod_name}.{qual}", original)
                for m in modules:
                    if m.__dict__.get(qual) is original:
                        self._replace(m, qual, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- summaries ---------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, escaped exceptions.

        Inclusive time counts only spans with no ancestor of the same name, so
        recursion is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _exc in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, start, end, parent, _job, exc) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "max_s": 0.0,
                                      "exceptions": defaultdict(int)})
            s["calls"] += 1
            s["self_s"] += end - start - child_time[k]
            s["max_s"] = max(s["max_s"], end - start)
            if exc is not None:
                s["exceptions"][exc] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                s["inclusive_s"] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "exception"], "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, from the spans and the result counts."""
    summ = tracer.summary()

    def span(name: str, field: str = "inclusive_s") -> float:
        return summ.get(name, {}).get(field, 0.0) / passes

    def exc(name: str, kind: str) -> float:
        return summ.get(name, {}).get("exceptions", {}).get(kind, 0) / passes

    def count(name: str) -> float:
        return tracer.count[name] / passes

    m: dict[str, tuple[float, str]] = {
        "laplacian.charpoly_s": (span("laplacian.charpoly"), "s"),
        "laplacian.charpoly_calls": (span("laplacian.charpoly", "calls"), "count"),
        "laplacian.charpoly_max_s": (summ.get("laplacian.charpoly", {}).get("max_s", 0.0), "s"),
        "laplacian.principal_minor_s": (span("laplacian.principal_minor"), "s"),
        "laplacian.principal_minor_calls": (span("laplacian.principal_minor", "calls"), "count"),
        "laplacian.build_s": (span("laplacian.build_laplacian"), "s"),
        "laplacian.node_check_s": (span("laplacian.node_check"), "s"),
        "laplacian.matrix_at_calls": (span("laplacian.laplacian_matrix_at", "calls"), "count"),
        "laurent.charpoly_terms": (count("laurent.charpoly_terms"), "count"),
        "laurent.coeff_bits_max": (tracer.peaks["laurent.coeff_bits_max"], "bits"),
        "spectral.fiber_roots_s": (span("spectral.fiber_roots"), "s"),
        "spectral.fiber_roots_calls": (span("spectral.fiber_roots", "calls"), "count"),
        "spectral.degenerate_fibers": (exc("spectral.fiber_roots", "DegenerateFiber"), "count"),
        "spectral.null_vectors_s": (span("spectral.null_vectors"), "s"),
        "spectral.null_vectors_calls": (span("spectral.null_vectors", "calls"), "count"),
        "spectral.corank2": (exc("spectral.null_vectors", "CorankTwo"), "count"),
        "spectral.real_ovals_s": (span("spectral.real_ovals"), "s"),
        "spectral.real_ovals_calls": (span("spectral.real_ovals", "calls"), "count"),
        "spectral.amoeba_s": (span("spectral.amoeba"), "s"),
        "spectral.amoeba_points": (count("spectral.amoeba_points"), "count"),
        "spectral.divisor_s": (span("spectral.spectral_divisor"), "s"),
        "spectral.divisor_points": (count("spectral.divisor_points"), "count"),
        "spectral.divisor_yield": (tracer.count["spectral.divisor_points"] / max(1, tracer.count["spectral.divisor_genus"]), "fraction"),
        "ydelta.run_program_s": (span("ydelta.run_program"), "s"),
        "ydelta.apply_move_s": (span("ydelta.apply_move"), "s"),
        "ydelta.moves": (span("ydelta.apply_move", "calls"), "count"),
        "ydelta.conserved_vector_s": (span("ydelta.conserved_vector"), "s"),
        "ydelta.conductance_bits_max": (tracer.peaks["ydelta.conductance_bits_max"], "bits"),
        "ydelta.invariance_check_s": (span("ydelta.invariance_check"), "s"),
        "ydelta.discrete_abel_s": (span("ydelta.discrete_abel"), "s"),
        "graph_core.validate_s": (span("graph_core.TorusGraph.validate"), "s"),
        "graph_core.validate_calls": (span("graph_core.TorusGraph.validate", "calls"), "count"),
        "graph_core.dual_s": (span("graph_core.TorusGraph.dual"), "s"),
        "graph_core.superpose_s": (span("graph_core.TorusGraph.superpose"), "s"),
        "forests.pfnlap_s": (span("forests.pfnlap_sum"), "s"),
        "forests.pfnlap_calls": (span("forests.pfnlap_sum", "calls"), "count"),
        "forests.ocrsfs": (count("forests.ocrsfs"), "count"),
        "forests.dual_pairs_s": (span("forests.enumerate_dual_pairs"), "s"),
        "forests.dual_pairs": (count("forests.dual_pairs"), "count"),
        "forests.dual_pairs_failed": (sum(summ.get("forests.enumerate_dual_pairs", {}).get("exceptions", {}).values()) / passes, "count"),
        "forests.boundary_counts_s": (span("forests.boundary_point_counts"), "s"),
        "temperley.dimers_s": (span("temperley.enumerate_dimers"), "s"),
        "temperley.dimer_covers": (count("temperley.dimer_covers"), "count"),
        "temperley.map_s": (span("temperley.temperley_map"), "s"),
        "zigzag.trace_strands_s": (span("zigzag.trace_strands"), "s"),
        "zigzag.minimality_s": (span("zigzag.minimality_check"), "s"),
        "zigzag.polygon_s": (span("zigzag.zigzag_polygon"), "s"),
        "cli.load_s": (span("cli._load_network"), "s"),
        "cli.report_write_s": (span("cli._write_report") + span("spectral.write_amoeba_csv")
                               + span("spectral.write_amoeba_svg"), "s"),
    }
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = (span(f"cli.cmd_{sub}"), "s")
    return m
