"""Span tracing of the casorati CLI at its layer boundaries.

Run as a script, this file is a drop-in for `python -m casorati.cli`:

    python perfbench/tracing.py SPANS.json <casorati arguments...>

It replaces each boundary function below with a wrapper on the module
attribute its caller looks up, runs `casorati.cli.main`, keeps every span
(name, start, end, parent) in memory and writes them to SPANS.json at the
end. The program's own files are not touched. Imported as a module, it gives
the self-time arithmetic and the per-layer metrics built from those spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# Module attribute -> layer metric prefix. Each attribute is the name the
# calling module looks up, so the wrapper sits on the boundary between the
# caller's layer and the callee's.
BOUNDARIES = {
    "casorati.immersions.jacobi_elliptic": "elliptic.jacobi",
    "casorati.immersions.integrate": "elliptic.quad",
    "casorati.geometry.jet2": "immersions.jet",
    "casorati.geometry.first_partials": "immersions.first_partials",
    "casorati.cli.domain_check": "immersions.domain_check",
    "casorati.cli.frame_at": "geometry.frame",
    "casorati.cli.second_form": "geometry.second_form",
    "casorati.cli.intrinsic_riemann": "geometry.riemann",
    "casorati.cli.gauss_residual": "geometry.gauss_residual",
    "casorati.cli.inequality_report": "invariants.report",
    "casorati.invariants.extremize_hyperplane": "invariants.extremize",
    "casorati.invariants.classify_ideal": "invariants.classify",
    "casorati.cli.main": "cli.main",
}
ROOT_SPAN = "casorati.cli.main"
EXTREMIZE = "casorati.invariants.extremize_hyperplane"


class Recorder:
    """Spans of one process, in call order; parent is an index or -1."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.grid_nodes = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == EXTREMIZE:
                    self.grid_nodes += int(result.certificate.get("grid_nodes", 0))
                return result
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                stack.pop()

        return traced

    def install(self, boundaries) -> list:
        """Wrap every boundary that exists; return the names that do not."""
        missing = []
        for full in boundaries:
            module_name, attr = full.rsplit(".", 1)
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(full)
                continue
            setattr(module, attr, self.wrap(full, fn))
        return missing

    def dump(self, path: str, missing: list) -> None:
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3]] for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": names, "spans": rows, "missing": missing,
                       "grid_nodes": self.grid_nodes}, f)


def load_spans(path) -> dict:
    """Spans written by `Recorder.dump`; none if the process never wrote them."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        return {"spans": [], "missing": [], "grid_nodes": 0}
    names = data["names"]
    data["spans"] = [(names[i], s, e, p) for i, s, e, p in data["spans"]]
    return data


def self_times(spans: list) -> list:
    """Span duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def layer_totals(traces: list) -> dict:
    """Calls and self seconds per layer prefix, summed over span files, plus
    the in-main seconds and extremum grid nodes."""
    calls = dict.fromkeys(BOUNDARIES.values(), 0)
    self_s = dict.fromkeys(BOUNDARIES.values(), 0.0)
    main_s, grid_nodes, missing = 0.0, 0, set()
    for data in traces:
        spans = data["spans"]
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            layer = BOUNDARIES.get(name)
            if layer is None:
                continue
            calls[layer] += 1
            self_s[layer] += own
            if name == ROOT_SPAN and parent < 0:
                main_s += end - start
        grid_nodes += data.get("grid_nodes", 0)
        missing.update(data.get("missing", ()))
    return {"calls": calls, "self_s": self_s, "main_s": main_s,
            "grid_nodes": grid_nodes, "missing": sorted(missing)}


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    missing = recorder.install(BOUNDARIES)
    import casorati.cli
    try:
        return casorati.cli.main(cli_args)
    finally:
        recorder.dump(spans_path, missing)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
