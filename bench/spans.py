"""Span tracing of one hermitia CLI command, from outside the package.

Run as `python3 bench/spans.py OUT.json CMD_ID ARGV...`: it wraps the public
functions at each module boundary, runs `hermitia.cli.main(ARGV)`, and at
exit writes per-span-name calls, self time and total time, the boundary
counters, the names it could not wrap and the time the summary took.

Spans (name, start, end, parent) live in flat arrays in memory until the
command ends; one file belongs to one command, so the command id is stored
once.  A span's self time is its duration minus the time its child spans
cover; children of one span run one after another on one thread, so that is
the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import types
from array import array

# (module, attribute) of every wrapped function; the span is named
# "<module>.<last attribute part>", e.g. matff.det for Mat.det.  Every
# function cli imports from another module is wrapped, so that cli.self_s is
# cli's own code only; the one exception is case_signature, a helper that
# the other modules also call in inner loops and that cli calls once as a
# parity check.  Names that planned clean-ups delete (equivalent,
# q2_representatives, gf.conj, gf.embed, case_degree, BigForm.scaled) are
# deliberately not wrapped.
TARGETS = (
    ("gf", "make_field"), ("gf", "make_embedding"),
    ("matff", "Mat.det"), ("matff", "Mat.rank"), ("matff", "Mat.inverse"),
    ("matff", "Mat.mul"), ("matff", "hermitian_decompose"),
    ("matff", "fermat_surface"),
    ("tetra", "smoothness_scan"), ("tetra", "jacobian_rank"),
    ("tetra", "expand_form"), ("tetra", "on_surface"),
    ("classify", "solution_space"), ("classify", "exists_invertible"),
    ("classify", "enumerate_admissible"), ("classify", "predicted_signatures"),
    ("orbit", "act"), ("orbit", "sympow"), ("orbit", "proportional"),
    ("orbit", "pairwise_equivalence"), ("orbit", "stabilizer_search"),
    ("orbit", "build_curve"), ("orbit", "twisted_congruence_solve"),
    ("orbit", "count_report"), ("orbit", "embed_qprime"),
    ("orbit", "inflate_case1"), ("orbit", "q2_parameter_matrices"),
    ("orbit", "q2_lambda_member"),
    ("cli", "main"),
)
UNWRAPPED_CLI_IMPORTS = {"case_signature"}


def _act(counters, args, kwargs, result):
    g = args[1] if len(args) > 1 else kwargs.get("g")
    data = getattr(g, "data", None)
    if data is not None and not data[0][1] and not data[1][0]:
        counters["orbit.act.diag_calls"] += 1


def _proportional(counters, args, kwargs, result):
    if result is not None:
        counters["orbit.proportional.hits"] += 1


def _make_field(counters, args, kwargs, result):
    counters.setdefault("gf.make_field.ids", set()).add(id(result))


def _exists_invertible(counters, args, kwargs, result):
    counters["classify.exists_invertible.checked"] += getattr(result, "checked", 0)
    if getattr(result, "invertible", False):
        counters["classify.exists_invertible.admissible"] += 1


def _smoothness_scan(counters, args, kwargs, result):
    counters["tetra.smoothness_scan.points"] += getattr(result, "points_scanned", 0)


# counters read at the same boundaries as the spans
OBSERVERS = {
    "orbit.act": _act,
    "orbit.proportional": _proportional,
    "gf.make_field": _make_field,
    "classify.exists_invertible": _exists_invertible,
    "tetra.smoothness_scan": _smoothness_scan,
}
COUNTERS = ("orbit.act.diag_calls", "orbit.proportional.hits",
            "classify.exists_invertible.checked",
            "classify.exists_invertible.admissible",
            "tetra.smoothness_scan.points")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def summarize(names, name_id, parent, start, end) -> dict:
    """Per span name: calls, self_s (duration minus child spans) and total_s
    (durations of the spans not nested in a span of the same name).

    Spans are given as parallel sequences in start order, parent -1 for a
    root; a parent always precedes its children.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
    active = [0] * len(names)
    stack = []
    for i in range(n):
        p = parent[i]
        while stack and stack[-1] != p:
            active[name_id[stack.pop()]] -= 1
        k = name_id[i]
        s = stats[names[k]]
        d = end[i] - start[i]
        s["calls"] += 1
        s["self_s"] += d - covered[i]
        if not active[k]:
            s["total_s"] += d
        active[k] += 1
        stack.append(i)
    return stats


class Tracer:
    """Wraps functions so that each call records a span and, for some names,
    bumps a boundary counter."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent = []

    def wrap(self, name: str, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, counters = self.stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def patch(self, targets=TARGETS) -> None:
        """Wrap every target, rebinding each module-level name that refers to
        it (e.g. cli.stabilizer_search as well as orbit.stabilizer_search).
        A target that no longer exists is recorded as absent."""
        for module, attr in targets:
            name = span_name(module, attr)
            try:
                owner = importlib.import_module(f"hermitia.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if not isinstance(orig, types.FunctionType):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, orig, OBSERVERS.get(name))
            if isinstance(owner, type):
                setattr(owner, leaf, wrapped)
                continue
            for modname, mod in list(sys.modules.items()):
                if mod is None or not (modname == "hermitia"
                                       or modname.startswith("hermitia.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        counters = dict(self.counters)
        counters["gf.make_field.distinct"] = len(counters.pop("gf.make_field.ids", ()))
        return {"spans": len(self.start),
                "names": summarize(self.names, self.name_id, self.parent,
                                   self.start, self.end),
                "counters": counters, "absent": self.absent}


def span_cost(calls: int = 20000, reps: int = 7) -> float:
    """Seconds one span adds to a call: a wrapped two-argument no-op timed
    against the bare one, median over `reps` rounds of `calls` calls."""
    def noop(a, b):
        return None

    def timed(fn):
        t = time.perf_counter()
        for _ in range(calls):
            fn(1, 2)
        return time.perf_counter() - t

    diffs = []
    for _ in range(reps):
        traced = Tracer().wrap("calibration", noop)
        diffs.append(timed(traced) - timed(noop))
    return max(statistics.median(diffs) / calls, 0.0)


def main(argv) -> int:
    out_path, cmd_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.patch()
    from hermitia import cli
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    t = time.perf_counter()
    doc = tracer.summary()
    doc["summarize_s"] = time.perf_counter() - t
    doc["cmd"] = cmd_id
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
