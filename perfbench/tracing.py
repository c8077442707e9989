"""Span recorder for the traced run, kept entirely in the benchmark.

``Recorder.install`` replaces each public function at the module attribute
its caller looks up (``imtw.cli.heuristic_decomposition``,
``imtw.traces.trace_family_for_bag``, ...) with a wrapper that records a span:
name, start, end, parent span, instance id, the exception class if one
escaped, and the calibration sampling that ran inside it. Spans stay in
memory until ``write`` and ``restore`` run at the end.
The hottest helpers (``canonical_blocks``, ``merge_partitions``) are counted,
not timed. The untraced run never calls ``install``.

Layer names are module names: a span called ``decomp.metrics`` belongs to
layer ``decomp``. The run is single-threaded and nothing queues, so no layer
has waiting time to report.
"""

import importlib
import json
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "graphs", "decomp", "traces", "forest", "packing", "boundaried")

# (module, attribute, span name). One function reached through several
# modules is wrapped at each of them under one name.
SPANS = (
    ("imtw.cli", "main", "cli.main"),
    ("imtw.cli", "parse_graph", "graphs.parse"),
    ("imtw.cli", "parse_weights", "graphs.parse"),
    ("imtw.packing", "graph_power", "graphs.power"),
    ("imtw.packing", "distance_matrix", "graphs.distance"),
    ("imtw.cli", "parse_td", "decomp.parse"),
    ("imtw.cli", "heuristic_decomposition", "decomp.heuristic"),
    ("imtw.cli", "decomposition_metrics", "decomp.metrics"),
    ("imtw.packing", "decomposition_metrics", "decomp.metrics"),
    ("imtw.cli", "validate_decomposition", "decomp.validate"),
    ("imtw.cli", "make_nice", "decomp.make_nice"),
    ("imtw.packing", "make_nice", "decomp.make_nice"),
    ("imtw.packing", "blob_decomposition", "decomp.transfer"),
    ("imtw.packing", "odd_power_decomposition", "decomp.transfer"),
    ("imtw.traces", "trace_family_for_bag", "traces.family"),
    ("imtw.forest", "trace_family_for_bag", "traces.family"),
    ("imtw.traces", "enumerate_maximal_independent_sets", "traces.mis_enum"),
    ("imtw.cli", "mwis_dp", "traces.dp"),
    ("imtw.packing", "mwis_dp", "traces.dp"),
    ("imtw.cli", "mwif_dp", "forest.dp"),
    ("imtw.cli", "parse_subgraph_family", "packing.parse"),
    ("imtw.cli", "max_weight_independent_packing", "packing.solve"),
    ("imtw.cli", "max_weight_distance_packing", "packing.solve"),
    ("imtw.cli", "ptas_bounded_treewidth_subgraph", "packing.solve"),
    ("imtw.packing", "max_weight_independent_packing", "packing.solve"),
    ("imtw.packing", "blob_graph", "packing.blob"),
    ("imtw.packing", "enumerate_small_connected_subgraphs", "packing.pieces"),
    ("imtw.packing", "treewidth_at_most", "packing.treewidth"),
    ("imtw.cli", "is_valid_packing", "packing.check"),
    ("imtw.packing", "is_valid_packing", "packing.check"),
    ("imtw.cli", "packing_distance", "packing.check"),
    ("imtw.packing", "packing_distance", "packing.check"),
    ("imtw.cli", "generic_structured_dp", "boundaried.dp"),
)

# Hot helpers: counted, never timed.
COUNTS = (
    ("imtw.forest", "canonical_blocks", "forest.canonical_blocks"),
    ("imtw.forest", "merge_partitions", "forest.merge"),
)

ALGEBRA_METHODS = ("holds", "type_of", "glue", "forget", "relabel", "accepting")

NAME, START, END, PARENT, INSTANCE, ERROR, SAMPLED = range(7)


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, instance, error, sampled]
        self.stack = []
        self.sampler = None  # the SpeedSampler active while the pass runs
        self.counts = Counter()
        self.instance = None
        self.extra = Counter()  # per-span result sizes, e.g. family members
        self.keys = {"traces.family": [set(), 0], "forest.family": [set(), 0]}
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _timed(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            # Start read before sampled time and end after it, so that any
            # sampling counted in SAMPLED lies wholly inside [START, END].
            rec[START] = perf_counter()
            rec[SAMPLED] = -self.sampler.spent
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[SAMPLED] += self.sampler.spent
                rec[END] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            result = fn(*args)
            counts[name] += 1
            if result is None:
                counts[name + ".none"] += 1
            return result

        return wrapper

    def _family(self, fn):
        """forest.family span that also attributes canonical_blocks calls
        made during family construction."""
        timed = self._timed("forest.family", fn, self._observe("forest.family"))
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = counts["forest.canonical_blocks"]
            try:
                return timed(*args, **kwargs)
            finally:
                counts["forest.family_blocks"] += counts["forest.canonical_blocks"] - before

        return wrapper

    def _selfcheck(self, fn):
        """is_induced_forest is timed only as mwif_dp's final self-check;
        inside family construction it runs thousands of times and is left
        alone."""
        timed = self._timed("forest.selfcheck", fn)
        spans, stack = self.spans, self.stack

        def wrapper(graph, mask):
            if stack and spans[stack[-1]][NAME] == "forest.dp":
                return timed(graph, mask)
            return fn(graph, mask)

        return wrapper

    def _algebra(self, fn):
        def wrapper(*args, **kwargs):
            algebra = fn(*args, **kwargs)
            for method in ALGEBRA_METHODS:
                setattr(algebra, method, self._timed("boundaried.algebra", getattr(algebra, method)))
            return algebra

        return wrapper

    def _observe(self, name):
        """Result hooks: sizes and reuse keys for the per-layer counters."""
        extra = self.extra

        def reuse(key):
            seen = self.keys[name]
            seen[0].add((self.instance,) + key)
            seen[1] += 1

        if name == "decomp.make_nice":
            def hook(args, kwargs, nice):
                extra["nice_nodes"] += nice.size
                extra["distinct_bags"] += len({node.bag for node in nice.nodes})
        elif name == "traces.family":
            def hook(args, kwargs, fam):
                extra["trace_members"] += len(fam.members)
                reuse((id(args[0]), args[1], args[2]))
        elif name == "traces.mis_enum":
            def hook(args, kwargs, sets):
                extra["mis_sets"] += len(sets)
        elif name == "forest.family":
            def hook(args, kwargs, fam):
                extra["signatures"] += len(fam)
                vt = args[2] if fam.provider == "paper" else None
                reuse((id(args[0]), fam.provider, args[1], vt))
        elif name == "packing.blob":
            def hook(args, kwargs, blob):
                extra["blob_members"] += blob.n
        elif name == "packing.pieces":
            def hook(args, kwargs, pieces):
                extra["pieces"] += len(pieces)
        else:
            hook = None
        return hook

    def install(self):
        def patch(module_name, attr, wrapper_of):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapper_of(original))

        for module_name, attr, name in SPANS:
            patch(module_name, attr, lambda fn, name=name: self._timed(name, fn, self._observe(name)))
        for module_name, attr, name in COUNTS:
            patch(module_name, attr, lambda fn, name=name: self._counted(name, fn))
        patch("imtw.forest", "signature_family_paper", self._family)
        patch("imtw.forest", "signature_family_exhaustive", self._family)
        patch("imtw.forest", "is_induced_forest", self._selfcheck)
        patch("imtw.cli", "builtin_type_algebra", self._algebra)

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, instance, error, sampled) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent,
                                     "instance": instance, "error": error, "sampled": sampled}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")

    # -- aggregation -------------------------------------------------------

    def metrics(self, instances, traced_s, untraced_s):
        """Per-layer metrics over the traced pass. ``_s`` values are
        normalised seconds summed over all instances of the pass, as the
        end-to-end times are: a span's wall time less the calibration
        sampling inside it, scaled by the machine speed the sampler measured
        around it. Self time is taken before scaling, so that it is the
        span's own share of that time. traced_s and untraced_s are the
        passes' normalised totals, for the overhead."""
        dur = [s[END] - s[START] - s[SAMPLED] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        total = Counter()
        self_time = Counter()
        calls = Counter()
        errors = Counter()
        factor = self.sampler.factor
        for i, s in enumerate(self.spans):
            f = factor(s[START], s[END])
            total[s[NAME]] += dur[i] * f
            self_time[s[NAME]] += (dur[i] - child[i]) * f
            calls[s[NAME]] += 1
            if s[ERROR]:
                errors[s[NAME].split(".")[0], s[ERROR]] += 1
        x = self.extra
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        def reuse(name):
            distinct, count = len(self.keys[name][0]), self.keys[name][1]
            return 1 - distinct / count if count else 0.0

        joins = c["forest.merge"]
        out = {
            "cli.self_s": self_time["cli.main"],
            "graphs.parse_s": total["graphs.parse"],
            "graphs.power_s": total["graphs.power"],
            "graphs.distance_s": total["graphs.distance"],
            "decomp.parse_s": total["decomp.parse"],
            "decomp.heuristic_s": total["decomp.heuristic"],
            "decomp.metrics_s": total["decomp.metrics"],
            "decomp.metrics_calls_per_instance": ratio(calls["decomp.metrics"], instances),
            "decomp.validate_s": total["decomp.validate"],
            "decomp.validate_calls_per_instance": ratio(calls["decomp.validate"], instances),
            "decomp.make_nice_s": total["decomp.make_nice"],
            "decomp.nice_nodes": x["nice_nodes"],
            "decomp.distinct_bag_frac": ratio(x["distinct_bags"], x["nice_nodes"]),
            "decomp.transfer_s": total["decomp.transfer"],
            "traces.family_s": total["traces.family"],
            "traces.family_calls": calls["traces.family"],
            "traces.family_members": x["trace_members"],
            "traces.family_reuse_frac": reuse("traces.family"),
            "traces.mis_enum_s": total["traces.mis_enum"],
            "traces.mis_sets": x["mis_sets"],
            "traces.dp_self_s": self_time["traces.dp"],
            "forest.family_s": total["forest.family"],
            "forest.family_frac": ratio(total["forest.family"], total["cli.main"]),
            "forest.family_vs_dp_frac": ratio(total["forest.family"], total["forest.family"] + self_time["forest.dp"]),
            "forest.family_calls": calls["forest.family"],
            "forest.family_signatures": x["signatures"],
            "forest.family_reuse_frac": reuse("forest.family"),
            "forest.emits_per_signature": ratio(c["forest.family_blocks"], x["signatures"]),
            "forest.dp_self_s": self_time["forest.dp"],
            "forest.join_pairs": joins,
            "forest.join_ok_frac": ratio(joins - c["forest.merge.none"], joins),
            "forest.selfcheck_s": total["forest.selfcheck"],
            "packing.solve_self_s": self_time["packing.solve"],
            "packing.blob_s": total["packing.blob"],
            "packing.blob_members": x["blob_members"],
            "packing.pieces_s": total["packing.pieces"],
            "packing.pieces": x["pieces"],
            "packing.treewidth_s": total["packing.treewidth"],
            "packing.check_s": total["packing.check"],
            "boundaried.dp_self_s": self_time["boundaried.dp"],
            "boundaried.algebra_s": total["boundaried.algebra"],
            "boundaried.algebra_calls": calls["boundaried.algebra"],
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(v for (lay, _), v in errors.items() if lay == layer)
        out["trace.overhead_frac"] = traced_s / untraced_s - 1
        return out, errors
