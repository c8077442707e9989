"""Command line front end.

Every command prints one JSON report to stdout. Reports are byte-identical
for identical inputs and seed; wall-clock timing is only included when
--timing is passed. Exit codes: 0 success, 1 infeasible, 2 input error,
3 invariant violation, 4 resource cap exceeded, 5 internal error (an
unexpected exception; the report still carries its type and message).
"""

import argparse
import functools
import hashlib
import json
import sys
import time

from . import __version__
from .bits import popcount, to_tuple
from .boundaried import builtin_type_algebra, generic_structured_dp, ramsey_upper
from .decomp import (
    decomposition_metrics,
    heuristic_decomposition,
    make_nice,
    parse_td,
    serialize_td,
    validate_decomposition,
)
from .errors import InputError, InvariantError, ResourceLimitError
from .forest import mwif_dp
from .graphs import (
    GENERATORS,
    WeightMap,
    corona,
    forked_version,
    generate,
    graph_power,
    line_graph_square,
    parse_graph,
    parse_rational,
    parse_weights,
    serialize_graph,
)
from .nicedp import DEFAULT_STATE_BUDGET
from .oracles import exact_width_parameters, recognize_imtw_at_most_1
from .packing import (
    blob_graph,
    is_valid_packing,
    max_weight_distance_packing,
    max_weight_independent_packing,
    parse_subgraph_family,
    packing_distance,
    ptas_bounded_treewidth_subgraph,
)
from .traces import mwis_dp
from .verify import MAX_MAX_N, MIN_MAX_N, SUITES, run_suites


def _digest(text):
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _read(path, inputs):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    inputs[path] = _digest(text)
    return text


def _write_output(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        return {"written": path}
    return {"text": text}


def _vertices(mask):
    return [v + 1 for v in to_tuple(mask)]


def _rational(value, what="optimum"):
    """``value`` as report text; past the integer string digit limit, a
    resource error that names the limit instead of the ValueError of str."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(f"{what} has more than {limit} digits, the integer string limit") from None


def _load_instance(args, inputs, need_weights=True):
    graph = parse_graph(_read(args.graph, inputs))
    td = parse_td(_read(args.td, inputs))
    problems = validate_decomposition(graph, td)
    if problems:
        raise InputError("invalid decomposition: " + "; ".join(problems[:3]))
    weights = None
    if need_weights:
        if getattr(args, "weights", None):
            weights = parse_weights(_read(args.weights, inputs), graph.n)
        else:
            weights = WeightMap.unit(graph.n)
    return graph, td, weights


def _load_nice(args, inputs):
    """The instance as (graph, weights, measured metrics, nice form)."""
    graph, td, weights = _load_instance(args, inputs)
    met = decomposition_metrics(graph, td)
    return graph, weights, met, make_nice(graph, td, met)


def cmd_gen(args, inputs):
    params = []
    for raw in args.params:
        try:
            params.append(float(raw) if "." in raw else int(raw))
        except ValueError:
            raise InputError(f"bad generator parameter {raw!r}") from None
    if args.kind == "random":
        if len(params) == 2:
            params.append(args.seed)
    graph = generate(args.kind, *params)
    out = _write_output(serialize_graph(graph), args.output)
    return 0, {"kind": args.kind, "n": graph.n, "m": graph.m, **out}, {}


def cmd_decompose(args, inputs):
    graph = parse_graph(_read(args.graph, inputs))
    td = heuristic_decomposition(graph, args.strategy)
    met = decomposition_metrics(graph, td, budget_limit=args.budget)
    out = _write_output(serialize_td(td), args.output)
    report = {
        "strategy": args.strategy,
        "bags": td.size,
        "width": td.width(),
        "alpha": met.alpha,
        "mu": met.mu,
        **out,
    }
    return 0, report, {"valid": validate_decomposition(graph, td) == []}


def cmd_metrics(args, inputs):
    graph, td, _ = _load_instance(args, inputs, need_weights=False)
    met = decomposition_metrics(graph, td, budget_limit=args.budget)
    report = {
        "alpha": met.alpha,
        "mu": met.mu,
        "width": td.width(),
        "alpha_witness": {"node": met.alpha_witness[0] + 1, "vertices": _vertices(met.alpha_witness[1])},
        "mu_witness": {
            "node": met.mu_witness[0] + 1,
            "edges": [[u + 1, v + 1] for u, v in met.mu_witness[1]],
        },
    }
    return 0, report, {}


def cmd_exact(args, inputs):
    graph = parse_graph(_read(args.graph, inputs))
    widths = exact_width_parameters(graph)
    report = {
        "tree_alpha": widths.tree_alpha,
        "tree_mu": widths.tree_mu,
        "treewidth": widths.treewidth,
        "witness_ordering": {
            "tree_alpha": [v + 1 for v in widths.alpha_ordering],
            "tree_mu": [v + 1 for v in widths.mu_ordering],
            "treewidth": [v + 1 for v in widths.treewidth_ordering],
        },
    }
    return 0, report, {}


def cmd_solve_mwis(args, inputs):
    graph, weights, met, nice = _load_nice(args, inputs)
    weight, solution = mwis_dp(graph, nice, weights, state_budget=args.budget)
    report = {
        "optimum": _rational(weight),
        "solution": _vertices(solution),
        "k": met.mu,
        "source": "measured-mu",
        "alpha": met.alpha,
    }
    verdicts = {"independent": graph.is_independent(solution), "weight_matches": weights.of_set(solution) == weight}
    return 0, report, verdicts


def cmd_solve_forest(args, inputs):
    from .oracles import is_induced_forest

    graph, weights, met, nice = _load_nice(args, inputs)
    weight, solution = mwif_dp(graph, nice, weights, provider=args.family, state_budget=args.budget)
    report = {
        "optimum": _rational(weight),
        "solution": _vertices(solution),
        "family": args.family,
        "k": met.mu,
        "source": "measured-mu",
        "alpha": met.alpha,
    }
    verdicts = {
        "induces_forest": is_induced_forest(graph, solution),
        "weight_matches": weights.of_set(solution) == weight,
    }
    return 0, report, verdicts


def cmd_solve_pack(args, inputs):
    graph, td, _ = _load_instance(args, inputs, need_weights=False)
    family = parse_subgraph_family(_read(args.family_file, inputs))
    sol = max_weight_independent_packing(graph, td, family, state_budget=args.budget)
    report = {"optimum": _rational(sol.weight), "chosen": list(sol.chosen)}
    verdicts = {"packing_valid": is_valid_packing(graph, family, sol.chosen) is None}
    return 0, report, verdicts


def cmd_solve_dpack(args, inputs):
    if args.d is None:
        raise InputError("dpack needs -d")
    graph, td, _ = _load_instance(args, inputs, need_weights=False)
    family = parse_subgraph_family(_read(args.family_file, inputs))
    sol = max_weight_distance_packing(graph, td, family, args.d, state_budget=args.budget)
    dist_ok = (
        len(sol.chosen) < 2 or packing_distance(graph, family, sol.chosen) >= args.d
    )
    report = {"optimum": _rational(sol.weight), "chosen": list(sol.chosen), "d": args.d}
    return 0, report, {"distance_respected": dist_ok}


def cmd_solve_ptas(args, inputs):
    from .packing import component_size_cap, treewidth_at_most

    if args.r is None or args.eps is None:
        raise InputError("ptas needs -r and --eps")
    graph, td, _ = _load_instance(args, inputs, need_weights=False)
    solution = ptas_bounded_treewidth_subgraph(graph, td, args.r, args.eps, state_budget=args.budget)
    cap = component_size_cap(args.r, args.eps)
    comps = graph.components_within(solution)
    report = {
        "size": popcount(solution),
        "solution": _vertices(solution),
        "r": args.r,
        "eps": _rational(args.eps, "eps"),
        "piece_cap": cap,
    }
    verdicts = {
        "pieces_small": all(popcount(c) <= cap for c in comps),
        "treewidth_ok": all(treewidth_at_most(graph, c, args.r) for c in comps),
    }
    return 0, report, verdicts


def cmd_solve_generic(args, inputs):
    if args.r is None:
        raise InputError("generic needs -r")
    graph, weights, met, nice = _load_nice(args, inputs)
    algebra = builtin_type_algebra(args.property)
    k_info = {"k": met.alpha, "source": "measured-alpha"}
    result = generic_structured_dp(graph, nice, weights, algebra, args.r, state_budget=args.budget)
    if result is None:
        return 1, {"feasible": False, "property": algebra.name, **k_info}, {}
    weight, solution = result
    report = {
        "optimum": _rational(weight),
        "solution": _vertices(solution),
        "property": algebra.name,
        "r": args.r,
        "state_vertex_cap": ramsey_upper(met.alpha + 1, args.r + 1),
        **k_info,
    }
    return 0, report, {"weight_matches": weights.of_set(solution) == weight}


def cmd_transform(args, inputs):
    # each optional input is read by one transform only
    for attr, name, what in (
        ("k", "-k", "power"), ("marked", "--marked", "forked"), ("family_file", "a family file", "blob")
    ):
        if getattr(args, attr) is not None and args.what != what:
            raise InputError(f"{name} is read by transform {what} only, not {args.what}")
    graph = parse_graph(_read(args.graph, inputs))
    if args.what == "power":
        if args.k is None:
            raise InputError("power transform needs -k")
        result = graph_power(graph, args.k)
        extra = {"k": args.k}
    elif args.what == "corona":
        result = corona(graph)
        extra = {}
    elif args.what == "l2":
        result, edge_map = line_graph_square(graph)
        extra = {"edge_of_vertex": {i + 1: [u + 1, v + 1] for i, (u, v) in enumerate(edge_map)}}
    elif args.what == "blob":
        if args.family_file is None:
            raise InputError("blob transform needs a family file")
        family = parse_subgraph_family(_read(args.family_file, inputs))
        result = blob_graph(graph, family)
        extra = {"members": len(family)}
    elif args.what == "forked":
        marked = []
        for entry in args.marked.split(",") if args.marked else ():
            try:
                v = int(entry)
            except ValueError:
                raise InputError(f"bad --marked entry {entry!r}") from None
            if not 1 <= v <= graph.n:
                raise InputError(f"--marked entry {entry!r} out of range 1..{graph.n}")
            marked.append(v - 1)
        result, roles = forked_version(graph, marked)
        extra = {"roles": list(roles)}
    else:
        raise InputError(f"unknown transform {args.what!r}")
    out = _write_output(serialize_graph(result), args.output)
    return 0, {"transform": args.what, "n": result.n, "m": result.m, **extra, **out}, {}


def cmd_recognize(args, inputs):
    graph = parse_graph(_read(args.graph, inputs))
    answer = recognize_imtw_at_most_1(graph)
    return 0, {"imtw_at_most_1": answer}, {}


def cmd_verify(args, inputs):
    if args.max_n < MIN_MAX_N:
        raise InputError(f"--max-n must be at least {MIN_MAX_N} for verify, got {args.max_n}")
    if args.max_n > MAX_MAX_N:
        raise InputError(f"--max-n must be at most {MAX_MAX_N} for verify, got {args.max_n}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or all")
    ok, results = run_suites(names, args.seed, args.max_n)
    return (0 if ok else 3), {"suites": results, "all_ok": ok}, {}


def _fraction(text):
    """``parse_rational(text)`` as an argparse type. argparse reports only
    ValueError and TypeError as invalid values, so the ZeroDivisionError of
    a zero denominator is turned into the same usage error."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


# Each flag once: its option strings and argparse settings.
FLAGS = {
    "k": (("-k",), {"type": int, "default": None, "help": "power exponent"}),
    "r": (("-r",), {"type": int, "default": None, "help": "treewidth or clique bound"}),
    "eps": (("--eps",), {"type": _fraction, "default": None, "help": "accuracy, e.g. 1/4"}),
    "d": (("-d",), {"type": int, "default": None, "help": "packing distance"}),
    "family": (("--family",), {"choices": ("paper", "exhaustive"), "default": "paper"}),
    "strategy": (("--strategy",), {"choices": ("min-fill", "min-degree"), "default": "min-fill"}),
    "seed": (("--seed",), {"type": int, "default": 42}),
    "max_n": (("--max-n",), {"type": int, "default": 8}),
    "budget": (
        ("--budget",),
        {
            "type": int,
            "default": DEFAULT_STATE_BUDGET,
            "help": "solve: DP state cap; decompose and metrics: search budget",
        },
    ),
    "output": (("-o", "--output"), {"default": None, "help": "write the artifact to a file"}),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage error, once argparse has written it to
    stderr, raises InputError for ``main`` to report; its subparsers share
    the class."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit:
            raise InputError(message) from None


@functools.cache
def build_parser():
    """The argparse tree, built on the first call and shared by every later
    ``main`` call in the process (parsing leaves the parser unchanged)."""
    parser = _Parser(prog="imtw", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, *names):
        """Attach the named flags, plus --timing, which every command takes."""
        for name in names:
            option_strings, settings = FLAGS[name]
            p.add_argument(*option_strings, **settings)
        p.add_argument("--timing", action="store_true", help="include wall time in the report")

    p = sub.add_parser("gen", help="generate a named graph")
    p.add_argument("kind", choices=sorted(GENERATORS))
    p.add_argument("params", nargs="*")
    flags(p, "seed", "output")

    p = sub.add_parser("decompose", help="heuristic tree decomposition")
    p.add_argument("graph")
    flags(p, "strategy", "budget", "output")

    p = sub.add_parser("metrics", help="exact alpha and mu of a decomposition")
    p.add_argument("graph")
    p.add_argument("td")
    flags(p, "budget")

    p = sub.add_parser("exact", help="exact width parameters (small graphs)")
    p.add_argument("graph")
    flags(p)

    solve = sub.add_parser("solve", help="run a solver").add_subparsers(
        dest="problem", required=True
    )
    for name, needs_family, needs_w, extra in (
        ("mwis", False, True, ()),
        ("forest", False, True, ("family",)),
        ("pack", True, False, ()),
        ("dpack", True, False, ("d",)),
        ("ptas", False, False, ("r", "eps")),
        ("generic", False, True, ("r",)),
    ):
        p = solve.add_parser(name)
        p.add_argument("graph")
        p.add_argument("td")
        if needs_family:
            p.add_argument("family_file")
        if needs_w:
            p.add_argument("-w", "--weights", default=None)
        if name == "generic":
            p.add_argument("--property", default="forest", help="forest | bipartite | max-degree:<d>")
        flags(p, "budget", *extra)

    p = sub.add_parser("transform", help="graph transformations")
    p.add_argument("what", choices=("power", "corona", "l2", "blob", "forked"))
    p.add_argument("graph")
    p.add_argument("family_file", nargs="?", default=None)
    p.add_argument("--marked", default=None, help="comma separated 1-based vertices")
    flags(p, "k", "output")

    p = sub.add_parser("recognize-imtw1", help="is induced matching treewidth at most 1")
    p.add_argument("graph")
    flags(p)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", default="all")
    flags(p, "seed", "max_n")

    return parser


HANDLERS = {
    "gen": cmd_gen,
    "decompose": cmd_decompose,
    "metrics": cmd_metrics,
    "exact": cmd_exact,
    ("solve", "mwis"): cmd_solve_mwis,
    ("solve", "forest"): cmd_solve_forest,
    ("solve", "pack"): cmd_solve_pack,
    ("solve", "dpack"): cmd_solve_dpack,
    ("solve", "ptas"): cmd_solve_ptas,
    ("solve", "generic"): cmd_solve_generic,
    "transform": cmd_transform,
    "recognize-imtw1": cmd_recognize,
    "verify": cmd_verify,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    inputs = {}
    report = {"command": ["imtw"] + argv, "inputs": inputs, "error": None}
    args = None
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and --version print and exit
            return exc.code
        started = time.perf_counter()
        key = (args.command, args.problem) if args.command == "solve" else args.command
        if getattr(args, "budget", 1) <= 0:
            raise InputError("budget must be positive")
        code, result, verification = HANDLERS[key](args, inputs)
        report["result"] = result
        report["verification"] = verification
        if verification and not all(verification.values()):
            code = 3
    except InputError as exc:
        report["error"] = {"type": "input", "message": str(exc)}
        code = 2
    except ResourceLimitError as exc:
        report["error"] = {"type": "resource", "message": str(exc)}
        code = 4
    except MemoryError as exc:
        # the traceback holds the solver's frames and so its tables: let
        # go of it before the report needs memory
        exc.__traceback__ = None
        report["error"] = {"type": "resource", "message": "out of memory"}
        code = 4
    except InvariantError as exc:
        report["error"] = {"type": "invariant", "message": str(exc)}
        code = 3
    except Exception as exc:  # the report stays complete JSON even on bugs
        report["error"] = {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}
        code = 5
    if getattr(args, "timing", False):
        report["wall_time_ms"] = round(1000 * (time.perf_counter() - started), 1)
    print(json.dumps(report, sort_keys=True, indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())
