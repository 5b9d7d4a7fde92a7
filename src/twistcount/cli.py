"""Command-line front end.

Graphs come in as JSON ({"vertices": [{"genus": 0, "legs": [1]}, ...],
"edges": [{"tail": 0, "head": 0, "stabilizer": 2}, ...]}, 0-based), from a
file or stdin ("-").  Output is JSON by default, TSV on request.  Exit
codes: 0 success, 1 domain error, 2 usage error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from fractions import Fraction

from . import exactalg, graphs, orbits, picard


class ParseError(ValueError):
    pass


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


def parse_graph_data(data) -> graphs.DualGraph:
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")
    vertices = data.get("vertices")
    edges = data.get("edges", [])
    if not isinstance(vertices, list) or not vertices:
        raise ParseError("vertices: expected a non-empty array")
    if not isinstance(edges, list):
        raise ParseError("edges: expected an array")
    vs = []
    for i, item in enumerate(vertices):
        if not isinstance(item, dict):
            raise ParseError(f"vertices[{i}]: expected an object")
        g = item.get("genus")
        legs = item.get("legs", [])
        if not _is_int(g) or g < 0:
            raise ParseError(f"vertices[{i}].genus: expected a nonnegative integer")
        if not isinstance(legs, list) or not all(_is_int(x) for x in legs):
            raise ParseError(f"vertices[{i}].legs: expected an array of integers")
        vs.append(graphs.Vertex(g, tuple(legs)))
    es = []
    for k, item in enumerate(edges):
        if not isinstance(item, dict):
            raise ParseError(f"edges[{k}]: expected an object")
        tail = item.get("tail")
        head = item.get("head")
        stab = item.get("stabilizer", 1)
        for field, value in (("tail", tail), ("head", head), ("stabilizer", stab)):
            if not _is_int(value):
                raise ParseError(f"edges[{k}].{field}: expected an integer")
        es.append(graphs.Edge(tail, head, stab))
    return graphs.DualGraph(tuple(vs), tuple(es))


def _read_json(path: str):
    """The JSON value in the UTF-8 file at path, or on stdin for "-".
    Every way the file can fail to give one raises a ParseError naming it."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "rb") as fh:
                text = fh.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not UTF-8 text") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: arrays or objects nested too deeply") from exc
    except ValueError as exc:
        # The interpreter's int-from-str digit limit guards the parser.
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{path}: an integer has more than {limit} digits") from exc


def parse_graph(path: str) -> graphs.DualGraph:
    return parse_graph_data(_read_json(path))


def _vertex_dict(v: graphs.Vertex) -> dict:
    return {"genus": v.genus, "legs": list(v.legs)}


def _edge_dict(e: graphs.Edge) -> dict:
    return {"tail": e.tail, "head": e.head, "stabilizer": e.stabilizer}


def emit_graph(G: graphs.DualGraph) -> dict:
    return {
        "vertices": [_vertex_dict(v) for v in G.vertices],
        "edges": [_edge_dict(e) for e in G.edges],
    }


class _GraphList:
    """Graphs that _emit writes as the list of their emit_graph dicts,
    without building one dict per graph."""

    __slots__ = ("graphs",)

    def __init__(self, found: list[graphs.DualGraph]):
        self.graphs = found


def emit_bundle(F: picard.LineBundleData) -> dict:
    """The --bundle-file form of a bundle."""
    return {"int_part": list(F.int_part), "mult": list(F.mult)}


def parse_bundle_spec(spec: str, G: graphs.DualGraph) -> picard.LineBundleData:
    """Builder string omega:k=K[,h=ID:VAL,...]."""
    head, _, rest = spec.partition(":")
    if head != "omega":
        raise ParseError(f"unknown bundle builder {head!r}")
    k = 1
    weights = {}
    if rest:
        for piece in rest.split(","):
            key, _, value = piece.partition("=")
            if key == "k":
                k = _int_field(value, "bundle k")
            elif key == "h":
                leg, _, val = value.partition(":")
                weights[_int_field(leg, "bundle leg")] = _int_field(val, "bundle weight")
            else:
                raise ParseError(f"unknown bundle field {key!r}")
    return picard.omega_bundle(G, k, weights)


def parse_bundle_file(path: str, G: graphs.DualGraph) -> picard.LineBundleData:
    data = _read_json(path)
    if not isinstance(data, dict) or "int_part" not in data or "mult" not in data:
        raise ParseError(f"{path}: expected an object with int_part and mult")
    for field in ("int_part", "mult"):
        value = data[field]
        if not isinstance(value, list) or not all(_is_int(x) for x in value):
            raise ParseError(f"{path}: {field}: expected an array of integers")
    return picard.line_bundle(G, data["int_part"], data["mult"])


def load_bundle(args, G: graphs.DualGraph) -> picard.LineBundleData:
    if args.bundle_file:
        return parse_bundle_file(args.bundle_file, G)
    return parse_bundle_spec(args.bundle, G)


def _json_default(value):
    """Exact rationals are written as strings such as "3/2"."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# json.dumps(value, separators=(",", ":"), default=_json_default) and
# json.dumps(value, default=_json_default), with the encoder built once.
_COMPACT = json.JSONEncoder(separators=(",", ":"), default=_json_default)
_SPACED = json.JSONEncoder(default=_json_default)


def _emit(payload: dict, fmt: str) -> None:
    """Write payload to stdout as one JSON object, or as a TSV line of keys
    and a line of cells.  A member that is a list, an iterator or a
    _GraphList is written one item at a time, so a --list holds one item at
    a time; the bytes are those of one json.dumps of the whole payload."""
    write = sys.stdout.write
    if fmt == "json":
        write("{")
        sep = ""
        for key, value in payload.items():
            write(f"{sep}{_COMPACT.encode(key)}:")
            _write_value(write, value, _COMPACT)
            sep = ","
        write("}\n")
    else:
        write("\t".join(payload) + "\n")
        sep = ""
        for value in payload.values():
            write(sep)
            if isinstance(value, (list, tuple, dict, Iterator, _GraphList)):
                _write_value(write, value, _SPACED)
            else:
                write(str(value))
            sep = "\t"
        write("\n")


def _write_value(write, value, encoder: json.JSONEncoder) -> None:
    if isinstance(value, _GraphList):
        _write_graphs(write, value, encoder)
        return
    if not isinstance(value, (list, Iterator)):
        write(encoder.encode(value))
        return
    write("[")
    between = ""
    # map drops each item once it is encoded, before it makes the next one.
    for text in map(encoder.encode, value):
        write(between + text)
        between = encoder.item_separator
    write("]")


def _write_graphs(write, found: _GraphList, encoder: json.JSONEncoder) -> None:
    """Write [emit_graph(G) for G in found] as encoder writes it, each graph
    from the text of its vertices and of each of its edges.  The memos live
    for this call: vertex text per vertices tuple, one per shape, and edge
    text per Edge, which the enumeration shares across the decorations of
    a shape.  They are keyed by id, which no object reuses here: the list
    found.graphs holds every graph, and so every tuple and Edge, until the
    call ends."""
    encode, item = encoder.encode, encoder.item_separator
    vertex_text: dict[int, str] = {}
    edge_text: dict[int, str] = {}

    def new_vertex_text(vs) -> str:
        text = "[" + item.join([encode(_vertex_dict(v)) for v in vs]) + "]"
        vertex_text[id(vs)] = text
        return text

    def new_edge_text(e) -> str:
        text = edge_text[id(e)] = encode(_edge_dict(e))
        return text

    vertex_get, edge_get = vertex_text.get, edge_text.get
    head = "{" + encode("vertices") + encoder.key_separator
    middle = item + encode("edges") + encoder.key_separator + "["
    write("[")
    between = ""
    for G in found.graphs:
        vs = G.vertices
        edges = item.join([edge_get(id(e)) or new_edge_text(e) for e in G.edges])
        vertices = vertex_get(id(vs)) or new_vertex_text(vs)
        write(f"{between}{head}{vertices}{middle}{edges}]}}")
        between = item
    write("]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tc",
        description="Exact computations on dual graphs of twisted nodal curves.",
    )
    # Each option is declared once, on a parent shared by the subcommands
    # that read it; any other subcommand rejects it as unknown.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "tsv"), default="json")
    bundle = argparse.ArgumentParser(add_help=False)
    group = bundle.add_mutually_exclusive_group()
    group.add_argument("--bundle", default="omega:k=1")
    group.add_argument("--bundle-file")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--max-domain", type=int, default=picard.DEFAULT_MAX_DOMAIN)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *parents):
        return sub.add_parser(name, parents=[fmt, *parents], help=summary)

    p = command("genus", "arithmetic genus of a graph")
    p.add_argument("graph")

    p = command("classify", "node type of an edge")
    p.add_argument("graph")
    p.add_argument("-e", "--edge", type=int, required=True)

    p = command("torsion", "number of r-torsion classes")
    p.add_argument("graph")
    p.add_argument("-r", type=int, required=True)

    p = command("roots", "number of r-th roots of a bundle", bundle, cap)
    p.add_argument("graph")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--list", action="store_true", help="include the discrete roots, not just the count")

    p = command("criterion", "edge criterion for the maximal root count", bundle)
    p.add_argument("graph")
    p.add_argument("-r", type=int, required=True)

    p = command("lift", "membership and lift through the boundary map")
    p.add_argument("graph")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-t", "--target", required=True, help="comma-separated residues, one per vertex")

    p = command("orbits", "ghost orbits on root classes", bundle, cap)
    p.add_argument("graph")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--involution", action="store_true")
    p.add_argument("--nontrivial", action="store_true")

    p = command("enumerate", "stable decorated graphs up to isomorphism")
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-n", "--legs", type=int, default=0)
    p.add_argument("--stabilizers", default="1", help="comma-separated choices")
    p.add_argument("--list", action="store_true", help="include the graphs, not just the count")

    p = command("verify-rootsnum", "criterion vs counted roots over a family")
    p.add_argument("-g", type=int, required=True)
    p.add_argument("--stabilizers", default="1,2,3,4,6")
    p.add_argument("-r", "--orders", default="2,3,4,6")
    p.add_argument("--random-bundles", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    p = command("verify-cond", "stability-profile equivalence sweep")
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-l", "--profile", required=True, help="comma-separated multiindex")
    p.add_argument("-k", type=int, default=1)

    p = command("nr", "profile of the nontrivial genus-1 spin cover")
    p.add_argument("-r", type=int, required=True)

    p = command("ratio", "automorphism order ratio r^m / prod(d_i)")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-d", "--stabilizers", default="", help="comma-separated d_i")

    return parser


def _int_field(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what}: expected an integer, got {text!r}") from None


def _csv_ints(text: str) -> list[int]:
    if not text:
        return []
    return [_int_field(piece, "comma-separated list") for piece in text.split(",")]


def run(args) -> dict:
    if args.command == "genus":
        G = parse_graph(args.graph)
        return {"genus": graphs.genus(G)}
    if args.command == "classify":
        G = parse_graph(args.graph)
        node = graphs.classify_node(G, args.edge)
        out = {"separating": node.separating, "type": node.index}
        if node.separating:
            out["plus_vertices"] = sorted(node.plus_vertices)
            out["minus_vertices"] = sorted(node.minus_vertices)
        return out
    if args.command == "torsion":
        G = parse_graph(args.graph)
        return {"torsion_count": picard.torsion_count(G, args.r)}
    if args.command == "roots":
        G = parse_graph(args.graph)
        F = load_bundle(args, G)
        out = {"count": picard.count_roots(G, F, args.r)}
        if args.list:
            roots = picard.enumerate_discrete_roots(G, F, args.r, args.max_domain)
            out["roots"] = map(emit_bundle, roots)
        return out
    if args.command == "criterion":
        G = parse_graph(args.graph)
        F = load_bundle(args, G)
        passed, witnesses = picard.root_count_criterion(G, F, args.r)
        return {
            "criterion": passed,
            "witnesses": [
                {"edge": e, "condition": what, "value": v}
                for e, what, v in witnesses
            ],
        }
    if args.command == "lift":
        G = parse_graph(args.graph)
        t = _csv_ints(args.target)
        lift = picard.delta_image_lift(G, args.r, t)
        # An edgeless graph lifts to (), which is still a member.
        member = lift is not None
        return {"member": member, "lift": list(lift) if member else None}
    if args.command == "orbits":
        G = parse_graph(args.graph)
        F = load_bundle(args, G)
        n, sizes = orbits.orbit_count(
            G, F, args.r, args.involution, nontrivial=args.nontrivial, max_domain=args.max_domain
        )
        return {"classes": sum(sizes), "orbits": n, "sizes": sizes}
    if args.command == "enumerate":
        found = graphs.enumerate_stable_graphs(args.g, args.legs, _csv_ints(args.stabilizers))
        out = {"count": len(found)}
        if args.list:
            out["graphs"] = _GraphList(found)
        return out
    if args.command == "verify-rootsnum":
        if args.random_bundles < 0:
            raise ParseError(f"--random-bundles: {args.random_bundles} < 0")
        if args.jobs < 1:
            raise ParseError(f"--jobs: {args.jobs} < 1")
        orders = _csv_ints(args.orders)
        if not orders:
            raise ParseError("--orders: expected at least one order")
        picard.checked_orders(orders)
        family = graphs.enumerate_stable_graphs(args.g, 0, _csv_ints(args.stabilizers))
        discrepancies, checked = picard.verify_rootsnum(
            family,
            orders,
            n_random=args.random_bundles,
            seed=args.seed,
            jobs=args.jobs,
        )
        return {
            "graphs": len(family),
            "checked": checked,
            "discrepancies": (
                {
                    "graph": emit_graph(rec.graph),
                    "r": rec.r,
                    "bundle": emit_bundle(rec.bundle),
                    "criterion": rec.criterion,
                    "count": rec.count,
                    "expected": rec.expected,
                }
                for rec in discrepancies
            ),
        }
    if args.command == "verify-cond":
        report = orbits.verify_cond(
            args.g,
            args.r,
            graphs.MultiIndex.of(_csv_ints(args.profile)),
            args.k,
        )
        return {
            "equivalent": report.equivalent,
            "condition": report.condition,
            "all_maximal": report.all_maximal,
            "hypothesis_ok": report.hypothesis_ok,
            "witnesses": (
                {"graph": emit_graph(G), "count": n} for G, n in report.witnesses
            ),
        }
    if args.command == "nr":
        rep = orbits.nr_report(args.r)
        return {
            "degree": rep.degree,
            "j1728": rep.n_j1728,
            "j0": rep.n_j0,
            "cusp": rep.n_cusp,
            "chi": rep.euler,
            "genus": rep.genus_nr,
        }
    if args.command == "ratio":
        value = orbits.aut_order_ratio(args.r, _csv_ints(args.stabilizers))
        # The Fraction is written as a string by _json_default, in _emit,
        # where results may pass the int-to-str digit limit.
        return {
            "ratio": value,
            "numerator": value.numerator,
            "denominator": value.denominator,
        }
    raise AssertionError(f"unhandled command {args.command}")


DOMAIN_ERRORS = (
    ParseError,
    graphs.GraphError,
    exactalg.AlgebraError,
    picard.PicardError,
    orbits.OrbitError,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = run(args)
    except DOMAIN_ERRORS as exc:
        print(f"tc: error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError):
        # A cap such as --max-domain lifted past what a list can hold.
        print("tc: error: the result does not fit in memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("tc: interrupted", file=sys.stderr)
        return 130
    # Results are exact, so they are written in full, past the int-to-str
    # digit limit that guards the input.  Interpreters before 3.10.7 have
    # no limit, and 0 means none.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device so that
        # the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        # Part of the output may already be written.
        print("tc: interrupted", file=sys.stderr)
        return 130
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
