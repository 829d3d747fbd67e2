"""Command-line front end.

Subcommands: ``deduce`` (the polynomial procedures), ``oracle`` (the same
queries by exhaustive enumeration, for debugging), ``convert`` (Horn CNF to
characteristic set) and ``gen`` (random / reduction instances plus a JSON
manifest).

Exit codes follow the grep convention: 0 = entailed (YES), 1 = not entailed
(NO), 2 = error or resource cap.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial
from pathlib import Path

from .core import (
    Clause,
    Decision,
    EnumerationLimitError,
    ParseError,
    eval_clause,
    parse_horn_cnf,
    parse_model_set,
    serialize_horn_cnf,
    serialize_model_set,
)
from .engine import characteristic_set, intersection_closure
from .envelope import deduce_envelope_charset, deduce_envelope_formula
from .exterior import deduce_exterior_charset, deduce_exterior_formula
from .gen import (
    Graph,
    has_independent_set,
    independent_set_instance,
    interior_consistency_instance,
    min_vertex_cover_size,
    named_graph,
    random_horn,
    vertex_cover_instance,
)
from .interior import deduce_interior_charset, deduce_interior_formula
from .oracle import (_check_n, all_models, envelope_models, exterior_models, interior_models,
                     oracle_deduce)


def _graph_from_spec(spec: str) -> Graph:
    """Either a named family (``k3``, ``p4``, ``c5``, ``e4``) or an explicit
    ``nv:u-v,u-v`` edge list."""
    if ":" in spec:
        head, _, tail = spec.partition(":")
        nv = int(head)
        edges = []
        if tail:
            for part in tail.split(","):
                u, _, v = part.partition("-")
                edges.append((int(u), int(v)))
        return Graph(nv, tuple(edges))
    return named_graph(spec)


def _finish(decision: Decision, want_witness: bool) -> int:
    print(decision.answer)
    if want_witness and decision.witness is not None:
        print(f"witness {decision.witness.to01()}")
    return 0 if decision.entailed else 1


def cmd_deduce(args: argparse.Namespace) -> int:
    clause = Clause.from_literals([int(tok) for tok in args.clause.split()])
    # Each deduce_* name is looked up each time this runs, so rebinding a
    # module global (a test's monkeypatch, a profiler's wrapper) reaches it.
    # Only exterior-charset takes the enumeration side.
    if args.theory:
        kb = parse_horn_cnf(Path(args.theory).read_text())
        route = {"interior": deduce_interior_formula, "exterior": deduce_exterior_formula,
                 "envelope": deduce_envelope_formula}[args.mode]
    else:
        kb = parse_model_set(Path(args.charset).read_text())
        route = {"interior": deduce_interior_charset,
                 "exterior": partial(deduce_exterior_charset, method=args.method),
                 "envelope": deduce_envelope_charset}[args.mode]
    return _finish(route(kb, clause, args.alpha), args.witness)


def cmd_oracle(args: argparse.Namespace) -> int:
    clause = Clause.from_literals([int(tok) for tok in args.clause.split()])
    if args.theory:
        base = all_models(parse_horn_cnf(Path(args.theory).read_text()))
    else:
        # The charset's closure is its full model set.  n is capped before
        # it closes: the closure can grow toward 2^n members.
        charset = parse_model_set(Path(args.charset).read_text())
        _check_n(charset.n)
        base = intersection_closure(charset)
    if args.mode == "interior":
        target = interior_models(base, args.alpha)
    elif args.mode == "exterior":
        target = exterior_models(base, args.alpha)
    else:
        target = envelope_models(exterior_models(base, args.alpha))
    entailed = oracle_deduce(target, clause)
    witness = None
    if not entailed and args.witness:
        witness = next(m for m in target if not eval_clause(clause, m))
    return _finish(Decision(entailed, witness=witness), args.witness)


def cmd_convert(args: argparse.Namespace) -> int:
    theory = parse_horn_cnf(Path(args.input).read_text())
    charset = characteristic_set(all_models(theory))
    text = serialize_model_set(charset)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _write_instance(out_dir: Path, stem: str, payload: dict, files: dict[str, str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for suffix, text in files.items():
        path = out_dir / f"{stem}{suffix}"
        path.write_text(text)
        written[suffix.lstrip(".")] = path.name
    payload["files"] = written
    manifest = out_dir / f"{stem}.manifest.json"
    manifest.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {stem}* to {out_dir}")


def cmd_gen(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    if args.random:
        theory = random_horn(args.n, args.m, args.max_len, args.neg_only, args.seed)
        stem = f"random_n{args.n}_m{args.m}_s{args.seed}"
        payload = {
            "kind": "random",
            "n": args.n,
            "m": args.m,
            "max_len": args.max_len,
            "neg_only": args.neg_only,
            "seed": args.seed,
            "clauses": len(theory.clauses),
            "size": theory.size,
        }
        _write_instance(out_dir, stem, payload, {".hcnf": serialize_horn_cnf(theory)})
        return 0

    graph = _graph_from_spec(args.graph)
    safe_spec = re.sub(r"[^A-Za-z0-9]+", "-", args.graph)
    stem = f"{args.reduction}_{safe_spec}_k{args.k}"
    payload = {
        "kind": "reduction",
        "reduction": args.reduction,
        "graph": {"nv": graph.nv, "edges": [list(e) for e in graph.edges]},
        "k": args.k,
        "expected_source": "brute-force graph search",
    }
    if args.reduction == "independent-set":
        theory, clause, alpha = independent_set_instance(graph, args.k)
        payload["alpha"] = alpha
        payload["query"] = " ".join(str(l) for l in clause.literals())
        payload["expected"] = "NO" if has_independent_set(graph, args.k) else "YES"
        files = {".hcnf": serialize_horn_cnf(theory)}
    elif args.reduction == "interior-consistency":
        charset, alpha = interior_consistency_instance(graph, args.k)
        payload["alpha"] = alpha
        payload["query"] = ""
        payload["expected"] = "YES" if has_independent_set(graph, args.k) else "NO"
        files = {".models": serialize_model_set(charset)}
    else:  # vertex-cover
        charset, clause, alpha = vertex_cover_instance(graph, args.k)
        payload["alpha"] = alpha
        payload["query"] = " ".join(str(l) for l in clause.literals())
        payload["expected"] = "NO" if min_vertex_cover_size(graph) <= args.k else "YES"
        files = {".models": serialize_model_set(charset)}
    _write_instance(out_dir, stem, payload, files)
    return 0


def _add_query_arguments(sub: argparse.ArgumentParser, with_method: bool) -> None:
    sub.add_argument("--mode", choices=["interior", "exterior", "envelope"], required=True)
    sub.add_argument("--alpha", type=int, required=True)
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--theory", metavar="FILE.hcnf")
    source.add_argument("--charset", metavar="FILE.models")
    sub.add_argument(
        "--clause",
        required=True,
        help='query clause as signed literals, e.g. "-1 -2 3"; empty string = empty clause',
    )
    if with_method:
        sub.add_argument(
            "--method",
            choices=["neg", "pos", "auto"],
            default="auto",
            help="enumeration side for charset exterior queries",
        )
    sub.add_argument("--witness", action="store_true", help="print a countermodel on NO")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornsafe",
        description="Deduction for interiors, exteriors, and Horn envelopes of Horn theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    deduce = sub.add_parser("deduce", help="answer a query with the polynomial procedures")
    _add_query_arguments(deduce, with_method=True)
    deduce.set_defaults(func=cmd_deduce)

    oracle = sub.add_parser("oracle", help="answer a query by exhaustive enumeration (n <= 24)")
    _add_query_arguments(oracle, with_method=False)
    oracle.set_defaults(func=cmd_oracle)

    convert = sub.add_parser("convert", help="convert a Horn CNF to its characteristic set")
    convert.add_argument("input", metavar="FILE.hcnf")
    convert.add_argument("--to", choices=["charset"], required=True)
    convert.add_argument("-o", "--output", metavar="FILE.models")
    convert.set_defaults(func=cmd_convert)

    gen = sub.add_parser("gen", help="generate instances plus a JSON manifest")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--random", action="store_true")
    kind.add_argument(
        "--reduction",
        choices=["independent-set", "interior-consistency", "vertex-cover"],
    )
    gen.add_argument("--graph", help="named graph (k3, p4, c5, e4) or 'nv:u-v,u-v'")
    gen.add_argument("--k", type=int, help="parameter of the reduction")
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--m", type=int, default=10)
    gen.add_argument("--max-len", type=int, default=3)
    gen.add_argument("--neg-only", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".")
    gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.reduction and (not args.graph or args.k is None):
        parser.error("--reduction requires --graph and --k")
    try:
        return args.func(args)
    except (ParseError, EnumerationLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
