"""Command-line front end.

Every subcommand reads shapes, tableaux and embeddings as inline JSON or
as a path to a JSON file, and writes JSON (default), DOT (Hasse
diagrams) or plain text.  Exit codes: 0 success, 1 verification failure,
2 bad input, 3 guard exceeded (the census work budget, or memory).

The package has no runtime dependency.  Start-up loads only this module,
``tableaux`` and what it needs; every handler imports the rest of what it
runs: ``boxmoves`` for ``orders``, ``hasse`` and ``dom2box``, ``poles``
for ``decompose``, and ``nilmod``, ``witness``, ``oracle`` or
``worked_examples`` for the numeric subcommands.  So ``enumerate`` loads
neither box moves nor poles, and no combinatorial subcommand loads the
finite-field engine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import GuardExceeded, InvariantViolation
from .tableaux import LRTableau, Shape, enumerate_tableaux, from_word, reading_word

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_BAD_INPUT = 2
EXIT_GUARD = 3


def _load_json(arg: str):
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        try:
            data = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"argument is neither a file nor valid JSON: {arg!r}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return data


def _shape(arg: str) -> Shape:
    return Shape.from_json(_load_json(arg))


def _tableau(arg: str) -> LRTableau:
    return LRTableau.from_json(_load_json(arg))


def _embedding(arg: str):
    from .nilmod import Embedding
    return Embedding.from_json(_load_json(arg))


def _word(arg: str) -> tuple[int, ...]:
    return tuple(int(x) for x in arg.split(","))


def _emit(args, payload, text_lines=None):
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")  # one write, not one per chunk
    else:
        for line in text_lines or [json.dumps(payload)]:
            print(line)


def _cmd_enumerate(args) -> int:
    shape = _shape(args.shape)
    ts = enumerate_tableaux(shape)
    payload = {"count": len(ts), "tableaux": [t.to_json() for t in ts]}
    _emit(args, payload,
          [f"{len(ts)} tableaux"] + [str(list(reading_word(t))) for t in ts])
    return EXIT_OK


def _cmd_orders(args) -> int:
    from .boxmoves import relation_matrix
    shape = _shape(args.shape)
    ts = enumerate_tableaux(shape)
    leq = relation_matrix(ts, args.relation)
    payload = {
        "relation": args.relation,
        "words": [list(reading_word(t)) for t in ts],
        "leq": [[bool(x) for x in row] for row in leq],
    }
    lines = [f"{args.relation} order on {len(ts)} tableaux"]
    for i, row in enumerate(leq):
        lines.append(f"{list(reading_word(ts[i]))}: {''.join('1' if x else '0' for x in row)}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_hasse(args) -> int:
    from .boxmoves import hasse
    shape = _shape(args.shape)
    ts = enumerate_tableaux(shape)
    diagram = hasse(ts, args.relation)
    if args.format == "dot":
        print(diagram.to_dot())
    else:
        _emit(args, diagram.to_json(), diagram.to_dot().splitlines())
    return EXIT_OK


def _cmd_dom2box(args) -> int:
    from .boxmoves import dom_to_box_chain
    shape = _shape(args.shape)
    low = from_word(shape, _word(args.frm))
    high = from_word(shape, _word(args.to))
    chain = dom_to_box_chain(low, high, pick_l_first=args.pick_l)
    steps = [list(reading_word(t)) for t in reversed(chain)]
    payload = {
        "chain": [t.to_json() for t in chain],
        "words": [list(reading_word(t)) for t in chain],
        "steps_from_top": steps,
        "moves": len(chain) - 1,
    }
    _emit(args, payload,
          [f"{len(chain) - 1} box moves"] + [str(w) for w in steps])
    return EXIT_OK


def _cmd_decompose(args) -> int:
    from .poles import pole_decomposition
    t = _tableau(args.tableau)
    parts = pole_decomposition(t)
    payload = {"constituents": [ep.to_json() for ep in parts]}
    lines = []
    for ep in parts:
        if ep.pole is not None:
            lines.append(f"pole layers={list(ep.pole.layers)} ambient={list(ep.pole.ambient)}")
        else:
            lines.append(f"empty pickets {list(ep.empty_pickets)}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_realize(args) -> int:
    from .nilmod import realize_tableau
    t = _tableau(args.tableau)
    E = realize_tableau(t, args.prime)
    _emit(args, E.to_json(), [repr(E)])
    return EXIT_OK


def _cmd_tableau(args) -> int:
    from .nilmod import tableau_of_embedding
    E = _embedding(args.embedding)
    t = tableau_of_embedding(E)
    _emit(args, t.to_json(), [str([list(c) for c in t.chain])])
    return EXIT_OK


def _cmd_witness(args) -> int:
    from .boxmoves import move_between
    from .witness import witness_sequence
    shape = _shape(args.shape)
    low = from_word(shape, _word(args.frm))
    high = from_word(shape, _word(args.to))
    move = move_between(low, high)
    if move is None:
        raise ValueError("the two tableaux are not one box move apart")
    if args.move:
        u, v = (int(x) for x in args.move.split(","))
        if (move.u, move.v) != (u, v):
            raise ValueError(
                f"stated move {u},{v} does not match the actual move "
                f"{move.u},{move.v}"
            )
    ws = witness_sequence(low, high, move, args.prime)
    _emit(args, ws.to_json(),
          [f"verified: {all(ws.report.values())}"]
          + [f"  {k}: {'ok' if v else 'FAIL'}" for k, v in ws.report.items()])
    return EXIT_OK


def _cmd_hom(args) -> int:
    from .nilmod import hom_dim
    E1, E2 = _embedding(args.e1), _embedding(args.e2)
    payload = {"hom_dim": hom_dim(E1, E2)}
    _emit(args, payload, [str(payload["hom_dim"])])
    return EXIT_OK


def _cmd_profile(args) -> int:
    from .nilmod import picket_hom_profile
    E = _embedding(args.embedding)
    max_i = args.max_i if args.max_i is not None else (E.alpha[0] if E.alpha else 0)
    max_ell = args.max_l if args.max_l is not None else (E.beta[0] if E.beta else 1)
    table = picket_hom_profile(E, max_i, max_ell)
    payload = {"max_i": max_i, "max_ell": max_ell, "profile": table}
    _emit(args, payload, [f"i={i}: {row}" for i, row in enumerate(table)])
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import enumerate_submodules
    shape = _shape(args.shape)
    census = enumerate_submodules(shape, args.prime, slow=args.slow)
    payload = census.to_json()
    lines = [
        f"total submodules of the requested type: {census.total_submodules}",
        f"classes: {len(census.classes)}",
    ] + [
        f"  word {list(reading_word(c.tableau))}: {c.submodule_count} submodules"
        for c in census.classes
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_paper_examples(args) -> int:
    from .worked_examples import run_registry
    results, ok = run_registry(slow=args.slow)
    for name, good, msg in results:
        print(f"{'PASS' if good else 'FAIL'} {name}" + (f"  [{msg}]" if msg else ""))
    print(f"{sum(1 for _, g, _ in results if g)}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrlab",
        description="Tableaux of a fixed shape, their orders, pole "
        "decompositions, and finite-field realizations.",
    )
    parser.add_argument("--format", choices=["json", "dot", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        # accept --format on either side of the subcommand
        sp.add_argument("--format", choices=["json", "dot", "text"],
                        default=argparse.SUPPRESS)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("enumerate", _cmd_enumerate, help="all tableaux of a shape")
    sp.add_argument("shape")

    sp = add("orders", _cmd_orders, help="full relation matrix on a shape")
    sp.add_argument("shape")
    sp.add_argument("--relation", choices=["dom", "box"], required=True)

    sp = add("hasse", _cmd_hasse, help="Hasse diagram of a shape")
    sp.add_argument("shape")
    sp.add_argument("--relation", choices=["dom", "box"], required=True)

    sp = add("dom2box", _cmd_dom2box, help="box-move chain between dominance-comparable tableaux")
    sp.add_argument("shape")
    sp.add_argument("--from", dest="frm", required=True, help="reading word, comma separated")
    sp.add_argument("--to", required=True, help="reading word, comma separated")
    sp.add_argument("--pick-l", dest="pick_l", type=int, default=None,
                    help="override the word position chosen in the first step (1-based)")

    sp = add("decompose", _cmd_decompose, help="pole decomposition of a tableau")
    sp.add_argument("tableau")

    sp = add("realize", _cmd_realize, help="realize a tableau as an embedding")
    sp.add_argument("tableau")
    sp.add_argument("-p", "--prime", type=int, default=2)

    sp = add("tableau", _cmd_tableau, help="tableau of an embedding")
    sp.add_argument("embedding")

    sp = add("witness", _cmd_witness, help="exact-sequence witness for one box move")
    sp.add_argument("shape")
    sp.add_argument("--from", dest="frm", required=True)
    sp.add_argument("--to", required=True)
    sp.add_argument("--move", default=None, help="expected entries u,v for cross-checking")
    sp.add_argument("-p", "--prime", type=int, default=2)

    sp = add("hom", _cmd_hom, help="hom dimension between two embeddings")
    sp.add_argument("e1")
    sp.add_argument("e2")

    sp = add("profile", _cmd_profile, help="picket-hom table of an embedding")
    sp.add_argument("embedding")
    sp.add_argument("--max-i", type=int, default=None)
    sp.add_argument("--max-l", type=int, default=None)

    sp = add("oracle", _cmd_oracle, help="brute-force submodule census")
    sp.add_argument("shape")
    sp.add_argument("-p", "--prime", type=int, default=2)
    sp.add_argument("--slow", action="store_true",
                    help="bypass the enumeration guard")

    sp = add("paper-examples", _cmd_paper_examples,
             help="re-run the bundled worked examples and report pass/fail")
    sp.add_argument("--slow", action="store_true",
                    help="include the long-running census check")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GuardExceeded, MemoryError) as exc:
        print(f"guard exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, KeyError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
