"""Command-line interface.

Subcommands: classes, decompose, construct, constituents, bound, distance,
search, family, verify-paper.  Human-readable text by default; --json emits
machine-readable documents built from the same descriptors the library
reads.  Each handler returns its document and its text lines, and `main`
alone prints one of them (the text after the version banner).  The parser
is built at the first `main` call of a process and reused by the next ones.
Exit codes: 0 success, 2 bad usage or bad input, 3 enumeration cap
exceeded, 4 internal invariant violation (including reference-suite
regressions).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from functools import lru_cache

from . import __version__
from .algebra import AbelianGroup, modulus_str
from .concatenation import (constituent_entry, constituents_of, distance_bound,
                            qa_from_descriptor, qa_to_descriptor)
from .errors import CapExceededError, InvariantError
from .families import FamilySpec, builtin_lcd_outers, family_report
from .idempotents import cyclotomic_classes, decompose_algebra
from .linear_codes import (DEFAULT_CODEWORD_CAP, DEFAULT_SUBSPACE_CAP,
                           _json_value, code_from_descriptor, code_to_descriptor)
from .reference import run_reference_suite
from .search import Caps, SearchSpec, search


def integer(text: str) -> int:
    """An integer written as an optional '-' and ASCII digits, the one form
    the CLI reads for an option or a group order (`int` alone also takes
    spaces, '+', '_' and other scripts' digits).  argparse names the type
    after this function: "invalid integer value"."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{text!r} is not an optional '-' followed by ASCII digits")
    return int(text)


def _parse_group(text: str) -> AbelianGroup:
    try:
        orders = [integer(t) for t in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad group {text!r}: order {exc}") from exc
    try:
        return AbelianGroup(orders)
    except ValueError as exc:
        raise ValueError(f"bad group {text!r}: {exc}") from exc


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _json_text(doc) -> str:
    """`doc` as indented, key-sorted JSON and a newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_json(path: str | None, doc) -> None:
    """Write `doc` to the --out path, if one was given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json_text(doc))


def _compact(coords) -> str:
    """Group coordinates as a list without spaces, e.g. [1,0]."""
    return str(list(coords)).replace(" ", "")


def _params_doc(params) -> dict:
    doc = {"length": params.length, "dim": params.dim}
    if params.distance is not None:
        doc["distance"] = params.distance
    if params.distance_lower_bound is not None:
        doc["distance_lower_bound"] = params.distance_lower_bound
    return doc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its --json document and its text lines

def _cmd_classes(args) -> tuple[dict, list[str]]:
    group = _parse_group(args.group)
    # the field degrees are the class sizes, so no splitting field is built
    classes = cyclotomic_classes(group, args.q)
    doc = {
        "q": args.q,
        "group": list(group.orders),
        "classes": [{"rep": list(c.rep.coords),
                     "size": c.size,
                     "members": [list(m.coords) for m in c.members]}
                    for c in classes],
        "field_degrees": [c.size for c in classes],
    }
    lines = [f"rep={_compact(c['rep'])} size={c['size']} "
             f"members=[{','.join(map(_compact, c['members']))}]" for c in doc["classes"]]
    lines.append("field degrees over F_%d: %s"
                 % (args.q, " ".join(map(str, doc["field_degrees"]))))
    return doc, lines


def _cmd_decompose(args) -> tuple[dict, list[str]]:
    group = _parse_group(args.group)
    dec = decompose_algebra(group, args.q)
    spec = dec.spec
    doc = {
        "q": args.q,
        "group": list(group.orders),
        "modulus": list(spec.modulus),
        "root_order": spec.root_order,
        "root_of_unity": spec.to_text(spec.xi_code),
        "classes": [{"rep": list(c.rep.coords), "size": c.size} for c in dec.classes],
        "idempotents": spec.to_text([e.coeffs for e in dec.idempotents]),
    }
    lines = [f"algebra F_{args.q}[{group!r}], splitting field F_{spec.p}[x]/"
             f"({modulus_str(spec.modulus)})",
             f"designated root of unity: {doc['root_of_unity']} (order {spec.root_order})"]
    lines += [f"class {i}: rep={_compact(c['rep'])} degree={c['size']} "
              f"idempotent=[{' '.join(e)}]"
              for i, (c, e) in enumerate(zip(doc["classes"], doc["idempotents"]))]
    return doc, lines


def _cmd_construct(args) -> tuple[dict, list[str]]:
    qa = qa_from_descriptor(_load_json(args.code))
    params = qa.params(args.cap_codewords)
    doc = {
        "qa": qa_to_descriptor(qa),
        "params": _params_doc(params),
        "flattened": code_to_descriptor(qa.flattened),
    }
    _write_json(args.out, doc)
    lines = [f"group={list(qa.group.orders)} q={qa.q} index={qa.index}"]
    lines += [f"constituent at {_compact(rep.coords)}: [{code.length},{code.dim}] "
              f"over degree-{code.field.degree} extension"
              for rep, code in sorted(qa.constituents().items(), key=lambda t: t[0].index)]
    lines.append(f"parameters: {params}")
    if args.out:
        lines.append(f"flattened descriptor written to {args.out}")
    return doc, lines


def _cmd_constituents(args) -> tuple[dict, list[str]]:
    group = _parse_group(args.group)
    code = code_from_descriptor(_load_json(args.code))
    outers = sorted(constituents_of(code, group).items(), key=lambda t: t[0].index)
    doc = {
        "group": list(group.orders),
        "constituents": [{"class_member": list(rep.coords), "code": code_to_descriptor(c)}
                         for rep, c in outers],
    }
    lines = [f"class {_compact(e['class_member'])}: [{c.length},{c.dim}] "
             f"generators {e['code']['generators']}"
             for (_, c), e in zip(outers, doc["constituents"])]
    return doc, lines


def _cmd_bound(args) -> tuple[dict, list[str]]:
    bound = distance_bound(qa_from_descriptor(_load_json(args.code)), args.cap_codewords)
    return {"distance_lower_bound": bound}, [str(bound)]


def _cmd_distance(args) -> tuple[dict, list[str]]:
    doc = _load_json(args.code)
    if isinstance(doc, dict) and "group" in doc:
        code = qa_from_descriptor(doc).flattened
    else:
        code = code_from_descriptor(doc)
    d = code.min_distance(args.cap_codewords)
    return {"length": code.length, "dim": code.dim, "distance": d}, [str(d)]


def _cmd_search(args) -> tuple[dict, list[str]]:
    group = _parse_group(args.group)
    spec = SearchSpec(q=args.q, group=group, index=args.index, d_min=args.dmin,
                      dim_target=args.dim, caps=args.caps)
    result = search(spec)
    dec = decompose_algebra(group, args.q)
    doc = {
        "q": args.q, "group": list(group.orders), "index": args.index,
        "d_min": args.dmin, "dim_target": args.dim,
        "results": [{"constituents": [constituent_entry(dec, i, c) for i, c in e.assignment],
                     "params": _params_doc(e.params),
                     "weight_distribution": list(e.fingerprint[2])}
                    for e in result.codes],
        "stats": result.stats,
    }
    _write_json(args.out, doc)
    lines = [f"{len(result.codes)} fingerprint-distinct codes with distance >= {args.dmin}"]
    for e in result.codes:
        classes = ",".join(_compact(dec.classes[i].rep.coords) for i in e.class_indices)
        lines.append(f"  {e.params} classes [{classes}] "
                     f"outer dims {[c.dim for _, c in e.assignment]}")
    lines += [f"  stage {s['stage']}: {s['candidates']} candidates, "
              f"{s['survivors']} survivors" for s in result.stats.get("stages", [])]
    if args.out:
        lines.append(f"results written to {args.out}")
    return doc, lines


def _cmd_family(args) -> tuple[dict, list[str]]:
    if args.outer:
        outers = [code_from_descriptor(d)
                  for d in _json_value(_load_json(args.outer), list, "outer codes")]
    else:
        # the library is the hull filter, so --lcd has nothing more to check
        outers = builtin_lcd_outers(args.q, args.max_outer_length, args.cap_subspaces)
    outers.sort(key=lambda c: (c.length, c.dim, c.gens.tobytes()))
    spec = FamilySpec(q=args.q, p=args.p, outer_codes=outers,
                      lcd_required=args.lcd and bool(args.outer))
    rows = family_report(spec, args.cap_codewords)
    header = ["i", "n_i", "length", "dim", "distance_exact_or_bound", "rate",
              "rel_distance", "lcd"]
    table = [[r.index, r.outer_length, r.length, r.dim, r.distance,
              str(r.rate), str(r.relative_distance), int(r.lcd)] for r in rows]
    lines = [",".join(map(str, row)) for row in [header, *table]]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(table)
        lines.append(f"report written to {args.out}")
    return {"rows": [dict(zip(header, row)) for row in table]}, lines


def _cmd_verify_paper(args) -> tuple[dict, list[str]]:
    checks = run_reference_suite(seed=args.seed)
    doc = {"checks": [{"name": n, "ok": ok, "detail": d, "seconds": s}
                      for n, ok, d, s in checks],
           "all_ok": all(ok for _, ok, _, _ in checks)}
    lines = [f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']}"
             + (f"  ({c['detail']})" if c["detail"] else "") for c in doc["checks"]]
    return doc, lines


# ---------------------------------------------------------------------------
# parser

@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse's set-up
    costs more than a small command, and parsing leaves the parser as it
    was, so every `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="qacodes",
        description="Quasi-abelian codes: decomposition, concatenation, "
                    "distance bounds, search, and complementary-dual families.")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--no-banner", action="store_true",
                        help="suppress the version banner")
    parser.add_argument("--cap-codewords", type=integer, default=DEFAULT_CODEWORD_CAP,
                        help="max codewords for exhaustive enumeration")
    parser.add_argument("--cap-subspaces", type=integer, default=DEFAULT_SUBSPACE_CAP,
                        help="max subspaces for code enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="list the q-cyclotomic classes of a group")
    p.add_argument("--q", type=integer, required=True)
    p.add_argument("--group", required=True, help="cyclic factor orders, e.g. 3,3")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("decompose", help="idempotents and splitting data of F_q[H]")
    p.add_argument("--q", type=integer, required=True)
    p.add_argument("--group", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("construct",
                       help="build a quasi-abelian code from a descriptor")
    p.add_argument("--code", required=True, help="descriptor JSON path")
    p.add_argument("--out", help="write flattened descriptor JSON here")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("constituents",
                       help="extract the outer codes of a flattened code")
    p.add_argument("--code", required=True, help="linear code descriptor JSON path")
    p.add_argument("--group", required=True)
    p.set_defaults(func=_cmd_constituents)

    p = sub.add_parser("bound", help="concatenation lower bound on the distance")
    p.add_argument("--code", required=True, help="descriptor JSON path")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("distance", help="exact minimum distance (enumeration or information sets)")
    p.add_argument("--code", required=True, help="descriptor JSON path")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("search", help="search codes meeting a distance target")
    p.add_argument("--q", type=integer, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--index", type=integer, required=True)
    p.add_argument("--dmin", type=integer, required=True)
    p.add_argument("--dim", type=integer, default=None, help="only report this dimension")
    p.add_argument("--out", help="write results JSON here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("family",
                       help="complementary-dual family report over C_p x C_p")
    p.add_argument("--q", type=integer, required=True)
    p.add_argument("--p", type=integer, required=True, dest="p")
    p.add_argument("--outer", help="outer codes JSON (list of descriptors); "
                                   "defaults to the built-in LCD library")
    p.add_argument("--max-outer-length", type=integer, default=4,
                   help="built-in library length limit")
    p.add_argument("--lcd", action="store_true",
                   help="require complementary-dual outer codes (the built-in "
                        "library holds only such codes)")
    p.add_argument("--out", help="write CSV report here")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify-paper",
                       help="run the reference reproduction and identity suites")
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.caps = Caps(args.cap_codewords, args.cap_subspaces)
        doc, lines = args.func(args)
        if args.json:
            sys.stdout.write(_json_text(doc))
        else:
            if not args.no_banner:
                print(f"qacodes {__version__}")
            for line in lines:
                print(line)
        if not doc.get("all_ok", True):  # a failed verify-paper check
            raise InvariantError("reference suite regression")
        return 0
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
