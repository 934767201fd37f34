"""Command-line interface.

Subcommands: classes, decompose, construct, constituents, bound, distance,
search, family, verify-paper.  Human-readable text by default; --json emits
machine-readable documents built from the same descriptors the library
reads.  Exit codes: 0 success, 2 bad usage or bad input, 3 enumeration cap
exceeded, 4 internal invariant violation (including reference-suite
regressions).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .algebra import AbelianGroup, modulus_str, prime_power
from .concatenation import (constituent_entry, constituents_of, distance_bound,
                            qa_from_descriptor, qa_to_descriptor)
from .errors import CapExceededError, InvariantError
from .families import FamilySpec, builtin_lcd_outers, family_report
from .idempotents import cyclotomic_classes, decompose_algebra
from .linear_codes import (DEFAULT_CODEWORD_CAP, DEFAULT_SUBSPACE_CAP,
                           code_from_descriptor, code_to_descriptor, rows_to_strings)
from .reference import run_reference_suite
from .search import Caps, SearchSpec, search


def _parse_group(text: str) -> AbelianGroup:
    try:
        return AbelianGroup(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad group {text!r}: {exc}") from exc


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit_json(doc, fh=None) -> None:
    """Write `doc` as indented, key-sorted JSON and a newline (to stdout by default)."""
    fh = fh or sys.stdout
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _params_doc(params) -> dict:
    doc = {"length": params.length, "dim": params.dim}
    if params.distance is not None:
        doc["distance"] = params.distance
    if params.distance_lower_bound is not None:
        doc["distance_lower_bound"] = params.distance_lower_bound
    return doc


def _banner(args) -> None:
    if not args.json and not args.no_banner:
        print(f"qacodes {__version__}")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_classes(args) -> int:
    group = _parse_group(args.group)
    # the field degrees are the class sizes, so no splitting field is built
    classes = cyclotomic_classes(group, args.q)
    prime_power(args.q)
    degrees = [c.size for c in classes]
    _banner(args)
    if args.json:
        _emit_json({
            "q": args.q,
            "group": list(group.orders),
            "classes": [{"rep": list(c.rep.coords),
                         "size": c.size,
                         "members": [list(m.coords) for m in c.members]}
                        for c in classes],
            "field_degrees": degrees,
        })
        return 0
    for c in classes:
        members = ",".join(str(list(m.coords)).replace(" ", "") for m in c.members)
        print(f"rep={str(list(c.rep.coords)).replace(' ', '')} size={c.size} "
              f"members=[{members}]")
    print("field degrees over F_%d: %s" % (args.q, " ".join(map(str, degrees))))
    return 0


def _cmd_decompose(args) -> int:
    group = _parse_group(args.group)
    dec = decompose_algebra(group, args.q)
    spec = dec.spec
    _banner(args)
    if args.json:
        _emit_json({
            "q": args.q,
            "group": list(group.orders),
            "modulus": list(spec.modulus),
            "root_order": spec.root_order,
            "root_of_unity": spec.element_str(spec.xi_code),
            "classes": [{"rep": list(c.rep.coords), "size": c.size}
                        for c in dec.classes],
            "idempotents": rows_to_strings(spec, [e.coeffs for e in dec.idempotents]),
        })
        return 0
    print(f"algebra F_{args.q}[{group!r}], splitting field F_{spec.p}[x]/"
          f"({modulus_str(spec.modulus)})")
    print(f"designated root of unity: {spec.element_str(spec.xi_code)} "
          f"(order {spec.root_order})")
    for i, (c, e) in enumerate(zip(dec.classes, dec.idempotents)):
        coeffs = " ".join(spec.element_str(int(v)) for v in e.coeffs)
        print(f"class {i}: rep={str(list(c.rep.coords)).replace(' ', '')} "
              f"degree={c.size} idempotent=[{coeffs}]")
    return 0


def _cmd_construct(args) -> int:
    qa = qa_from_descriptor(_load_json(args.code))
    flat = qa.flattened
    params = qa.params(args.cap_codewords)
    _banner(args)
    doc = {
        "qa": qa_to_descriptor(qa),
        "params": _params_doc(params),
        "flattened": code_to_descriptor(flat),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit_json(doc, fh)
    if args.json:
        _emit_json(doc)
        return 0
    print(f"group={list(qa.group.orders)} q={qa.q} index={qa.index}")
    for rep, code in sorted(qa.constituents().items(), key=lambda t: t[0].index):
        print(f"constituent at {str(list(rep.coords)).replace(' ', '')}: "
              f"[{code.length},{code.dim}] over degree-{code.field.degree} extension")
    print(f"parameters: {params}")
    if args.out:
        print(f"flattened descriptor written to {args.out}")
    return 0


def _cmd_constituents(args) -> int:
    group = _parse_group(args.group)
    code = code_from_descriptor(_load_json(args.code))
    outers = constituents_of(code, group)
    _banner(args)
    if args.json:
        _emit_json({
            "group": list(group.orders),
            "constituents": [{"class_member": list(rep.coords),
                              "code": code_to_descriptor(c)}
                             for rep, c in sorted(outers.items(),
                                                  key=lambda t: t[0].index)],
        })
        return 0
    for rep, c in sorted(outers.items(), key=lambda t: t[0].index):
        print(f"class {str(list(rep.coords)).replace(' ', '')}: "
              f"[{c.length},{c.dim}] generators "
              f"{rows_to_strings(c.field.spec, c.gens)}")
    return 0


def _cmd_bound(args) -> int:
    qa = qa_from_descriptor(_load_json(args.code))
    bound = distance_bound(qa, args.cap_codewords)
    _banner(args)
    if args.json:
        _emit_json({"distance_lower_bound": bound})
    else:
        print(bound)
    return 0


def _cmd_distance(args) -> int:
    doc = _load_json(args.code)
    if isinstance(doc, dict) and "group" in doc:
        code = qa_from_descriptor(doc).flattened
    else:
        code = code_from_descriptor(doc)
    d = code.min_distance(args.cap_codewords)
    _banner(args)
    if args.json:
        _emit_json({"length": code.length, "dim": code.dim, "distance": d})
    else:
        print(d)
    return 0


def _cmd_search(args) -> int:
    group = _parse_group(args.group)
    spec = SearchSpec(q=args.q, group=group, index=args.index, d_min=args.dmin,
                      dim_target=args.dim, caps=args.caps)
    result = search(spec)
    dec = decompose_algebra(group, args.q)
    entries = []
    for e in result.codes:
        entries.append({
            "constituents": [constituent_entry(dec, i, c) for i, c in e.assignment],
            "params": _params_doc(e.params),
            "weight_distribution": list(e.fingerprint[2]),
        })
    doc = {
        "q": args.q, "group": list(group.orders), "index": args.index,
        "d_min": args.dmin, "dim_target": args.dim,
        "results": entries, "stats": result.stats,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit_json(doc, fh)
    _banner(args)
    if args.json:
        _emit_json(doc)
        return 0
    print(f"{len(result.codes)} fingerprint-distinct codes with distance >= {args.dmin}")
    for e in result.codes:
        classes = ",".join(str(list(dec.classes[i].rep.coords)).replace(" ", "")
                           for i in e.class_indices)
        print(f"  {e.params} classes [{classes}] "
              f"outer dims {[c.dim for _, c in e.assignment]}")
    for s in result.stats.get("stages", []):
        print(f"  stage {s['stage']}: {s['candidates']} candidates, "
              f"{s['survivors']} survivors")
    if args.out:
        print(f"results written to {args.out}")
    return 0


def _cmd_family(args) -> int:
    if args.outer:
        doc = _load_json(args.outer)
        outers = [code_from_descriptor(d) for d in doc]
    else:
        outers = builtin_lcd_outers(args.q, args.max_outer_length)
    if args.lcd:
        outers = [c for c in outers if c.hull_dimension() == 0]
    outers.sort(key=lambda c: (c.length, c.dim, c.gens.tobytes()))
    spec = FamilySpec(q=args.q, p=args.p, outer_codes=outers,
                      lcd_required=args.lcd)
    rows = family_report(spec, args.cap_codewords)
    header = ["i", "n_i", "length", "dim", "distance_exact_or_bound", "rate",
              "rel_distance", "lcd"]
    table = [[r.index, r.outer_length, r.length, r.dim,
              r.distance if r.distance is not None else f">={r.distance_bound}",
              str(r.rate), str(r.relative_distance), int(r.lcd)] for r in rows]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(table)
    _banner(args)
    if args.json:
        _emit_json({"rows": [dict(zip(header, row)) for row in table]})
        return 0
    print(",".join(header))
    for row in table:
        print(",".join(str(x) for x in row))
    if args.out:
        print(f"report written to {args.out}")
    return 0


def _cmd_verify_paper(args) -> int:
    checks = run_reference_suite(seed=args.seed)
    _banner(args)
    all_ok = all(ok for _, ok, _, _ in checks)
    if args.json:
        _emit_json({"checks": [{"name": n, "ok": ok, "detail": d, "seconds": s}
                               for n, ok, d, s in checks],
                    "all_ok": all_ok})
    else:
        for name, ok, detail, _ in checks:
            line = f"{'PASS' if ok else 'FAIL'}  {name}"
            if detail:
                line += f"  ({detail})"
            print(line)
    if not all_ok:
        raise InvariantError("reference suite regression")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qacodes",
        description="Quasi-abelian codes: decomposition, concatenation, "
                    "distance bounds, search, and complementary-dual families.")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--no-banner", action="store_true",
                        help="suppress the version banner")
    parser.add_argument("--cap-codewords", type=int, default=DEFAULT_CODEWORD_CAP,
                        help="max codewords for exhaustive enumeration")
    parser.add_argument("--cap-subspaces", type=int, default=DEFAULT_SUBSPACE_CAP,
                        help="max subspaces for code enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="list the q-cyclotomic classes of a group")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--group", required=True, help="cyclic factor orders, e.g. 3,3")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("decompose", help="idempotents and splitting data of F_q[H]")
    p.add_argument("--q", type=int, required=True)
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
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--dim", type=int, default=None, help="only report this dimension")
    p.add_argument("--out", help="write results JSON here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("family",
                       help="complementary-dual family report over C_p x C_p")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True, dest="p")
    p.add_argument("--outer", help="outer codes JSON (list of descriptors); "
                                   "defaults to the built-in LCD library")
    p.add_argument("--max-outer-length", type=int, default=4,
                   help="built-in library length limit")
    p.add_argument("--lcd", action="store_true",
                   help="require complementary-dual outer codes")
    p.add_argument("--out", help="write CSV report here")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify-paper",
                       help="run the reference reproduction and identity suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.caps = Caps(args.cap_codewords, args.cap_subspaces)
        return args.func(args)
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
