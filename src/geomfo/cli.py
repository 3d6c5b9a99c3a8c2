"""Command-line front end: check, interpret, generate, verify, graph.

Outputs are deterministic byte-for-byte for identical inputs.  Exit codes:
``check`` returns 0 when the sentence holds, 1 when it does not, and 2 on
any input error; the other subcommands return 0 on success and 2 on error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import GeomfoError, fileio, formula as F
from .checker import AgreementError, _model_checker, build_graph, model_check
from .generators import (cliquewidth_family, consecutive_witness, efo_hardness_instance,
                         hardness_instance, terfan_polygon)
from .geometry import ALL_CLASSES, Representation, parse_rat
from .interpret import make_instance

DEFAULT_BATTERY = [
    "exists x. exists y. (edge(x,y) & !(x=y))",
    "forall x. exists y. (edge(x,y) & !(x=y))",
    "exists x. exists y. exists z. (edge(x,y) & edge(y,z) & edge(x,z) & !(x=y) & !(y=z) & !(x=z))",
    "forall x. forall y. (edge(x,y) | x=y | (exists z. (edge(x,z) & edge(z,y))))",
    "exists x. forall y. (edge(x,y) | x=y)",
]


class CliError(GeomfoError):
    pass


# what one bad input can raise; each ends in a one-line message, never a traceback
_INPUT_FAILURES = (GeomfoError, RecursionError, MemoryError)


def _message(exc: BaseException) -> str:
    if isinstance(exc, RecursionError):
        return "input nested too deeply to process"
    if isinstance(exc, MemoryError):
        return "out of memory"
    return str(exc)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _int_param(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"--param needs an integer, not {text!r}") from None


def _load_rep(path: str, cls: str) -> Representation:
    rep = fileio.read_representation(_read(path))
    if rep.cls != cls:
        raise CliError(f"{path} holds a {rep.cls} representation, not {cls}")
    return rep


def cmd_check(args) -> int:
    rep = _load_rep(args.infile, args.cls)
    phi = F.parse_formula(args.formula, F.GRAPH)
    res = model_check(args.cls, rep, phi)
    if args.emit:
        if args.emit == "poset":
            text = fileio.write_poset(res.instance.poset)
        elif args.emit == "graph":
            text = fileio.write_graph(res.graph)
        else:
            text = fileio.write_interpretation_formulas(res.instance.interp.nu,
                                                        res.instance.interp.psi)
        if args.emit_out:
            _write(args.emit_out, text)
        else:
            sys.stdout.write(text)
    print(f"graph_verdict {res.graph_verdict}")
    print(f"poset_verdict {res.poset_verdict}")
    return 0 if res.graph_verdict else 1


def cmd_interpret(args) -> int:
    rep = _load_rep(args.infile, args.cls)
    inst = make_instance(args.cls, rep)
    _write(args.out_poset, fileio.write_poset(inst.poset))
    _write(args.out_interp,
           fileio.write_interpretation_formulas(inst.interp.nu, inst.interp.psi))
    print(f"width_bound {inst.width_bound}")
    return 0


def cmd_graph(args) -> int:
    rep = _load_rep(args.infile, args.cls)
    sys.stdout.write(fileio.write_graph(build_graph(args.cls, rep)))
    return 0


def cmd_generate(args) -> int:
    if args.kind == "consecutive":
        if not args.cls or not args.param:
            raise CliError("consecutive needs --class and --param <order>[,<eps>]")
        parts = args.param.split(",")
        ell = _int_param(parts[0])
        eps = parse_rat(parts[1]) if len(parts) > 1 else Fraction(1, 4)
        wit = consecutive_witness(args.cls, ell, eps)
        _write(args.out, fileio.write_representation(wit.rep))
        if args.out_cert:
            lines = ["s " + " ".join(map(str, wit.s_vertices)),
                     "r " + " ".join(map(str, sorted(wit.r_set))),
                     f"complement {int(wit.complement)}"]
            _write(args.out_cert, "\n".join(lines) + "\n")
        return 0
    if args.kind == "hardness":
        if not args.cls or not args.graph:
            raise CliError("hardness needs --class and --graph")
        h = fileio.read_graph(_read(args.graph))
        inst = hardness_instance(h, args.cls)
        _write(args.out, fileio.write_representation(inst.rep))
        if args.out_labels:
            _write(args.out_labels, fileio.write_graph(inst.graph))
        if args.out_interp:
            _write(args.out_interp,
                   fileio.write_interpretation_formulas(inst.nu, inst.psi))
        return 0
    if args.kind == "efo-hardness":
        if not args.cls or not args.graph:
            raise CliError("efo-hardness needs --class circle|unit_box and --graph")
        h = fileio.read_graph(_read(args.graph))
        inst = efo_hardness_instance(h, args.cls)
        _write(args.out, fileio.write_representation(inst.rep))
        if args.out_interp:
            _write(args.out_interp,
                   fileio.write_interpretation_formulas(inst.nu, inst.psi))
        return 0
    if args.kind == "cliquewidth":
        if not args.cls:
            raise CliError("cliquewidth needs --class")
        k = _int_param(args.param) if args.param else 1
        rep, cert = cliquewidth_family(args.cls, k)
        _write(args.out, fileio.write_representation(rep))
        if args.out_cert:
            lines = []
            for i, part in enumerate(cert.parts, start=1):
                lines.append(f"part {i} " + " ".join(map(str, part)))
            for i, part in enumerate(cert.parts, start=1):
                lines.append(f"order {i} " + " ".join(map(str, part)))
            lines.append("index-set " + " ".join(map(str, cert.index_set)))
            lines.append(f"k {cert.k}")
            _write(args.out_cert, "\n".join(lines) + "\n")
        return 0
    if args.kind == "terfan":
        if not args.graph:
            raise CliError("terfan needs --graph")
        h = fileio.read_graph(_read(args.graph))
        inst = terfan_polygon(h)
        _write(args.out, fileio.write_representation(
            Representation("visibility", (inst.polygon,))))
        if args.out_interp:
            _write(args.out_interp,
                   fileio.write_interpretation_formulas(inst.nu, inst.psi))
        return 0
    raise CliError(f"unknown kind {args.kind!r}")


def cmd_verify(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise CliError(f"{args.dir} is not a directory")
    cases = sorted(directory.glob("*.rep"))
    if not cases:
        raise CliError(f"no *.rep files in {args.dir}")
    failures = 0
    for case in cases:
        formulas_file = case.with_suffix(".formulas")
        cls, texts = "?", DEFAULT_BATTERY
        status = "PASS"
        detail = ""
        try:
            if formulas_file.exists():
                texts = [line for line in _read(str(formulas_file)).splitlines()
                         if line.strip() and not line.strip().startswith("#")]
            rep = fileio.read_representation(_read(str(case)))
            cls = rep.cls
            check = _model_checker(rep.cls, rep)  # one graph and instance per case
            for text in texts:
                check(F.parse_formula(text, F.GRAPH))
        except AgreementError as exc:
            status, detail = "FAIL", str(exc)
        except _INPUT_FAILURES as exc:
            status, detail = "ERROR", _message(exc)
        if status != "PASS":
            failures += 1
        print(f"{case.name:40s} {cls:12s} {len(texts):3d} sentences  {status} {detail}")
    print(f"{len(cases) - failures}/{len(cases)} cases pass")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="geomfo",
                                 description="FO model checking on geometric graph "
                                             "classes via bounded-width poset interpretations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a sentence on both sides of the reduction")
    p.add_argument("--class", dest="cls", required=True, choices=ALL_CLASSES)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--emit", choices=["poset", "interp", "graph"])
    p.add_argument("--emit-out", dest="emit_out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("interpret", help="emit the poset and interpretation formulas")
    p.add_argument("--class", dest="cls", required=True, choices=ALL_CLASSES)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-poset", required=True)
    p.add_argument("--out-interp", required=True)
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("graph", help="emit the intersection or visibility graph")
    p.add_argument("--class", dest="cls", required=True, choices=ALL_CLASSES)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("generate", help="emit one of the paper's constructions")
    p.add_argument("--kind", required=True,
                   choices=["consecutive", "hardness", "efo-hardness",
                            "cliquewidth", "terfan"])
    p.add_argument("--class", dest="cls",
                   choices=["circular_arc", "circle", "permutation", "unit_box",
                            "unit_disk"])
    p.add_argument("--param")
    p.add_argument("--graph")
    p.add_argument("--out", required=True)
    p.add_argument("--out-cert")
    p.add_argument("--out-labels")
    p.add_argument("--out-interp")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run the agreement suite over a directory")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_FAILURES as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
