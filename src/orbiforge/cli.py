"""Command-line front end.

Subcommands: abelianize, cosets, classify, double-cover, rhombic, verdict,
verify-paper.  Exit codes: 0 success, 1 verification failure, 2 input error,
3 resource limit (ORBIFORGE_MAX_COSETS overrides the coset allowance).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import verify
from .cosetenum import CosetLimitError, default_max_cosets, todd_coxeter
from .exactgeom import Vec2, parse_quadnum
from .fpgroup import PresentationError, abelianization
from .knotcusp import verdict
from .lattice import (InvalidLatticeError, Lattice2, is_rotationally_rhombic,
                      symmetry_order)
from .presfile import ParseError, parse_presentation, parse_word
from .wallpaper import (UnknownModelError, UnknownSignatureError, classify,
                        model, orientation_double_cover, sign_kernel,
                        whole_group)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class InputError(ValueError):
    pass


def _positive_int(text: str) -> int:
    """argparse type of --max-cosets: anything but a positive integer exits 2."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _allowance(args) -> int:
    """The coset allowance in force: --max-cosets, else the environment's."""
    try:
        return getattr(args, "max_cosets", None) or default_max_cosets()
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _read_presentation(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_presentation(text)
    except (ParseError, PresentationError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_vector(text: str) -> Vec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"vector must be 'x,y', got {text!r}")
    try:
        return Vec2(parse_quadnum(parts[0]), parse_quadnum(parts[1]))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_signs(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"sign assignment must look like gen=-1, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if value.strip() not in ("1", "+1", "-1"):
            raise InputError(f"sign must be +1 or -1, got {value!r}")
        if name in out:
            raise InputError(f"generator {name!r} is given more than one sign")
        out[name] = -1 if value.strip() == "-1" else 1
    return out


def _cmd_abelianize(args) -> int:
    pres = _read_presentation(args.file)
    print(f"{pres.name}: {abelianization(pres)}")
    return EXIT_OK


def _cmd_cosets(args) -> int:
    pres = _read_presentation(args.file)
    words = []
    for chunk in args.subgroup.split(";"):
        chunk = chunk.strip()
        if chunk:
            try:
                words.append(parse_word(chunk, pres))
            except (ParseError, PresentationError) as exc:
                raise InputError(f"subgroup word {chunk!r}: {exc}") from exc
    table = todd_coxeter(pres, words, args.max_cosets)
    print(f"index: {table.index}")
    header = "coset | " + "  ".join(
        f"{g:>3s} {g + '~':>3s}" for g in pres.generators)
    print(header)
    for i, row in enumerate(table.rows):
        cells = "  ".join(f"{row[2 * k]:3d} {row[2 * k + 1]:3d}"
                          for k in range(pres.ngens))
        print(f"{i:5d} | {cells}")
    return EXIT_OK


def _model(name: str):
    try:
        return model(name)
    except UnknownModelError as exc:
        raise InputError(str(exc)) from exc


def _cmd_classify(args) -> int:
    m = _model(args.model)
    if args.sign:
        signs = _parse_signs(args.sign)
        try:
            handle = sign_kernel(m, signs)
        except (ValueError, PresentationError) as exc:
            raise InputError(str(exc)) from exc
    else:
        handle = whole_group(m)
    sig = classify(handle)
    print(f"signature: {sig.names.thurston}")
    print(f"crystallographic: {sig.names.crystallographic}")
    print(f"orbifold notation: {sig.names.conway}")
    print(f"index: {handle.index}; point group order: {len(handle.integer_classes[1])}; "
          f"lattice index: {handle.lattice_index}")
    if sig.note:
        print(f"note: {sig.note}")
    return EXIT_OK


def _cmd_double_cover(args) -> int:
    m = _model(args.model)
    handle, sig = orientation_double_cover(m)
    print(f"orientation double cover of {m.presentation.name}: "
          f"{sig.names.thurston} (index {handle.index})")
    return EXIT_OK


def _cmd_rhombic(args) -> int:
    v1 = _parse_vector(args.v1)
    v2 = _parse_vector(args.v2)
    try:
        lat = Lattice2(v1, v2)
    except InvalidLatticeError as exc:
        raise InputError(str(exc)) from exc
    order = symmetry_order(lat)
    print(f"rotationally rhombic: {'yes' if is_rotationally_rhombic(lat) else 'no'} "
          f"(lattice symmetry order {order})")
    return EXIT_OK


def _cmd_verdict(args) -> int:
    try:
        v = verdict(args.signature, run_checks=not args.no_checks)
    except UnknownSignatureError as exc:
        raise InputError(str(exc)) from exc
    record = {
        "signature": v.signature.names.thurston,
        "crystallographic": v.signature.names.crystallographic,
        "status": v.status,
    }
    if v.reason:
        record["reason"] = v.reason
    if v.witness:
        record["witness"] = v.witness
    if v.notes:
        record["notes"] = dict(v.notes)
    if v.signature.note:
        record["signature_note"] = v.signature.note
    record["checks"] = [
        {"name": c.name, "pass": c.passed, "detail": c.detail} for c in v.checks]
    print(json.dumps(record, indent=2))
    return EXIT_OK if all(c.passed for c in v.checks) else EXIT_FAIL


def _cmd_verify(args) -> int:
    selection = None
    if args.only is not None:
        selection = [s.strip() for s in args.only.split(",") if s.strip()]
        try:
            verify.selected_checks(selection)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
    report = verify.run_verification(selection, args.seed)
    if args.format == "json":
        print(verify.report_json(report, include_timings=args.timings))
    else:
        print(verify.report_text(report))
    return EXIT_OK if report.failed == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbiforge",
        description="Exact computations with plane crystallographic groups and "
                    "the Euclidean cusp types of knot-complement quotients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abelianize", help="abelian invariants of a presentation file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_abelianize)

    p = sub.add_parser("cosets", help="enumerate cosets of a subgroup")
    p.add_argument("file")
    p.add_argument("--subgroup", default="",
                   help="semicolon-separated subgroup words, e.g. 'b a^-2; b^-1 a^2'")
    p.add_argument("--max-cosets", type=_positive_int, default=None)
    p.set_defaults(fn=_cmd_cosets)

    p = sub.add_parser("classify", help="classify a model group or a sign-map kernel")
    p.add_argument("model")
    p.add_argument("--sign", default="",
                   help="comma-separated assignment, e.g. 'a=-1' (others default to +1)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("double-cover", help="orientation double cover of a model")
    p.add_argument("model")
    p.set_defaults(fn=_cmd_double_cover)

    p = sub.add_parser("rhombic", help="rotationally-rhombic test for a lattice")
    p.add_argument("v1", help="basis vector 'x,y' with entries like 1/2 or 1/2+1/2*rt3")
    p.add_argument("v2")
    p.set_defaults(fn=_cmd_rhombic)

    p = sub.add_parser("verdict", help="realizable/excluded verdict for a cusp type")
    p.add_argument("signature")
    p.add_argument("--no-checks", action="store_true",
                   help="skip the supporting machine checks")
    p.set_defaults(fn=_cmd_verdict)

    p = sub.add_parser("verify-paper",
                       help="run the full verification suite of classification claims")
    p.add_argument("--only", help="comma-separated check ids")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in JSON output (breaks byte-stability)")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        allowance = _allowance(args)
        return args.fn(args)
    except (InputError, ParseError, PresentationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CosetLimitError as exc:
        print(f"resource limit: {exc} (current allowance {allowance})",
              file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
