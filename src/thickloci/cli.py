"""Command-line surface.

Refs are either catalog addresses (catalog:NAME or catalog:NAME/sample) or
paths to JSON files in the documented schemas.  Exit codes: 0 success or
all checks passed, 1 check failure, 2 usage error, 3 resource budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import CATALOG_NAMES, load, ring_from_json
from .classify import (
    SETTINGS,
    diagram_check,
    locus,
    make_descriptor,
    membership,
    transport,
    verify_roundtrips,
)
from .complexes import ComplexHandle, ComplexMap, stabilize, w_locus
from .errors import ResourceBudgetError, ThickLociError
from .modules import ModulePres, Resolution, fitting_chain, nonfree_locus, pd_finite, q_locus, syzygy
from .spectra import singular_locus
from .verify import reports_for, run_all


class UsageError(Exception):
    pass


def _parse_ref(ref):
    if ref.startswith("catalog:"):
        rest = ref[len("catalog:") :]
        name, _, sample = rest.partition("/")
        return "catalog", name, sample or None
    return "file", ref, None


def _read_file(path, build):
    """build(data) from a JSON file; a key the file lacks is a usage error."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return build(data)
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc.args[0]!r}") from None


def resolve_ring(ref):
    kind, name, sample = _parse_ref(ref)
    if kind == "catalog":
        return load(name).ring
    return _read_file(name, ring_from_json)


def resolve_module(ref, ring=None):
    kind, name, sample = _parse_ref(ref)
    if kind == "catalog":
        if sample is None:
            raise UsageError(f"module ref {ref!r} needs a /sample suffix")
        return load(name).sample(sample)
    return _read_file(
        name, lambda data: ModulePres(ring or _ring_from_field(data.get("ring")), data["matrix"])
    )


def _ring_from_field(entry):
    if entry is None:
        raise UsageError("module file must carry a 'ring' entry")
    if isinstance(entry, str):
        return resolve_ring(entry)
    return ring_from_json(entry)


def complex_from_json(ring, data):
    kind = data["kind"]
    if kind == "delta":
        mod = data["module"]
        if isinstance(mod, str):
            raise UsageError(f"module {mod!r} inside a complex must be given by its matrix")
        return ComplexHandle.delta(ModulePres(ring, mod["matrix"] if isinstance(mod, dict) else mod))
    if kind == "free":
        lo, hi = data["range"]
        ranks = data["ranks"]
        if len(ranks) != hi - lo + 1:
            raise UsageError("free complex ranks must cover the degree range")
        return ComplexHandle.free(ring, lo, ranks, {int(k): v for k, v in data.get("diffs", {}).items()})
    if kind == "shift":
        return ComplexHandle.shift(complex_from_json(ring, data["of"]), data["by"])
    if kind == "cone":
        m = data["map"]
        src = complex_from_json(ring, m["source"])
        tgt = complex_from_json(ring, m["target"])
        cmap = ComplexMap(src, tgt, {int(k): v for k, v in m.get("components", {}).items()})
        return ComplexHandle.cone(cmap)
    raise UsageError(f"unknown complex kind {kind!r}")


def resolve_complex(ref):
    kind, name, sample = _parse_ref(ref)
    if kind == "catalog":
        if sample is None:
            raise UsageError(f"complex ref {ref!r} needs a /sample suffix")
        return ComplexHandle.delta(load(name).sample(sample))
    return _read_file(
        name, lambda data: complex_from_json(_ring_from_field(data.get("ring")), data["complex"])
    )


def _matrix_out(module):
    return [[str(e) for e in row] for row in module.matrix]


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=""):
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent + "  ")
                print()
            else:
                print(f"{indent}{v}")
    else:
        print(f"{indent}{payload}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalog(args):
    return {"rings": list(CATALOG_NAMES)}, 0


def cmd_ring(args):
    ring = resolve_ring(args.ref)
    sing = singular_locus(ring)
    return {
        "name": ring.name,
        "field_char": ring.base.field.char,
        "vars": list(ring.base.vars),
        "relations": [str(g) for g in ring.defining.gens],
        "dim": ring.dim,
        "registry": sorted(p.name for p in ring.registry),
        "singular_locus": sorted(sing.member_names),
        "flags": {
            "hypersurface": ring.flags.is_hypersurface,
            "gorenstein": ring.flags.is_gorenstein,
            "lci_punctured": ring.flags.lci_punctured,
            "regular": ring.flags.is_regular,
        },
    }, 0


def cmd_module(args):
    ring = resolve_ring(args.ring) if args.ring else None
    module = resolve_module(args.module, ring)
    if args.action == "pd":
        pd = pd_finite(module)
        return {"pd": "infinite" if pd is None else f"finite({pd})"}, 0
    if args.action == "syzygy":
        om = syzygy(module, args.n)
        return {"n": args.n, "matrix": _matrix_out(om), "rows": om.rows, "cols": om.cols}, 0
    if args.action == "resolve":
        return {"betti": list(Resolution(module).betti_numbers(args.steps))}, 0
    if args.action == "locus":
        return {
            "nonfree_locus": sorted(nonfree_locus(module).member_names),
            "infinite_pd_locus": sorted(q_locus(module).member_names),
        }, 0
    return {"fitting": [sorted(str(g) for g in i.groebner_basis()) for i in fitting_chain(module)]}, 0


def cmd_complex(args):
    handle = resolve_complex(args.complex)
    if args.action == "locus":
        return {"w_locus": sorted(w_locus(handle).member_names)}, 0
    if args.action == "stabilize":
        stab = stabilize(handle)
        return {"matrix": _matrix_out(stab), "rows": stab.rows, "cols": stab.cols}, 0
    s = handle.sup()
    return {"sup": "-inf" if s is None else s}, 0


def _descriptor_from_args(args, ring):
    kind, name, _ = _parse_ref(args.ring)
    gens = []
    for g in args.gen or []:
        if args.setting == "DER":
            gens.append(resolve_complex(f"catalog:{name}/{g}" if kind == "catalog" else g))
        else:
            gens.append(resolve_module(f"catalog:{name}/{g}" if kind == "catalog" else g, ring))
    return make_descriptor(args.setting, ring, gens, args.case)


def cmd_classify(args):
    ring = resolve_ring(args.ring)
    if args.action == "roundtrip":
        report = verify_roundtrips(ring, args.case)
        return report.to_dict(), 0 if report.passed else 1
    if args.action == "diagram":
        cat = load(_parse_ref(args.ring)[1]) if args.ring.startswith("catalog:") else None
        if args.gen:
            fixtures = [[resolve_module(f"catalog:{cat.name}/{g}") for g in args.gen]]
        elif cat is not None:
            fixtures = [[m] for n, m in sorted(cat.samples.items()) if n != "R"]
        else:
            raise UsageError("diagram needs --gen fixtures for file-based rings")
        report = diagram_check(ring, fixtures, args.case)
        return report.to_dict(), 0 if report.passed else 1
    desc = _descriptor_from_args(args, ring)
    if args.action == "locus":
        return {"setting": args.setting, "locus": sorted(locus(desc).member_names)}, 0
    if args.action == "member":
        if not args.object:
            raise UsageError("classify member needs --object")
        kind, name, _ = _parse_ref(args.ring)
        ref = f"catalog:{name}/{args.object}" if kind == "catalog" else args.object
        obj = resolve_complex(ref) if args.setting == "DER" else resolve_module(ref, ring)
        verdict = membership(desc, obj)
        return {"status": verdict.status, "reason": verdict.reason}, 0
    if not args.to:
        raise UsageError("classify transport needs --to")
    moved = transport(desc, args.to)
    return {
        "to": args.to,
        "generators": len(moved.generators),
        "locus": sorted(locus(moved).member_names),
        "locus_preserved": locus(moved) == locus(desc),
    }, 0


def cmd_verify(args):
    if args.ring:
        name = _parse_ref(args.ring)[1] if args.ring.startswith("catalog:") else args.ring
        reports = reports_for(name)
    else:
        reports = run_all()
    payload = {"reports": [r.to_dict() for r in reports]}
    payload["pass"] = all(r.passed for r in reports)
    return payload, 0 if payload["pass"] else 1


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="thickloci")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog")
    c.add_argument("action", choices=("list",))

    r = sub.add_parser("ring")
    r.add_argument("action", choices=("info",))
    r.add_argument("ref")

    m = sub.add_parser("module")
    m.add_argument("action", choices=("pd", "syzygy", "resolve", "locus", "fitting"))
    m.add_argument("--ring")
    m.add_argument("--module", required=True)
    m.add_argument("--n", type=int, default=1)
    m.add_argument("--steps", type=int, default=5)

    x = sub.add_parser("complex")
    x.add_argument("action", choices=("locus", "stabilize", "sup"))
    x.add_argument("--complex", required=True)

    k = sub.add_parser("classify")
    k.add_argument("action", choices=("locus", "member", "transport", "roundtrip", "diagram"))
    k.add_argument("--ring", required=True)
    k.add_argument("--setting", choices=SETTINGS, default="MOD")
    k.add_argument("--case", type=int, choices=(1, 2), default=1)
    k.add_argument("--gen", action="append")
    k.add_argument("--object")
    k.add_argument("--to", choices=SETTINGS)

    v = sub.add_parser("verify")
    v.add_argument("action", choices=("all",))
    v.add_argument("--ring")
    return p


HANDLERS = {
    "catalog": cmd_catalog,
    "ring": cmd_ring,
    "module": cmd_module,
    "complex": cmd_complex,
    "classify": cmd_classify,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload, code = HANDLERS[args.command](args)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, FileNotFoundError, ThickLociError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
