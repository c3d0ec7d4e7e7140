"""Command-line front end: build the named algebras, run the checks, and
replay the paper-suite experiments with machine-parseable JSON output.

Every subcommand prints one JSON document (sorted keys) on stdout;
progress notes go to stderr.  Exit codes: 0 success, 2 check failure,
1 usage error (bad arguments or unreadable input), 3 internal fault (the
traceback goes to stderr).  A usage error is an `OSError`, a JSON decode
error, a `UsageError` from the argument checks here, or one of the
package's input errors (`AlgebraError`, `FieldError`, `CochainError`); any
other exception, a bare `ValueError` from a kernel included, is a fault.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import traceback
from contextlib import redirect_stdout
from typing import Optional

from .cohomology import CochainError, compute_h1_dim, compute_h2, parse_cocycle
from .constructions import (build_a2gh, build_classical, build_div_free_hI, build_hI,
                            build_hamiltonian, build_jurman, build_kaplansky,
                            build_multipair, build_poisson, build_tensor_example)
from .deform import deform_bracket, jurman_deform_check, obstruction_poly, poisson_family, semitrivial_certificate
from .fields import FieldError, Scalar, field_make
from .grading import MODULUS, associated_graded, weisfeiler_filtration
from .isom import fingerprint, search_isomorphism
from .liealg import Algebra, AlgebraError, Subspace, center, derived_subalgebra, simplicity_check
from .superize import restricted_closure, superize_linear, superize_nonlinear


class UsageError(ValueError):
    """A command-line argument or experiment file the CLI refuses."""


def _emit(doc: dict, code: int = 0) -> int:
    print(json.dumps(doc, sort_keys=True, indent=1, default=str))
    return code


def _load_algebra(path: str) -> Algebra:
    with open(path) as fh:
        return Algebra.from_json(json.load(fh))


def _scalar(field: str, text: str) -> Scalar:
    """The int literal `text` as an element of the --field, refused outside it."""
    fld = field_make(field)
    try:
        v = int(text, 0)
    except ValueError:
        raise UsageError("%r is not an int literal" % text) from None
    if v < 0 or (fld.order and v >= fld.order):
        raise FieldError("%s is not an element of %r" % (text, fld))
    return Scalar(fld, v)


def _parse_N(text: str, flag: str = "--N"):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("%s takes comma-separated integers (e.g. 2,2), not %r" % (flag, text)) from None


def _parse_pairs(text: str):
    try:
        pairs = [tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";")]
    except ValueError:
        pairs = []
    if not pairs or any(len(p) != 2 for p in pairs):
        raise UsageError("--pairs takes g,h;g,h;... (e.g. 2,1;2,1), not %r" % text)
    return pairs


def _build_from_args(args) -> Algebra:
    kind = args.what
    if kind in ("po", "jurman", "kap", "tensor-example") and args.variant != "full":
        raise AlgebraError("build %s has no variant %r" % (kind, args.variant))
    if kind == "po":
        N = _parse_N(args.N)
        return build_poisson(len(N) // 2, N)
    if kind == "h":
        N = _parse_N(args.N)
        if args.form == "i":
            return build_hI(len(N), N, args.variant)
        return build_hamiltonian(len(N) // 2, N, args.variant)
    if kind == "lh":
        N = _parse_N(args.N)
        return build_div_free_hI(len(N), N, args.variant)
    if kind == "jurman":
        return build_jurman(args.g, args.h)
    if kind == "a":
        return build_a2gh(args.g, args.h, args.variant)
    if kind == "multipair":
        return build_multipair("Pi" if args.form != "i" else "I", _parse_pairs(args.pairs),
                               args.variant)
    if kind == "kap":
        return build_kaplansky(args.family, args.n, args.arf)
    if kind == "classical":
        return build_classical(args.family, args.n, args.variant)
    if kind == "tensor-example":
        return build_tensor_example(_scalar(args.field, args.hbar) if args.hbar else None)
    raise SystemExit("unknown build target %r" % kind)


def cmd_build(args) -> int:
    g = _build_from_args(args)
    rep = g.validate()
    doc = g.to_json()
    doc["validated"] = rep.ok
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(g.dumps())
        print("wrote %s" % args.out, file=sys.stderr)
    return _emit(doc, 0 if rep.ok else 2)


def cmd_validate(args) -> int:
    g = _load_algebra(args.algebra)
    rep = g.validate()
    return _emit({"name": g.name, "dim": g.dim, "report": rep.summary()}, 0 if rep.ok else 2)


def cmd_derived(args) -> int:
    g = _load_algebra(args.algebra)
    der = derived_subalgebra(g)
    return _emit({"name": g.name, "dim": g.dim, "derived_dim": der.dim,
                  "rows": [hex(r) for r in der.rows()]})


def cmd_center(args) -> int:
    g = _load_algebra(args.algebra)
    c = center(g)
    return _emit({"name": g.name, "dim": g.dim, "center_dim": c.dim,
                  "rows": [hex(r) for r in c.rows()]})


def cmd_simple(args) -> int:
    g = _load_algebra(args.algebra)
    v = simplicity_check(g, rng_seed=args.seed)
    doc = {"name": g.name, "dim": g.dim, "verdict": v.kind, "seeds_tried": v.seeds_tried,
           "seed": args.seed}
    if v.witness is not None:
        doc["witness_dim"] = v.witness.dim
    return _emit(doc)


def cmd_h1(args) -> int:
    g = _load_algebra(args.algebra)
    z1, b1, h1 = compute_h1_dim(g)
    return _emit({"name": g.name, "dim": g.dim, "Z1": z1, "B1": b1, "H1": h1})


def cmd_h2(args) -> int:
    g = _load_algebra(args.algebra)
    weight = _parse_N(args.weight, "--weight") if args.weight else None
    blk = compute_h2(g, weight_filter=weight, mode=args.mode)
    doc = {"name": g.name, "dim": g.dim, "Z2": blk.dims[0], "B2": blk.dims[1],
           "H2": blk.dims[2],
           "representatives": [c.text() for c in blk.representatives]}
    if weight:
        doc["weight"] = list(weight)
        doc["mode"] = args.mode
    return _emit(doc)


def cmd_deform(args) -> int:
    if args.what == "jurman":
        rep = jurman_deform_check(args.g, args.h)
        return _emit({"g": args.g, "h": args.h, "cocycle_weight": list(rep.weight),
                      "isomorphic_to_jurman": rep.ok, "engine": rep.iso.engine,
                      "cocycle": rep.cocycle.text()}, 0 if rep.ok else 2)
    if args.what == "poisson-family":
        N = _parse_N(args.N)
        g = poisson_family(len(N) // 2, N, _scalar(args.field, args.alpha))
        doc = g.to_json()
        doc["validated"] = g.validate().ok
        return _emit(doc)
    if args.what == "cocycle":
        g = _load_algebra(args.algebra)
        c = parse_cocycle(args.cocycle, g)
        fam = deform_bracket(g, c)
        rep = obstruction_poly(fam)
        # a power k prints as "(k,)", so the JSON stays byte-stable
        doc = {"name": g.name, "verdict": rep.verdict,
               "jacobiator_by_power": {str((k,)): v for k, v in rep.by_power.items()}}
        if args.hbar:
            cert = semitrivial_certificate(fam, _scalar(args.field, args.hbar))
            doc["semitrivial_certificate"] = cert.description if cert else None
        return _emit(doc)
    raise SystemExit("unknown deform target %r" % args.what)


def cmd_iso(args) -> int:
    a = _load_algebra(args.algebra)
    b = _load_algebra(args.other)
    res = search_isomorphism(a, b, budget=args.budget)
    doc = {"a": a.name, "b": b.name, "verdict": res.kind, "engine": res.engine,
           "reason": res.reason, "fingerprint_a": fingerprint(a), "fingerprint_b": fingerprint(b)}
    if res.kind == "iso":
        doc["map"] = [hex(im) for im in res.map.images]
    return _emit(doc, 0 if res.kind != "exhausted" else 2)


def _parse_rows(raw, dim: int) -> list:
    """--subalgebra rows: a JSON list of ints or int strings ("0x1f"), each
    a vector of the dim-dim algebra."""
    if not isinstance(raw, list):
        raise UsageError("--subalgebra takes a JSON list of rows, not %r" % (raw,))
    rows = []
    for x in raw:
        try:
            r = int(x, 0) if isinstance(x, str) else x if type(x) is int else -1
        except ValueError:
            r = -1
        if r < 0 or r >> dim:
            raise UsageError("--subalgebra row %r is not a vector of the %d-dim algebra: "
                             "an int or int string in [0, 2^%d)" % (x, dim, dim))
        rows.append(r)
    return rows


def cmd_grade(args) -> int:
    g = _load_algebra(args.algebra)
    with open(args.subalgebra) as fh:
        rows = _parse_rows(json.load(fh), g.dim)
    filt = weisfeiler_filtration(g, Subspace(g, rows))
    gr = associated_graded(filt)
    return _emit({"name": g.name, "depth": filt.depth, "l0_maximal": filt.l0_maximal,
                  "layer_dims": filt.layer_dims(), "codims": filt.codims(),
                  "gr": gr.to_json()})


def cmd_super(args) -> int:
    base = build_kaplansky(args.base, args.n, args.arf)
    clo = restricted_closure(base)
    if args.mode == "linear":
        s = superize_linear(clo, args.v)
    else:
        from .constructions import QuadraticFormSpec
        s = superize_nonlinear(clo, QuadraticFormSpec.standard(args.n // 2, args.arf2))
    okk, msg = s.check_super_axioms()
    doc = s.algebra.to_json()
    doc["parity"] = s.parity
    doc["squaring"] = [hex(x) for x in clo.squaring]
    doc["axioms_ok"] = okk
    doc["axioms_msg"] = msg
    return _emit(doc, 0 if okk else 2)


def cmd_closure(args) -> int:
    base = build_kaplansky(args.base, args.n, args.arf)
    clo = restricted_closure(base)
    doc = clo.algebra.to_json()
    doc["squaring"] = [hex(x) for x in clo.squaring]
    doc["restricted_ok"] = ok = clo.check_restricted()
    return _emit(doc, 0 if ok else 2)


def cmd_experiment(args) -> int:
    from . import experiments
    if args.name == "paper-suite":
        print("running the full acceptance suite (seed 0)", file=sys.stderr)
        reports = experiments.run_all(progress=lambda s: print(s, file=sys.stderr))
        doc = {"experiment": "paper-suite", "seed": 0, "reports": reports,
               "pass": all(r["pass"] for r in reports if r["criterion"][0].isdigit())}
        code = 3 if any("error" in r for r in reports) else 0 if doc["pass"] else 2
        return _emit(doc, code)
    with open(args.name) as fh:
        spec = json.load(fh)
    return run_experiment_file(spec)


def _resolve(reports: list, path: str):
    """(True, the value at the dotted path into the reports), or (False, None)."""
    cur = reports
    for part in path.split("."):
        try:
            cur = cur[int(part)] if isinstance(cur, list) else cur[part]
        except (ValueError, IndexError, KeyError, TypeError):
            return False, None
    return True, cur


def run_experiment_file(spec: dict) -> int:
    """Declarative experiments: steps are CLI argv lists, expectations are
    (path into the collected reports, expected value) pairs; a path that
    does not resolve is a failed expectation, a malformed spec a usage error."""
    if not isinstance(spec, dict) or not all(isinstance(spec.get(k, []), list)
                                             for k in ("steps", "expectations")):
        raise UsageError('an experiment file holds a JSON object with "steps" and "expectations" lists')
    steps, expectations = spec.get("steps", []), spec.get("expectations", [])
    # the whole spec is checked before any step runs
    for t, step in enumerate(steps):
        argv = step.get("cmd") if isinstance(step, dict) else None
        if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
            raise UsageError('step %d is not {"cmd": [argument strings]}' % t)
    for t, exp in enumerate(expectations):
        if not isinstance(exp, dict) or not isinstance(exp.get("path"), str) or "equals" not in exp:
            raise UsageError('expectation %d is not {"path": "dotted.path", "equals": value}' % t)
    reports = []
    for t, step in enumerate(steps):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(step["cmd"])
        if code in (1, 3):  # a usage error or an internal fault printed no report
            print("error: step %d (%s) exited %d" % (t, " ".join(step["cmd"]), code), file=sys.stderr)
            return code
        reports.append(json.loads(buf.getvalue()))
    failures = []
    for exp in expectations:
        found, cur = _resolve(reports, exp["path"])
        if not found or cur != exp["equals"]:
            failures.append({"path": exp["path"], "expected": exp["equals"], "actual": cur})
    doc = {"experiment": spec.get("name", "unnamed"), "steps": len(reports),
           "expectations": len(expectations), "failures": failures, "pass": not failures}
    if not steps:
        doc["warning"] = "no steps: vacuous pass"
    return _emit(doc, 0 if not failures else 2)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gf2lie",
                                description="exact GF(2) Lie-algebra workbench")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build a named algebra")
    b.add_argument("what", choices=["po", "h", "lh", "jurman", "a", "multipair", "kap",
                                    "classical", "tensor-example"])
    b.add_argument("--N", default="", help="shearing vector, comma separated")
    b.add_argument("--form", default="pi", choices=["pi", "i"])
    b.add_argument("--g", type=int, default=2)
    b.add_argument("--h", type=int, default=1)
    b.add_argument("--variant", default="full",
                   choices=["full", "derived", "derived_mod_center"])
    b.add_argument("--pairs", default="2,1;2,1", help="multipair (g,h) list, ; separated")
    b.add_argument("--family", default="1", help="kaplansky {1,2,3,4A,4B} or classical kind")
    b.add_argument("--n", type=int, default=4)
    b.add_argument("--arf", type=int, default=None)
    b.add_argument("--hbar", default="", help="deformation parameter value (int literal)")
    b.add_argument("--field", default="gf2")
    b.add_argument("--out", default="", help="write the algebra JSON here as well")
    b.set_defaults(fn=cmd_build)

    for name, fn in [("validate", cmd_validate), ("derived", cmd_derived),
                     ("center", cmd_center), ("h1", cmd_h1)]:
        q = sub.add_parser(name)
        q.add_argument("--algebra", required=True)
        q.set_defaults(fn=fn)

    q = sub.add_parser("simple")
    q.add_argument("--algebra", required=True)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_simple)

    q = sub.add_parser("h2")
    q.add_argument("--algebra", required=True)
    q.add_argument("--weight", default="")
    q.add_argument("--mode", default="z", choices=list(MODULUS))
    q.set_defaults(fn=cmd_h2)

    q = sub.add_parser("deform")
    q.add_argument("what", choices=["jurman", "poisson-family", "cocycle"])
    q.add_argument("--g", type=int, default=2)
    q.add_argument("--h", type=int, default=1)
    q.add_argument("--algebra", default="")
    q.add_argument("--cocycle", default="")
    q.add_argument("--alpha", default="0")
    q.add_argument("--hbar", default="")
    q.add_argument("--field", default="gf2")
    q.add_argument("--N", default="2,2")
    q.set_defaults(fn=cmd_deform)

    q = sub.add_parser("iso")
    q.add_argument("--algebra", required=True)
    q.add_argument("--other", required=True)
    q.add_argument("--budget", type=int, default=200000)
    q.set_defaults(fn=cmd_iso)

    q = sub.add_parser("grade")
    q.add_argument("--algebra", required=True)
    q.add_argument("--subalgebra", required=True, help="JSON list of row masks")
    q.set_defaults(fn=cmd_grade)

    q = sub.add_parser("super")
    q.add_argument("--base", default="2", help="kaplansky family")
    q.add_argument("--n", type=int, default=4)
    q.add_argument("--arf", type=int, default=None)
    q.add_argument("--mode", default="linear", choices=["linear", "nonlinear"])
    q.add_argument("--v", type=int, default=1)
    q.add_argument("--arf2", type=int, default=0, help="Arf of the nonlinear form")
    q.set_defaults(fn=cmd_super)

    q = sub.add_parser("closure")
    q.add_argument("--base", default="2")
    q.add_argument("--n", type=int, default=4)
    q.add_argument("--arf", type=int, default=None)
    q.set_defaults(fn=cmd_closure)

    q = sub.add_parser("experiment")
    q.add_argument("name", help="'paper-suite' or a JSON experiment file")
    q.set_defaults(fn=cmd_experiment)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SystemExit, OSError, json.JSONDecodeError, UsageError, AlgebraError, FieldError,
            CochainError) as e:  # bad arguments or unreadable input
        print("error: %s" % e, file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - CLI boundary: an internal fault
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
