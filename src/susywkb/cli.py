"""Command-line front end.

Subcommands: list, spectrum, compare, contours, census, defect, residues.
Output is deterministic CSV (default) or JSON: fixed field order, 12
significant digits, complex values as a single quoted "re+imi" field, no
timestamps.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import catalog, contours, numerov, swkb
from .errors import ConvergenceError, DomainError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, complex):
        return f'"{v.real:.12g}{v.imag:+.12g}i"'
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_cell(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


def _emit(columns, rows, args):
    if args.format == "json":
        text = json.dumps([{c: _json_cell(r.get(c)) for c in columns}
                           for r in rows], indent=2, sort_keys=False) + "\n"
    else:
        lines = [",".join(columns)]
        for r in rows:
            lines.append(",".join(_fmt(r.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_params(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise DomainError(f"bad --params item {item!r}; expected k=v")
        k, v = item.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError:
            raise DomainError(f"bad --params value {v!r} for {k.strip()}; "
                              "expected a number") from None
    return out


def _load_spec(args):
    params = {}
    hbar = 1.0
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        params.update(doc.get("params", {}))
        hbar = doc.get("hbar", hbar)
    params.update(_parse_params(args.params))
    if args.hbar is not None:
        hbar = args.hbar
    return catalog.get_spec(args.id, params=params or None, hbar=hbar)


def _bound_levels(spec, requested):
    out = []
    n = 0
    while len(out) < requested and spec.n_is_bound(n):
        out.append(n)
        n += 1
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_list(args):
    rows = []
    hbar = 1.0 if args.hbar is None else args.hbar
    for spec in catalog.catalog_list(hbar=hbar):
        rows.append({
            "id": spec.id,
            "mapping": spec.mapping,
            "domain_lo": float(spec.domain[0]),
            "domain_hi": float(spec.domain[1]),
            "params": '"' + ";".join(f"{k}={v:.12g}"
                                     for k, v in sorted(spec.params.items())) + '"',
            "hbar": spec.hbar,
            "closed_form_spectrum": "yes" if spec.spectrum else "no",
            "partial": "yes" if spec.partial else "no",
        })
    _emit(["id", "mapping", "domain_lo", "domain_hi", "params", "hbar",
           "closed_form_spectrum", "partial"], rows, args)


def _oracle_hint(spec, n):
    """Where the Numerov oracle starts level n: the closed form, else the
    SWKB level."""
    if spec.spectrum is not None:
        return catalog.closed_form_energy(spec, n)
    return swkb.solve_level(spec, n).energy


def _solve_one(spec, n, method, dump=None):
    if method == "closed_form":
        E = catalog.closed_form_energy(spec, n)
        return swkb.QuantizationResult(n, E, "closed_form", 0.0)
    if method == "swkb":
        return swkb.solve_level(spec, n)
    if method == "contour":
        return contours.quantize_by_contours(spec, n)
    if method == "poles":
        return swkb.quantize_by_poles(spec, n)
    if method == "numerov":
        hint = _oracle_hint(spec, n)
        E = numerov.numerov_eigenvalue(spec, n, E_hint=hint)
        if dump:
            sol = numerov.grid_solution(spec, n, E_hint=hint)
            stem = dump[:-len(".csv")] if dump.endswith(".csv") else dump
            numerov.dump_wavefunction(sol, f"{stem}.n{n}.csv")
        return swkb.QuantizationResult(n, E, "numerov", 0.0)
    raise DomainError(f"unknown method {method!r}")


def _cmd_spectrum(args):
    spec = _load_spec(args)
    rows = []
    for n in _bound_levels(spec, args.levels):
        r = _solve_one(spec, n, args.method, dump=args.dump_wavefunction)
        rows.append({"n": r.n, "energy": float(r.energy), "method": r.method,
                     "residual": float(r.residual)})
    _emit(["n", "energy", "method", "residual"], rows, args)


def _cmd_compare(args):
    spec = _load_spec(args)
    two_cut = spec.cut_count <= 2
    rows = []
    for n in _bound_levels(spec, args.levels):
        vals = {}
        if spec.spectrum is not None:
            vals["E_closed_form"] = catalog.closed_form_energy(spec, n)
        vals["E_swkb"] = swkb.solve_level(spec, n).energy
        if two_cut:
            vals["E_contour"] = contours.quantize_by_contours(spec, n).energy
        # _oracle_hint's start, from the levels solved above
        vals["E_numerov"] = numerov.numerov_eigenvalue(
            spec, n, E_hint=vals.get("E_closed_form", vals["E_swkb"]))
        gap = max(abs(a - b) for a in vals.values() for b in vals.values())
        rows.append({
            "n": n,
            "E_closed_form": vals.get("E_closed_form"),
            "E_swkb": vals["E_swkb"],
            "E_contour": vals.get("E_contour"),
            "E_numerov": vals["E_numerov"],
            "max_pairwise_gap": float(gap),
        })
    _emit(["n", "E_closed_form", "E_swkb", "E_contour", "E_numerov",
           "max_pairwise_gap"], rows, args)


def _cmd_contours(args):
    spec = _load_spec(args)
    dec = contours.decompose(spec, args.energy)
    rows = []
    for pole in sorted(dec.J_gamma, key=catalog.plane_key):
        rows.append({"term": "pole", "location": complex(pole),
                     "value": complex(dec.J_gamma[pole]),
                     "residual": dec.closure_residual})
    rows.append({"term": "large_circle", "location": "infinity",
                 "value": complex(dec.J_GammaR),
                 "residual": dec.closure_residual})
    rows.append({"term": "classical_cut", "location": "",
                 "value": complex(dec.J_classical_cut),
                 "residual": dec.closure_residual})
    rows.append({"term": "mirror_cut", "location": "",
                 "value": complex(dec.J_mirror_cut),
                 "residual": dec.closure_residual})
    for k, v in enumerate(dec.J_other_cuts):
        rows.append({"term": f"other_cut_{k}", "location": "",
                     "value": complex(v),
                     "residual": dec.closure_residual})
    _emit(["term", "location", "value", "residual"], rows, args)


def _cmd_census(args):
    spec = _load_spec(args)
    cen = contours.census(spec, args.energy)
    rows = []
    for p in cen.fixed_poles:
        loc = "infinity" if isinstance(p, str) else complex(p)
        rows.append({"kind": "fixed_pole", "location": loc,
                     "partner": "", "classification": ""})
    for b in sorted(cen.branch_points, key=catalog.plane_key):
        rows.append({"kind": "branch_point", "location": complex(b),
                     "partner": "", "classification": ""})
    for cut in cen.branch_cuts:
        rows.append({"kind": "branch_cut_arc" if cut.arc else "branch_cut",
                     "location": complex(cut.p1), "partner": complex(cut.p2),
                     "classification": cut.kind})
    _emit(["kind", "location", "partner", "classification"], rows, args)


def _cmd_residues(args):
    """Each pole's SWKB sheet term beside its QHJ term, and the other root
    of the QHJ quadratic at the finite poles of omega, at the level's
    energy: the closed form, else the SWKB level."""
    spec = _load_spec(args)
    n = args.level
    E = _oracle_hint(spec, n)
    table = contours.residue_table(spec, E)
    rows = []
    for loc in sorted((p for p in table if p != "infinity"),
                      key=catalog.plane_key) + ["infinity"]:
        J_swkb, J_qhj, J_other = table[loc]
        rows.append({
            "n": n, "E": float(E),
            "term": "large_circle" if loc == "infinity" else "pole",
            "location": loc if loc == "infinity" else complex(loc),
            "J_swkb": complex(J_swkb), "J_qhj": complex(J_qhj),
            "J_qhj_other": None if J_other is None else complex(J_other),
        })
    _emit(["n", "E", "term", "location", "J_swkb", "J_qhj", "J_qhj_other"],
          rows, args)


def _cmd_defect(args):
    spec = _load_spec(args)
    n = args.level
    E = _oracle_hint(spec, n)
    if spec.spectrum is None:
        E = numerov.numerov_eigenvalue(spec, n, E_hint=E)
    rep = contours.defect_report(spec, E, n)
    rows = [{
        "id": rep.potential_id, "n": rep.n, "E_exact": rep.E_exact,
        "J_swkb": rep.J_swkb, "J_obc_direct": rep.J_obc_direct,
        "J_obc_indirect": rep.J_obc_indirect,
        "consistency_gap": rep.consistency_gap,
    }]
    _emit(["id", "n", "E_exact", "J_swkb", "J_obc_direct", "J_obc_indirect",
           "consistency_gap"], rows, args)


# ---------------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="susywkb",
                description="SWKB quantization cross-verification suite")
    p.add_argument("--params", default="", help="comma-separated k=v overrides")
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--dump-wavefunction", default=None, metavar="PATH")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list")

    sp = sub.add_parser("spectrum")
    sp.add_argument("id")
    sp.add_argument("--method", default="swkb",
                    choices=("swkb", "contour", "poles", "closed_form",
                             "numerov"))
    sp.add_argument("--levels", type=int, default=4)

    cp = sub.add_parser("compare")
    cp.add_argument("id")
    cp.add_argument("--levels", type=int, default=2)

    ct = sub.add_parser("contours")
    ct.add_argument("id")
    ct.add_argument("--energy", type=float, required=True)

    cs = sub.add_parser("census")
    cs.add_argument("id")
    cs.add_argument("--energy", type=float, required=True)

    df = sub.add_parser("defect")
    df.add_argument("id")
    df.add_argument("--level", type=int, required=True)

    rs = sub.add_parser("residues")
    rs.add_argument("id")
    rs.add_argument("--level", type=int, required=True)
    return p


_DISPATCH = {
    "list": _cmd_list,
    "spectrum": _cmd_spectrum,
    "compare": _cmd_compare,
    "contours": _cmd_contours,
    "census": _cmd_census,
    "defect": _cmd_defect,
    "residues": _cmd_residues,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _DISPATCH[args.command](args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
