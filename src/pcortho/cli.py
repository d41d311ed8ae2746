"""Command-line front end: check, project, factor, rank, basis, graph."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bases, io, model, projection
from .errors import (
    DegenerateElement,
    LengthMismatch,
    MatrixFormatError,
    NonPositiveWeight,
    NotConsistent,
    NotPositiveDefinite,
    NotReciprocal,
    NotSymmetric,
    OrderTooSmall,
    ShapeMismatch,
    SingularGram,
    ZeroMatrix,
)
from .inner import FrobeniusInner

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pcortho",
        description="Decompose pairwise comparison matrices into consistent "
        "and totally inconsistent components.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_input=True):
        if with_input:
            sp.add_argument("input", help="matrix file (CSV or JSON)")
            sp.add_argument("--format", choices=["csv", "json", "auto"], default="auto")
            sp.add_argument("--symmetrize", action="store_true",
                            help="geometric repair sqrt(m_ij/m_ji) before the log map")
        sp.add_argument("--weights", metavar="PATH", default=None,
                        help="weight matrix file (default: identity)")
        sp.add_argument("--output", choices=["json", "text"], default="text")
        sp.add_argument("--reciprocity-tol", type=float, default=model.RECIPROCITY_TOL)
        sp.add_argument("--consistency-tol", type=float, default=model.CONSISTENCY_TOL)

    add_common(sub.add_parser("check", help="reciprocity and consistency verdicts"))
    add_common(sub.add_parser("project", help="decomposition report"))
    add_common(sub.add_parser("factor", help="multiplicative factors phi(B_h), phi(B_l)"))
    add_common(sub.add_parser("rank", help="priority vector of the consistent part"))

    b = sub.add_parser("basis", help="serialize a basis of l_n, h_n, or W-orthogonal l_n")
    b.add_argument("--subspace", choices=["ln", "hn", "ln-w"], required=True)
    b.add_argument("--order", type=int, required=True, metavar="N")
    b.add_argument("--orthogonalize-hn", action="store_true")
    b.add_argument("--normalize-basis", action="store_true")
    add_common(b, with_input=False)

    g = sub.add_parser("graph", help="DOT form of the oriented comparison graph")
    g.add_argument("--order", type=int, required=True, metavar="N")
    g.add_argument("--reduced", action="store_true",
                   help="drop vertex 1 and its edges")
    return p


def _load_weights(args, n: int) -> model.WeightMatrix:
    if getattr(args, "weights", None) is None:
        return model.WeightMatrix.identity(n)
    W = model.WeightMatrix.from_rows(io.load_matrix(args.weights))
    if W.n != n:
        raise ShapeMismatch(f"weight order {W.n} does not match input order {n}")
    return W


def _load_pc(args) -> model.PCMatrix:
    A = model.PCMatrix.from_rows(io.load_matrix(args.input, args.format))
    if args.symmetrize:
        A = model.symmetrize(A)
    return A


def _emit(report: dict, args, text_renderer) -> None:
    if args.output == "json":
        print(json.dumps(report))
    else:
        text_renderer(report)


def cmd_check(args) -> int:
    A = _load_pc(args)
    defect, (i, j) = A.reciprocity_defect()
    cdefect = model.consistency_defect(A)
    report = {
        "command": "check",
        "n": A.n,
        "reciprocal": bool(defect <= args.reciprocity_tol),
        "worst_reciprocity_defect": defect,
        "worst_pair": [i + 1, j + 1],
        "consistent": bool(cdefect <= args.consistency_tol),
        "worst_consistency_defect": cdefect,
    }

    def render(r):
        yn = lambda b: "yes" if b else "no"
        print(f"reciprocal: {yn(r['reciprocal'])}; consistent: {yn(r['consistent'])}")
        print(f"worst reciprocity defect: {r['worst_reciprocity_defect']:.6e} "
              f"at pair ({r['worst_pair'][0]}, {r['worst_pair'][1]})")
        print(f"worst consistency defect: {r['worst_consistency_defect']:.6e}")

    _emit(report, args, render)
    return EXIT_OK


def _decompose_from_args(args):
    A = _load_pc(args)
    W = _load_weights(args, A.n)
    B = model.mu(A, tol=args.reciprocity_tol)
    return A, W, projection.decompose(B, W)


def cmd_project(args) -> int:
    A, W, D = _decompose_from_args(args)
    rv = projection.ranking(D.B_l)
    report = {
        "command": "project",
        "n": A.n,
        "input": A.entries.tolist(),
        "b_l": D.B_l.dense().tolist(),
        "b_h": D.B_h.dense().tolist(),
        "inconsistency_ratio": projection.decomposition_ratio(D)
        if D.B.max_abs() > 0 else 0.0,
        "ranking_weights": rv.weights.tolist(),
        "corollary_checks": projection.corollary_checks(D).as_dict(),
    }

    def render(r):
        print(f"order: {r['n']}")
        print(f"inconsistency ratio: {r['inconsistency_ratio']:.6f}")
        print("ranking weights: " + " ".join(f"{x:.6f}" for x in r["ranking_weights"]))
        print("consistent part (log domain):")
        for row in r["b_l"]:
            print("  " + " ".join(f"{x: .6f}" for x in row))
        print("totally inconsistent part (log domain):")
        for row in r["b_h"]:
            print("  " + " ".join(f"{x: .6f}" for x in row))
        cc = r["corollary_checks"]
        print(f"corollary deviations: h-row-sums {cc['h_row_sum_max']:.3e}, "
              f"l-row-sum match {cc['l_row_sum_match_max']:.3e}")

    _emit(report, args, render)
    return EXIT_OK


def cmd_factor(args) -> int:
    A, W, D = _decompose_from_args(args)
    Fh, Fl = model.phi(D.B_h), model.phi(D.B_l)
    report = {
        "command": "factor",
        "n": A.n,
        "phi_b_h": Fh.entries.tolist(),
        "phi_b_l": Fl.entries.tolist(),
    }

    def render(r):
        print("totally inconsistent factor:")
        for row in r["phi_b_h"]:
            print("  " + " ".join(f"{x:.6f}" for x in row))
        print("consistent factor:")
        for row in r["phi_b_l"]:
            print("  " + " ".join(f"{x:.6f}" for x in row))

    _emit(report, args, render)
    return EXIT_OK


def cmd_rank(args) -> int:
    A, W, D = _decompose_from_args(args)
    rv = projection.ranking(D.B_l)
    report = {
        "command": "rank",
        "n": A.n,
        "logvalues": rv.logvalues.tolist(),
        "weights": rv.weights.tolist(),
    }

    def render(r):
        for k, (lv, w) in enumerate(zip(r["logvalues"], r["weights"]), start=1):
            print(f"alternative {k}: weight {w:.6f} (log {lv: .6f})")

    _emit(report, args, render)
    return EXIT_OK


def cmd_basis(args) -> int:
    n = args.order
    if args.subspace == "ln":
        bs = bases.ln_basis(n)
    elif args.subspace == "hn":
        bs = bases.hn_cycle_basis(n, orthogonalize=args.orthogonalize_hn)
    else:
        W = _load_weights(args, n)
        bs = bases.ln_w_basis(n, W)
    if args.normalize_basis:
        ip = bs.inner_product or FrobeniusInner()
        bs.elements = [
            e * (1.0 / np.sqrt(ip(e.dense(), e.dense()))) for e in bs.elements
        ]
    report = bs.to_json_dict()

    def render(r):
        print(f"subspace {r['subspace']}, order {r['n']}, {len(r['elements'])} elements")
        for k, coords in enumerate(r["elements"], start=1):
            print(f"element {k}: " + " ".join(f"{x:g}" for x in coords))

    _emit(report, args, render)
    return EXIT_OK


def cmd_graph(args) -> int:
    n = args.order
    if n < 2:
        raise OrderTooSmall(f"order {n} < 2")
    lo = 2 if args.reduced else 1
    print("digraph pc {")
    for i in range(lo, n + 1):
        for j in range(i + 1, n + 1):
            print(f"  {i} -> {j};")
    print("}")
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "project": cmd_project,
    "factor": cmd_factor,
    "rank": cmd_rank,
    "basis": cmd_basis,
    "graph": cmd_graph,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MatrixFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (
        NotReciprocal,
        NotSymmetric,
        NotPositiveDefinite,
        NonPositiveWeight,
        NotConsistent,
        OrderTooSmall,
        ShapeMismatch,
        LengthMismatch,
        ZeroMatrix,
    ) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DegenerateElement, SingularGram) as exc:
        print(f"internal numeric failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
