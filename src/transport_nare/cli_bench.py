"""Command-line front end: generate, solve, verify.

Exit codes: 0 success/convergence, 2 non-convergence or tolerance violation,
1 usage or input errors.  A solver that stops on a rank overflow, a singular
core or a near-critical denominator has not converged: one error line, exit 2.
Every solver reports the original-scale residual of the X it returns, and
'converged' means that residual met the tolerance, so solve judges every
algorithm by its termination alone and verify gates that residual as
residual_lowrank.  verify gates the dense oracle's own residual
(residual_dense) at the bound of the solution_diff comparison it certifies.
Output files land in --out, else in the directory named by the
TRANSPORT_NARE_OUT environment variable, else the working directory.

solve writes a versioned JSON report plus a flop CSV with columns
k,kernel,count.  verify prints one PASS/FAIL line per gated check and, with
--out, writes them to a versioned JSON report; for modified-sda-ls at
n <= AUDIT_MAX_N the checks include the symmetry audit, whose rows the
report carries too.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .transport_problem import (
    TransportParams,
    gauss_legendre,
    make_instance,
    read_instance,
    build_instance,
    write_instance,
)
from .structured_linalg import NearCriticalError, RankOverflowError
from .sda_ls import SolverConfig, sda_ls_solve
from .modified_sda_ls import AUDIT_MAX_N, CoreSingularError, audit_symmetry, \
    msda_solve
from .dense_sda import dense_sda_solve

ALGOS = ("dense-sda", "sda-ls", "modified-sda-ls")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for tolerance
    violations and non-convergence)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _out_dir(args):
    out = args.out or os.environ.get("TRANSPORT_NARE_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _tag(params):
    return "n%d_c%s_a%s" % (params.n, format(params.c, "g"), format(params.alpha, "g"))


def _load_instance(args):
    if args.instance:
        params, quad = read_instance(args.instance)
        return build_instance(params, quad)
    if args.n is None or args.c is None or args.alpha is None:
        raise UsageError("provide --instance FILE or all of --n, --c, --alpha")
    return make_instance(args.n, args.c, args.alpha)


def _requested(args):
    """The config options as given on the command line, None where omitted."""
    return {f.name: getattr(args, f.name) for f in fields(SolverConfig)}


def _config(args):
    """SolverConfig from the given options; it checks their ranges itself."""
    return SolverConfig(**{k: v for k, v in _requested(args).items()
                           if v is not None})


def _add_instance_args(p):
    p.add_argument("--n", type=int, help="quadrature size")
    p.add_argument("--c", type=float, help="scattering parameter, 0 < c <= 1")
    p.add_argument("--alpha", type=float, help="asymmetry parameter, 0 <= alpha < 1")
    p.add_argument("--instance", help="instance file written by generate")


def _add_config_args(p):
    p.add_argument("--tol", dest="tol_residual", type=float, help="residual tolerance")
    p.add_argument("--trunc-rel", type=float,
                   help="relative truncation threshold (0 disables truncation)")
    p.add_argument("--max-iter", type=int)
    p.add_argument("--max-rank", type=int)


def build_parser():
    ap = _Parser(prog="transport-nare",
                 description="Doubling solvers for transport-regime algebraic "
                             "Riccati equations")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="write an instance file")
    _add_instance_args(g)
    g.add_argument("--out", help="output directory")

    s = sub.add_parser("solve", help="run one solver, write JSON report + flop CSV")
    _add_instance_args(s)
    _add_config_args(s)
    s.add_argument("--algo", choices=ALGOS, default="modified-sda-ls")
    s.add_argument("--out", help="output directory")

    v = sub.add_parser("verify", help="cross-check a large-scale solver against "
                                      "the dense oracle")
    _add_instance_args(v)
    _add_config_args(v)
    v.add_argument("--algo", choices=("sda-ls", "modified-sda-ls"),
                   default="modified-sda-ls")
    v.add_argument("--out", help="output directory (JSON comparison report)")
    return ap


# ---------------------------------------------------------------------------
# solve


def _run_solver(algo, inst, config):
    if algo == "dense-sda":
        X, Y, report = dense_sda_solve(inst, config)
        return X, report
    if algo == "sda-ls":
        return sda_ls_solve(inst, config)
    return msda_solve(inst, config)


def _x_entry(X):
    if isinstance(X, np.ndarray):
        return float(X[0, 0])
    return float(X.entry(0, 0))


def cmd_generate(args):
    if args.instance:
        raise UsageError("generate builds from --n/--c/--alpha, not --instance")
    if args.n is None or args.c is None or args.alpha is None:
        raise UsageError("generate requires --n, --c and --alpha")
    params = TransportParams(c=args.c, alpha=args.alpha, n=args.n)
    quad = gauss_legendre(args.n)
    out = _out_dir(args)
    path = os.path.join(out, "instance_%s.txt" % _tag(params))
    write_instance(params, quad, path)
    print(path)
    return 0


def cmd_solve(args):
    inst = _load_instance(args)
    config = _config(args)
    X, report = _run_solver(args.algo, inst, config)
    doc = report.to_dict()
    doc["c"] = inst.params.c
    doc["alpha"] = inst.params.alpha
    doc["near_singular"] = bool(inst.near_singular)
    doc["x_entry_11"] = _x_entry(X)
    out = _out_dir(args)
    tag = "%s_%s" % (args.algo, _tag(inst.params))
    report_path = os.path.join(out, "report_%s.json" % tag)
    flops_path = os.path.join(out, "flops_%s.csv" % tag)
    with open(report_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    report.flops.to_csv(flops_path)
    print("%s n=%d iterations=%d termination=%s residual=%.3e -> %s"
          % (args.algo, inst.n, report.iterations, report.termination,
             report.final_residual, report_path))
    return 0 if report.termination == "converged" else 2


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    inst = _load_instance(args)
    n = inst.n
    config = _config(args)
    tol = config.tol_residual
    loose = max(100.0 * tol, 1e-10)

    checks = []

    Xd, Yd, dreport = dense_sda_solve(inst, config)
    # the oracle only certifies the solution_diff comparison, so it answers to
    # that bound: its own floor sits above the default tol from n = 128 on
    checks.append(("residual_dense", dreport.final_residual, loose))
    X, report = _run_solver(args.algo, inst, config)
    checks.append(("residual_lowrank", report.final_residual, tol))
    Xl = X.dense()
    diff = np.linalg.norm(Xl - Xd) / np.linalg.norm(Xd)
    checks.append(("solution_diff", diff, loose))

    audit_doc = None
    if args.algo == "modified-sda-ls" and n <= AUDIT_MAX_N:
        audit = audit_symmetry(inst, config=config)
        audit_doc = audit.to_dict()
        checks.append(("audit_gated", audit.max_gated(), loose))

    failures = 0
    for name, value, bound in checks:
        ok = np.isfinite(value) and value <= bound
        if not ok:
            failures += 1
        print("check %-18s %s  %.3e <= %.3e"
              % (name, "PASS" if ok else "FAIL", value, bound))

    if args.out:
        out = _out_dir(args)
        doc = {
            "schema_version": 1,
            "n": n, "c": inst.params.c, "alpha": inst.params.alpha,
            "algorithm": args.algo,
            "requested": _requested(args),
            "checks": [{"name": a, "value": float(b), "bound": float(c),
                        "pass": bool(np.isfinite(b) and b <= c)}
                       for a, b, c in checks],
            "dense_report": dreport.to_dict(),
            "solver_report": report.to_dict(),
        }
        if audit_doc is not None:
            doc["symmetry_audit"] = audit_doc
        path = os.path.join(out, "verify_%s_%s.json"
                            % (args.algo, _tag(inst.params)))
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print("report -> %s" % path)
    return 2 if failures else 0


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_verify(args)
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (RankOverflowError, CoreSingularError, NearCriticalError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
