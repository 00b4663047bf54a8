"""Command-line surface: acceptance sweeps emitting machine-readable tables.

Subcommands
-----------
closed-form      closed Gamma form over a grid of parameter triples
quadrature-check quadrature vs closed form, relative deviations
gaussian-check   Monte Carlo vs closed form for the Gaussian identities
decay-scan       normalized exponential-decay sequence with extrapolation
sobolev-trace    relative traces over a T ladder (--check-doubling: at
                 (2N, 2K), with the error_bound of sobolev_trace_estimate)

Every table embeds a meta block (schema, command, config echo, seed (null
except for gaussian-check, the one command that draws samples), library
version, and wall time unless --reproducible is given).  With --reproducible
the output bytes are a pure function of the configuration.  Exit codes:
0 success, 1 a mathematical error was flagged in the table, 2 bad config.
"""

import argparse
import csv
import io
import json
import sys
import time
from contextlib import suppress
from functools import lru_cache

import numpy as np

from . import __version__
from .errors import (DomainTooSmallError, NonConvergentError, PoleArgumentError,
                     PreconditionError, TriformError)
from .circlefn import CircleFunction
from .gaussian import identity_battery
from .quadrature import QuadratureConfig
from .specdecomp import sobolev_trace, sobolev_trace_estimate
from .trilinear import (closed_form_log, closed_form_value, decay_constant,
                        decay_envelope, normalized_decay, require_doubling_ladder,
                        spherical_square, triple_quadrature)

SCHEMA = "triform.table.v1"


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _parse_triples(args) -> list:
    """Triples of purely imaginary parameters from --triples / --cube."""
    out = []
    if args.cube:
        vals = [_parse_param(v) for v in _split(args.cube)]
        for a in vals:
            for b in vals:
                for c in vals:
                    out.append((a, b, c))
    if args.triples:
        for part in args.triples.split(";"):
            part = part.strip()
            if not part:
                continue
            vs = _split(part)
            if len(vs) != 3:
                raise PreconditionError(f"triple {part!r} must have three entries")
            out.append(tuple(_parse_param(v) for v in vs))
    return out


def _parse_param(text: str) -> complex:
    """A parameter given as its imaginary part ('2' is 2j), or with a j."""
    return complex(text) if "j" in text else 1j * float(text)


def _split(text):
    return [t.strip() for t in text.split(",") if t.strip()]


# ---------------------------------------------------------------------------
# table output
# ---------------------------------------------------------------------------

def _write_table(args, command, config, rows, columns, extra_meta=None):
    meta = {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "seed": None,
        "version": __version__,
    }
    if extra_meta:
        meta.update(extra_meta)
    if not args.reproducible:
        meta["elapsed_seconds"] = round(time.time() - args._t0, 3)
    if args.format == "json":
        payload = {"meta": meta, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=1, default=str) + "\n"
    else:
        buf = io.StringIO()
        for key in sorted(meta):
            buf.write(f"# {key}={json.dumps(meta[key], sort_keys=True, default=str)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else row.get(c)
                             for c in columns])
        text = buf.getvalue()
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_lam(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _converged(driver, *args):
    """driver(*args) and "", or the stalled Estimate and "non-convergent"."""
    try:
        return driver(*args), ""
    except NonConvergentError as exc:
        return exc.estimate, "non-convergent"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_closed_form(args) -> int:
    triples = _parse_triples(args)
    rows = []
    flagged = False
    for (a, b, c) in triples:
        row = {"l1": _fmt_lam(a), "l2": _fmt_lam(b), "l3": _fmt_lam(c)}
        try:
            lg = closed_form_log(a, b, c)
            row["abs_value"] = float(np.exp(lg.real))
            row["arg_value"] = float(np.mod(lg.imag + np.pi, 2 * np.pi) - np.pi)
            row["square"] = spherical_square(a, b, c)
            # empty outside the decay domain, which decay_envelope decides
            with suppress(PreconditionError, DomainTooSmallError):
                row["envelope"] = decay_envelope(c)
                row["normalized"] = normalized_decay(a, b, c)
            row["error"] = ""
        except PoleArgumentError as exc:
            row["error"] = f"pole:{exc.factor}"
            flagged = True
        rows.append(row)
    cols = ["l1", "l2", "l3", "abs_value", "arg_value", "square",
            "envelope", "normalized", "error"]
    _write_table(args, "closed-form", {"triples": len(rows)}, rows, cols)
    return 1 if flagged else 0


def cmd_quadrature_check(args) -> int:
    triples = _parse_triples(args)
    cfg = QuadratureConfig(refinement_levels=args.quad_levels,
                           target_rel_error=args.target)
    ones = CircleFunction.constant(1.0)
    rows = []
    max_dev = 0.0
    for (a, b, c) in triples:
        row = {"l1": _fmt_lam(a), "l2": _fmt_lam(b), "l3": _fmt_lam(c)}
        try:
            cf = closed_form_value(a, b, c)
            est, row["error"] = _converged(triple_quadrature, ones, ones, ones,
                                           a, b, c, cfg)
            dev = None if row["error"] else abs(est.value - cf.value) / abs(cf.value)
            max_dev = max(max_dev, dev or 0.0)
            row.update(closed_re=cf.value.real, closed_im=cf.value.imag,
                       quad_re=est.value.real, quad_im=est.value.imag,
                       rel_deviation=dev, error_bound=est.error_bound,
                       cost=est.cost)
        except PoleArgumentError as exc:
            row["error"] = f"pole:{exc.factor}"
        rows.append(row)
    cols = ["l1", "l2", "l3", "closed_re", "closed_im", "quad_re", "quad_im",
            "rel_deviation", "error_bound", "cost", "error"]
    _write_table(args, "quadrature-check",
                 {"triples": len(rows), "levels": args.quad_levels,
                  "target": args.target},
                 rows, cols, extra_meta={"max_rel_deviation": max_dev})
    return 1 if any(row["error"] for row in rows) else 0


def cmd_gaussian_check(args) -> int:
    rows = []
    for identity, params, lhs, rhs in identity_battery(args.samples, args.seed):
        sigma = max(lhs.error_bound / 3.0, rhs.error_bound, 1e-300)
        rows.append({
            "identity": identity, "params": params,
            "mc_re": lhs.value.real, "mc_im": lhs.value.imag,
            "closed_re": rhs.value.real, "closed_im": rhs.value.imag,
            "mc_3sigma": lhs.error_bound,
            "zscore": abs(lhs.value - rhs.value) / sigma, "error": "",
        })
    worst = max(r["zscore"] for r in rows)
    cols = ["identity", "params", "mc_re", "mc_im", "closed_re", "closed_im",
            "mc_3sigma", "zscore", "error"]
    _write_table(args, "gaussian-check", {"samples": args.samples}, rows, cols,
                 extra_meta={"max_zscore": worst, "seed": args.seed})
    return 1 if worst > 4.0 else 0


def cmd_decay_scan(args) -> int:
    ladder = [float(v) for v in _split(args.ladder)]
    tau, tp = _parse_param(args.tau), _parse_param(args.tau_prime)
    require_doubling_ladder(ladder)     # one rung too; the plateau needs two
    rows = []
    prev = None
    for t in ladder:
        r = normalized_decay(tau, tp, 1j * t)
        row = {"abs_lam": t, "normalized": r,
               "rel_diff_prev": None if prev is None else abs(r - prev) / prev}
        prev = r
        rows.append(row)
    meta = {}
    if len(ladder) >= 2:
        c, err = decay_constant(tau, tp, ladder)
        meta = {"extrapolated_constant": c, "extrapolation_error": err}
    cols = ["abs_lam", "normalized", "rel_diff_prev"]
    _write_table(args, "decay-scan",
                 {"tau": str(tau), "tau_prime": str(tp), "ladder": ladder},
                 rows, cols, extra_meta=meta)
    return 0


def cmd_sobolev_trace(args) -> int:
    ladder = [float(v) for v in _split(args.t_ladder)]
    params = (1j * args.tau_imag, 1j * args.tau_prime_imag)
    rows = []
    for T in ladder:
        lam = 1j * args.lam_factor * T
        trace = (args.l, T, lam, params, args.max_mode, args.k_modes)
        row = {"T": T, "lam_im": args.lam_factor * T}
        if args.check_doubling:
            est, row["error"] = _converged(sobolev_trace_estimate, *trace)
            rho, row["error_bound"] = est.value, est.error_bound
        else:
            rho = sobolev_trace(*trace)
        row.update(rho=rho, rho_scaled=rho * T ** (2 * args.l))
        rows.append(row)
    cols = ["T", "lam_im", "rho", "rho_scaled", "error_bound", "error"]
    _write_table(args, "sobolev-trace",
                 {"l": args.l, "N": args.max_mode, "K_modes": args.k_modes,
                  "lam_factor": args.lam_factor, "ladder": ladder},
                 rows, cols)
    return 1 if any(row.get("error") for row in rows) else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--reproducible", action="store_true",
                   help="omit wall time so identical configs give identical bytes")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and each parse_args call makes a fresh namespace."""
    ap = argparse.ArgumentParser(prog="triform", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closed-form", help="closed Gamma form over a grid")
    p.add_argument("--triples", default="", help="semicolon-separated triples "
                   "of imaginary parts, e.g. '0,0,0;0,1,4'")
    p.add_argument("--cube", default="", help="comma list of imaginary parts; "
                   "the grid is its cube")
    _add_common(p)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("quadrature-check", help="quadrature vs closed form")
    p.add_argument("--triples", default="")
    p.add_argument("--cube", default="")
    p.add_argument("--quad-levels", type=int, default=6)
    p.add_argument("--target", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_quadrature_check)

    p = sub.add_parser("gaussian-check", help="Monte Carlo identity battery")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=20240901)
    _add_common(p)
    p.set_defaults(func=cmd_gaussian_check)

    p = sub.add_parser("decay-scan", help="normalized decay over a ladder")
    p.add_argument("--tau", default="0")
    p.add_argument("--tau-prime", default="0")
    p.add_argument("--ladder", default="25,50,100,200,400")
    _add_common(p)
    p.set_defaults(func=cmd_decay_scan)

    p = sub.add_parser("sobolev-trace", help="relative traces over a T ladder")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--t-ladder", default="2,4,8")
    p.add_argument("--lam-factor", type=float, default=1.0,
                   help="lam = i * factor * T")
    p.add_argument("--tau-imag", type=float, default=0.0)
    p.add_argument("--tau-prime-imag", type=float, default=0.0)
    p.add_argument("--max-mode", type=int, default=64)
    p.add_argument("--k-modes", type=int, default=32)
    p.add_argument("--check-doubling", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_sobolev_trace)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._t0 = time.time()
    try:
        return args.func(args)
    except (ValueError, TriformError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
