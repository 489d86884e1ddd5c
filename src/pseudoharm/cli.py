"""Command-line front end: spectra, wave-function sampling, the ground-state
comparison table, ground-state scans, and raw matrix-mechanics runs.

Artifacts are CSV (primary, deterministic: %.17g floats, LF endings, header
row naming units) with a JSON RunRecord mirror; wall-clock timing lives in
the RunRecord / metadata sidecar, never in the CSV payload.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, matmech, refdata, regspec
from .eigensolver import eigh_lowest
from .errors import DomainError, PseudoharmError
from .quadrature import integrate, integrate_to_infinity
from .unreg import (EigenSolution, PotentialSpec, label_from_display,
                    make_label, nu_of_alpha, unreg_energy, unreg_psi)

ARTIFACT_VERSION = "1.0.0"


# --- serialization ----------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def _emit_json(obj) -> str:
    """JSON with floats at 17 significant digits (lossless round-trip)."""
    if isinstance(obj, dict):
        inner = ",".join(f"{_emit_json(str(k))}:{_emit_json(v)}"
                         for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(obj)!r}")


@dataclass
class RunRecord:
    """One command invocation: parameters, settings, results, timing."""

    command: str
    parameters: dict
    settings: dict
    units: str
    columns: list
    rows: list
    extras: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    artifact_version: str = ARTIFACT_VERSION

    def to_json(self) -> str:
        payload = {
            "artifact-version": self.artifact_version,
            "command": self.command,
            "parameters": self.parameters,
            "settings": self.settings,
            "units": self.units,
            "columns": self.columns,
            "rows": self.rows,
        }
        payload.update(self.extras)
        payload["wall-time-s"] = self.wall_time_s
        return _emit_json(payload)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(
                _fmt_float(v) if isinstance(v, (float, np.floating))
                else str(v) for v in row))
        return "\n".join(lines) + "\n"


def _write_output(record: RunRecord, out, fmt: str):
    text = record.to_csv() if fmt == "csv" else record.to_json() + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    meta = {
        "artifact-version": record.artifact_version,
        "command": record.command,
        "wall-time-s": record.wall_time_s,
        "written-at-unix": time.time(),
    }
    with open(out + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_emit_json(meta) + "\n")


def _parallel_map(fn, items):
    # Serial: the solves hold the GIL, so threads measured no faster.  The
    # name stays because the benchmark tracer hooks it to attribute spans.
    return [fn(it) for it in items]


# --- argument helpers -------------------------------------------------------

def _parse_n_range(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError(f"empty index range: {text!r}")
    return sorted(set(out))


def _parse_float_list(text: str):
    return [float(v) for v in text.split(",") if v.strip()]


def _energy_scale(units: str, rho):
    if units == "hw":
        return 1.0
    if units == "e1":
        if rho is None:
            raise PseudoharmError("--units e1 requires --rho")
        if not (math.isfinite(rho) and rho > 0.0):
            raise DomainError(f"--rho must be finite and positive, got {rho}")
        return float(rho)
    raise PseudoharmError(f"unknown units {units!r}")


# --- subcommands ------------------------------------------------------------

def cmd_spectrum(args) -> RunRecord:
    parities = ("even", "odd") if args.parity == "both" else (args.parity,)
    scale = _energy_scale(args.units, args.rho)
    unit_tag = args.units
    columns = ["alpha", "delta", "parity",
               f"n_display", "kappa", f"energy_{unit_tag}", "method"]
    rows = []
    if args.ground:
        if args.delta is None:
            raise PseudoharmError("--ground requires --delta")
        spec = PotentialSpec(args.alpha, args.delta)
        sol = regspec.solve_ground_even(spec)
        rows.append([args.alpha, args.delta, "even", sol.label.n_display,
                     sol.kappa, sol.energy * scale, sol.method])
    else:
        if args.n is None:
            raise PseudoharmError("spectrum requires --n (or --ground)")
        tasks = [(p, n) for p in parities for n in args.n]

        def solve(task):
            parity, n = task
            if args.method == "closed":
                if args.delta is not None:
                    raise PseudoharmError(
                        "--method closed is the unregularized solution; "
                        "omit --delta")
                spec = PotentialSpec(args.alpha)
                sol = unreg_energy(spec, make_label(args.alpha, parity, n))
            elif args.method == "transcendental":
                if args.delta is None:
                    raise PseudoharmError("--method transcendental requires --delta")
                spec = PotentialSpec(args.alpha, args.delta)
                sol = regspec.solve_excited(spec, parity, n)
            else:  # asymptotic
                if args.delta is None:
                    raise PseudoharmError("--method asymptotic requires --delta")
                spec = PotentialSpec(args.alpha, args.delta)
                label = make_label(args.alpha, parity, n)
                kappa = asymptotics.kappa_estimate(spec, parity, label.n_display)
                sol = EigenSolution(label=label, nu=nu_of_alpha(args.alpha),
                                    kappa=kappa, energy=kappa + 0.5,
                                    method="asymptotic")
            return sol

        for sol in _parallel_map(solve, tasks):
            rows.append([args.alpha,
                         args.delta if args.delta is not None else "",
                         sol.label.parity, sol.label.n_display, sol.kappa,
                         sol.energy * scale, sol.method])
    rows.sort(key=lambda r: (r[2], r[3]))
    return RunRecord(
        command="spectrum",
        parameters={"alpha": args.alpha, "delta": args.delta,
                    "parity": args.parity, "n": args.n,
                    "method": args.method, "ground": args.ground},
        settings={"kappa_abs_tol": 1e-12},
        units=unit_tag, columns=columns, rows=rows)


def cmd_wavefunction(args) -> RunRecord:
    if args.n is not None and len(args.n) != 1:
        raise PseudoharmError("wavefunction takes a single --n")
    n = args.n[0] if args.n else 0
    for flag, value in (("--x-min", args.x_min), ("--x-max", args.x_max)):
        if not math.isfinite(value):
            raise PseudoharmError(f"wavefunction: {flag} must be finite, "
                                  f"got {value}")
    if args.samples < 0:
        raise PseudoharmError(f"wavefunction: --samples must be >= 0, "
                              f"got {args.samples}")
    xs = np.linspace(args.x_min, args.x_max, args.samples)
    norm_report = {}
    if args.delta is None:
        spec = PotentialSpec(args.alpha)
        label = label_from_display(args.alpha, args.parity, n)
        psi = unreg_psi(spec, label, xs)
        norm_report["analytic_norm"] = 1.0
        method = "closed"
    else:
        spec = PotentialSpec(args.alpha, args.delta)
        if args.ground:
            sol = regspec.solve_ground_even(spec)
        else:
            label = label_from_display(args.alpha, args.parity, n)
            sol = regspec.solve_excited(spec, args.parity, label.n)
        wf = regspec.build_wavefunction(spec, sol)
        psi = wf(xs)
        norm_report = _norm_report(wf, spec)
        method = "transcendental"
    rows = [[float(x), float(p)] for x, p in zip(xs, psi)]
    return RunRecord(
        command="wavefunction",
        parameters={"alpha": args.alpha, "delta": args.delta,
                    "parity": args.parity, "n": n, "ground": args.ground,
                    "x_min": args.x_min, "x_max": args.x_max,
                    "samples": args.samples},
        settings={"norm_rel_tol": 1e-10},
        units="oscillator-length",
        columns=["x_over_x0", "psi_sqrt_x0"], rows=rows,
        extras={"normalization": norm_report, "method": method})


def _norm_report(wf, spec):
    inner = integrate(lambda x: wf(x) ** 2, 0.0, spec.delta, rel_tol=1e-12)
    outer = integrate_to_infinity(
        lambda x: wf(x) ** 2, spec.delta, rel_tol=1e-10,
        first_width=min(1.0, 40.0 / math.sqrt(2.0 * abs(wf.solution.kappa) + 2.0)))
    return {"norm": 2.0 * (inner + outer), "inner_mass": 2.0 * inner}


def cmd_table1(args) -> RunRecord:
    alphas = args.alpha_list or sorted(refdata.TABLE1)
    scale = _energy_scale(args.units, args.rho)
    eps = matmech.epsilon_from_delta(args.delta, args.rho)

    def one(alpha):
        spec = PotentialSpec(alpha, args.delta)
        tric = regspec.solve_ground_even(spec).energy
        sc = asymptotics.ground_state_energy_estimate(alpha, args.delta,
                                                      "self_consistent")
        cf = asymptotics.ground_state_energy_estimate(alpha, args.delta,
                                                      "closed_form")
        model = matmech.assemble(alpha, args.rho, eps, args.nmax)
        vals, _ = eigh_lowest(model.blocks["even"], 1, want_vectors=False)
        mat = vals[0] / args.rho
        return alpha, mat, tric, sc, cf

    columns = ["alpha", f"matrix_{args.units}", f"tricomi_{args.units}",
               f"c0_self_consistent_{args.units}", f"c0_closed_form_{args.units}",
               "dev_matrix", "dev_tricomi", "dev_c0_sc", "dev_c0_cf"]
    rows = []
    for alpha, mat, tric, sc, cf in _parallel_map(one, alphas):
        ref = refdata.TABLE1.get(round(alpha, 10))
        devs = ["", "", "", ""]
        if ref is not None:
            devs = [abs(v - r) / abs(r) for v, r in zip((mat, tric, sc, cf), ref)]
        rows.append([alpha, mat * scale, tric * scale, sc * scale, cf * scale]
                    + devs)
    return RunRecord(
        command="table1",
        parameters={"delta": args.delta, "alpha_list": alphas,
                    "nmax": args.nmax, "rho": args.rho},
        settings={"reference_version": refdata.REFERENCE_VERSION,
                  "reference_matrix_nmax": refdata.TABLE1_MATRIX_NMAX,
                  "reference_matrix_rho": refdata.TABLE1_MATRIX_RHO},
        units=args.units, columns=columns, rows=rows)


def cmd_groundstate_scan(args) -> RunRecord:
    alphas = args.alpha_list
    if not alphas:
        raise PseudoharmError("groundstate-scan requires --alpha-list")
    if any(not -0.25 <= a < 0.0 for a in alphas):
        raise PseudoharmError("groundstate-scan: alphas must lie in [-0.25, 0)")
    deltas = args.delta_list or [0.002]
    tasks = [(a, d) for a in alphas for d in deltas]

    def one(task):
        alpha, delta = task
        spec = PotentialSpec(alpha, delta)
        exact = regspec.solve_ground_even(spec).energy
        sc = asymptotics.c0_self_consistent(alpha)
        cf = asymptotics.c0_closed_form(alpha)
        d2 = delta * delta
        return [alpha, delta, exact, -2.0 * sc.c0 / d2, -2.0 * cf.c0 / d2,
                sc.c0, cf.c0]

    rows = _parallel_map(one, tasks)
    return RunRecord(
        command="groundstate-scan",
        parameters={"alpha_list": alphas, "delta_list": deltas},
        settings={"kappa_rel_tol": 1e-9},
        units="hw",
        columns=["alpha", "delta", "E_exact_hw", "E_estimate_selfconsistent_hw",
                 "E_estimate_closedform_hw", "c0_sc", "c0_cf"],
        rows=rows)


def cmd_matmech(args) -> RunRecord:
    if args.delta is not None:
        eps = matmech.epsilon_from_delta(args.delta, args.rho)
    elif args.epsilon is not None:
        eps = args.epsilon
    else:
        raise PseudoharmError("matmech requires --delta or --epsilon")
    if args.alpha < -0.25 and not args.experimental_alpha_below_quarter:
        raise PseudoharmError(
            "alpha < -1/4 is experimental; pass "
            "--experimental-alpha-below-quarter to proceed (no accuracy claim)")
    model = matmech.assemble(args.alpha, args.rho, eps, args.nmax)
    scale = 1.0 / args.rho if args.units == "hw" else 1.0
    pairs = matmech.eigensolve(model, args.k, want_vectors=False)
    rows = [[args.alpha, eps, p.block, i, p.energy * scale]
            for i, p in enumerate(pairs)]
    extras = {}
    if args.alpha < -0.25:
        extras["experimental"] = True
    return RunRecord(
        command="matmech",
        parameters={"alpha": args.alpha, "delta": args.delta,
                    "epsilon": eps, "rho": args.rho, "nmax": args.nmax,
                    "k": args.k},
        settings={"eigensolver": "block-davidson+fft-toeplitz-hankel",
                  "residual_tol": 1e-10},
        units=args.units,
        columns=["alpha", "epsilon", "block", "rank", f"energy_{args.units}"],
        rows=rows, extras=extras)


# --- entry point ------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="pseudoharm",
        description="Bound states of the 1D oscillator-plus-inverse-square "
                    "potential: closed-form, transcendental, asymptotic and "
                    "matrix-mechanics solvers.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, alpha=True):
        if alpha:
            sp.add_argument("--alpha", type=float, required=True)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--units", choices=("hw", "e1"), default="hw")

    sp = sub.add_parser("spectrum", help="bound-state energies")
    common(sp)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    sp.add_argument("--n", type=_parse_n_range, default=None,
                    help="display indices, e.g. 0..3 or 0,2,5")
    sp.add_argument("--method", choices=("closed", "transcendental",
                                         "asymptotic"),
                    default="closed",
                    help="matrix-mechanics runs use the matmech command")
    sp.add_argument("--ground", action="store_true",
                    help="solve the runaway even ground state (alpha < 0)")
    sp.add_argument("--rho", type=float, default=None)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("wavefunction", help="sample one eigenfunction")
    common(sp)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--parity", choices=("even", "odd"), default="odd")
    sp.add_argument("--n", type=_parse_n_range, default=None)
    sp.add_argument("--ground", action="store_true")
    sp.add_argument("--x-min", type=float, default=-6.0)
    sp.add_argument("--x-max", type=float, default=6.0)
    sp.add_argument("--samples", type=int, default=601)
    sp.set_defaults(fn=cmd_wavefunction)

    sp = sub.add_parser("table1", help="ground-state comparison table")
    common(sp, alpha=False)
    sp.add_argument("--delta", type=float, default=refdata.TABLE1_DELTA)
    sp.add_argument("--alpha-list", type=_parse_float_list, default=None)
    sp.add_argument("--nmax", type=int, default=2000)
    sp.add_argument("--rho", type=float, default=5.0)
    sp.set_defaults(fn=cmd_table1)

    sp = sub.add_parser("groundstate-scan",
                        help="exact vs estimated ground-state energies")
    common(sp, alpha=False)
    sp.add_argument("--alpha-list", type=_parse_float_list, required=True)
    sp.add_argument("--delta-list", type=_parse_float_list, default=None)
    sp.set_defaults(fn=cmd_groundstate_scan)

    sp = sub.add_parser("matmech", help="raw sine-basis matrix run")
    common(sp)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--rho", type=float, default=5.0)
    sp.add_argument("--nmax", type=int, default=2000)
    sp.add_argument("--k", type=int, default=4,
                    help="eigenpairs per parity block")
    sp.add_argument("--experimental-alpha-below-quarter", action="store_true")
    sp.set_defaults(fn=cmd_matmech)
    return p


# Built once per process: parse_args keeps no state between calls, and the
# build (5 subparsers, 49 arguments) costs more than a short request.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    t0 = time.perf_counter()
    try:
        record = args.fn(args)
    except (PseudoharmError, ValueError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc),
                         "context": getattr(exc, "context", {})}}
        sys.stdout.write(_emit_json(err) + "\n")
        return 1
    record.wall_time_s = time.perf_counter() - t0
    _write_output(record, args.out, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
