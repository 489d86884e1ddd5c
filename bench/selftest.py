#!/usr/bin/env python3
"""Self-test of the benchmark's checks: a perturbed result must be counted.

    python3 bench/selftest.py

For each workload, one pass runs unperturbed and must record no failure;
then a library function the requests reach is wrapped to return a slightly
wrong result, and the same pass must record a failure for every request
the perturbation reaches.  Passes go through the same ``timed_passes`` the
benchmark uses.  Takes about 90 s (two table1 and two excited-matrix
passes dominate).
Exits 0 when every case behaves, 1 otherwise.
"""

import dataclasses
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from pseudoharm import cli, matmech, regspec  # noqa: E402


def _scaled_energy(fn, factor):
    """Energy scaled by factor, kappa shifted to match (E = kappa + 1/2)."""
    def perturbed(*args, **kwargs):
        sol = fn(*args, **kwargs)
        kappa = sol.kappa + (factor - 1.0) * sol.energy
        return dataclasses.replace(sol, kappa=kappa, energy=kappa + 0.5)
    return perturbed


def _scaled_norm(fn, factor):
    def perturbed(*args, **kwargs):
        wf = fn(*args, **kwargs)
        wf.inner_coeff *= factor
        wf.outer_coeff *= factor
        return wf
    return perturbed


def _scaled_psi(fn, factor):
    def perturbed(*args, **kwargs):
        return factor * fn(*args, **kwargs)
    return perturbed


def _scaled_pairs(fn, factor):
    def perturbed(*args, **kwargs):
        return [dataclasses.replace(p, energy=p.energy * factor)
                for p in fn(*args, **kwargs)]
    return perturbed


# (label, requests, owner, attribute, perturbation factory, factor)
def _cases():
    table1 = workloads.Table1Request()
    t_req = workloads.CliRequest(
        "transcendental",
        ["spectrum", "--alpha=0.1", "--delta", "0.001", "--parity", "both",
         "--n", "0..2", "--method", "transcendental"],
        lambda t: workloads._check_spectrum_rows(t, 0.1, 0.001, 2,
                                                 "transcendental"))
    ground = workloads.CliRequest(
        "ground", ["spectrum", "--alpha=-0.1", "--delta", "0.002",
                   "--parity", "even", "--ground"],
        lambda t: workloads._check_ground_energy(
            -0.1, 0.002, float(workloads._csv_rows(t)[1][0][5])))
    mix = workloads.spectrum_mix_requests(7)
    wavefunctions = [r for r in mix if r.kind == "wavefunction"][:3]
    closed = [r for r in mix if r.kind == "closed-wavefunction"][:3]
    return [
        ("table1: transcendental column 1e-5 low", [table1],
         regspec, "solve_ground_even", _scaled_energy, 1.0 + 1e-5),
        ("spectrum-mix: excited kappa 1e-4 high", [t_req],
         regspec, "solve_excited", _scaled_energy, 1.0 + 1e-4),
        ("spectrum-mix: ground energy 1e-6 low", [ground],
         regspec, "solve_ground_even", _scaled_energy, 1.0 + 1e-6),
        ("spectrum-mix: wave-function amplitude 1e-6 high", wavefunctions,
         regspec, "build_wavefunction", _scaled_norm, 1.0 + 1e-6),
        ("spectrum-mix: closed-form samples 1% high", closed,
         cli, "unreg_psi", _scaled_psi, 1.01),
        ("excited-matrix: Ritz energies 1e-5 high",
         workloads.excited_matrix_requests(0),
         matmech, "eigensolve", _scaled_pairs, 1.0 + 1e-5),
    ]


def main():
    ok = True
    for label, requests, owner, attr, factory, factor in _cases():
        _, _, clean = run.timed_passes(requests, 0.0)
        original = getattr(owner, attr)
        setattr(owner, attr, factory(original, factor))
        try:
            _, _, perturbed = run.timed_passes(requests, 0.0)
        finally:
            setattr(owner, attr, original)
        good = not clean and len(perturbed) == len(requests)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: {len(clean)} failures "
              f"clean, {len(perturbed)}/{len(requests)} perturbed")
        for msg in (clean + perturbed)[:len(requests) + 1]:
            print(f"       {msg[:160]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
