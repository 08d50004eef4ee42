"""Command-line surface.

Exit codes: 0 success, 1 validation failure or an unreadable input /
unwritable output file, 2 numeric failure, 3 identity-suite failure,
64 usage error.  All JSON output is written with sorted keys and
shortest-round-trip float formatting, so identical invocations produce
byte-identical files.
"""

import argparse
import json
import math
import sys

import numpy as np

from .bath import validate_bath
from .dynamics import (_step_count, _validate_density, _validate_pure_state,
                       evolve_master, trajectory_csv_lines, unravel_jump)
from .errors import NumericError, ValidationError
from .generator import build_generator, drift, drift_from_t_operator
from .model import (complex_matrix_from_json, complex_matrix_to_json,
                    complex_vector_from_json, load_model, read_json,
                    spectral_decompose)
from .tmatrix import TMatrix
from .verification import run_identity_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_SUITE = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _finite(text):
    """argparse type: a finite float (nan and inf are usage errors)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _int_at_least(minimum):
    """argparse type: an integer >= minimum."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} is less than {minimum}")
        return value
    return integer


def build_parser():
    parser = _Parser(prog="ldlgen", description="Low-density-limit Markovian "
                     "generator toolkit: model validation, scattering blocks, "
                     "drift/generator assembly, dynamics, identity checks.")
    parser.add_argument("--threads", type=_int_at_least(1), default=1,
                        help="accepted for compatibility; has no effect "
                        "(unravel runs serially)")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("validate", help="validate a model file")
    p.add_argument("model")
    p.add_argument("--out", default=None)

    p = sub.add_parser("gamma", help="tabulate gamma_eps(E) on a range")
    p.add_argument("model")
    p.add_argument("--epsilon", type=int, choices=(0, 1), required=True)
    p.add_argument("--emin", type=_finite, required=True)
    p.add_argument("--emax", type=_finite, required=True)
    p.add_argument("--points", type=_int_at_least(1), required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("tmatrix", help="scattering components at one energy")
    p.add_argument("model")
    p.add_argument("--energy", type=_finite, required=True)
    p.add_argument("--orders", type=_int_at_least(1), default=6)
    p.add_argument("--out", required=True)

    p = sub.add_parser("drift", help="drift operator by both routes")
    p.add_argument("model")
    p.add_argument("--out", required=True)

    p = sub.add_parser("generator", help="assemble and serialize the generator")
    p.add_argument("model")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evolve", help="integrate the master equation")
    p.add_argument("model")
    p.add_argument("--rho0", required=True)
    p.add_argument("--tmax", type=_finite, required=True)
    p.add_argument("--dt", type=_finite, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("unravel", help="quantum-jump Monte Carlo ensemble")
    p.add_argument("model")
    p.add_argument("--psi0", required=True)
    p.add_argument("--tmax", type=_finite, required=True)
    p.add_argument("--dt", type=_finite, required=True)
    p.add_argument("--trajectories", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="run the identity / limit suites")
    p.add_argument("model")
    p.add_argument("--suite", choices=("identities", "limits", "all"), default="all")
    p.add_argument("--out", default=None)
    return parser


def _emit_json(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _emit_lines(lines, path):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _load_state_matrix(path, key="matrix"):
    doc = read_json(path)
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"state file {path} must contain the key '{key}'")
    return doc[key]


def _cmd_validate(args):
    spec = load_model(args.model)
    bath_report = validate_bath(spec.bath, spec.beta)
    sd = spectral_decompose(spec)
    payload = {
        "valid": True,
        "model": {
            "dim": spec.dim,
            "beta": spec.beta,
            "levels": [float(e) for e, _ in sd.levels],
            "bohr_set": sd.bohr_set,
            "is_rwa": sd.is_rwa,
            "rwa_frequency": sd.rwa_frequency,
        },
        "bath": bath_report,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_gamma(args):
    spec = load_model(args.model)
    tm = TMatrix(spec)
    energies = np.linspace(args.emin, args.emax, args.points)
    values = tm.gamma(args.epsilon, energies)
    lines = ["E,re_gamma,im_gamma"]
    for e, g in zip(energies.tolist(), values.tolist()):
        lines.append(f"{e!r},{g.real!r},{g.imag!r}")
    _emit_lines(lines, args.out)
    return EXIT_OK


def _cmd_tmatrix(args):
    spec = load_model(args.model)
    tm = TMatrix(spec)
    comps = tm.t_components(args.energy)
    payload = {
        "energy": args.energy,
        "t_components": {f"{a}{b}": complex_matrix_to_json(m)
                         for (a, b), m in sorted(comps.items())},
        "appendix_partial_sums": {},
        "orders": args.orders,
    }
    for pair in ("00", "01", "10", "11"):
        sums, converged = tm.appendix_partial_sums(pair, args.energy,
                                                   max_orders=args.orders)
        payload["appendix_partial_sums"][pair] = {
            "cumulative": [complex_matrix_to_json(s) for s in sums],
            "converged": converged,
        }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_drift(args):
    spec = load_model(args.model)
    tm = TMatrix(spec)
    direct = drift(tm)
    via_t = drift_from_t_operator(tm)
    payload = {
        "drift": complex_matrix_to_json(direct),
        "drift_from_t_operator": complex_matrix_to_json(via_t),
        "frobenius_discrepancy": float(np.linalg.norm(direct - via_t)),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_generator(args):
    spec = load_model(args.model)
    gen = build_generator(TMatrix(spec))
    _emit_json(gen.to_json(), args.out)
    return EXIT_OK


def _cmd_evolve(args):
    spec = load_model(args.model)
    rho0 = complex_matrix_from_json(_load_state_matrix(args.rho0), "rho0")
    _validate_density(rho0, spec.dim)                 # before the generator build
    _step_count(args.tmax, args.dt, spec.dim)
    gen = build_generator(TMatrix(spec))
    traj = evolve_master(gen, rho0, args.tmax, args.dt)
    _emit_lines(trajectory_csv_lines(traj.times, traj.states), args.out)
    return EXIT_OK


def _cmd_unravel(args):
    spec = load_model(args.model)
    psi0 = complex_vector_from_json(_load_state_matrix(args.psi0, key="vector"), "psi0")
    _validate_pure_state(psi0, spec.dim)              # before the generator build
    _step_count(args.tmax, args.dt, spec.dim)
    gen = build_generator(TMatrix(spec)).compressed()
    ens = unravel_jump(gen, psi0, args.tmax, args.dt, args.trajectories, args.seed)
    _emit_lines(trajectory_csv_lines(ens.times, ens.mean_states), args.out)
    return EXIT_OK


def _cmd_check(args):
    spec = load_model(args.model)
    tm = TMatrix(spec)
    report = run_identity_suite(tm, which=args.suite)
    _emit_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_SUITE


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "gamma":
            return _cmd_gamma(args)
        if args.command == "tmatrix":
            return _cmd_tmatrix(args)
        if args.command == "drift":
            return _cmd_drift(args)
        if args.command == "generator":
            return _cmd_generator(args)
        if args.command == "evolve":
            return _cmd_evolve(args)
        if args.command == "unravel":
            return _cmd_unravel(args)
        if args.command == "check":
            return _cmd_check(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
