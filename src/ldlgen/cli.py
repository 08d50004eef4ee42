"""Command-line surface.

Exit codes: 0 success, 1 validation failure or an unreadable input /
unwritable output file, 2 numeric failure or an allocation that runs out
of memory, 3 identity-suite failure, 64 usage error.  All JSON output is
strict (no NaN or Infinity; a non-finite value exits 2), and its text is
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``'s own
(`_dumps`): sorted keys, a two-space indent and shortest-round-trip
floats, so identical invocations produce byte-identical files.  Only the
`generator` file's Kraus family, nearly all of its text, is laid out
here, to the same text and with no per-entry Python walk: chunks of a
float table (one row per entry: the operator's re/im pairs, then the
weight) whose cells are joined to a separator cycle fixed by d; +0.0
cells are constant text and only the others go through the C encoder
(`_kraus_chunks`).  A chunk holds at most `_KRAUS_CHUNK_FLOATS` floats or
one entry, so the text of the whole family is never held in memory at
once.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bath import GammaTable, validate_bath
from .dynamics import (MAX_STORED_ENTRIES, _step_count, _validate_density,
                       _validate_pure_state, evolve_master, trajectory_csv_lines,
                       unravel_jump)
from .errors import NumericError, ValidationError, _fields
from .generator import build_generator, drift, drift_from_t_operator, kraus_weights
from .model import (complex_matrix_from_json, complex_matrix_to_json,
                    complex_vector_from_json, load_model, read_json,
                    spectral_decompose)
from .tmatrix import MAX_SERIES_ORDERS, TMatrix
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


def _int_at_least(minimum, maximum=math.inf):
    """argparse type: an integer >= minimum and <= maximum."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} is less than {minimum}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"{text!r} is more than {maximum}")
        return value
    return integer


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process and shared by every
    `run`; callers must not modify it."""
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
    p.add_argument("--orders", type=_int_at_least(1, MAX_SERIES_ORDERS), default=6)
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


# Compact C-encoder text; nothing it emits for a float holds a comma.
_COMPACT = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_NON_FINITE = ("the output holds NaN or Infinity, which strict JSON cannot carry; "
               "nothing was written")
# Floats per piece of a Kraus family's text: a piece holds a float table and
# an object array of this many cells, 0.5 MB each, and about 1 MB of text.
_KRAUS_CHUNK_FLOATS = 1 << 16


def _dumps(payload):
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``,
    the text of every JSON output; a NaN or infinity in the payload is a
    numeric failure."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericError(_NON_FINITE) from None


def _emit_json(payload, path):
    """Strict JSON, as `model.read_json` reads it: the text is `_dumps`'s
    own (plus a final newline in a file).  A NaN or infinity in the
    payload is a numeric failure, and nothing is written."""
    text = _dumps(payload)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _emit_generator(gen, path):
    """`_emit_json(gen.to_json(), path)`, byte for byte, without building
    the Kraus list: every other key is `_dumps`'s text and the family,
    whose key sorts last, is laid out by `_kraus_chunks` in pieces of at
    most `_KRAUS_CHUNK_FLOATS` floats (or one entry), so beyond the generator
    itself the write holds one piece's table, object array and text (about
    3 MB), never the text of the whole family.  Every value is checked
    finite before the file is opened."""
    head = _dumps(gen._json_head())
    if not (np.isfinite(gen.weights).all() and np.isfinite(gen.ops).all()):
        raise NumericError(_NON_FINITE)
    with open(path, "w", encoding="utf-8") as fh:
        # head ends in the dict's closing "\n}"; the family is its last item
        fh.write(head[:-2] + ',\n  "kraus": ')
        fh.writelines(_kraus_chunks(gen.weights, gen.ops, 1))
        fh.write("\n}\n")


def _kraus_chunks(weights, ops, level):
    """The list ``[{"operator": complex_matrix_to_json(L), "weight": w}, ...]``
    as ``json.dumps(indent=2, sort_keys=True)`` writes it at nesting depth
    `level`, in pieces.

    A piece is a float table of up to `_KRAUS_CHUNK_FLOATS` cells, one row
    per entry: the row-major re/im pairs of the operator, then the weight
    ("operator" sorts before "weight").  The text before cell p is the same
    in every row, `cycle[p]`, fixed by d and `level`, so a +0.0 or -0.0
    cell, as most cells of a Bohr-masked family are, is the constant text
    ``cycle[p] + "0.0"`` or ``cycle[p] + "-0.0"``.  The other cells go
    through one C-encoder call, whose float text is `float.__repr__`; its
    tokens are split on "," and appended to their `cycle[p]`.  The input
    must be finite.
    """
    if not weights.size:
        yield "[]"
        return
    i1, i2, i3, i4 = ("\n" + "  " * (level + n) for n in range(1, 5))
    entry = i1 + "{" + i2 + '"operator": [' + i3 + "[" + i4
    pairs = ["," + i4, i3 + "]," + i3 + "[" + i4] * ops[0].size
    cycle = np.array([i1 + "}," + entry, *pairs[:-1], i3 + "]" + i2 + "]," + i2 + '"weight": '],
                     dtype=object)
    zeros, negative_zeros = cycle + "0.0", cycle + "-0.0"
    rows = max(1, _KRAUS_CHUNK_FLOATS // cycle.size)
    for lo in range(0, weights.size, rows):
        n = min(rows, weights.size - lo)
        table = np.empty((n, cycle.size))
        table[:, :-1] = np.ascontiguousarray(ops[lo:lo + n]).reshape(n, -1).view(float)
        table[:, -1] = weights[lo:lo + n]
        text = np.where(np.signbit(table), negative_zeros, zeros)
        other = table != 0.0
        if other.any():
            tokens = _COMPACT.encode(table[other].tolist())[1:-1].split(",")
            text[other] = cycle[other.nonzero()[1]] + np.array(tokens, dtype=object)
        pieces = text.ravel().tolist()
        if lo == 0:                               # the list opens instead
            pieces[0] = "[" + pieces[0][len(i1) + 2:]
        yield "".join(pieces)
    yield i1 + "}\n" + "  " * level + "]"


def _emit_lines(lines, path):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _load_state_matrix(path, key="matrix"):
    return _fields(read_json(path), f"state file {path}", (key,))[key]


def _cmd_validate(args):
    spec = load_model(args.model)
    sd = spectral_decompose(spec)
    bath_report = validate_bath(spec.bath, sd.bohr, spec.beta)
    kraus_weights(TMatrix(spec, sd))                  # the build's overflow check, no solve
    payload = {
        "valid": True,
        "model": {
            "dim": spec.dim,
            "beta": spec.beta,
            "levels": sd.energies.tolist(),
            "bohr_set": sd.bohr.tolist(),
            "is_rwa": sd.is_rwa,
            "rwa_frequency": sd.rwa_frequency,
        },
        "bath": bath_report,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_gamma(args):
    if args.points > MAX_STORED_ENTRIES:               # before any allocation
        raise ValidationError(f"--points {args.points} exceeds the cap of "
                              f"{MAX_STORED_ENTRIES} energies")
    bath = load_model(args.model).bath
    energies = np.linspace(args.emin, args.emax, args.points)
    values = GammaTable(bath).gamma(args.epsilon, energies)
    rows = np.stack([energies, values.real, values.imag], axis=1).tolist()
    _emit_lines(["E,re_gamma,im_gamma", *(",".join(map(repr, row)) for row in rows)], args.out)
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
    _emit_generator(gen, args.out)
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


_COMMANDS = {
    "validate": _cmd_validate,
    "gamma": _cmd_gamma,
    "tmatrix": _cmd_tmatrix,
    "drift": _cmd_drift,
    "generator": _cmd_generator,
    "evolve": _cmd_evolve,
    "unravel": _cmd_unravel,
    "check": _cmd_check,
}


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
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"numeric error: out of memory ({str(exc) or 'allocation failed'})",
              file=sys.stderr)
        return EXIT_NUMERIC


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
