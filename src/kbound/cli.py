"""Command-line front end.

Six subcommands cover the pipeline end to end:

    model    analytic family -> coefficient artifact and closed-form curves
    lanczos  Hamiltonian matrix (JSON) -> coefficient chain
    evolve   coefficient chain -> amplitude trajectory
    bound    coefficient chain -> complexity profile vs the dispersion bound
    closure  coefficient chain -> saturation test (alpha, gamma)
    goe      random-matrix ensemble -> aggregated chains / averaged profile

Chains are exchanged as JSON artifacts because a bare CSV cannot say whether
the listed coefficients are a complete finite chain or the head of an
infinite family; CSV is an export format.  Floats in CSV carry 17
significant digits; undefined values are null in JSON and nan in CSV.

Exit codes: 0 success, 1 bad input or usage, 2 a computation left its
tolerance regime.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import NumericalError, ValidationError
from ._util import (finite_or_none, fraction, integer, json_chain, json_field, json_list,
                    load_json_object, nonnegative, positive, write_csv, write_json)
from . import algebras, dynamics, ensembles, lanczos, operators

__all__ = ["main"]

_FORMATS = ("json", "csv")


def _time_grid(ns: argparse.Namespace) -> np.ndarray:
    return np.linspace(0.0, 3.0 if ns.tmax is None else ns.tmax,
                       301 if ns.steps is None else ns.steps)


def _resolve_format(ns: argparse.Namespace, default: str) -> str:
    if ns.fmt is not None:
        return ns.fmt
    suffix = ns.out.rsplit(".", 1)[-1].lower()
    return suffix if ns.out != "-" and suffix in _FORMATS else default


def _output(ns: argparse.Namespace):
    """The chosen output: stdout for '-', else the path."""
    return sys.stdout if ns.out == "-" else ns.out


# ---------------------------------------------------------------- chain I/O

def _load_chain(path, realization: int | None = None):
    """(b, cut_flag) from a chain JSON artifact.

    Accepts model artifacts, Lanczos results, closure inputs ({"b": ...}),
    and realization ``realization`` of an ensemble file.  cut_flag means the
    listed coefficients continue past the list (truncated result or
    infinite family), so the chain end is not a physical boundary.
    """
    payload = load_json_object(path)
    if realization is not None:
        if "realizations" not in payload:
            raise ValidationError(f"{path} is not an ensemble file; drop --realization")
        payload = _realization(payload, path, realization)
        path = f"{path}: realization {realization}"
    elif "realizations" in payload:
        raise ValidationError(f"{path} is an ensemble file; pick one with --realization")
    b, D, truncated = json_chain(payload, path)
    if b.size == 0:
        raise ValidationError(f"{path}: field 'b' must be a non-empty list")
    return b, truncated or D is None or D != b.size + 1


def _realization(payload: dict, path, index: int) -> dict:
    """The entry of an ensemble file's realizations whose 'index' is index
    (an entry without one stands at its place in the list).  The file lists
    only the realizations that succeeded; a missing one is an input error
    that says whether it failed."""
    for place, entry in enumerate(json_field(payload, "realizations", json_list, path)):
        if json_field(entry, "index", integer, f"{path}: realization {place}", 0,
                      default=place) == index:
            return entry
    failed = json_field(payload, "failed", json_list, path, default=[])
    if any(json_field(entry, "index", integer, f"{path}: failed entry {place}", 0) == index
           for place, entry in enumerate(failed)):
        raise ValidationError(f"{path}: realization {index} failed; it has no chain")
    raise ValidationError(f"{path}: realization {index} is neither listed nor failed")


# ------------------------------------------------------------- subcommands

def _cmd_model(ns: argparse.Namespace) -> int:
    model = algebras.parse_model_spec(ns.model_spec)
    times = _time_grid(ns)
    profile = algebras.model_observables(model, times)
    if model.D is not None:
        bchain = model.b(np.arange(1, algebras._chain_sites(model)))
    else:
        bchain = model.b(np.arange(1, ns.coeffs + 1))
    fmt = _resolve_format(ns, "json")
    if fmt == "json":
        payload = {
            "model": model.label(),
            "kind": model.kind,
            "alpha": model.alpha,
            "gamma": model.gamma,
            "D": model.D,
            "b": bchain,
            "curve": {
                "t": times,
                "K": profile.complexity,
                "dispersion": profile.dispersion,
            },
        }
        write_json(_output(ns), payload)
    else:
        rows = zip(times, profile.complexity, profile.dispersion)
        write_csv(_output(ns), ("t", "K", "dispersion"), rows)
    if ns.coeffs_out:
        lanczos.save_coefficients_csv(bchain, ns.coeffs_out)
    return 0


def _cmd_lanczos(ns: argparse.Namespace) -> int:
    H = operators.load_hamiltonian(ns.inputs[0])
    spec = operators.InnerProductSpec(ns.beta, ns.normalization)
    if ns.observable is not None:
        obs_matrix = operators.load_matrix(ns.observable)
        obs = operators.OperatorVector.from_matrix(obs_matrix, spec)
    else:
        if ns.beta > 0.0:
            raise ValidationError(
                "the default (uniform) observable needs beta = 0; pass --observable"
            )
        obs = ensembles.uniform_observable(H, spec)
    result = lanczos.run_lanczos(
        H,
        obs,
        spec=spec,
        halt_tol=ns.tol_halt,
        max_steps=ns.max_steps,
        store_basis=ns.store_basis,
    )
    fmt = _resolve_format(ns, "json")
    if fmt == "json":
        payload = lanczos.result_to_dict(result, include_basis=ns.store_basis)
        write_json(_output(ns), payload)
    else:
        lanczos.save_coefficients_csv(result.b, _output(ns))
    return 0


def _cmd_evolve(ns: argparse.Namespace) -> int:
    # A cut chain is open-ended: a grid that fills its last two sites fails.
    b, cut = _load_chain(ns.inputs[0], ns.realization)
    traj = dynamics.evolve_amplitudes(b, _time_grid(ns), open_end=cut)
    fmt = _resolve_format(ns, "csv")
    if fmt == "csv":
        dynamics.save_amplitudes_csv(traj, _output(ns))
    else:
        payload = {
            "t": traj.times,
            "b": traj.b,
            "method": traj.method,
            "blocks": traj.blocks,
            "terms": traj.terms,
            "window": traj.window,
            "truncated": bool(traj.truncated),
            "tail_mass": float(traj.tail_mass),
            "phi": traj.phi,
        }
        write_json(_output(ns), payload)
    return 0


def _cmd_bound(ns: argparse.Namespace) -> int:
    # The profile is reduced from the rows as they are made, with no grid.
    b, cut = _load_chain(ns.inputs[0], ns.realization)
    profile = dynamics._batch_profiles([b], _time_grid(ns), cut)[0]
    tau_d = float("nan")
    if b.size >= 3:
        try:
            tau_d = dynamics.deviation_time(b[0], b[1], b[2])
        except NumericalError:
            pass
    fmt = _resolve_format(ns, "csv")
    if fmt == "csv":
        dynamics.save_profile_csv(profile, _output(ns), tau_d=tau_d)
    else:
        payload = {**dynamics.profile_to_dict(profile), "tau_d": finite_or_none(tau_d)}
        write_json(_output(ns), payload)
    return 0


def _cmd_closure(ns: argparse.Namespace) -> int:
    b, cut = _load_chain(ns.inputs[0], ns.realization)
    report = algebras.closure_test(b, D=None if cut else b.size + 1, tol=ns.tol_closure)
    fmt = _resolve_format(ns, "json")
    if fmt == "json":
        payload = {
            "closed": report.closed,
            "alpha": report.alpha,
            "gamma": report.gamma,
            "max_residual": report.max_residual,
            "trivial": report.trivial,
            "tol": report.tol,
            "classification": report.family,
            "f_values": report.f_values,
        }
        write_json(_output(ns), payload)
    else:
        rows = [("closed", int(report.closed)), ("alpha", report.alpha),
                ("gamma", report.gamma), ("max_residual", report.max_residual),
                ("trivial", int(report.trivial)),
                ("classification", report.family or "")]
        write_csv(_output(ns), ("key", "value"), rows)
    return 0


def _cmd_goe(ns: argparse.Namespace) -> int:
    spec = ensembles.GoeSpec(
        dim=ns.dim,
        sigma=ns.sigma,
        count=ns.count,
        seed=ns.seed,
        halt_tol=ns.tol_halt,
    )
    profile_times = None
    if ns.tmax is not None or ns.steps is not None:
        profile_times = _time_grid(ns)
    result = ensembles.run_ensemble(spec, profile_times=profile_times,
                                    workers=ns.workers)
    fmt = _resolve_format(ns, "json")
    if fmt == "json":
        payload = ensembles.ensemble_to_dict(result)
        write_json(_output(ns), payload)
    else:
        ensembles.save_ensemble_csv(result, _output(ns))
    if result.failed:
        print(f"warning: {len(result.failed)} of {spec.count} realizations failed",
              file=sys.stderr)
    return 0


_COMMANDS = {
    "model": _cmd_model,
    "lanczos": _cmd_lanczos,
    "evolve": _cmd_evolve,
    "bound": _cmd_bound,
    "closure": _cmd_closure,
    "goe": _cmd_goe,
}


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; route them through the package's
    # validation path (exit 1) instead.
    def error(self, message):
        raise ValidationError(message)


def _option(check, *args):
    """An argparse type: the number in the text through a _util check, whose
    error argparse reports as "argument --FLAG: value must be ..."."""
    def number(text):
        value = int(text) if text.lstrip("+-").isdigit() else float(text)
        try:
            return check(value, "value", *args)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return number


def _coefficient_count(value, name: str) -> int:
    """A count of coefficients to materialize: an integer from 1 to
    MAX_MODEL_SITES."""
    count = integer(value, name)
    if count > algebras.MAX_MODEL_SITES:
        raise ValidationError(
            f"{name} must be at most MAX_MODEL_SITES = {algebras.MAX_MODEL_SITES}, "
            f"got {count}"
        )
    return count


def _build_parser() -> _Parser:
    parser = _Parser(prog="kbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_out(p):
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        p.add_argument("--format", dest="fmt", choices=_FORMATS, default=None,
                       help="output format (default: by extension, else per command)")

    def add_grid(p):
        p.add_argument("--tmax", type=_option(positive), default=None,
                       help="end of the time grid [0, tmax] (default 3)")
        p.add_argument("--steps", type=_option(integer, 2), default=None,
                       help="number of grid points (default 301)")

    def add_halt(p):
        p.add_argument("--tol-halt", dest="tol_halt", type=_option(fraction),
                       default=lanczos.DEFAULT_HALT_TOL,
                       help="halting tolerance relative to b_1")

    def add_chain_input(p):
        p.add_argument("inputs", nargs=1, metavar="CHAIN_JSON",
                       help="chain artifact (model/lanczos/ensemble JSON)")
        p.add_argument("--realization", type=_option(integer, 0), default=None,
                       help="entry to pick when the input is an ensemble file")

    p = sub.add_parser("model", help="analytic family: coefficients and curves")
    p.add_argument("model_spec", metavar="SPEC",
                   help="su2:j=..,nu=.. | hw:nu=.. | syk:eta=..,nu=.. | "
                        "sat:alpha=..,gamma=..[,D=..]")
    p.add_argument("--coeffs", type=_option(_coefficient_count), default=256,
                   help="coefficients to materialize for infinite families")
    p.add_argument("--coeffs-out", dest="coeffs_out", default=None,
                   help="also write the coefficients as CSV here")
    add_grid(p)
    add_out(p)

    p = sub.add_parser("lanczos", help="coefficient chain of a Hamiltonian")
    p.add_argument("inputs", nargs=1, metavar="HAMILTONIAN_JSON",
                   help='matrix file {"dim": d, "re": [[..]], "im": [[..]]}')
    p.add_argument("--observable", default=None,
                   help="seed operator matrix JSON (default: uniform observable)")
    p.add_argument("--beta", type=_option(nonnegative), default=0.0,
                   help="inverse temperature of the inner product (default 0)")
    p.add_argument("--normalization", type=_option(positive), default=None,
                   help="beta = 0 normalization (default 1/d)")
    p.add_argument("--max-steps", dest="max_steps", type=_option(integer), default=None)
    p.add_argument("--store-basis", dest="store_basis", action="store_true",
                   help="keep the Krylov basis in the JSON output")
    add_halt(p)
    add_out(p)

    p = sub.add_parser("evolve", help="amplitudes phi_n(t) of a chain")
    add_chain_input(p)
    add_grid(p)
    add_out(p)

    p = sub.add_parser("bound", help="complexity profile vs the dispersion bound")
    add_chain_input(p)
    add_grid(p)
    add_out(p)

    p = sub.add_parser("closure", help="saturation test of a chain")
    add_chain_input(p)
    p.add_argument("--tol-closure", dest="tol_closure", type=_option(positive),
                   default=algebras.CLOSURE_TOL,
                   help="constancy tolerance (relative to max b_n^2)")
    add_out(p)

    p = sub.add_parser("goe", help="random-matrix ensemble pipeline")
    p.add_argument("--dim", type=_option(integer, 2), required=True,
                   help="Hilbert-space dimension d of each GOE draw")
    p.add_argument("--sigma", type=_option(positive), default=1.0,
                   help="H = (X + X^T) / 2, X i.i.d. N(0, sigma^2) (default 1)")
    p.add_argument("--count", type=_option(integer), default=1,
                   help="number of realizations (default 1)")
    p.add_argument("--seed", type=_option(integer, 0), default=0,
                   help="ensemble seed; realization i draws from spawn key (i,) (default 0)")
    p.add_argument("--workers", type=_option(integer), default=1,
                   help="most processes to use (default 1); each takes whole batches "
                        "of realizations, and a run of one batch starts none")
    add_halt(p)
    add_grid(p)
    add_out(p)

    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 1


if __name__ == "__main__":
    sys.exit(main())
