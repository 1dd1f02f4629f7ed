"""Command-line driver: experiment orchestration, invariant suites, sweeps,
and deterministic report emission.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 numerical
failure (inversion or convergence).

Sweep CSV columns (one row per parameter value): the swept parameter, then
tail_l1, idempotency_defect, trace, chern, plus an error column for rows
that failed; instanton convergence tables use box, tail_l1,
idempotency_defect, trace, chern.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

from .algebra import (
    Tolerance,
    TorusElement,
    gns_norm,
    monomial,
    mul,
    random_selfadjoint,
    sub,
    trace,
    truncate,
    zero,
)
from . import heisenberg as hb
from . import models as md
from . import symmetry as sym
from .report import ModelReport, tolerance_dict
from .suites import run_suites

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunConfig:
    theta: float = 0.2
    lambda_re: float = 0.0
    lambda_im: float = 0.0
    trunc_box: int = 32
    grid_l: float = 20.0
    grid_points: int = 4001
    alg_eps: float = 1e-10
    trunc_eps: float = 1e-8
    quad_eps: float = 1e-8
    seed: int = 7
    output_format: str = "json"
    output_path: str = ""

    def validate(self):
        if self.trunc_box < 1:
            raise ValueError("trunc_box must be at least 1")
        if self.grid_points < 3 or self.grid_points % 2 == 0:
            raise ValueError("grid_points must be odd and at least 3")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")

    @property
    def lam(self) -> complex:
        return complex(self.lambda_re, self.lambda_im)

    def tolerance(self) -> Tolerance:
        return Tolerance(self.alg_eps, self.trunc_eps, self.quad_eps)


_CONFIG_FIELDS = {
    "theta": float, "lambda_re": float, "lambda_im": float, "trunc_box": int,
    "grid_l": float, "grid_points": int, "alg_eps": float, "trunc_eps": float,
    "quad_eps": float, "seed": int, "output_format": str, "output_path": str,
}


def load_config_file(path: str) -> dict:
    """key=value lines; blank lines and #-comments ignored."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"unknown config key: {key!r}")
            out[key] = _CONFIG_FIELDS[key](value)
    return out


def _emit(report: ModelReport, config: RunConfig) -> None:
    text = report.to_csv() if config.output_format == "csv" else report.to_json() + "\n"
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(config: RunConfig) -> dict:
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


# ------------------------------------------------------------------- commands


def _instanton_measurements(p):
    sa, idem = md.projection_defect(p)
    return {
        "selfadjointness_defect": sa,
        "idempotency_defect": idem,
        "el_residual": md.ising_el_residual(p),
        "self_duality_residual": md.self_duality_residual(p),
    }


def cmd_instanton(config: RunConfig) -> tuple[ModelReport, int]:
    tol = config.tolerance()
    try:
        run = hb.build_instanton(config.theta, config.lam, tol, box=config.trunc_box,
                                 L=config.grid_l, points=config.grid_points)
    except (hb.NotInvertibleError, ValueError) as exc:
        report = ModelReport(model="instanton", theta=config.theta,
                             inputs=_config_dict(config),
                             residuals={"error": str(exc)},
                             tolerances=tolerance_dict(tol))
        report.inputs["error_kind"] = "inversion_failure"
        return report, EXIT_NUMERICAL

    p = run.projection
    residuals = _instanton_measurements(p)
    residuals["inversion_residual"] = run.inversion_residual
    W = md.harmonic_from_projection(p)
    convergence = []
    for box in sorted({8, 16, 24, 32, config.trunc_box}):
        if box > config.trunc_box:
            continue
        q = truncate(p, box)
        convergence.append({
            "box": box,
            "tail_l1": q.tail_l1,
            "idempotency_defect": gns_norm(sub(mul(q, q), q)),
            "trace": trace(q).real,
            "chern": md.chern_number(q),
        })
    report = ModelReport(
        model="instanton",
        theta=config.theta,
        inputs=_config_dict(config),
        energy=md.ising_energy(p),
        residuals={
            **residuals,
            "trace": trace(p).real,
            "chiral_energy_w": md.chiral_energy(W),
            "chiral_residual_w": md.chiral_residual(W),
            "inversion_iterations": run.inversion_iterations,
            "tail_l1": run.tail_l1,
        },
        chern=md.chern_number(p),
        tolerances=tolerance_dict(tol),
        convergence=convergence,
    )
    return report, EXIT_OK


def cmd_verify(config: RunConfig, suite: str) -> tuple[ModelReport, int]:
    tol = config.tolerance()
    rows = run_suites(suite, config.theta, tol, config.seed)
    all_pass = all(r.passed for r in rows)
    report = ModelReport(
        model=f"verify:{suite}",
        theta=config.theta,
        inputs=_config_dict(config),
        residuals={"failed": sum(1 for r in rows if not r.passed), "total": len(rows)},
        tolerances=tolerance_dict(tol),
        convergence=[r.as_dict() for r in rows],
    )
    return report, EXIT_OK if all_pass else EXIT_INVARIANT


def cmd_sweep(config: RunConfig, param: str, values: list[float]) -> tuple[ModelReport, int]:
    tol = config.tolerance()
    rows = []
    worst = EXIT_OK
    for value in values:
        cfg = config
        if param == "theta":
            cfg = replace(config, theta=float(value))
        elif param == "lambda":
            cfg = replace(config, lambda_re=float(value))
        elif param == "trunc":
            cfg = replace(config, trunc_box=int(value))
        row = {param: value}
        try:
            cfg.validate()
            run = hb.build_instanton(cfg.theta, cfg.lam, tol, box=cfg.trunc_box,
                                     L=cfg.grid_l, points=cfg.grid_points)
            p = run.projection
            row.update({
                "tail_l1": run.tail_l1,
                "idempotency_defect": md.projection_defect(p)[1],
                "trace": trace(p).real,
                "chern": md.chern_number(p),
                "energy": md.ising_energy(p),
                "error": "",
            })
        except (hb.NotInvertibleError, ValueError) as exc:
            row.update({"error": str(exc)})
            worst = EXIT_NUMERICAL
        rows.append(row)
    report = ModelReport(
        model=f"sweep:{param}",
        theta=config.theta,
        inputs=_config_dict(config),
        tolerances=tolerance_dict(tol),
        convergence=rows,
    )
    return report, worst


def _constrained_pairs(solve, phi, first, theta, seed, count):
    """Scalar pair, zero pair, and solver-generated pairs off the null set
    of first's leading index."""
    pairs = [md.ConstraintPair(zero(theta), zero(theta)),
             md.ConstraintPair(monomial(theta, 0, 0, 0.75), monomial(theta, 0, 0, 0.75))]
    p, q = min(first.coeffs)
    k = 0
    while len(pairs) < count:
        h = random_selfadjoint(theta, 3, seed + 13 * k)
        A = TorusElement(theta, {idx: c for idx, c in h.coeffs.items()
                                 if idx[1] * p != q * idx[0]})
        try:
            pairs.append(md.ConstraintPair(A, solve(A, phi)))
        except md.ConstraintError:
            pass
        k += 1
        if k > 4 * count:
            break
    return pairs


def _endo_residuals(phi, max_pairing):
    return {"relation_residual": phi.relation_residual(),
            "max_abs_pairing": max_pairing,
            "relation_residual_after_ad": sym.ad_on_endo((1, 1), phi).relation_residual()}


def _su2_residuals(phi, max_pairing):
    return {"commutation_residuals": list(phi.commutation_residuals()),
            "modulus_defect": phi.modulus_defect(),
            "max_abs_pairing": max_pairing,
            "energy_shift_under_ad": abs(md.su2_energy(sym.ad_on_coercive((1, 1), phi))
                                         - md.su2_energy(phi))}


def _matrix_models() -> dict:
    """Per matrix model: builder, constraint solver, pairing, energy, the
    generator whose leading index fixes the null set, and the residuals.
    Built per call, so functions rebound on md or sym take effect."""
    return {
        "endo": (md.endo_from_matrix, md.solve_constraint_for_B, md.endo_el_pairing,
                 md.endo_energy, lambda phi: phi.phiU, _endo_residuals),
        "su2": (md.su2_from_matrix, md.solve_su2_constraint_for_B, md.su2_el_pairing,
                md.su2_energy, lambda phi: phi.u, _su2_residuals),
    }


def cmd_models(config: RunConfig, model: str, matrix: tuple[int, int, int, int] | None,
               mn: tuple[int, int] | None) -> tuple[ModelReport, int]:
    tol = config.tolerance()
    theta = config.theta
    if model == "chiral":
        if mn is None:
            raise UsageError("model=chiral needs --mn m,n")
        m, n = mn
        W = monomial(theta, m, n)
        orbit_ok = all(sym.projective_equal(W, sym.ad(w, W), tol)
                       for w in [(1, 0), (0, 1), (1, -1)])
        report = ModelReport(
            model="chiral", theta=theta,
            inputs={**_config_dict(config), "m": m, "n": n},
            energy=md.chiral_energy(W),
            residuals={"el_residual": md.chiral_residual(W),
                       "ad_orbit_in_gauge_orbit": bool(orbit_ok)},
            tolerances=tolerance_dict(tol),
        )
        return report, EXIT_OK
    if matrix is None:
        raise UsageError(f"model={model} needs --matrix p,q,r,s")
    spec = _matrix_models().get(model)
    if spec is None:
        raise UsageError(f"unknown model {model!r}")
    build, solve, pairing, energy, first, residuals = spec
    try:
        phi = build(theta, *matrix)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    pairs = _constrained_pairs(solve, phi, first(phi), theta, config.seed, 10)
    pairings = [abs(pairing(pair, phi)) for pair in pairs]
    report = ModelReport(
        model=model, theta=theta,
        inputs={**_config_dict(config), "matrix": list(matrix)},
        energy=energy(phi),
        residuals=residuals(phi, max(pairings)),
        tolerances=tolerance_dict(tol),
        convergence=[{"pair": i, "abs_pairing": v} for i, v in enumerate(pairings)],
    )
    return report, EXIT_OK


class UsageError(ValueError):
    pass


# ------------------------------------------------------------------ arg parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Workbench for sigma models on the irrational rotation algebra.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--theta", type=float)
    parser.add_argument("--lambda-re", dest="lambda_re", type=float)
    parser.add_argument("--lambda-im", dest="lambda_im", type=float)
    parser.add_argument("--trunc", dest="trunc_box", type=int)
    parser.add_argument("--grid-l", dest="grid_l", type=float)
    parser.add_argument("--grid-points", dest="grid_points", type=int)
    parser.add_argument("--alg-eps", dest="alg_eps", type=float)
    parser.add_argument("--trunc-eps", dest="trunc_eps", type=float)
    parser.add_argument("--quad-eps", dest="quad_eps", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--format", dest="output_format", choices=["json", "csv"])
    parser.add_argument("--out", dest="output_path")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("instanton", help="build the Gaussian projection and report its invariants")
    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["algebra", "module", "models", "symmetry", "all"])
    p_sweep = sub.add_parser("sweep", help="instanton sweep over one parameter")
    p_sweep.add_argument("--param", required=True, choices=["theta", "lambda", "trunc"])
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numbers, e.g. 8,16,24,32")
    p_models = sub.add_parser("models", help="evaluate one field model")
    p_models.add_argument("--model", required=True, choices=["chiral", "endo", "su2"])
    p_models.add_argument("--matrix", help="p,q,r,s integers")
    p_models.add_argument("--mn", help="m,n integers for the chiral monomial")
    return parser


def _parse_ints(text: str, count: int, what: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{what} must be {count} comma-separated integers") from exc
    if len(parts) != count:
        raise UsageError(f"{what} must have exactly {count} entries")
    return parts


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = {}
        if args.config:
            settings.update(load_config_file(args.config))
        for name in _CONFIG_FIELDS:
            value = getattr(args, name, None)
            if value is not None:
                settings[name] = value
        config = RunConfig(**settings)
        config.validate()

        if args.command == "instanton":
            report, code = cmd_instanton(config)
        elif args.command == "verify":
            report, code = cmd_verify(config, args.suite)
        elif args.command == "sweep":
            if not args.values.strip():
                raise UsageError("--values must be nonempty")
            values = [float(v) for v in args.values.split(",") if v.strip()]
            if not values:
                raise UsageError("--values must be nonempty")
            report, code = cmd_sweep(config, args.param, values)
        elif args.command == "models":
            matrix = _parse_ints(args.matrix, 4, "--matrix") if args.matrix else None
            mn = _parse_ints(args.mn, 2, "--mn") if args.mn else None
            report, code = cmd_models(config, args.model, matrix, mn)
        else:  # pragma: no cover
            raise UsageError(f"unknown command {args.command!r}")
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    _emit(report, config)
    return code


if __name__ == "__main__":
    sys.exit(main())
