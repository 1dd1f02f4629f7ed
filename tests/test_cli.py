"""Driver behavior: determinism, exit codes, config handling, report formats."""

import inspect
import json
import sys

import numpy as np
import pytest

import nctorus.algebra as algebra
import nctorus.heisenberg as hb
import nctorus.models as md
import nctorus.suites as suites
import nctorus.symmetry as symmetry
from nctorus.cli import (
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    load_config_file,
    main,
)
from oracles import truncate_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(trunc_box=0).validate()
    with pytest.raises(ValueError):
        RunConfig(grid_points=4000).validate()
    with pytest.raises(ValueError):
        RunConfig(theta=1.5).validate()


def test_config_validation_bounds_the_box():
    # [-1023, 1023]^2 fits in MAX_BOX_CELLS; only validated, never built
    RunConfig(trunc_box=1023).validate()
    with pytest.raises(ValueError, match="exceeds"):
        RunConfig(trunc_box=1024).validate()


def test_a_box_past_the_cell_bound_is_a_usage_error(capsys):
    assert run_cli(capsys, "--trunc", "1024", "instanton") == (EXIT_USAGE, "")


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment defaults\ntheta = 0.3\ntrunc_box = 8\nseed = 11\n")
    loaded = load_config_file(str(cfg))
    assert loaded == {"theta": 0.3, "trunc_box": 8, "seed": 11}
    code, out = run_cli(capsys, "--config", str(cfg), "--theta", "0.25",
                        "--trunc", "6", "instanton")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["inputs"]["theta"] == 0.25  # flag wins
    assert data["inputs"]["seed"] == 11     # file wins over default


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    with pytest.raises(ValueError):
        load_config_file(str(cfg))


def test_instanton_report_values(capsys):
    code, out = run_cli(capsys, "--trunc", "12", "instanton")
    assert code == EXIT_OK
    data = json.loads(out)
    assert abs(data["residuals"]["trace"] - 0.2) < 1e-6
    assert abs(data["chern"] + 1.0) < 1e-4
    boxes = [row["box"] for row in data["convergence"]]
    assert boxes == sorted(boxes)


def test_instanton_convergence_tails_are_the_ring_plus_the_dropped_mass(capsys):
    """Each row's tail_l1 is the build's ring mass plus the l1 mass that
    truncation to the row's box drops, bit for bit."""
    code, out = run_cli(capsys, "--trunc", "20", "instanton")
    assert code == EXIT_OK
    rows = json.loads(out)["convergence"]
    assert [row["box"] for row in rows] == [8, 16, 20]
    run = hb.build_instanton(0.2, 0.0, RunConfig().tolerance(), box=20)
    coeffs = dict(run.projection.coeffs)
    for row in rows:
        assert row["tail_l1"] == run.tail_l1 + truncate_dict(coeffs, row["box"])[1]


def test_instanton_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "--trunc", "8", "instanton")
    _, out2 = run_cli(capsys, "--trunc", "8", "instanton")
    assert out1 == out2


def test_instanton_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(capsys, "--trunc", "6", "--out", str(path), "instanton")
    assert code == EXIT_OK
    assert out == ""
    data = json.loads(path.read_text())
    assert data["model"] == "instanton"


def test_verify_all_passes_and_is_deterministic(capsys):
    code1, out1 = run_cli(capsys, "verify", "--suite", "algebra")
    code2, out2 = run_cli(capsys, "verify", "--suite", "algebra")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_verify_symmetry_fails_with_corrupted_phase(capsys, monkeypatch):
    def corrupted(theta, k):
        # non-additive in k: breaks the group-action law
        return np.exp(-2j * np.pi * theta * (k + k * k))

    monkeypatch.setattr(symmetry, "phases", corrupted)
    code, out = run_cli(capsys, "verify", "--suite", "symmetry")
    assert code == EXIT_INVARIANT
    data = json.loads(out)
    failed = {row["name"] for row in data["convergence"] if not row["passed"]}
    assert "group_action_law" in failed


def test_sweep_trunc_monotone_defects(capsys):
    code, out = run_cli(capsys, "--format", "csv", "sweep",
                        "--param", "trunc", "--values", "6,10,14")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    idx = header.index("idempotency_defect")
    defects = [float(row.split(",")[idx]) for row in lines[1:]]
    assert defects == sorted(defects, reverse=True)


def test_sweep_lambda_chern_constant(capsys):
    code, out = run_cli(capsys, "--trunc", "12", "sweep",
                        "--param", "lambda", "--values=-1,0,1")
    assert code == EXIT_OK
    data = json.loads(out)
    for row in data["convergence"]:
        assert abs(row["chern"] + 1.0) < 1e-4


def test_sweep_records_row_failures_and_continues(capsys):
    # theta outside (0,1) in one row: failure recorded, sweep keeps going
    code, out = run_cli(capsys, "--trunc", "8", "sweep",
                        "--param", "theta", "--values", "0.2,1.7")
    assert code == EXIT_NUMERICAL
    data = json.loads(out)
    assert data["convergence"][0]["error"] == ""
    assert data["convergence"][1]["error"] != ""


def test_models_chiral(capsys):
    code, out = run_cli(capsys, "models", "--model", "chiral", "--mn", "1,2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert abs(data["energy"] - 4 * 3.141592653589793**2 * 5) < 1e-9
    assert data["residuals"]["ad_orbit_in_gauge_orbit"] is True


def test_models_usage_errors(capsys):
    assert run_cli(capsys, "models", "--model", "endo",
                   "--matrix", "1,0,0,-1")[0] == EXIT_USAGE
    assert run_cli(capsys, "models", "--model", "su2",
                   "--matrix", "1,0,0,1")[0] == EXIT_USAGE
    assert run_cli(capsys, "models", "--model", "chiral")[0] == EXIT_USAGE
    assert run_cli(capsys, "sweep", "--param", "trunc", "--values", "")[0] == EXIT_USAGE


def test_models_endo_and_su2_pairings(capsys):
    code, out = run_cli(capsys, "--theta", "0.6180339887498949",
                        "models", "--model", "endo", "--matrix", "1,1,0,1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["residuals"]["max_abs_pairing"] < 1e-10
    assert len(data["convergence"]) >= 10

    code, out = run_cli(capsys, "--theta", "0.6180339887498949",
                        "models", "--model", "su2", "--matrix", "1,0,2,0")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["residuals"]["max_abs_pairing"] < 1e-10


@pytest.mark.parametrize("matrix", ["1,1,0,1", "2,1,1,1"])
def test_models_endo_at_rational_theta_solves_every_pair(capsys, matrix):
    # at theta = 0.2 the null set of phi(U) is more than the lattice n p = q m;
    # every solver pair must still be built, not skipped
    code, out = run_cli(capsys, "models", "--model", "endo", "--matrix", matrix)
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["convergence"]) == 10
    assert data["residuals"]["max_abs_pairing"] < 1e-10


def _count_products(monkeypatch, capsys, *argv):
    """Exit code and the products the command makes, counted wherever mul is bound."""
    calls = []
    original = algebra.mul

    def counted(a, b):
        calls.append((len(a.coeffs), len(b.coeffs)))
        return original(a, b)

    bound = [m for name, m in sys.modules.items()
             if name.startswith("nctorus") and getattr(m, "mul", None) is original]
    assert {m.__name__ for m in bound} >= {"nctorus.algebra", "nctorus.models",
                                           "nctorus.heisenberg", "nctorus.symmetry",
                                           "nctorus.suites"}
    for module in bound:
        monkeypatch.setattr(module, "mul", counted)
    code, _ = run_cli(capsys, *argv)
    return code, calls


def test_instanton_makes_21_products(monkeypatch, capsys):
    """ising_energy reads tau(ab) without forming ab, each Chern number forms
    one product, and the chiral energy and residual of W share theirs."""
    code, calls = _count_products(monkeypatch, capsys, "instanton")
    assert code == EXIT_OK
    assert len(calls) == 21, calls


def test_verify_symmetry_makes_49_products(monkeypatch, capsys):
    """The symmetry suite evaluates the projection's four functionals once,
    not once per lattice point, and each Chern number forms one product."""
    code, calls = _count_products(monkeypatch, capsys, "verify", "--suite", "symmetry")
    assert code == EXIT_OK
    assert len(calls) == 49, calls


def test_verify_all_makes_245_products(monkeypatch, capsys):
    """The models and symmetry suites share the pruned box-16 projection's
    Ising energy and Chern number through suites.Instantons."""
    code, calls = _count_products(monkeypatch, capsys, "verify", "--suite", "all")
    assert code == EXIT_OK
    assert len(calls) == 245, len(calls)


def test_verify_all_builds_one_instanton_front_end(monkeypatch, capsys):
    """One verify run builds one projection, at the largest box any suite
    reads: one inversion and one boxed inner_A.  Every smaller box is a
    truncation of it."""
    inversions, inner_A = [], []
    invert, inner = hb.invert_positive_with_stats, hb.inner_A

    def counted_invert(*args, **kwargs):
        inversions.append(args[0])
        return invert(*args, **kwargs)

    def counted_inner(*args, **kwargs):
        inner_A.append(kwargs.get("box"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(hb, "invert_positive_with_stats", counted_invert)
    monkeypatch.setattr(hb, "inner_A", counted_inner)
    code, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == EXIT_OK
    assert len(inversions) == 1
    assert [box for box in inner_A if box is not None] == [20]


def test_verify_builds_p_from_the_config(monkeypatch, capsys):
    calls = []
    build = hb.build_instanton
    signature = inspect.signature(build)

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return build(*args, **kwargs)

    monkeypatch.setattr(hb, "build_instanton", recorded)
    run_cli(capsys, "--lambda-re", "0.4", "--lambda-im", "-0.2", "--grid-l", "15",
            "verify", "--suite", "models")
    assert len(calls) == 1
    args = calls[0]
    assert (args["theta"], args["lam"], args["L"], args["points"], args["box"]) == (
        0.2, 0.4 - 0.2j, 15.0, 4001, 20)


def test_verify_reads_the_configured_grid(capsys):
    # 101 points cannot resolve the Gaussian: the instanton rows must fail
    code, out = run_cli(capsys, "--grid-points", "101", "verify", "--suite", "module")
    assert code == EXIT_INVARIANT
    failed = {row["name"] for row in json.loads(out)["convergence"] if not row["passed"]}
    assert failed == {"instanton_selfadjoint", "instanton_idempotent", "tail_halves_with_box"}


def test_a_suite_error_outside_the_build_is_not_a_numerical_failure(monkeypatch, capsys):
    def mismatched(*_):
        raise algebra.CompositionError("theta mismatch: 0.2 vs 0.3")

    monkeypatch.setitem(suites.SUITES, "algebra", mismatched)
    assert run_cli(capsys, "verify", "--suite", "algebra") == (EXIT_USAGE, "")


def test_instanton_chiral_values_are_those_of_w(capsys):
    code, out = run_cli(capsys, "--trunc", "12", "instanton")
    assert code == EXIT_OK
    W = md.harmonic_from_projection(hb.build_instanton(0.2, 0.0, RunConfig().tolerance(),
                                                       box=12).projection)
    r = json.loads(out)["residuals"]
    assert r["chiral_energy_w"] == md.chiral_energy(W)
    assert r["chiral_residual_w"] == md.chiral_residual(W)


def test_models_chiral_values_are_those_of_the_monomial(capsys):
    code, out = run_cli(capsys, "--theta", "0.6180339887498949",
                        "models", "--model", "chiral", "--mn", "2,-1")
    assert code == EXIT_OK
    W = algebra.monomial(0.6180339887498949, 2, -1)
    data = json.loads(out)
    assert data["energy"] == md.chiral_energy(W)
    assert data["residuals"]["el_residual"] == md.chiral_residual(W)


def test_empty_projection_gives_exit_3(capsys):
    # at theta = 0.5 the first term of b^{-1} overflows in the grid right action today
    code, out = run_cli(capsys, "--theta", "0.5", "--trunc", "8", "instanton")
    assert code == EXIT_NUMERICAL
    data = json.loads(out)
    assert data["inputs"]["error_kind"] == "empty_projection"
    assert "empty projection" in data["residuals"]["error"]
    assert data["chern"] is None and data["energy"] is None

    code, out = run_cli(capsys, "--trunc", "8", "sweep", "--param", "theta",
                        "--values", "0.2,0.5")
    assert code == EXIT_NUMERICAL
    assert "NaN" not in out
    good, empty = json.loads(out)["convergence"]
    assert good["error"] == "" and abs(good["chern"] + 1.0) < 1e-4
    assert "empty projection" in empty["error"] and "tail_l1" not in empty


@pytest.mark.parametrize("suite", ["all", "module", "models", "symmetry"])
def test_verify_on_an_empty_projection_gives_exit_3(capsys, suite):
    code, out = run_cli(capsys, "--theta", "0.5", "verify", "--suite", suite)
    assert code == EXIT_NUMERICAL
    data = json.loads(out)
    assert data["model"] == f"verify:{suite}"
    assert data["inputs"]["error_kind"] == "empty_projection"
    assert "empty projection" in data["residuals"]["error"]
    assert data["convergence"] == []


def test_verify_algebra_builds_no_instanton(capsys):
    # the instanton is built on first use, so a suite that never reads it
    # runs at a theta where the projection is empty
    code, out = run_cli(capsys, "--theta", "0.5", "verify", "--suite", "algebra")
    assert code == EXIT_OK
    assert len(json.loads(out)["convergence"]) == 7


def test_verify_on_a_failed_inversion_gives_exit_3(capsys):
    code, out = run_cli(capsys, "--theta", "0.05", "verify", "--suite", "models")
    assert code == EXIT_NUMERICAL
    data = json.loads(out)
    assert data["inputs"]["error_kind"] == "inversion_failure"
    assert "positive trace" in data["residuals"]["error"]


def test_verify_csv_columns_follow_the_check_row_fields(capsys):
    code, out = run_cli(capsys, "--format", "csv", "verify", "--suite", "all")
    assert code == EXIT_OK
    assert out.startswith("suite,name,defect,tolerance,passed\n")


def test_box_cap_gives_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(hb, "BOX_CAP", 1)
    code, out = run_cli(capsys, "instanton")
    assert code == EXIT_NUMERICAL
    data = json.loads(out)
    assert data["inputs"]["error_kind"] == "convergence_failure"
    assert "cap 1 " in data["residuals"]["error"]
    code, out = run_cli(capsys, "sweep", "--param", "theta", "--values", "0.2")
    assert code == EXIT_NUMERICAL
    assert "cap 1 " in json.loads(out)["convergence"][0]["error"]

