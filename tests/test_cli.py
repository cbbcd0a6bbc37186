import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eqdeg.cli
import eqdeg.galerkin
from eqdeg.cli import EXIT_CERTIFICATION, EXIT_INPUT, EXIT_OK, EXIT_ZERO_DEGREE, main
from eqdeg.errors import DegreeError
from eqdeg.hamiltonian import HamiltonianSpec, quadratic_spectral_degree
from eqdeg.polynomials import Polynomial
from eqdeg.reps import ShellBasis

ROOT = Path(__file__).resolve().parents[1]
DEMO_PROBLEMS = ROOT / "demos" / "problems"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def quadratic_problem(lam=0.5, radius=1.0):
    return {
        "kind": "hamiltonian",
        "group": "S1",
        "dof": 1,
        "terms": [{"exps": [2, 0], "coeff": 0.5}, {"exps": [0, 2], "coeff": 0.5}],
        "lambda": lam,
        "radius": radius,
        "truncation": "auto",
    }


def normalization_problem():
    # the map A + P0 written as an abstract problem: the potential
    # -|x0|^2/2 on the kernel coordinates gives F = -P0 x
    return {
        "kind": "abstract",
        "group": "S1",
        "spectrum": [
            {"eigenvalue": 0.0, "rep": {"trivial": 2, "modes": []}},
            {"eigenvalue": -1.0, "rep": {"trivial": 0, "modes": [[1, 1]]}},
            {"eigenvalue": 1.0, "rep": {"trivial": 0, "modes": [[1, 1]]}},
            {"eigenvalue": -2.0, "rep": {"trivial": 0, "modes": [[2, 1]]}},
            {"eigenvalue": 2.0, "rep": {"trivial": 0, "modes": [[2, 1]]}},
            {"eigenvalue": -3.0, "rep": {"trivial": 1, "modes": []}},
            {"eigenvalue": 3.0, "rep": {"trivial": 1, "modes": []}},
            {"eigenvalue": -4.0, "rep": {"trivial": 1, "modes": []}},
            {"eigenvalue": 4.0, "rep": {"trivial": 1, "modes": []}},
            {"eigenvalue": -5.0, "rep": {"trivial": 1, "modes": []}},
            {"eigenvalue": 5.0, "rep": {"trivial": 1, "modes": []}},
            {"eigenvalue": -6.0, "rep": {"trivial": 1, "modes": []}},
            {"eigenvalue": 6.0, "rep": {"trivial": 1, "modes": []}},
        ],
        "nonlinearity": {
            "variables": 2,
            "terms": [{"exps": [2, 0], "coeff": -0.5}, {"exps": [0, 2], "coeff": -0.5}],
        },
        "radius": 1.0,
        "truncation": "auto",
    }


def test_compute_normalization_problem(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["compute", write(tmp_path, "p.json", normalization_problem()), "--json", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["degree"]["value"] == [{"coeff": 1, "subgroup": "S1"}]
    assert report["checks"]["stabilization"] == "pass"


def test_compute_quadratic_hamiltonian(tmp_path):
    out = tmp_path / "report.json"
    code = main(["compute", write(tmp_path, "p.json", quadratic_problem()), "--json", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["degree"]["value"] == [{"coeff": 1, "subgroup": "S1"}]
    assert report["verdict"].startswith("periodic solution certified")


def test_compute_reuses_the_main_result_for_the_restriction_check(tmp_path, monkeypatch):
    calls = []
    original = eqdeg.galerkin.deg_infinite

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(eqdeg.galerkin, "deg_infinite", counting)
    monkeypatch.setattr(eqdeg.cli, "deg_infinite", counting)
    assert main(["compute", write(tmp_path, "p.json", quadratic_problem())]) == EXIT_OK
    assert len(calls) == 3  # the result, the normalization self-test, the shrunk ball


def test_compute_builds_each_shell_basis_once(monkeypatch):
    # the main run, the normalization self-test and the restriction check
    # share one operator, so they share its bases
    built = []
    original = ShellBasis.__init__

    def counting(self, operator, level):
        built.append((operator, level))
        original(self, operator, level)

    monkeypatch.setattr(ShellBasis, "__init__", counting)
    assert main(["compute", str(DEMO_PROBLEMS / "normalization.json")]) == EXIT_OK
    keys = [(id(op), level) for op, level in built]
    assert built and len(set(keys)) == len(keys)


def test_restriction_check_fails_with_zeros_outside_the_shrunk_ball(tmp_path):
    # double well -x^3 + a^2 x on the first kernel coordinate: the zeros +-a
    # lie between 0.9 R and R, so the shrunk ball holds only the zero at 0
    a = 0.95
    problem = normalization_problem()
    problem["nonlinearity"]["terms"] = [
        {"exps": [4, 0], "coeff": 0.25},
        {"exps": [2, 0], "coeff": -a * a / 2},
        {"exps": [0, 2], "coeff": -0.5},
    ]
    out = tmp_path / "report.json"
    code = main(["compute", write(tmp_path, "p.json", problem), "--json", str(out)])
    assert code == EXIT_CERTIFICATION
    report = json.loads(out.read_text())
    assert report["degree"]["value"] == [{"coeff": -1, "subgroup": "S1"}]
    assert report["checks"]["restriction_consistency"] == "fail"


def test_compute_zero_degree_exit_code(tmp_path):
    problem = {
        "kind": "hamiltonian",
        "group": "S1",
        "dof": 1,
        "terms": [
            {"exps": [2, 0], "coeff": 0.5},
            {"exps": [0, 2], "coeff": 0.5},
            {"exps": [1, 0], "coeff": 0.8},
        ],
        "lambda": 0.5,
        "radius": 0.3,
    }
    assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_ZERO_DEGREE


def test_compute_certification_failure_exit_code(tmp_path):
    code = main(["compute", write(tmp_path, "p.json", quadratic_problem(lam=1.0))])
    assert code == EXIT_CERTIFICATION


def test_malformed_spectrum_is_input_error(tmp_path):
    problem = normalization_problem()
    problem["spectrum"][1]["shell"] = 3  # eigenvalue -1.0 belongs to shell 1
    assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_INPUT


@pytest.mark.parametrize("budget", ["many", 0, True])
def test_bad_sampling_budget_is_input_error(tmp_path, capsys, budget):
    problem = dict(quadratic_problem(), sampling_budget=budget)
    assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_INPUT
    assert "input error: sampling_budget must be an integer >= 1" in capsys.readouterr().err


# a count past the machine integers once ran past any timeout as a
# truncation, an exponent or a multiplicity, and ended in an OverflowError
# as a trivial count or a mode
HUGE, TOP = 10**400, np.iinfo(np.intp).max


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dof", "x", "dof must be an integer >= 1, got 'x'"),
        ("dof", 1.7, "dof must be an integer >= 1, got 1.7"),
        ("dof", 0, "dof must be an integer >= 1, got 0"),
        ("lambda", "abc", "lambda must be a finite number > 0, got 'abc'"),
        ("lambda", True, "lambda must be a finite number > 0, got True"),
        ("radius", "big", "radius must be a finite number > 0, got 'big'"),
        ("radius", float("nan"), "radius must be a finite number > 0, got nan"),
        ("radius", float("inf"), "radius must be a finite number > 0, got inf"),
        ("radius", True, "radius must be a finite number > 0, got True"),
        ("radius", 10**400, "radius must be a finite number > 0, got 1000"),
        ("radius", -1.0, "radius must be a finite number > 0, got -1.0"),
        ("truncation", 2.9, "truncation must be an integer >= 1, got 2.9"),
        ("truncation", True, "truncation must be an integer >= 1, got True"),
        ("truncation", "3", "truncation must be an integer >= 1, got '3'"),
        ("truncation", HUGE, f"truncation must be an integer >= 1 and <= {TOP}, got {HUGE}"),
    ],
)
def test_bad_scalar_field_is_input_error(tmp_path, capsys, field, value, message):
    # json writes nan and inf as the NaN and Infinity that json.load reads back
    problem = dict(quadratic_problem(), **{field: value})
    assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"input error: {message}")


def set_at(problem, path, value):
    """problem with the entry at ``path``, a sequence of keys and indices, set to value."""
    *parents, last = path
    node = problem
    for key in parents:
        node = node[key]
    node[last] = value
    return problem


@pytest.mark.parametrize(
    "build, path, value, message",
    [
        (quadratic_problem, ("terms", 0, "exps", 0), 2.5, "terms[0].exps must be an integer >= 0, got 2.5"),
        (quadratic_problem, ("terms", 0, "exps", 0), True, "terms[0].exps must be an integer >= 0, got True"),
        (quadratic_problem, ("terms", 0, "exps", 0), -2, "terms[0].exps must be an integer >= 0, got -2"),
        (quadratic_problem, ("terms", 1, "coeff"), "0.5", "terms[1].coeff must be a finite number, got '0.5'"),
        (quadratic_problem, ("terms", 1, "coeff"), float("inf"), "terms[1].coeff must be a finite number, got inf"),
        (quadratic_problem, ("terms", 1, "coeff"), float("nan"), "terms[1].coeff must be a finite number, got nan"),
        (normalization_problem, ("spectrum", 1, "eigenvalue"), "-1.0",
         "spectrum[1].eigenvalue must be a finite number, got '-1.0'"),
        (normalization_problem, ("spectrum", 1, "eigenvalue"), False,
         "spectrum[1].eigenvalue must be a finite number, got False"),
        (normalization_problem, ("spectrum", 1, "shell"), 1.5, "spectrum[1].shell must be an integer >= 0, got 1.5"),
        (normalization_problem, ("spectrum", 0, "rep", "trivial"), 2.5,
         "spectrum[0].rep.trivial must be an integer >= 0, got 2.5"),
        (normalization_problem, ("spectrum", 1, "rep", "modes", 0, 0), 1.9,
         "spectrum[1].rep.modes[0] mode must be an integer >= 1, got 1.9"),
        (normalization_problem, ("spectrum", 1, "rep", "modes", 0, 1), True,
         "spectrum[1].rep.modes[0] multiplicity must be an integer >= 0, got True"),
        (normalization_problem, ("nonlinearity", "variables"), 2.7,
         "nonlinearity.variables must be an integer >= 0, got 2.7"),
        (normalization_problem, ("nonlinearity", "terms", 0, "exps", 0), 1.9,
         "nonlinearity.terms[0].exps must be an integer >= 0, got 1.9"),
        (normalization_problem, ("nonlinearity", "terms", 0, "coeff"), float("-inf"),
         "nonlinearity.terms[0].coeff must be a finite number, got -inf"),
        (quadratic_problem, ("terms", 0, "exps", 0), HUGE, f"terms[0].exps must be an integer >= 0 and <= {TOP}, got {HUGE}"),
        (normalization_problem, ("spectrum", 0, "rep", "trivial"), HUGE,
         f"spectrum[0].rep.trivial must be an integer >= 0 and <= {TOP}, got {HUGE}"),
        (normalization_problem, ("spectrum", 1, "rep", "modes", 0, 0), HUGE,
         f"spectrum[1].rep.modes[0] mode must be an integer >= 1 and <= {TOP}, got {HUGE}"),
        (normalization_problem, ("spectrum", 1, "rep", "modes", 0, 1), HUGE,
         f"spectrum[1].rep.modes[0] multiplicity must be an integer >= 0 and <= {TOP}, got {HUGE}"),
    ],
)
def test_bad_number_in_a_problem_file_is_input_error(tmp_path, capsys, build, path, value, message):
    problem = set_at(build(), path, value)
    assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


def wells_in(variables):
    """double_wells.json with its potential written over ``variables`` coordinates."""
    problem = json.loads((DEMO_PROBLEMS / "double_wells.json").read_text())
    nl = problem["nonlinearity"]
    nl["variables"] = variables
    for term in nl["terms"]:
        term["exps"] += [0] * (variables - len(term["exps"]))
    return problem


def without(problem, path):
    """problem with the entry at ``path``, a sequence of keys and indices, removed."""
    *parents, last = path
    node = problem
    for key in parents:
        node = node[key]
    del node[last]
    return problem


@pytest.mark.parametrize(
    "problem_path, message",
    [
        (str, "cannot read problem file"),  # the directory tmp_path
        (lambda tmp: write(tmp, "p.json", [quadratic_problem()]), "problem file must contain a JSON object"),
        (lambda tmp: write(tmp, "p.json", dict(quadratic_problem(), group="SO3")), "unrecognized group 'SO3'"),
        (lambda tmp: write(tmp, "p.json", without(quadratic_problem(), ("terms", 0, "coeff"))),
         "bad Hamiltonian description: 'coeff'"),
        (lambda tmp: write(tmp, "p.json", without(normalization_problem(), ("spectrum", 1, "rep"))),
         "bad spectrum description: 'rep'"),
        (lambda tmp: write(tmp, "p.json", without(normalization_problem(), ("nonlinearity", "terms"))),
         "bad nonlinearity description: 'terms'"),
        (lambda tmp: write(tmp, "p.json", wells_in(40)),
         "nonlinearity uses 40 coordinates but the declared spectrum spans only 24"),
        (lambda tmp: write(tmp, "p.json", dict(quadratic_problem(), kind="newtonian")),
         "unknown problem kind 'newtonian'"),
    ],
    ids=["directory", "array", "group", "coeff", "rep", "terms", "variables", "kind"],
)
def test_a_malformed_problem_is_input_error(tmp_path, capsys, problem_path, message):
    assert main(["compute", problem_path(tmp_path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"input error: {message}")


def test_a_sampling_budget_past_the_sample_bound_is_input_error(tmp_path, capsys, monkeypatch):
    # 10**12 samples once asked numpy for 43.7 TiB and exited 1
    def no_shell_field(f, n):
        raise AssertionError(f"a boundary pass at level {n} was built")

    monkeypatch.setattr(eqdeg.galerkin, "shell_field", no_shell_field)
    problem = dict(quadratic_problem(), sampling_budget=10**12)
    assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_INPUT
    assert "more than MAX_SAMPLE_VALUES = 134217728" in capsys.readouterr().err


def test_a_hamiltonian_exponent_must_be_an_integer():
    with pytest.raises(ValueError, match=r"terms\[0\]\.exps must be an integer >= 0, got 2\.5"):
        HamiltonianSpec.from_terms(1, [((2.5, 0), 0.5)], 0.5)
    with pytest.raises(ValueError, match=r"terms\[0\]\.exps must be an integer >= 0, got True"):
        Polynomial.from_terms(2, [((True, 1), 0.5)])
    assert Polynomial.from_terms(2, [((np.int64(2), 0), 0.5)]).terms == (((2, 0), 0.5),)


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--radius", "nan", "radius must be a finite number > 0, got nan"),
        ("--radius", "inf", "radius must be a finite number > 0, got inf"),
        ("--radius", "0", "radius must be a finite number > 0, got 0.0"),
        ("--truncation", "0", "truncation must be an integer >= 1, got 0"),
        ("--truncation", "2.5", "truncation must be an integer >= 1, got '2.5'"),
    ],
)
def test_bad_scalar_option_is_input_error(tmp_path, capsys, option, value, message):
    src = write(tmp_path, "p.json", quadratic_problem())
    assert main(["compute", src, option, value]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["compute", "{src}", "--radius", "big"], "argument --radius: invalid float value: 'big'"),
        (["compute", "{src}", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["compute"], "the following arguments are required: problem"),
        (["compute", "{src}", "--bogus"], "unrecognized arguments: --bogus"),
        (["selftest", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_error_is_input_error(tmp_path, capsys, args, message):
    src = write(tmp_path, "p.json", quadratic_problem())
    with pytest.raises(SystemExit) as exc:
        main([a.format(src=src) for a in args])
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: eqdeg") and err.endswith(f"error: {message}\n")


def test_integer_radius_and_lambda_are_reported_as_floats(tmp_path):
    out = tmp_path / "report.json"
    problem = dict(quadratic_problem(), radius=1, **{"lambda": 0.5})
    assert main(["compute", write(tmp_path, "p.json", problem), "--json", str(out)]) == EXIT_OK
    meta = json.loads(out.read_text())["problem"]
    assert meta == {"kind": "hamiltonian", "group": "S1", "radius": 1.0, "dof": 1, "lambda": 0.5}
    assert isinstance(meta["radius"], float)


def test_invalid_json_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["compute", str(path)]) == EXIT_INPUT


def test_missing_field_is_input_error(tmp_path):
    assert main(["compute", write(tmp_path, "p.json", {"kind": "hamiltonian"})]) == EXIT_INPUT


def test_cyclic_group_rejected_for_compute(tmp_path):
    problem = quadratic_problem()
    problem["group"] = {"cyclic": 4}
    assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_INPUT


def test_report_is_byte_stable_across_runs(tmp_path):
    src = write(tmp_path, "p.json", quadratic_problem())
    outs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        assert main(["compute", src, "--json", str(out), "--seed", "7"]) == EXIT_OK
        data = json.loads(out.read_text())
        data.pop("timing_seconds")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_truncation_override(tmp_path):
    src = write(tmp_path, "p.json", quadratic_problem())
    out = tmp_path / "report.json"
    assert main(["compute", src, "--truncation", "3", "--json", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["degree"]["level"] == 3
    assert main(["compute", src, "--truncation", "nope"]) == EXIT_INPUT


def test_selftest_all_suites(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("[PASS]") for line in lines)


def test_selftest_single_suite(capsys):
    assert main(["selftest", "--suite", "ring"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and "ring" in lines[0]


def test_selftest_unknown_suite():
    assert main(["selftest", "--suite", "bogus"]) == EXIT_INPUT


def test_selftest_deterministic_output(capsys):
    main(["selftest", "--suite", "oracle", "--seed", "3"])
    first = capsys.readouterr().out
    main(["selftest", "--suite", "oracle", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def dof9_terms():
    return [{"exps": [2 if j == i else 0 for j in range(18)], "coeff": 0.5} for i in range(18)]


def test_dof9_hamiltonian_is_a_certification_failure(tmp_path, capsys):
    # with a quartic term the field is not affine, and its 18 constant-loop
    # coordinates exceed the seed sampler's 16 dimensions
    terms = dof9_terms() + [{"exps": [4] + [0] * 17, "coeff": 0.05}]
    problem = dict(quadratic_problem(), dof=9, terms=terms)
    code = main(["compute", write(tmp_path, "p.json", problem)])
    assert code == EXIT_CERTIFICATION
    err = capsys.readouterr().err
    assert "certification failure (DimensionLimit)" in err


def test_dof9_quadratic_hamiltonian_computes_the_closed_form(tmp_path, capsys):
    # a quadratic Hamiltonian gives an affine field: one Newton start, no seed grid
    problem = dict(quadratic_problem(), dof=9, terms=dof9_terms())
    code = main(["compute", write(tmp_path, "p.json", problem)])
    assert code == EXIT_OK
    spec = HamiltonianSpec(9, Polynomial.from_json(18, problem["terms"]), problem["lambda"])
    assert f"degree     : {quadratic_spectral_degree(spec)}\n" in capsys.readouterr().out


def test_shell0_eigenvalue_is_an_input_error(tmp_path, capsys):
    # 1e-13 is binned into shell 0, which the operator then rejects
    spectrum = [(lam, 1, []) for lam in (0.0, 1e-13, 1.0, 2.0)]
    problem = abstract_problem(spectrum, [{"exps": [2], "coeff": -0.5}], 1)
    code = main(["compute", write(tmp_path, "p.json", problem)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "shell 0 may only contain eigenvalue 0, got 1e-13" in err


def test_non_equivariant_potential_is_a_certification_failure(tmp_path, capsys):
    # a cubic term in a mode-2 kernel coordinate breaks rotation equivariance
    spectrum = [{"eigenvalue": 0.0, "rep": {"trivial": 1, "modes": [[2, 1]]}}]
    for n in range(1, 7):
        spectrum.append({"eigenvalue": -(n - 0.3), "rep": {"trivial": 0, "modes": [[1, 1]]}})
        spectrum.append({"eigenvalue": float(n), "rep": {"trivial": 1, "modes": []}})
    problem = {
        "kind": "abstract",
        "group": "S1",
        "spectrum": spectrum,
        "nonlinearity": {
            "variables": 3,
            "terms": [
                {"exps": [2, 0, 0], "coeff": -0.4},
                {"exps": [0, 3, 0], "coeff": 0.3},
                {"exps": [0, 0, 2], "coeff": 0.3},
            ],
        },
        "radius": 1.2,
        "truncation": "auto",
    }
    code = main(["compute", write(tmp_path, "p.json", problem)])
    assert code == EXIT_CERTIFICATION
    err = capsys.readouterr().err
    assert "certification failure (EquivarianceFailure)" in err
    assert "equivariance spot-check failed" in err


def test_field_not_finite_is_a_certification_failure(tmp_path):
    # 1e300 z1^4 overflows on the boundary of a ball of radius 1e5; the
    # overflow becomes the one-line failure, with no numpy warnings before it
    terms = quadratic_problem()["terms"] + [{"exps": [4, 0], "coeff": 1e300}]
    problem = dict(quadratic_problem(radius=1e5), terms=terms)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "eqdeg", "compute", write(tmp_path, "p.json", problem)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_CERTIFICATION
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("certification failure (NonFiniteField)")
    assert "not finite on boundary samples" in lines[0]


def test_every_degree_error_is_a_certification_failure(tmp_path, capsys, monkeypatch):
    class NewFailure(DegreeError):
        pass

    def failing(*args, **kwargs):
        raise NewFailure("no certificate")

    monkeypatch.setattr(eqdeg.cli, "deg_infinite", failing)
    assert main(["compute", write(tmp_path, "p.json", quadratic_problem())]) == EXIT_CERTIFICATION
    assert capsys.readouterr().err == "certification failure (NewFailure): no certificate\n"


def abstract_problem(spectrum, terms, variables):
    return {
        "kind": "abstract",
        "group": "S1",
        "spectrum": [
            {"eigenvalue": lam, "rep": {"trivial": trivial, "modes": modes}}
            for lam, trivial, modes in spectrum
        ],
        "nonlinearity": {"variables": variables, "terms": terms},
        "radius": 1.0,
        "truncation": "auto",
    }


def test_eigenvalue_just_above_an_integer_computes_like_the_integer(tmp_path, capsys):
    # 2 + 5e-13 falls in shell 2 under the shell rule's 1e-12 tolerance
    terms = [{"exps": [2], "coeff": -0.5}]
    outputs = []
    for second in (2.0000000000005, 2.0):
        spectrum = [(0.0, 1, []), (1.0, 0, [[1, 1]])]
        spectrum += [(lam, 1, []) for lam in (second, 3.0, 4.0, 5.0, 6.0)]
        problem = abstract_problem(spectrum, terms, 1)
        assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_auto_level_starts_at_the_first_level_holding_the_potential(tmp_path, capsys):
    # the potential's second variable lives in shell 1, so level 1 certifies
    spectrum = [(0.0, 1, []), (-0.5, 1, []), (1.0, 0, [[1, 1]])]
    spectrum += [(float(n), 1, []) for n in range(2, 7)]
    terms = [{"exps": [2, 0], "coeff": -0.5}, {"exps": [0, 2], "coeff": 0.1}]
    src = write(tmp_path, "p.json", abstract_problem(spectrum, terms, 2))
    reports = []
    for extra in ([], ["--truncation", "1"]):
        out = tmp_path / "report.json"
        assert main(["compute", src, "--json", str(out)] + extra) == EXIT_OK
        reports.append(json.loads(out.read_text())["degree"])
    assert reports[0]["level"] == reports[1]["level"] == 1
    assert reports[0]["value"] == reports[1]["value"]


def test_an_explicit_level_below_the_potential_is_a_margin_failure(tmp_path, capsys):
    # V_1 (dim 3) does not hold the potential's 4 variables, V_2 (dim 5) does
    spectrum = [(0.0, 1, [])]
    for n in range(1, 6):
        spectrum += [(-(n - 0.3), 1, []), (n - 0.3, 1, [])]
    terms = [{"exps": [2 * (j == i) for j in range(4)], "coeff": 0.5} for i in range(4)]
    src = write(tmp_path, "p.json", abstract_problem(spectrum, terms, 4))
    assert main(["compute", src, "--truncation", "1"]) == EXIT_CERTIFICATION
    assert capsys.readouterr().err.startswith("certification failure (MarginFailure)")
    for level in ("auto", "2"):
        assert main(["compute", src, "--truncation", level]) == EXIT_OK
        assert "level      : 2\n" in capsys.readouterr().out


def test_kernel_only_spectrum_is_a_margin_failure(tmp_path, capsys):
    problem = abstract_problem([(0.0, 1, [])], [{"exps": [2], "coeff": -0.5}], 1)
    assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_CERTIFICATION
    assert capsys.readouterr().err.startswith("certification failure (MarginFailure)")


def test_a_kernel_zero_found_twice_counts_once(tmp_path, capsys):
    # -x^4/4 + c x^2 on the kernel line: f = x^3 - 2c x there; Newton can
    # find its zeros at +-sqrt(2c) twice each, which once gave 3*[S1/S1] at
    # c = 5e-5, and 11*[S1/S1] at c = 5e-8, with every check passing
    spectrum = [(0.0, 1, []), (1.0, 0, [[1, 1]])] + [(float(n), 1, []) for n in range(2, 6)]
    for c in (5e-5, 5e-8):
        terms = [{"exps": [4], "coeff": -0.25}, {"exps": [2], "coeff": c}]
        out = tmp_path / "report.json"
        src = write(tmp_path, "p.json", abstract_problem(spectrum, terms, 1))
        assert main(["compute", src, "--json", str(out)]) == EXIT_OK
        assert "degree     : [S1/S1]\n" in capsys.readouterr().out
        assert json.loads(out.read_text())["degree"]["value"] == [{"coeff": 1, "subgroup": "S1"}]


def kernel_well(a):
    """-x^4/4 + a^2 x^2 / 2 on one kernel line: f = x^3 - a^2 x there, with
    zeros at 0 and +-a; radius 1."""
    spectrum = [(0.0, 1, []), (1.0, 0, [[1, 1]])] + [(float(n), 1, []) for n in range(2, 6)]
    terms = [{"exps": [4], "coeff": -0.25}, {"exps": [2], "coeff": 0.5 * a * a}]
    return abstract_problem(spectrum, terms, 1)


@pytest.mark.parametrize(
    "a, line",
    [
        (0.9, "check restriction_consistency: skipped (BoundaryZero)"),  # zeros on the shrunk sphere
        (0.95, "check restriction_consistency: fail"),  # zeros between the shrunk sphere and the sphere
    ],
)
def test_the_restriction_check_prints_what_the_shrunk_ball_gave(tmp_path, capsys, a, line):
    code = EXIT_CERTIFICATION if line.endswith(": fail") else EXIT_OK  # a skipped check is no fail
    assert main(["compute", write(tmp_path, "p.json", kernel_well(a))]) == code
    out = capsys.readouterr().out
    assert "degree     : [S1/S1]\n" in out and f"\n{line}\n" in out


def test_a_failing_check_exits_3_after_the_report(tmp_path, capsys):
    # the zeros +-0.95 lie between the shrunk sphere and the sphere: the
    # degree is right, the shrunk ball disagrees, and the run still prints
    # its report and writes --json before it exits; its verdict names the
    # failed check and claims no certificate
    out = tmp_path / "report.json"
    assert main(["compute", write(tmp_path, "p.json", kernel_well(0.95)), "--json", str(out)]) == EXIT_CERTIFICATION
    printed = capsys.readouterr().out
    verdict = "no certificate: check restriction_consistency failed"
    assert "degree     : [S1/S1]\n" in printed and f"\nverdict    : {verdict}\n" in printed
    assert "certified" not in printed
    assert printed.endswith(f"report written to {out}\n")
    report = json.loads(out.read_text())
    assert report["degree"]["value"] == [{"coeff": 1, "subgroup": "S1"}]
    assert report["checks"] == {
        "normalization_selftest": "pass", "stabilization": "pass", "restriction_consistency": "fail",
    }
    assert report["verdict"] == verdict


def rotated_wells(d):
    """The separable wells -y^4/4 + a y^2 of double_wells.json in d kernel
    variables, a from one default_rng(5) over d = 3, 4, .., written in the
    frame x = Q y, Q from the QR of a default_rng(100 + d) Gaussian matrix,
    on radius 2.9: one coupled quartic block with 3^d zeros, degree [S1/S1]."""
    rng = np.random.default_rng(5)
    for k in range(3, d + 1):
        a = rng.uniform(0.15, 0.3, size=k)
    Q = np.linalg.qr(np.random.default_rng(100 + d).standard_normal((d, d)))[0]
    terms: dict = {}
    for j in range(d):
        for p, coeff in ((4, -0.25), (2, float(a[j]))):
            for combo in itertools.combinations_with_replacement(range(d), p):
                exps = tuple(combo.count(i) for i in range(d))
                weight = math.factorial(p) / math.prod(math.factorial(e) for e in exps)
                terms[exps] = terms.get(exps, 0.0) + coeff * weight * math.prod(Q[i, j] ** e for i, e in enumerate(exps))
    problem = json.loads((DEMO_PROBLEMS / "double_wells.json").read_text())
    problem["spectrum"][0]["rep"]["trivial"] = d
    problem["nonlinearity"] = {"variables": d, "terms": [{"exps": list(e), "coeff": c} for e, c in terms.items()]}
    problem["radius"] = 2.9
    return problem


def test_the_rotated_wells_at_d5_fail_their_restriction_check_and_exit_3(tmp_path, capsys):
    # the Halton seeds miss zeros of the 3^5 here, so the degree is wrong,
    # and the shrunk ball, searched from other seeds, disagrees with it
    out = tmp_path / "report.json"
    assert main(["compute", write(tmp_path, "p.json", rotated_wells(5)), "--json", str(out)]) == EXIT_CERTIFICATION
    assert "check restriction_consistency: fail\n" in capsys.readouterr().out
    assert json.loads(out.read_text())["checks"]["restriction_consistency"] == "fail"


def test_scaling_the_double_wells_keeps_their_degree(tmp_path, capsys):
    # c f has the degree of f; with every coefficient x1e6 the zero search
    # once read -[S1/S1] here, and every check passed
    problem = json.loads((DEMO_PROBLEMS / "double_wells.json").read_text())
    for term in problem["nonlinearity"]["terms"]:
        term["coeff"] *= 1e6
    assert main(["compute", write(tmp_path, "p.json", problem)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "degree     : [S1/S1]\n" in out
    assert out.count(": pass\n") == 3
