"""End-to-end exercise of every CLI subcommand through main()."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nlsdual import brackets, hierarchy
from nlsdual.cli import main
from helpers import canonical_digest
from record_digests import DIRAC_REPORTS, dirac_payload

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# the README's exact command lines, one a line; CI runs them from this file too
README_COMMANDS = (TESTS / "readme_commands.txt").read_text().splitlines()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_readme_commands_file_is_the_readme_exact_command_lines():
    readme = (TESTS.parent / "README.md").read_text()
    lines = [m.group(1).split("#")[0].strip()
             for m in re.finditer(r"^nlsdual (.*)$", readme, re.MULTILINE)]
    assert README_COMMANDS == [x for x in lines if not x.startswith("sim ")]


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_prints_its_recorded_report(capsys, line):
    # tests/digests.json is add-only: the sha256 of each report's stdout as
    # recorded; a change that must alter a report says why in CHANGES.md
    digests = json.loads((TESTS / "digests.json").read_text())
    assert main(line.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[f"readme/{line}"]


@pytest.mark.parametrize("level,direction", DIRAC_REPORTS,
                         ids=[f"l{n}-{d}" for n, d in DIRAC_REPORTS])
def test_dirac_report_payload_matches_its_recorded_digest(level, direction):
    # constraints, constraint matrix, multipliers, table, density and
    # Hamilton checks of every level 2-7 report in both directions
    digests = json.loads((TESTS / "digests.json").read_text())
    key = f"dirac/l{level}-{direction}"
    assert canonical_digest(dirac_payload(level, direction)) == digests[key]


def test_gen_v_latex(capsys):
    code, rep = run(capsys, "gen-v", "--level", "0", "--format", "latex")
    assert code == 0
    assert rep["report_version"] == 1
    assert rep["status"] == "pass"
    assert rep["matrix"].startswith("\\begin{pmatrix}")
    assert "\\tfrac{1}{2} i" in rep["matrix"]


def test_gen_v_json_structure_flags(capsys):
    code, rep = run(capsys, "gen-v", "--level", "3", "--format", "json")
    assert code == 0
    assert rep["structure"] == {"traceless": True, "sigma_symmetric": True, "graded": True}


def test_gen_dual(capsys):
    code, rep = run(capsys, "gen-dual", "--base", "2", "--level", "3", "--format", "text")
    assert code == 0
    assert "psi_t2" in rep["matrix"]


def test_charges(capsys):
    code, rep = run(capsys, "charges", "--count", "3")
    assert code == 0
    assert [d["dimension"] for d in rep["densities"]] == [2, 3, 4]
    assert all(d["real"] for d in rep["densities"])


def test_verify_zc(capsys):
    code, rep = run(capsys, "verify-zc", "--level", "2")
    assert code == 0
    assert any("psi_t2" in k for k in rep["evolution_rules"])


@pytest.mark.parametrize("matrix", ["u", "v2", "v3", "v4"])
def test_verify_rmatrix_all(capsys, matrix):
    code, rep = run(capsys, "verify-rmatrix", "--matrix", matrix)
    assert code == 0
    assert rep["status"] == "pass"


def test_verify_rmatrix_v6_is_the_library_check(capsys):
    code, rep = run(capsys, "verify-rmatrix", "--matrix", "v6")
    V6 = hierarchy.generate_partner(hierarchy.build_u(), +1, 6)
    T6 = brackets.dirac_pipeline(brackets.build_level_lagrangian(6), "space").table
    expected = brackets.verify_rmatrix(V6, T6, -1)
    assert code == 0
    assert rep["status"] == expected["status"] == "pass"
    assert rep["config"] == {"matrix": "v6", "gamma": -1}
    assert rep["result"] == json.loads(json.dumps(expected, default=str))


@pytest.mark.parametrize("direction", ["time", "space"])
def test_dirac_l6_is_the_library_analysis(capsys, direction):
    code, rep = run(capsys, "dirac", "--lagrangian", "l6", "--direction", direction)
    res = brackets.dirac_pipeline(brackets.build_level_lagrangian(6), direction)
    ham = brackets.hamilton_check(res, hierarchy.evolution_rules(6))
    assert code == 0
    assert rep["status"] == ham["status"] == "pass"
    assert rep["config"] == {"lagrangian": "l6", "direction": direction}
    assert rep["level"] == 6
    assert list(rep["constraints"]) == list(res.constraints.constraint_names)
    assert rep["hamiltonian_density"] == repr(res.hamiltonian_density)
    assert rep["bracket_table"] == {f"{{{a!r}, {b!r}}}": repr(v)
                                    for a, b, v in res.table.nonzero_pairs()}
    assert rep["hamilton_equations"] == json.loads(json.dumps(ham, default=str))


@pytest.mark.parametrize("spelling", ["v0", "v1", "l0", "l1", "vx", "v", "v03", "l-2", "u2", "6"])
@pytest.mark.parametrize("argv", [["verify-rmatrix", "--matrix"],
                                  ["dirac", "--direction", "time", "--lagrangian"]],
                         ids=["matrix", "lagrangian"])
def test_a_level_other_than_N_at_least_2_in_plain_decimal_is_a_usage_error(
        capsys, argv, spelling):
    with pytest.raises(SystemExit) as exc:
        main([*argv, spelling])
    assert exc.value.code == 2
    assert f"{spelling!r} is not" in capsys.readouterr().err


def test_dirac_l2_time_report(capsys):
    code, rep = run(capsys, "dirac", "--lagrangian", "l2", "--direction", "time")
    assert code == 0
    # {C1, C2} = i in the momentum-first convention
    assert rep["constraint_matrix"][0][1] == "i"
    assert rep["hamilton_equations"]["status"] == "pass"


def test_dirac_l3_space_report(capsys):
    code, rep = run(capsys, "dirac", "--lagrangian", "l3", "--direction", "space")
    assert code == 0
    assert len(rep["constraint_matrix"]) == 6
    assert any("psi_xx" in k for k in rep["bracket_table"])


def test_sim_charges_deterministic(capsys):
    args = ["sim", "--case", "planewave", "--check", "charges",
            "--grid", "64", "--steps", "600", "--t-end", "0.25", "--seed", "3"]
    code1, rep1 = run(capsys, *args)
    code2, rep2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert rep1["status"] == "pass"
    assert rep1["config"]["seed"] == 3


def test_sim_monodromy_small(capsys):
    code, rep = run(capsys, "sim", "--case", "planewave", "--check", "monodromy",
                    "--grid", "64", "--steps", "2000", "--t-end", "1.0")
    assert code == 0
    assert rep["space_monodromy_trace_drift"] < 1e-6
    assert rep["time_monodromy_trace_drift"] < 1e-6
    ratios = [row.get("ratio") for row in rep["convergence"][1:]]
    assert all(r and abs(r - 16) < 4 for r in ratios)


@pytest.mark.parametrize("kappa", ["-1", "0"])
def test_sim_plane_wave_rejects_non_positive_kappa(capsys, kappa):
    # the plane wave's amplitude^2 (2 pi - k^2) / (2 kappa) needs kappa > 0
    code, rep = run(capsys, "sim", "--case", "planewave", "--kappa", kappa,
                    "--grid", "32", "--steps", "10")
    assert code == 2
    assert rep["status"] == "error" and "--kappa" in rep["error"]


@pytest.mark.parametrize("argv, kappa", [
    ([], 1.0),
    (["--case", "custom"], 1.0),
], ids=["planewave", "custom"])
def test_sim_kappa_defaults_to_the_case_sign_and_is_in_config(capsys, argv, kappa):
    code, rep = run(capsys, "sim", *argv, "--grid", "32", "--steps", "20", "--t-end", "0.001")
    assert code in (0, 1) and rep["status"] in ("pass", "fail")
    assert rep["config"]["kappa"] == rep["kappa"] == kappa


@pytest.mark.parametrize("case, kappa", [("custom", "nan"), ("custom", "inf"),
                                         ("planewave", "inf"), ("custom", "-inf")])
def test_sim_rejects_a_non_finite_kappa(capsys, case, kappa):
    code, rep = run(capsys, "sim", "--case", case, f"--kappa={kappa}",
                    "--grid", "32", "--steps", "50")
    assert code == 2
    assert rep["status"] == "error" and "--kappa must be finite" in rep["error"]


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_sim_rejects_a_tolerance_that_is_not_finite_and_positive(capsys, tol):
    # drift < inf would pass whatever the drift, drift < nan or < 0 never
    code, rep = run(capsys, "sim", "--check", "charges", "--tol", tol,
                    "--grid", "32", "--steps", "200", "--t-end", "0.1")
    assert code == 2
    assert rep["status"] == "error" and "--tol" in rep["error"]


@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_sim_rejects_a_non_finite_time_span(capsys, t_end):
    code, rep = run(capsys, "sim", "--t-end", t_end, "--grid", "32", "--steps", "10")
    assert code == 2
    assert rep["status"] == "error" and "--t-end" in rep["error"]


@pytest.mark.parametrize("t_end", ["0", "-0.1"])
def test_sim_rejects_a_time_span_that_is_not_positive(capsys, t_end):
    # at --t-end 0 both drifts are 0.0, so the check would pass untested
    code, rep = run(capsys, "sim", "--check", "monodromy", f"--t-end={t_end}",
                    "--grid", "16", "--steps", "10")
    assert code == 2
    assert rep["status"] == "error" and "--t-end must be finite and positive" in rep["error"]


@pytest.mark.parametrize("argv, message", [
    (["--grid", "0"], "--grid must be at least 16, got 0"),
    (["--grid", "15"], "--grid must be at least 16, got 15"),
    (["--steps", "0"], "--steps must be at least 4"),
    (["--steps", "3"], "--steps must be at least 4"),
    (["--check", "monodromy", "--steps", "9"], "--check monodromy needs an even --steps"),
    (["--case", "custom", "--seed", "-1"], "--seed must be non-negative, got -1"),
], ids=["grid-0", "grid-15", "steps-0", "steps-3", "odd-steps-monodromy", "seed-minus-1"])
def test_sim_rejects_a_bad_integer_flag_by_name(capsys, argv, message):
    code, rep = run(capsys, "sim", "--grid", "16", "--steps", "10", "--t-end", "0.01", *argv)
    assert code == 2
    assert rep["status"] == "error" and rep["error"].startswith(message)


def test_sim_csv_writes_the_charge_series(tmp_path, capsys):
    csv = tmp_path / "charges.csv"
    code, rep = run(capsys, "sim", "--check", "charges", "--grid", "32", "--steps", "200",
                    "--t-end", "0.1", "--csv", str(csv))
    assert code == 0 and rep["csv"] == str(csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "time,charge_1,charge_2,charge_3,charge_4"
    assert len(lines) == 1 + 5                  # one row per snapshot


def test_sim_csv_needs_the_charges_check(tmp_path, capsys):
    # the monodromy check computes no charge series for --csv to write
    csv = tmp_path / "f.csv"
    code, rep = run(capsys, "sim", "--check", "monodromy", "--grid", "32", "--steps", "400",
                    "--csv", str(csv))
    assert code == 2
    assert rep["status"] == "error" and "--csv" in rep["error"]
    assert not csv.exists()


@pytest.mark.parametrize("argv", [
    ["verify-zc", "--level", "2"],
    ["verify-rmatrix", "--matrix", "u"],
    ["dirac", "--lagrangian", "l2", "--direction", "time"],
    ["sim", "--grid", "32", "--steps", "10"],
], ids=["verify-zc", "verify-rmatrix", "dirac", "sim"])
def test_format_is_rejected_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "latex"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format latex" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["gen-v", "--level", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "gen-v"


def test_error_reports_nonzero_exit(capsys):
    code = main(["gen-dual", "--base", "2", "--level", "-1"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["status"] == "error"


@pytest.mark.parametrize("argv, fragment", [
    (["gen-dual", "--base", "0", "--level", "1"], "degree 0"),
    (["charges", "--count", "0"], "got 0"),
    (["charges", "--count", "-2"], "got -2"),
], ids=["dual-base-0", "count-0", "count-minus-2"])
def test_invalid_input_reports_error(capsys, argv, fragment):
    code = main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert code == 2
    assert rep["status"] == "error" and fragment in rep["error"]


def test_out_into_missing_directory_reports_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["gen-v", "--level", "1", "--out", str(out)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2
    assert rep["status"] == "error" and "missing" in rep["error"]
    assert not out.exists()


# The exact commands of the benchmark's cli-reports workload, with its argv.
_EXACT_RUNS = [
    ["gen-v", "--level", "4", "--format", "json"],
    ["gen-dual", "--base", "2", "--level", "3", "--on-shell", "--format", "json"],
    ["charges", "--count", "5", "--format", "json"],
    ["verify-zc", "--level", "3"],
    ["verify-rmatrix", "--matrix", "v3"],
    ["dirac", "--lagrangian", "l3", "--direction", "time"],
    ["dirac", "--lagrangian", "l3", "--direction", "space"],
]

_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None      # every numpy import now raises ImportError
from nlsdual.cli import main
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    print(json.dumps([argv, code, json.loads(buf.getvalue())["status"]]))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_exact_commands_run_without_numpy():
    proc = _python("-c", _WITHOUT_NUMPY, json.dumps(_EXACT_RUNS))
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert results == [[argv, 0, "pass"] for argv in _EXACT_RUNS]


def test_numlab_is_loaded_on_first_access():
    proc = _python("-c", "import sys, nlsdual\n"
                         "assert 'numpy' not in sys.modules\n"
                         "assert not hasattr(nlsdual, 'no_such_module')\n"
                         "print(nlsdual.numlab.__name__, 'numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["nlsdual.numlab", "True"]


def test_importing_the_cli_loads_only_the_exact_core():
    # every CLI process compiles what it imports when no bytecode cache is
    # written, so the import must leave out what most commands never run
    proc = _python("-c", "import json, sys\n"
                         "before = set(sys.modules)\n"
                         "import nlsdual.cli\n"
                         "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {"nlsdual.ringcore", "nlsdual.laxalg", "nlsdual.hierarchy"} <= loaded
    unwanted = {"numpy", "nlsdual.brackets", "nlsdual.numlab", "nlsdual.sim", "nlsdual.latex",
                "dataclasses", "inspect"}
    assert not loaded & unwanted


def test_brackets_is_loaded_on_first_access():
    proc = _python("-c", "import sys, nlsdual\n"
                         "assert 'nlsdual.brackets' not in sys.modules\n"
                         "print(nlsdual.__all__)\n"
                         "print(nlsdual.brackets.__name__)\n"
                         "from nlsdual import brackets\n"
                         "print(brackets is sys.modules['nlsdual.brackets'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['ringcore', 'laxalg', 'hierarchy', 'brackets', 'numlab']", "nlsdual.brackets", "True"]


def test_brackets_and_numlab_do_not_load_dataclasses():
    # `import dataclasses` loads inspect, ast, dis and copy; numpy itself
    # loads inspect, so only brackets is held to that
    proc = _python("-c", "import sys\n"
                         "from nlsdual import brackets\n"
                         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
                         "from nlsdual import numlab\n"
                         "print('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False"]


_BLAS_DEFAULT = """
import contextlib, io, json, os, sys
from nlsdual.cli import main
if sys.argv[1] == "numpy-first":
    import numpy
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([argv[0], code, os.environ.get("OPENBLAS_NUM_THREADS"),
                      "numpy" in sys.modules]))
"""

_SIM_SMALL = ["sim", "--case", "planewave", "--grid", "32", "--steps", "20", "--t-end", "0.001"]


@pytest.mark.parametrize("preset, first, want", [
    ({}, "cli", "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "cli", "2"),
    ({"OMP_NUM_THREADS": "2"}, "cli", None),
    ({}, "numpy-first", None),
], ids=["default", "openblas-set", "omp-set", "numpy-loaded"])
def test_only_sim_defaults_openblas_to_one_thread(preset, first, want):
    # in a fresh process: the exact commands set nothing and load no numpy;
    # sim sets one thread unless the user chose a count or numpy is loaded
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _BLAS_DEFAULT, first,
                           json.dumps(_EXACT_RUNS + [_SIM_SMALL])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    preset_value = preset.get("OPENBLAS_NUM_THREADS")
    numpy_first = first == "numpy-first"
    assert results == ([[argv[0], 0, preset_value, numpy_first] for argv in _EXACT_RUNS]
                       + [["sim", 0, want, True]])


_LOADED_ON_USE = """
import contextlib, io, json, sys
from nlsdual.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted({"nlsdual.sim", "nlsdual.latex"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("argv, loaded", [
    (_SIM_SMALL, ["nlsdual.sim"]),
    (["gen-v", "--level", "3", "--format", "latex"], ["nlsdual.latex"]),
    (["gen-dual", "--base", "2", "--level", "3", "--format", "latex"], ["nlsdual.latex"]),
    (["gen-v", "--level", "3", "--format", "json"], []),
    (["gen-dual", "--base", "2", "--level", "3", "--format", "json"], []),
], ids=["sim", "gen-v-latex", "gen-dual-latex", "gen-v-json", "gen-dual-json"])
def test_sim_and_latex_modules_load_only_for_their_command(argv, loaded):
    # each is compiled by the one command or format that runs it
    proc = _python("-c", _LOADED_ON_USE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, loaded]


def test_sim_transfer_error_names_where_it_failed(capsys):
    # 40 steps over the period are too coarse for the t-transfer at lam = 2.7
    code, rep = run(capsys, "sim", "--grid", "17", "--steps", "40", "--check", "monodromy")
    assert code == 2
    assert rep["error"] == ("along_t at station 0: transfer matrix determinant deviates from 1 "
                            "by 1.09e-04 at lam=2.7 (tolerance 1e-08)")


def test_sim_planewave_does_not_load_numpy_random():
    # only --case custom draws a random number
    proc = _python("-c", "import contextlib, io, sys\n"
                         "from nlsdual.cli import main\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         "    code = main(sys.argv[1:])\n"
                         "print(code, 'numpy.random' in sys.modules)",
                   "sim", "--case", "planewave", "--grid", "32", "--steps", "20",
                   "--t-end", "0.001")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
