import errno
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailcens import cli, ordered_from_arrays, simulation
from tailcens.cli import (DEFAULT_OUTLIER_TABLE, CliError, main,
                          parse_sweep_config, read_dataset)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_toy(path, rows):
    path.write_text("time,status\n" + "".join(f"{t},{s}\n" for t, s in rows))


def test_estimate_toy_k1_mns(tmp_path, capsys):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (2.0, 1), (4.0, 1)])
    code, out, _ = run_cli(capsys, "estimate", str(f), "--k-min", "1",
                           "--alpha", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,alpha,method,gamma1_hat,residual"
    assert len(lines) == 2
    k, alpha, method, value, _ = lines[1].split(",")
    assert (k, alpha, method) == ("1", "0", "MNS")
    assert float(value) == pytest.approx(np.log(2))


def test_estimate_invalid_observation(tmp_path, capsys):
    f = tmp_path / "d.csv"
    f.write_text("time,status\n1.0,1\n-3.0,1\n2.0,0\n")
    code, _, err = run_cli(capsys, "estimate", str(f), "--k-min", "1")
    assert code == 1
    assert "invalid observation at line 3" in err


def test_estimate_malformed_row(tmp_path, capsys):
    f = tmp_path / "d.csv"
    f.write_text("time,status\n1.0,1\nnot_a_number,1\n")
    code, _, err = run_cli(capsys, "estimate", str(f), "--k-min", "1")
    assert code == 1
    assert "line 3" in err


def test_estimate_bad_header(tmp_path, capsys):
    f = tmp_path / "d.csv"
    f.write_text("t,s\n1.0,1\n")
    code, _, err = run_cli(capsys, "estimate", str(f), "--k-min", "1")
    assert code == 1
    assert "time,status" in err


def test_estimate_k_too_large(tmp_path, capsys):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (2.0, 1), (4.0, 1)])
    code, _, err = run_cli(capsys, "estimate", str(f), "--k-min", "3")
    assert code == 1
    assert "sample size" in err


def test_estimate_negative_alpha_writes_nothing(tmp_path, capsys):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (2.0, 1), (4.0, 1)])
    code, out, err = run_cli(capsys, "estimate", str(f), "--k-min", "1",
                             "--alpha", "0.5", "--alpha", "-1")
    assert code == 1
    assert out == ""
    assert err.strip() == "error: alpha=-1.0 must be finite and >= 0"


@pytest.mark.parametrize("step", ["0", "-1"])
def test_estimate_k_step_must_be_positive(tmp_path, capsys, step):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (2.0, 1), (4.0, 1)])
    code, out, err = run_cli(capsys, "estimate", str(f), "--k-min", "1",
                             "--k-max", "2", "--k-step", step)
    assert code == 1
    assert out == ""
    assert err.strip() == "error: --k-step must be >= 1"


def test_estimate_writes_an_empty_row_where_no_root_meets_the_tolerance(tmp_path, capsys):
    f = tmp_path / "d.csv"
    write_toy(f, [(float(v), 1) for v in (1 - np.random.default_rng(0).random(500)) ** -0.5])
    code, out, err = run_cli(capsys, "estimate", str(f), "--k-min", "50", "--alpha", "0.5",
                             "--tol", "5e-324")
    assert (code, err) == (0, "")
    assert out == "k,alpha,method,gamma1_hat,residual\n50,0.5,MDPD,,\n"


def test_estimate_synthetic_pareto(tmp_path, capsys):
    rng = np.random.default_rng(1)
    z = (1 - rng.random(1000)) ** -0.5  # Pareto, gamma1 = 0.5
    f = tmp_path / "p.csv"
    write_toy(f, [(float(v), 1) for v in z])
    code, out, _ = run_cli(capsys, "estimate", str(f), "--k-min", "100",
                           "--alpha", "0", "--alpha", "0.1")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert abs(float(row.split(",")[3]) - 0.5) < 0.15


def test_contaminate_default_table(tmp_path, capsys):
    originals = [t for t, _ in DEFAULT_OUTLIER_TABLE]
    rows = [(5.0, 0), (1.0, 1)] + [(t, 1) for t in originals]
    f = tmp_path / "d.csv"
    write_toy(f, rows)
    code, out, _ = run_cli(capsys, "contaminate", str(f))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,status"
    new_rows = [tuple(l.split(",")) for l in lines[1:]]
    # censored row and small uncensored row untouched, order preserved
    assert new_rows[0] == ("5", "0")
    assert new_rows[1] == ("1", "1")
    replaced = sorted(float(t) for t, _ in new_rows[2:])
    assert replaced == sorted(r for _, r in DEFAULT_OUTLIER_TABLE)
    assert all(s == "1" for _, s in new_rows[2:])


def test_contaminate_single_replacement(tmp_path, capsys):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (3.0, 1), (2.0, 0)])
    table = tmp_path / "t.csv"
    table.write_text("3.0,6.0\n")
    code, out, _ = run_cli(capsys, "contaminate", str(f), "--table", str(table))
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert lines == ["1,1", "6,1", "2,0"]


def test_contaminate_empty_table_noop(tmp_path, capsys):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (3.0, 1)])
    table = tmp_path / "t.csv"
    table.write_text("")
    code, out, _ = run_cli(capsys, "contaminate", str(f), "--table", str(table))
    assert code == 0
    assert out == "time,status\n1,1\n3,1\n"


@pytest.mark.parametrize("replacement", ["inf", "-3", "0", "nan", "1e400"])
@pytest.mark.parametrize("output", [False, True])
def test_contaminate_rejects_a_replacement_that_is_not_positive_and_finite(
        tmp_path, capsys, replacement, output):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (3.0, 1), (2.0, 1)])
    table = tmp_path / "t.csv"
    table.write_text(f"# original,replacement\n3,50\n2,{replacement}\n")
    out = tmp_path / "o.csv"
    argv = ["contaminate", str(f), "--table", str(table)]
    argv += ["--output", str(out)] if output else []
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.strip() == f"error: {table}: replacement at line 3 is not positive and finite"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("row", ["3,6,7", "3,six"], ids=["three_fields", "not_a_number"])
def test_contaminate_rejects_a_malformed_table_row(tmp_path, capsys, row):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (3.0, 1)])
    table = tmp_path / "t.csv"
    table.write_text(f"{row}\n")
    code, out, err = run_cli(capsys, "contaminate", str(f), "--table", str(table))
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: {table}: malformed injection row at line 1"


def test_contaminate_too_few_uncensored(tmp_path, capsys):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (3.0, 0)])
    code, _, err = run_cli(capsys, "contaminate", str(f))
    assert code == 1
    assert "uncensored" in err


def test_sweep_outputs_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 200\ngamma1 = 0.3\np = 0.7\nreplicates = 4\n"
                   "alphas = 0,0.1\nk_min = 20\nk_max = 40\nk_step = 20\n"
                   "epsilon = 0.15\ntheta1 = 0.6\nseed = 2\n")
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out1))[0] == 0
    assert run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out2),
                   "--threads", "3")[0] == 0
    for name in ("sweep.csv", "bias_eps0.15.csv", "mse_eps0.15.csv"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs across thread counts"
    header = (out1 / "bias_eps0.15.csv").read_text().splitlines()[0]
    assert header == "k,alpha=0,alpha=0.1"
    sweep_lines = (out1 / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "k,alpha,abs_bias,mse,n_failures"
    assert len(sweep_lines) == 1 + 2 * 2


# the sweep config of the README, at full size
README_SWEEP = """\
n = 1000
gamma1 = 0.3
p = 0.55
epsilon = 0.40
theta1 = 0.6
alphas = 0,0.1,0.5,1
k_min = 50
k_max = 300
k_step = 50
replicates = 200
seed = 0
"""
GOLDEN_SWEEP = Path(__file__).resolve().parents[1] / "bench" / "golden" / "seed0" / "sweep.csv"


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_readme_sweep_is_the_golden_sweep(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 3)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(README_SWEEP)
    code, _, err = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(tmp_path / "o"),
                           "--threads", threads)
    assert (code, err) == (0, "")
    assert (tmp_path / "o" / "sweep.csv").read_bytes() == GOLDEN_SWEEP.read_bytes()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_sweep_threads_must_be_positive(tmp_path, capsys, threads):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 100\ngamma1 = 0.3\np = 0.7\nreplicates = 1\n")
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out),
                                "--threads", threads)
    assert code == 1
    assert err.strip() == "error: --threads must be >= 1"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("lines, message", [
    ("k_step = 0\n", "invalid config value: k_step must be >= 1"),
    ("k_min = 80\nk_max = 50\n", "k_grid must not be empty"),
    # a NaN alpha is neither 0 nor > 0, so no solve would write its cells
    ("alphas = 0,nan\n", "alpha=nan must be finite and >= 0"),
    ("n 1000\n", "invalid config line: 'n 1000'"),
    # a later line for a key replaces the earlier one
    ("n = abc\n", "invalid config value: invalid literal for int() with base 10: 'abc'"),
], ids=["k_step", "empty_k_range", "alpha_nan", "no_equals_sign", "n_not_an_int"])
def test_sweep_config_k_step_must_be_positive(tmp_path, capsys, lines, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 100\ngamma1 = 0.3\np = 0.7\nreplicates = 1\n" + lines)
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out))
    assert code == 1
    assert err.strip() == f"error: {message}"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("config_seed, option", [
    ("-2", []), ("1", ["--seed", "-2"]),
], ids=["config", "option"])
def test_sweep_rejects_a_negative_seed(tmp_path, capsys, config_seed, option):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"n = 100\ngamma1 = 0.3\np = 0.7\nreplicates = 1\nseed = {config_seed}\n")
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out), *option)
    assert code == 1
    assert err.strip() == "error: seed must be >= 0"
    assert stdout == "" and not out.exists()


def test_sweep_replicates_option_overrides_the_config(tmp_path, capsys):
    base = ("n = 100\ngamma1 = 0.3\np = 0.7\nalphas = 0,0.5\nk_min = 10\nk_max = 20\n"
            "k_step = 10\nepsilon = 0.15\ntheta1 = 0.6\n")
    configs = {"set": base + "replicates = 3\n", "overridden": base + "replicates = 7\n"}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    assert run_cli(capsys, "sweep", str(tmp_path / "set.cfg"),
                   "--output-dir", str(tmp_path / "set"))[0] == 0
    assert run_cli(capsys, "sweep", str(tmp_path / "overridden.cfg"), "--replicates", "3",
                   "--output-dir", str(tmp_path / "overridden"))[0] == 0
    set_, overridden = tmp_path / "set", tmp_path / "overridden"
    names = sorted(path.name for path in set_.iterdir())
    assert sorted(path.name for path in overridden.iterdir()) == names
    for name in names:
        assert (overridden / name).read_bytes() == (set_ / name).read_bytes()


def test_sweep_replicate_one_row_counts(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 100\ngamma1 = 0.3\np = 0.7\nreplicates = 1\n"
                   "alphas = 0\nk_min = 10\nk_max = 10\n")
    out = tmp_path / "o"
    code, _, _ = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out))
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    _, _, abs_bias, mse, failures = lines[1].split(",")
    assert float(mse) == pytest.approx(float(abs_bias) ** 2, rel=1e-10)


def test_sweep_invalid_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 100\ngamma1 = 0.3\np = 0.7\nbogus = 1\n")
    code, _, err = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(tmp_path))
    assert code == 1
    assert "bogus" in err


def test_sweep_svg_emission(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 100\ngamma1 = 0.3\np = 0.7\nreplicates = 2\n"
                   "alphas = 0\nk_min = 10\nk_max = 10\n")
    out = tmp_path / "o"
    code, _, _ = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out),
                         "--emit-svg")
    assert code == 0
    svg = (out / "bias_eps0.00.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_constants_row(capsys):
    code, out, _ = run_cli(capsys, "constants", "--alpha", "1", "--gamma1", "1",
                           "--p", "0.6", "--replicates", "1000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,gamma1,gamma2,p,tau1,eta_star,mu,sigma2,sigma2_mc,mc_stderr"
    vals = dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))
    assert vals["eta_star"] == pytest.approx(10 / 27)
    assert vals["gamma2"] == pytest.approx(1.5)
    assert abs(vals["sigma2"] - vals["sigma2_mc"]) <= 3 * vals["mc_stderr"]


CONSTANTS_HEADER = "alpha,gamma1,gamma2,p,tau1,eta_star,mu,sigma2,sigma2_mc,mc_stderr\n"


@pytest.mark.parametrize("alpha, gamma1, p, row", [
    ("0.5", "0.3", "0.7", "0.5,0.3,0.7,0.7,0,9.63581747133,3.21193915711,2.13706083018,"
                          "2.14255949881,0.0479150766108"),
    ("1", "0.5", "0.8", "1,0.5,2,0.8,0,3.328,1.664,1.76660872606,1.77115378256,0.0396091540177"),
    ("0.3", "0.2", "0.75", "0.3,0.2,0.6,0.75,0,23.6527870008,5.45833546171,2.27327632314,"
                           "2.27912551857,0.0509691674319"),
], ids=["0.5-0.3-0.7", "1-0.5-0.8", "0.3-0.2-0.75"])
def test_constants_rows_at_the_benchmark_points_are_pinned(capsys, alpha, gamma1, p, row):
    code, out, err = run_cli(capsys, "constants", "--alpha", alpha, "--gamma1", gamma1,
                             "--p", p, "--seed", "0", "--replicates", "4000")
    assert (code, err) == (0, "")
    assert out == CONSTANTS_HEADER + row + "\n"


def python(*args, check=True):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=check)


def run_python(code, *argv):
    return python("-c", code, *argv)


@pytest.mark.parametrize("argv, code, err", [
    (["synth", "--n", "5", "--gamma1", "0.5", "--p", "0.7"], 0, ""),
    (["constants", "--alpha", "0.5", "--gamma1", "0.3", "--p", "0.4"], 1,
     "error: variance formula requires p > 1/2\n"),
])
def test_module_entry_point_passes_the_exit_code_through(argv, code, err):
    done = python("-m", "tailcens.cli", *argv, check=False)
    assert (done.returncode, done.stderr) == (code, err)
    assert done.stdout.startswith("time,status\n") if code == 0 else done.stdout == ""


def test_cli_import_loads_no_scipy():
    code = ("import sys, tailcens.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(code).stdout == "[]\n"


def test_cli_import_builds_no_quadrature_nodes():
    # the Gauss-Legendre nodes are built by the first sigma_squared_mc, not at import
    code = ("import sys, tailcens.cli; from tailcens import asymptotics; "
            "print('numpy.polynomial' in sys.modules, "
            "asymptotics._gauss_legendre_8.cache_info().currsize)")
    assert run_python(code).stdout == "False 0\n"


def test_cli_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = ("import sys; sys.modules['scipy'] = None; from tailcens.cli import main; "
            "print(main(sys.argv[1:]))")
    data = tmp_path / "d.csv"
    synth = run_python(code, "synth", "--n", "2000", "--gamma1", "0.3", "--p", "0.7",
                       "--seed", "1", "--output", str(data))
    assert synth.stdout == "0\n"
    estimate = run_python(code, "estimate", str(data), "--k-min", "100", "--k-max", "200",
                          "--k-step", "100", "--alpha", "0.5")
    assert estimate.stdout.startswith("k,alpha,method,gamma1_hat,residual\n")
    assert estimate.stdout.endswith("\n0\n") and estimate.stdout.count("MDPD") == 2
    constants = run_python(code, "constants", "--alpha", "0.5", "--gamma1", "0.3",
                           "--p", "0.7", "--replicates", "1000")
    lines = constants.stdout.splitlines()
    assert lines[0].startswith("alpha,gamma1,gamma2,p,tau1,eta_star,mu,sigma2")
    assert len(lines) == 3 and lines[2] == "0"


@pytest.mark.skipif(not (sys.platform.startswith("linux") and os.confstr("CS_GNU_LIBC_VERSION")),
                    reason="malloc_trim is glibc's")
def test_each_dataset_command_hands_freed_heap_pages_back(tmp_path):
    # every other one of 64 1 MiB arrays freed: the holes lie below live
    # arrays, so glibc keeps their 32 MiB resident until the command (here
    # one that fails at once) trims the heap
    code = """if True:
        import sys, numpy as np
        from tailcens.cli import main
        def rss_mb():
            return int(open("/proc/self/statm").read().split()[1]) * 4096 / 2**20
        np.ones(2**20)  # a freed 8 MiB block: glibc now serves 1 MiB ones from its heap
        blocks = [np.ones(2**17) for _ in range(64)]
        del blocks[::2]
        held = rss_mb()
        code = main(sys.argv[1:])
        print(code, held - rss_mb())
    """
    out = run_python(code, "estimate", str(tmp_path / "missing.csv"), "--k-min", "1")
    code, released = out.stdout.split()
    assert code == "1" and float(released) > 24


def test_constants_p_too_small(capsys):
    code, _, err = run_cli(capsys, "constants", "--alpha", "1", "--gamma1", "1",
                           "--p", "0.5")
    assert code == 1
    assert "requires p > 1/2" in err


def test_constants_checks_tau1_before_the_variance(capsys, monkeypatch):
    def heavy(*args, **kwargs):
        raise AssertionError("variance computed before the arguments were checked")

    monkeypatch.setattr("tailcens.cli.sigma_squared", heavy)
    monkeypatch.setattr("tailcens.cli.sigma_squared_mc", heavy)
    code, out, err = run_cli(capsys, "constants", "--alpha", "1", "--gamma1", "1",
                             "--p", "0.6", "--tau1", "0.5")
    assert code == 1
    assert out == ""
    assert err.strip() == "error: tau1 must be nonpositive and finite"


def test_synth_roundtrips_through_reader(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run_cli(capsys, "synth", "--n", "50", "--gamma1", "0.5",
                         "--p", "0.7", "--seed", "3", "--output", str(out))
    assert code == 0
    times, statuses = read_dataset(str(out))
    assert len(times) == 50
    assert set(statuses) <= {0, 1}
    # deterministic
    out2 = tmp_path / "s2.csv"
    run_cli(capsys, "synth", "--n", "50", "--gamma1", "0.5", "--p", "0.7",
            "--seed", "3", "--output", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_config_parser_direct(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("# comment\nn = 100\ngamma1=0.3\np = 0.7\n\n")
    values = parse_sweep_config(str(cfg))
    assert values == {"n": "100", "gamma1": "0.3", "p": "0.7"}
    cfg.write_text("n = 100\n")
    with pytest.raises(CliError, match="missing config key"):
        parse_sweep_config(str(cfg))


def test_estimate_csv_roundtrip(tmp_path, capsys):
    # every emitted CSV parses with the tool's own numeric conventions
    f = tmp_path / "d.csv"
    write_toy(f, [(float(v), 1) for v in np.linspace(1, 9, 20)])
    code, out, _ = run_cli(capsys, "estimate", str(f), "--k-min", "5",
                           "--k-max", "10", "--k-step", "5",
                           "--alpha", "0.1", "--with-competitors")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header)
        float(cells[0])
        if cells[3]:
            float(cells[3])


@pytest.mark.parametrize("command", [["contaminate"], ["estimate", "--k-min", "1"]])
@pytest.mark.parametrize("time", ["inf", "-inf", "1e400", "nan"])
def test_non_finite_time_is_an_invalid_observation(tmp_path, capsys, command, time):
    f = tmp_path / "d.csv"
    f.write_text(f"time,status\n1.0,1\n2.0,0\n{time},1\n3.0,1\n")
    code, out, err = run_cli(capsys, command[0], str(f), *command[1:])
    assert code == 1
    assert out == ""
    assert "invalid observation at line 4" in err


@pytest.mark.parametrize("scale", ["0", "-1", "inf", "nan", "1e308"])
def test_synth_rejects_a_scale_without_positive_finite_times(tmp_path, capsys, scale):
    out = tmp_path / "s.csv"
    code, stdout, err = run_cli(capsys, "synth", "--n", "50", "--gamma1", "0.5", "--p", "0.7",
                                "--scale", scale, "--output", str(out))
    assert code == 1
    assert err.startswith("error: ") and "--scale" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["synth", "--n", "0", "--gamma1", "0.5", "--p", "0.7"], "--n must be >= 1"),
    (["synth", "--n", "5", "--gamma1", "0.5", "--p", "1.5"], "p=1.5 must lie in (0, 1)"),
    (["synth", "--n", "5", "--gamma1", "0.5", "--p", "0.7", "--epsilon", "1"],
     "epsilon=1.0 must lie in [0, 1)"),
    (["estimate", "DATA", "--k-min", "0"], "k=0 must be >= 1"),
    (["estimate", "DATA", "--k-min", "1", "--domain", "0", "5"],
     "domain bounds (0.0, 5.0) must be positive and finite"),
    (["estimate", "DATA", "--k-min", "1", "--tol=-1"], "tol_abs=-1.0 must be finite and > 0"),
    (["estimate", "DATA", "--k-min", "1", "--tol", "0"], "tol_abs=0.0 must be finite and > 0"),
    (["estimate", "DATA", "--k-min", "1", "--tol", "nan"], "tol_abs=nan must be finite and > 0"),
    (["estimate", "DATA", "--k-min", "1", "--tol", "inf"], "tol_abs=inf must be finite and > 0"),
    (["estimate", "DATA", "--k-min", "1", "--domain", "1e-6", "1e-6"],
     "domain bounds must differ, got 1e-06 twice"),
    (["estimate", "DATA", "--k-min", "3", "--k-max", "2"], "empty k range"),
    # checked before the ordering, whose top max(k) + 1 would be -2
    (["estimate", "DATA", "--k-min", "-3"], "k=-3 must be >= 1"),
    # each check below is written so that NaN, which fails every comparison, fails it
    (["estimate", "DATA", "--k-min", "1", "--alpha", "inf"], "alpha=inf must be finite and >= 0"),
    (["constants", "--alpha", "nan", "--gamma1", "0.5", "--p", "0.8"],
     "constants requires alpha > 0"),
    (["constants", "--alpha", "0.5", "--gamma1", "nan", "--p", "0.8"],
     "gamma1 and alpha must be positive and finite"),
    (["constants", "--alpha", "0.5", "--gamma1", "0.3", "--p", "1.5"], "p=1.5 must lie in (0, 1)"),
    (["constants", "--alpha", "0.5", "--gamma1", "0.5", "--p", "0.8", "--tau1", "nan"],
     "tau1 must be nonpositive and finite"),
    (["synth", "--n", "5", "--gamma1", "nan", "--p", "0.8"],
     "gamma1 and gamma2 must be positive and finite"),
    (["synth", "--n", "5", "--gamma1", "0.5", "--p", "0.8", "--eta", "inf"],
     "eta must be positive and finite"),
    (["synth", "--n", "5", "--gamma1", "0.5", "--p", "0.8", "--epsilon", "0.5", "--theta1", "nan"],
     "theta1 must be positive and finite"),
    (["constants", "--alpha", "0.5", "--gamma1", "0.3", "--p", "0.7", "--seed", "-1"],
     "seed must be >= 0"),
    (["synth", "--n", "5", "--gamma1", "0.5", "--p", "0.7", "--seed", "-1"],
     "--seed must be >= 0"),
    # rows that leave the float range: a division by a power that underflows
    # to 0, or a square that overflows
    (["constants", "--alpha", "1e308", "--gamma1", "0.3", "--p", "0.7"],
     "alpha=1e+308, gamma1=0.3, p=0.7 put the constants out of the float range"),
    (["constants", "--alpha", "0.5", "--gamma1", "1e-300", "--p", "0.7"],
     "alpha=0.5, gamma1=1e-300, p=0.7 put the constants out of the float range"),
    (["constants", "--alpha", "400", "--gamma1", "0.3", "--p", "0.7"],
     "alpha=400.0, gamma1=0.3, p=0.7 put the constants out of the float range"),
])
def test_argument_errors_exit_1(tmp_path, capsys, argv, message):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (2.0, 1), (4.0, 1)])
    argv = [str(f) if a == "DATA" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: {message}"


def test_estimate_reversed_domain_still_solves(tmp_path, capsys):
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (2.0, 1), (4.0, 1), (8.0, 0), (16.0, 1)])
    args = ["estimate", str(f), "--k-min", "1", "--k-max", "3", "--alpha", "0.5"]
    code, forward, _ = run_cli(capsys, *args)
    assert code == 0
    code, reverse, _ = run_cli(capsys, *args, "--domain", "50", "1e-6")
    assert code == 0
    rows = [line.split(",") for line in reverse.splitlines()[1:]]
    assert len(rows) == 3 and all(row[3] for row in rows)
    for mine, theirs in zip(rows, (line.split(",") for line in forward.splitlines()[1:])):
        assert float(mine[3]) == pytest.approx(float(theirs[3]), rel=1e-9)


def _top_slice_cases():
    rng = np.random.default_rng(31)
    pareto = [float(t) for t in rng.pareto(2.0, 40) + 1.0]
    tied = [float(t) for t in rng.integers(1, 7, 60)]
    # cases: rows, k_max, and a row the output must hold
    return {
        # k_max = 30 orders the top 31; the times are 1..6, so the cut splits a tie
        "ties straddling the cut": (list(zip(tied, rng.integers(0, 2, 60))), 30, None),
        "tied maxima": ([(t, i % 2) for i, t in enumerate(pareto)]
                        + [(50.0, 1), (50.0, 0), (50.0, 1), (50.0, 0)], 8, None),
        # at k = 3 the threshold is the largest time, and the last of its
        # ties in input order, the largest in the stable order, is uncensored
        "uncensored maximum tied with the threshold": (
            [(t, 1) for t in pareto] + [(50.0, 0), (50.0, 1), (50.0, 0), (50.0, 1)], 6,
            "3,,Worms,,\n"),
        "censored maximum": ([(t, 1) for t in pareto] + [(60.0, 0)], 10, None),
        "all-censored top window": ([(t, 1) for t in pareto] + [(70.0 + i, 0) for i in range(6)],
                                    12, "5,,EFG,,\n"),
        # k_max = n - 1 orders the whole sample
        "k = n - 1": ([(t, i % 3 > 0) for i, t in enumerate(pareto[:12])], 11, None),
    }


TOP_SLICE_CASES = _top_slice_cases()


@pytest.mark.parametrize("case", list(TOP_SLICE_CASES))
def test_estimate_on_its_top_slice_is_byte_identical_to_the_full_ordering(
        tmp_path, capsys, monkeypatch, case):
    rows, k_max, must_hold = TOP_SLICE_CASES[case]
    f = tmp_path / "d.csv"
    write_toy(f, [(t, int(s)) for t, s in rows])
    argv = ["estimate", str(f), "--k-min", "1", "--k-max", str(k_max), "--alpha", "0",
            "--alpha", "0.5", "--alpha", "1", "--with-competitors"]
    sizes = []

    def recorded(z, delta, top=None):
        sample = ordered_from_arrays(z, delta, top=top)
        sizes.append(sample.n)
        return sample

    monkeypatch.setattr(cli, "ordered_from_arrays", recorded)
    code, sliced, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert sizes == [min(k_max + 1, len(rows))]
    if case == "ties straddling the cut":
        z = np.sort([t for t, _ in rows])
        assert z[-k_max - 1] == z[-k_max - 2]
    monkeypatch.setattr(cli, "ordered_from_arrays", lambda z, delta, top=None:
                        ordered_from_arrays(z, delta))
    code, full, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sliced == full
    assert must_hold is None or must_hold in sliced


def test_internal_value_error_exits_2(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("solver state corrupted")

    monkeypatch.setattr("tailcens.cli.mdpd_estimate", broken)
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (2.0, 1), (4.0, 1)])
    code, _, err = run_cli(capsys, "estimate", str(f), "--k-min", "1", "--alpha", "0.5")
    assert code == 2
    assert err.strip() == "internal error: solver state corrupted"


@pytest.mark.parametrize("argv", [["estimate", "BAD", "--k-min", "1"],
                                  ["contaminate", "DATA", "--table", "BAD"],
                                  ["sweep", "BAD", "--output-dir", "OUT"]])
def test_undecodable_input_is_a_user_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"time,status\n1.0,1\n\xff\xfe,0\n")
    f = tmp_path / "d.csv"
    write_toy(f, [(1.0, 1), (2.0, 1), (4.0, 1)])
    paths = {"BAD": str(bad), "DATA": str(f), "OUT": str(tmp_path / "o")}
    code, _, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 1
    assert err.startswith(f"error: cannot read {bad}")


UNDERFLOW_ERROR = ("error: a censoring time underflows to 0 at p=0.999 (gamma2=299.7); "
                   "choose a smaller p")


def test_synth_where_a_censoring_time_underflows_names_p(tmp_path, capsys):
    # gamma2 = 299.7: the Frechet time underflows to 0 for a uniform below ~6e-6
    out = tmp_path / "d.csv"
    code, stdout, err = run_cli(capsys, "synth", "--n", "100000", "--gamma1", "0.3",
                                "--p", "0.999", "--output", str(out))
    assert code == 1
    assert err.strip() == UNDERFLOW_ERROR
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("seed", ["1", "2", "3", "5"])
def test_sweep_where_a_censoring_time_underflows_names_p(tmp_path, capsys, monkeypatch, seed,
                                                         threads):
    # replicate 0 underflows at seeds 1, 2 and 3, replicate 1 at seeds 1, 2
    # and 5: at --threads 2 the worker, which solves replicate 1, raises
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 200000\ngamma1 = 0.3\np = 0.999\nreplicates = 2\n"
                   "alphas = 0.5\nk_min = 100\nk_max = 100\n")
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out),
                                "--seed", seed, "--threads", threads)
    assert code == 1
    assert err.strip() == UNDERFLOW_ERROR
    assert stdout == "" and not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the worker is forked to inherit the patched range")
def test_sweep_worker_that_exits_without_its_range_is_an_internal_error(tmp_path, capsys,
                                                                        monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    caller, replicate_range = os.getpid(), simulation._replicate_range

    def exiting_worker(spec, start, stop):
        if os.getpid() != caller:
            os._exit(3)
        return replicate_range(spec, start, stop)

    monkeypatch.setattr(simulation, "_replicate_range", exiting_worker)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 100\ngamma1 = 0.3\np = 0.7\nreplicates = 2\nk_min = 10\n"
                   "k_max = 10\n")
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out),
                                "--threads", "2")
    assert code == 2
    assert err.strip() == ("internal error: a sweep worker exited with code 3 "
                           "before sending its replicates")
    assert stdout == ""
    assert multiprocessing.active_children() == []


def test_failed_sweep_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 100\ngamma1 = 0.3\np = 0.7\nreplicates = 1\nk_min = 10\n"
                   "k_max = 10\n")
    out = tmp_path / "o"

    def failing_fmt(value):
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(cli, "_fmt", failing_fmt)
    code, _, err = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out))
    assert code == 2
    assert err.strip() == "internal error: formatting failed"
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["synth", "contaminate"])
def test_output_into_a_missing_directory_is_a_user_error(tmp_path, capsys, command):
    data = tmp_path / "d.csv"
    write_toy(data, [(1.0 + i, 1) for i in range(12)])
    argv = {"synth": ["synth", "--n", "10", "--gamma1", "0.3", "--p", "0.7"],
            "contaminate": ["contaminate", str(data)]}[command]
    out = str(tmp_path / "missing" / "x.csv")
    code, stdout, err = run_cli(capsys, *argv, "--output", out)
    assert code == 1
    assert err.strip() == f"error: cannot write {out}: {os.strerror(errno.ENOENT)}"
    assert stdout == "" and sorted(os.listdir(tmp_path)) == ["d.csv"]


def test_sweep_output_dir_that_is_a_file_is_a_user_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 100\ngamma1 = 0.3\np = 0.7\nreplicates = 1\nk_min = 10\n"
                   "k_max = 10\n")
    out = tmp_path / "o"
    out.write_text("kept\n")
    code, stdout, err = run_cli(capsys, "sweep", str(cfg), "--output-dir", str(out))
    assert code == 1
    assert err.strip() == f"error: cannot write {out}: {os.strerror(errno.EEXIST)}"
    assert stdout == "" and out.read_text() == "kept\n"
