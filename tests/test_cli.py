"""Command-line interface: subcommands, config handling, determinism."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from crsphere import cli, frames, oracle3, spectral, variation
from crsphere.cli import main, load_config, parse_deformation_file, ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_small_run(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code, stdout, _ = run(capsys, "verify", "--n", "1", "--degree", "2",
                          "--suites", "ring,spectral", "--output", str(out))
    assert code == 0
    assert "suite ring: PASS" in stdout
    text = out.read_text()
    assert "[conventions]" in text
    assert "[summary]" in text
    assert "0 exact failures" in text


def test_verify_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--n", "1", "--degree", "2",
                         "--suites", "ring", "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 1\ndegree = 2\nsuites = ring\n"
                   f"output = {tmp_path/'r.txt'}\n# comment\n")
    code, stdout, _ = run(capsys, "verify", "--config", str(cfg),
                          "--suites", "spectral")
    assert code == 0
    assert "suite spectral" in stdout
    assert "suite ring" not in stdout


def test_verify_rejects_bad_config(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--degree", "0")
    assert code == 2 and "degree" in err
    code, _, err = run(capsys, "verify", "--n", "4")
    assert code == 2 and "n = 4" in err
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("bogus = 1\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "bogus" in err


def test_verify_montecarlo_records(tmp_path, capsys):
    out = tmp_path / "r.txt"
    code, stdout, _ = run(capsys, "verify", "--n", "1", "--degree", "2",
                          "--suites", "ring", "--samples", "20000",
                          "--seed", "0", "--output", str(out))
    assert code == 0
    assert "montecarlo" in stdout
    assert "montecarlo[" in out.read_text()


def test_analyze_mode_minus_four(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1) w1 w2^3\n")
    code, stdout, _ = run(capsys, "analyze", str(f), "--oracle")
    assert code == 0
    assert "embeddable: no" in stdout
    assert "hessian total: 0/1+0/1*i" in stdout
    assert "oracle second derivative: 0/1+0/1*i [PASS]" in stdout


def test_analyze_constant(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1)\n")
    code, stdout, _ = run(capsys, "analyze", str(f))
    assert code == 0
    assert "embeddable: yes" in stdout
    assert "hessian total: 4/1+0/1*i" in stdout
    assert "constant-mode content" in stdout


def test_analyze_mode_minus_five(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1) w1^5\n")
    code, stdout, _ = run(capsys, "analyze", str(f))
    assert code == 0
    assert "embeddable: no" in stdout
    assert "hessian total: -1/6+0/1*i" in stdout


def test_analyze_tensor_file_s5(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("n = 2\n"
                 "E[1 2, 1 3] = (1/1,0/1) z3\n"
                 "E[1 3, 1 2] = (1/1,0/1) z3\n")
    code, stdout, _ = run(capsys, "analyze", str(f))
    assert code == 0
    assert "dimension n: 2" in stdout
    assert "embeddable: yes (dimension >= 5" in stdout


def test_analyze_asymmetric_tensor_reported(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("n = 2\n"
                 "E[1 2, 1 3] = (1/1,0/1)\n"
                 "E[1 3, 1 2] = (-1/1,0/1)\n")
    code, stdout, _ = run(capsys, "analyze", str(f))
    assert code == 1
    assert "symmetric lowered form: no" in stdout
    assert "asymmetry at frame pair" in stdout


def test_analyze_parse_error_position(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1) z9\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert ":2:" in err and "out of range" in err


@pytest.mark.parametrize("body, where, what", [
    ("E = (1/1,0/1) z1^1000000", ":2:15:", "term degree 1000000 exceeds"),
    ("E = (1/1,0/1) z1^6 w2^7", ":2:20:", "term degree 13 exceeds the cap 12"),
    ("E = (1/1,0/1) z1^" + "7" * 5000, ":2:18:", "5000 digits is too long"),
    ("E = (" + "7" * 5000 + ",0/1) z1", ":2:6:", "5000 digits is too long"),
])
def test_analyze_rejects_oversized_input(tmp_path, capsys, body, where, what):
    f = tmp_path / "d.txt"
    f.write_text(f"n = 1\n{body}\n")
    code, stdout, err = run(capsys, "analyze", str(f), "--oracle")
    assert code == 2 and stdout == ""
    assert f"d.txt{where}" in err and what in err


def test_analyze_missing_dimension(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("E = (1/1,0/1)\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2 and "dimension" in err


def test_spectrum(capsys):
    code, stdout, _ = run(capsys, "spectrum", "--n-max", "2", "--degree", "3")
    assert code == 0
    assert "lambda(1,1)=2" in stdout
    assert "zero weight exactly at [(0, 1), (1, 0)]" in stdout


def test_conventions(capsys):
    code, stdout, _ = run(capsys, "conventions", "--n", "2")
    assert code == 0
    assert "round webster curvature W0: n(n+1)/2 = 3" in stdout
    assert "levi constant h: 2" in stdout
    assert "second-variation coefficient C" in stdout


def test_load_config_rejects_garbage(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("just some words\n")
    with pytest.raises(ConfigError):
        load_config(str(f))


# -- input that verifies nothing, repeats work or means nothing exits 2 ---------

def test_verify_rejects_repeated_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 1\n# comment\nn = 2\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg), "--output",
                       str(tmp_path / "r.txt"))
    assert code == 2
    assert "cfg.txt:3:" in err and "'n'" in err and "line 1" in err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("flag, config", [(",", None), ("", None),
                                          (None, "suites =\n")])
def test_verify_rejects_empty_suite_list(tmp_path, capsys, flag, config):
    argv = ["verify", "--output", str(tmp_path / "r.txt")]
    if flag is not None:
        argv += ["--suites", flag]
    if config is not None:
        (tmp_path / "cfg.txt").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.txt")]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and "no suite selected" in err
    assert "suites passed" not in stdout


def test_verify_rejects_repeated_suite(tmp_path, capsys):
    code, stdout, err = run(capsys, "verify", "--suites", "ring,ring",
                            "--output", str(tmp_path / "r.txt"))
    assert code == 2 and "'ring' is listed twice" in err
    assert "suite ring" not in stdout


@pytest.mark.parametrize("n", ["0", "-1"])
def test_conventions_rejects_nonpositive_n(capsys, n):
    code, stdout, err = run(capsys, "conventions", "--n", n)
    assert code == 2 and "n must be >= 1" in err
    assert stdout == ""


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_spectrum_rejects_nonpositive_degree(capsys, degree):
    code, stdout, err = run(capsys, "spectrum", "--degree", degree)
    assert code == 2 and "degree must be >= 1" in err
    assert stdout == ""


def test_parse_deformation_roundtrip(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/2,-3/4) z1 w2^2\n")
    e = parse_deformation_file(str(f))
    assert e.n == 1
    assert e.coefficient.to_grammar() == "(1/2,-3/4) z1 w2^2"


# -- output paths that cannot be written ---------------------------------------

def test_verify_unwritable_output_fails_before_work(tmp_path, capsys,
                                                    monkeypatch):
    def no_work(cfg):
        raise AssertionError("suites ran before the output path was checked")

    monkeypatch.setattr(cli, "run_suite", no_work)
    bad = tmp_path / "missing" / "r.txt"
    code, _, err = run(capsys, "verify", "--n", "1", "--degree", "1",
                       "--output", str(bad))
    assert code == 2
    assert err.startswith(f"config error: cannot write {bad}: ")


def test_analyze_unwritable_output_fails_before_work(tmp_path, capsys,
                                                     monkeypatch):
    def no_work(path):
        raise AssertionError("file parsed before the output path was checked")

    monkeypatch.setattr(cli, "parse_deformation_file", no_work)
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1)\n")
    bad = tmp_path / "missing" / "r.txt"
    code, stdout, err = run(capsys, "analyze", str(f), "--output", str(bad))
    assert code == 2 and stdout == ""
    assert err.startswith(f"config error: cannot write {bad}: ")


# -- deformation files that repeat or mix lines --------------------------------

def _parse_error(tmp_path, capsys, text):
    f = tmp_path / "d.txt"
    f.write_text(text)
    with pytest.raises(ConfigError):
        parse_deformation_file(str(f))
    code, stdout, err = run(capsys, "analyze", str(f))
    assert code == 2 and stdout == ""
    return err


def test_analyze_rejects_repeated_scalar_line(tmp_path, capsys):
    err = _parse_error(tmp_path, capsys,
                       "n = 1\nE = (1/1,0/1)\nE = (2/1,0/1) z1\n")
    assert "d.txt:3:" in err and "repeated coefficient line" in err


def test_analyze_rejects_repeated_tensor_index(tmp_path, capsys):
    err = _parse_error(tmp_path, capsys,
                       "n = 2\nE[1 2, 1 3] = (1/1,0/1)\n"
                       "E[1 3, 1 2] = (1/1,0/1)\n"
                       "E[1 2, 1 3] = (5/1,0/1) z3\n")
    assert "d.txt:4:" in err and "repeated tensor index E[1 2, 1 3]" in err


def test_analyze_rejects_second_dimension_line(tmp_path, capsys):
    err = _parse_error(tmp_path, capsys,
                       "n = 2\nE[1 2, 1 2] = (1/1,0/1)\n"
                       "n = 1\nE = (1/1,0/1)\n")
    assert "d.txt:3:" in err and "repeated dimension line" in err


def test_analyze_rejects_mixed_coefficient_forms(tmp_path, capsys):
    err = _parse_error(tmp_path, capsys,
                       "n = 2\nE = (1/1,0/1)\nE[1 2, 1 2] = (1/1,0/1)\n")
    assert "d.txt:2:" in err and "cannot be mixed" in err


def test_analyze_rejects_non_integer_index(tmp_path, capsys):
    err = _parse_error(tmp_path, capsys, "n = 2\nE[1 x, 1 2] = (1/1,0/1)\n")
    assert "d.txt:2:" in err and "integers" in err


# -- report bytes are pinned ------------------------------------------------

@pytest.mark.parametrize("n, digest", [
    (1, "90d5b1f1aa8862832dc40bcaeecd99de9dabe58f731338125a61506a6c4f30d2"),
    (2, "9f40802f2fa02cf65eef4bdd2834e62d2f0873836bcb02d5f69d1fc78bfcc02c"),
])
def test_verify_report_bytes_pinned(tmp_path, capsys, n, digest):
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "verify", "--n", str(n), "--degree", "2",
                     "--samples", "0", "--output", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_report_bytes_pinned_s7(tmp_path, capsys):
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "verify", "--n", "3", "--degree", "1",
                     "--samples", "0", "--output", str(out))
    digest = "162676cd63ab79fb112b417b796bd8396f757ff6cc2479a77a4d0628b37af802"
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# -- each fact is computed once, and the gate can fail --------------------------

def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_analyze_oracle_solves_structure_once(tmp_path, capsys, monkeypatch):
    solves = _counting(monkeypatch, oracle3, "solve_structure")
    hessians = {}
    for name in ("j_hessian", "j_hessian_via_T"):
        hessians[name] = _counting(monkeypatch, variation, name)
        if hasattr(oracle3, name):      # bound there by name too
            monkeypatch.setattr(oracle3, name, getattr(variation, name))
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1) (1/2,1/1) z1 w2^2\n")
    code, stdout, _ = run(capsys, "analyze", str(f), "--oracle")
    assert code == 0 and "[PASS]" in stdout
    assert len(solves) == 1
    assert {k: len(v) for k, v in hessians.items()} == \
        {"j_hessian": 1, "j_hessian_via_T": 1}


@pytest.mark.parametrize("sign, status", [("1/1", 0), ("-1/1", 1)])
def test_analyze_tensor_scanned_once(tmp_path, capsys, monkeypatch,
                                     sign, status):
    scans = _counting(monkeypatch, variation, "validate_symmetry")
    forms = _counting(monkeypatch, frames.TensorField, "lowered_form")
    f = tmp_path / "d.txt"
    f.write_text("n = 2\nE[1 2, 1 3] = (1/1,0/1) z3\n"
                 f"E[1 3, 1 2] = ({sign},0/1) z3\n")
    code, stdout, _ = run(capsys, "analyze", str(f), "--oracle")
    assert code == status
    assert ("asymmetry at frame pair" in stdout) == bool(status)
    assert len(scans) == 1
    assert len(forms) == 0      # the scan reads canonical coefficients


def test_wrong_constant_fails_the_gate(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle3, "SECOND_VARIATION_COEFF", Fraction(1, 3))
    code, _, _ = run(capsys, "verify", "--n", "1", "--degree", "1",
                     "--suites", "oracle3", "--output",
                     str(tmp_path / "r.txt"))
    assert code == 1
    assert "FAIL series-coefficient[" in (tmp_path / "r.txt").read_text()
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1)\n")
    code, stdout, _ = run(capsys, "analyze", str(f), "--oracle")
    assert code == 1
    assert "oracle second derivative: 4/1+0/1*i [FAIL]" in stdout


def test_wrong_eigenvalue_fails_the_eigen_check(tmp_path, capsys,
                                               monkeypatch):
    # The operator reads the table per term bidegree, not per harmonic
    # component, so a wrong table fails the eigen records as well as the
    # eigenvalue rows.
    true_eigenvalue = spectral.eigenvalue
    monkeypatch.setattr(spectral, "eigenvalue",
                        lambda p, q, n: 2 * true_eigenvalue(p, q, n))
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "verify", "--n", "1", "--degree", "2",
                     "--suites", "spectral", "--samples", "0",
                     "--output", str(out))
    assert code == 1
    assert "FAIL decompose.eigen[" in out.read_text()


# -- output does not depend on the hash seed ------------------------------------

def _cli_bytes(tmp_path, seed, *argv):
    """Exit status, stdout and report bytes of a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / f"r{seed}.txt"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from crsphere.cli import main; sys.exit(main())",
         *argv, "--output", str(out)],
        env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout.replace(str(out).encode(), b"R"), \
        out.read_bytes()


def test_output_independent_of_hash_seed(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("n = 2\nE[1 2, 1 3] = (1/1,0/1) z3 (0/1,2/1) w1\n"
                 "E[2 3, 1 2] = (-1/2,0/1) z1 w2\n")
    for argv, status in ((["verify", "--n", "2", "--degree", "1",
                           "--samples", "0"], 0),
                         (["analyze", str(f)], 1)):
        runs = [_cli_bytes(tmp_path, seed, *argv) for seed in (0, 1)]
        assert runs[0][0] == status
        assert runs[0] == runs[1]
