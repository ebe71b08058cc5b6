"""Command-line interface: subcommands, config handling, determinism."""

import errno
import hashlib
import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from crsphere import cli, frames, oracle3, ring, spectral, variation, verify
from crsphere.cli import main, load_config, parse_deformation_file, ConfigError
from crsphere.ring import MAX_TERM_DEGREE, SpherePoly, TSeries2, parse_poly


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


@pytest.mark.parametrize("body, modes", [
    ("(1/1,0/1) w1^5 (1/1,0/1) w1 w2^3 (1/1,0/1)", [-5, -4]),
    ("(1/1,0/1) z1 z2 (2/1,0/1) w1^6", [-6]),
    ("(1/1,0/1) w1^4 z2", []),
], ids=["modes-5-4-0", "modes-6-0", "mode-3"])
def test_analyze_notes_the_obstructing_modes(tmp_path, capsys, body, modes):
    f = tmp_path / "d.txt"
    f.write_text(f"n = 1\nE = {body}\n")
    assert variation.obstructing_modes(parse_deformation_file(str(f))) \
        == modes
    code, stdout, _ = run(capsys, "analyze", str(f))
    assert code == 0
    line = "embeddable: " + (f"no (obstructing modes: {modes})" if modes
                             else "yes")
    assert line + "\n" in stdout


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
    assert "line 1, column" not in err


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

    monkeypatch.setattr(verify, "run_suite", no_work)
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


class _FullFile(io.StringIO):
    """A file on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_verify_failed_report_write_exits_2(tmp_path, capsys, monkeypatch):
    def write(report, path):
        with _FullFile() as fh:
            fh.write(report.to_text())

    monkeypatch.setattr(verify.Report, "write", write)
    out = tmp_path / "r.txt"
    code, stdout, err = run(capsys, "verify", "--n", "1", "--degree", "1",
                            "--suites", "ring", "--output", str(out))
    assert code == 2 and stdout == ""
    assert err == (f"config error: cannot write {out}: [Errno 28] "
                   f"{os.strerror(errno.ENOSPC)}\n")


def test_analyze_failed_output_write_exits_2(tmp_path, capsys, monkeypatch):
    def full_open(path, mode="r", **kwargs):
        return _FullFile() if mode == "w" else open(path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", full_open, raising=False)
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1) w1^5\n")
    out = tmp_path / "r.txt"
    code, stdout, err = run(capsys, "analyze", str(f), "--output", str(out))
    assert code == 2
    assert stdout.startswith("crsphere deformation analysis\n")
    assert "written to" not in stdout
    assert err == (f"config error: cannot write {out}: [Errno 28] "
                   f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("before", [None, b"an earlier report\n"])
def test_analyze_parse_failure_leaves_output_as_it_was(tmp_path, capsys,
                                                       before):
    # the writability probe must not leave an empty report behind, nor
    # touch a file already at the path
    f = tmp_path / "bad.txt"
    f.write_text("n = 1\nE = (1/1,0/1) q1\n")
    out = tmp_path / "rep.txt"
    if before is not None:
        out.write_bytes(before)
    code, stdout, err = run(capsys, "analyze", str(f), "--output", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith(f"parse error: {f}:2:")
    assert (out.read_bytes() if out.exists() else None) == before


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


@pytest.mark.parametrize("text, where, what", [
    ("nope = 2\nE = (1/1,0/1)\n", ":1:", "unrecognized line 'nope = 2'"),
    ("n = 1\nExtra = (1/1,0/1) z1\n", ":2:", "unrecognized line 'Extra"),
    ("n = 2\nE[1 2, 1 3 = (1/1,0/1)\n", ":2:", "expected ']'"),
    ("n = 1\nnote = 7\nE = (1/1,0/1)\n", ":2:", "unrecognized line 'note"),
], ids=["nope", "Extra", "unclosed-index", "note-after-dimension"])
def test_analyze_keys_match_exactly(tmp_path, capsys, text, where, what):
    err = _parse_error(tmp_path, capsys, text)
    assert f"d.txt{where}" in err and what in err


def test_analyze_rejects_non_integer_index(tmp_path, capsys):
    err = _parse_error(tmp_path, capsys, "n = 2\nE[1 x, 1 2] = (1/1,0/1)\n")
    assert "d.txt:2:" in err and "integers" in err


# -- report bytes are pinned ------------------------------------------------

def _pinned(n, digest, *flags):
    """One pinned verify report: --n n --degree 2 --samples 0, then flags."""
    return pytest.param(n, flags, digest,
                        id="-".join([str(n), *flags[1::2], digest]))


@pytest.mark.parametrize("n, flags, digest", [
    _pinned(1, "90d5b1f1aa8862832dc40bcaeecd99de9dabe58f731338125a61506a6c4f30d2"),
    _pinned(2, "9f40802f2fa02cf65eef4bdd2834e62d2f0873836bcb02d5f69d1fc78bfcc02c"),
    _pinned(1, "f2a41826d277389acd82fa9b6563777447d6a115a2f5f9effc3eaddd63dcc3bd",
            "--degree", "4", "--suites", "oracle3"),
    # the one pinned pool whose E reach modes -6..6 through the renormalizer
    _pinned(1, "8a0dfb3969d2992175923834621b4fc2096778476391f46ee47036d22cca736f",
            "--degree", "6", "--suites", "oracle3"),
    _pinned(1, "3ec172c378a367e5b355993b03902b5737e205f889b7111d7575760054e4a3f5",
            "--degree", "4"),
    _pinned(2, "1e420779fff922f331f616c956b9ba3418142ee195dc297b85819608cf26fc68",
            "--degree", "4"),
    # the largest monomials the frame fields' image tables meet
    _pinned(1, "4428074b3cb4ec1385324d1cc72c9f07120fd959fb6d82b4fdbc0876ee047741",
            "--degree", "8", "--suites", "oracle3"),
    _pinned(3, "a24af46ea3d416fc4082bbcc820ae7cb77b5ac9a31bdbd806878014c8cc957eb",
            "--degree", "4"),
])
def test_verify_report_bytes_pinned(tmp_path, capsys, n, flags, digest):
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "verify", "--n", str(n), "--degree", "2",
                     "--samples", "0", "--output", str(out), *flags)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# stdout of `analyze FILE --oracle`, recorded before the sparse series product
@pytest.mark.parametrize("text, digest", [
    pytest.param("n = 1\nE = (1/1,0/1)\n",
                 "1d9bed67a0b8da4caa30a8fc5ca8ec7c0af8f7264f192b746f796a5ab7132d91",
                 id="constant"),
    pytest.param("n = 1\nE = (1/1,0/1) w1 w2^3\n",
                 "94703aa71840afe5f99f6fc67bf5a78fb0e678e6975ceefe37871d196d210239",
                 id="mode-minus-four"),
    pytest.param("n = 1\nE = (1/1,0/1) w1^5\n",
                 "edef9727961a79b5f0fd2c7bdedbcc818314919d0ab9b91ee41acb2f22a27aaf",
                 id="mode-minus-five"),
    pytest.param("n = 1\nE = (2/1,0/1) (-1/3,-4/1) z1 z2\n",
                 "2da1bc6d58d66934aec361355b1127d0ee430c0c50dde8b95f4a5ed7713a4c68",
                 id="two-modes"),
    pytest.param("n = 2\nE[1 2, 1 3] = (1/1,0/1) z3\n"
                 "E[1 3, 1 2] = (1/1,0/1) z3\n",
                 "993c49c1d06d17ef054302e3b16657598c6d471ae80858877b5fc1ba8b0d354d",
                 id="symmetric-s5"),
    pytest.param("n = 2\nE[1 2, 1 3] = (-2/3,0/1) (0/1,4/1) w1\n"
                 "E[1 3, 1 2] = (-2/3,0/1) (0/1,4/1) w1\n",
                 "a310b1c30bbadba9024545a874f2bd0cf49298d937d032173820423910de4137",
                 id="symmetric-s5-two-modes"),
])
def test_analyze_output_bytes_pinned(tmp_path, capsys, text, digest):
    f = tmp_path / "d.txt"
    f.write_text(text)
    code, stdout, _ = run(capsys, "analyze", str(f), "--oracle")
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_verify_report_bytes_pinned_s7(tmp_path, capsys):
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "verify", "--n", "3", "--degree", "1",
                     "--samples", "0", "--output", str(out))
    digest = "162676cd63ab79fb112b417b796bd8396f757ff6cc2479a77a4d0628b37af802"
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# -- each fact is computed once, and the gate can fail --------------------------

def _counting(monkeypatch, module, name, results=None):
    """Record each call's arguments, and its result into ``results`` if
    given."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        out = original(*args, **kwargs)
        if results is not None:
            results.append(out)
        return out

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _counting_bindings(monkeypatch, module, name, results=None):
    """Like _counting, also at every crsphere module that imported the
    name, so calls through any binding are counted."""
    original = getattr(module, name)
    holders = [m for key, m in sys.modules.items()
               if key.startswith("crsphere.") and m is not module
               and getattr(m, name, None) is original]
    calls = _counting(monkeypatch, module, name, results)
    for other in holders:
        monkeypatch.setattr(other, name, getattr(module, name))
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


def test_oracle_solve_multiplies_few_polynomials(monkeypatch):
    """Counted in the units of the one-map series: the term pairs of
    ``ring._add_products``, ``reduce_nums`` calls, series products
    (``TSeries2.__mul__``), fused sums (``ring.sum_of_products``),
    series normalizations and frame-table reads (``apply_table``).  No series product forms a term pair whose
    orders sum above ORDER.  The deformed frame is stated, not solved
    for, and its one Levi-norm series is computed once; the Webster
    series is read off one wedge of d w; the exterior derivative reads
    each image straight from its slot's table, so it calls no
    ``field_apply``, applies no field to a zero coefficient or to its own
    slot, and a constant factor scales.  Each bound is the count measured
    for this E."""
    e = parse_poly("(1/1,0/1) w1 w2^3", 1)
    oracle3.solve_structure(oracle3.deform_frame(e))    # warm frame tables
    shift = 2 * ring._half(1)
    orders, pairs = [], []
    add_products = ring._add_products

    def counting_pairs(dst, xs, ys, scale=1):
        pairs.append(len(xs) * len(ys))
        orders.append((max(xs) >> shift) + (max(ys) >> shift))
        return add_products(dst, xs, ys, scale)
    monkeypatch.setattr(ring, "_add_products", counting_pairs)
    products = [_counting(monkeypatch, SpherePoly, name)
                for name in ("__mul__", "__rmul__")]
    series = [_counting(monkeypatch, TSeries2, name)
              for name in ("__mul__", "__rmul__")]
    loops = _counting_bindings(monkeypatch, ring, "reduce_nums")
    outs = []
    fused = _counting_bindings(monkeypatch, ring, "sum_of_products", outs)
    normal = _counting(monkeypatch, TSeries2, "from_nums")
    reads = _counting_bindings(monkeypatch, ring, "apply_table")
    fields = _counting(monkeypatch, frames, "field_apply")
    norms = _counting(monkeypatch, oracle3, "_levi_norm")
    cf = oracle3.deform_frame(e)
    assert sum(map(len, products)) == 1        # E times -i
    assert len(norms) == 1                     # 3 recomputing D
    assert sum(map(len, series)) == 2          # |m1|^2, then (1/2)|m1|^2
    assert (sum(pairs), len(loops), len(fused), len(normal)) == (7, 2, 1, 5)
    for calls in (pairs, loops, fused, outs, normal, *products, *series):
        calls.clear()
    oracle3.solve_structure(cf)
    assert sum(map(len, products)) == 0
    assert sum(map(len, series)) == 4
    assert (sum(pairs), len(pairs)) == (24, 12)     # 12 pair loops
    assert len(loops) == 6
    assert len(fused) == 6
    # all series: a polynomial fused sum here would be a frame-table fill
    assert all(type(out) is TSeries2 for out in outs)
    assert len(normal) == 20
    assert len(reads) == 10                    # one per nonzero order
    assert len(fields) == 0                    # 16 forming all of d w
    assert max(orders) <= ring.ORDER


@pytest.mark.parametrize("slot, raises", [
    (0, None), (1, None), (2, "Webster curvature must be real")],
    ids=["T", "Z1", "Zbar1"])
def test_poisoned_image_table_fails_the_gate(tmp_path, capsys, slot, raises,
                                             frame_tables):
    """Negating the first nonempty image in the table of an n=1 frame
    field fails the oracle3 suite, through a failed check or the solver's
    own assertion; with the table cleared and refilled it passes again."""
    out = tmp_path / "r.txt"
    args = ("verify", "--n", "1", "--degree", "2", "--suites", "oracle3",
            "--samples", "0", "--output", str(out))
    images = frame_tables(1)[slot]
    assert run(capsys, *args)[0] == 0
    key = next(k for k, image in images.items() if image)
    images[key] = tuple((dest, tuple((k, -w) for k, w in pairs))
                        for dest, pairs in images[key])
    if raises:
        with pytest.raises(AssertionError, match=raises):
            run(capsys, *args)
    else:
        assert run(capsys, *args)[0] == 1
        assert "  FAIL " in out.read_text()
    images.clear()
    assert run(capsys, *args)[0] == 0


def test_frame_tables_stay_order_free(tmp_path, capsys, frame_tables):
    """A series' field image applies the tables to each order's terms
    without the order field, so after the oracle3 suite, which images
    series of every order, no key of an n = 1 frame table, and no key of
    an image, has a bit set above its two halves."""
    args = ("verify", "--n", "1", "--degree", "2", "--suites", "oracle3",
            "--samples", "0", "--output", str(tmp_path / "r.txt"))
    assert run(capsys, *args)[0] == 0
    top = 2 * ring._half(1)
    tables = frame_tables(1)
    assert all(tables)
    assert all(key >> top == 0 for table in tables for key in table)
    assert all(k >> top == 0 for table in tables for image in table.values()
               for _, pairs in image for k, _ in pairs)


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


def test_wrong_binomial_fails_the_conformal_route(tmp_path, capsys,
                                                 monkeypatch):
    """With s(s+1)/2 in place of s(s-1)/2 in the binomial series, the
    volume series of every direction is wrong, and the series route no
    longer matches the spectral route."""
    def fractional_power(self, exponent):
        s = Fraction(exponent)
        quad = self.c2 * ring.ExactScalar(s) \
            + (self.c1 * self.c1) * ring.ExactScalar(s * (s + 1) / 2)
        return TSeries2(SpherePoly.one(self.n),
                        self.c1 * ring.ExactScalar(s), quad)

    monkeypatch.setattr(TSeries2, "fractional_power", fractional_power)
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "verify", "--n", "1", "--degree", "2",
                     "--suites", "variation", "--samples", "0",
                     "--output", str(out))
    assert code == 1
    failed = [line for line in out.read_text().splitlines()
              if line.startswith("  FAIL ")]
    assert failed
    assert all(line.startswith("  FAIL conformal-route[")
               for line in failed)


@pytest.mark.parametrize("order, fails, line", [
    (1, ("criticality[", "first-variation["), "oracle first-variation["),
    (2, ("mode-formula[", "covariant-route[", "series-coefficient["),
     "oracle second derivative:")], ids=["t", "t2"])
def test_webster_read_off_fault_fails_the_gate(tmp_path, capsys, monkeypatch,
                                               order, fails, line):
    """t^order added to the (t1, t1b) entry of d w, where the Webster
    series is read off, fails verify's oracle3 suite and analyze --oracle.
    The connection form is the 1-form with a theta part."""
    exterior = oracle3._d_wedge

    def spoiled(a, i, j):
        out = exterior(a, i, j)
        if a[oracle3.TH].is_zero() or (i, j) != (oracle3.T1, oracle3.T1B):
            return out
        bump = [SpherePoly.zero(1)] * 3
        bump[order] = SpherePoly.one(1)
        return out + TSeries2(*bump)

    monkeypatch.setattr(oracle3, "_d_wedge", spoiled)
    code, _, _ = run(capsys, "verify", "--n", "1", "--degree", "1",
                     "--suites", "oracle3", "--output",
                     str(tmp_path / "r.txt"))
    assert code == 1
    report = (tmp_path / "r.txt").read_text()
    assert all(f"FAIL {name}" in report for name in fails)
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1) z1\n")
    code, stdout, _ = run(capsys, "analyze", str(f), "--oracle")
    assert code == 1
    assert [x for x in stdout.splitlines()
            if x.startswith(line) and "FAIL" in x]


def test_wrong_eigenvalue_fails_the_eigen_check(tmp_path, capsys,
                                               monkeypatch, spectral_tables):
    # The table is the integer 2 * lambda, which both the operator and
    # spectral.eigenvalue read.  The eigen records compare each harmonic
    # component with -lambda times itself, lambda from verify's own
    # formula, so every nonconstant component fails: 14 of the 15 at
    # degree 2, where only the constant has lambda = 0.
    true_table = spectral._double_eigenvalue
    monkeypatch.setattr(spectral, "_double_eigenvalue",
                        lambda p, q, n: 2 * true_table(p, q, n))
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "verify", "--n", "1", "--degree", "2",
                     "--suites", "spectral", "--samples", "0",
                     "--output", str(out))
    assert code == 1
    report = out.read_text()
    assert report.count("decompose.eigen[") == 15
    assert report.count("FAIL decompose.eigen[") == 14


def test_wrong_box_factor_fails_the_eigen_check(tmp_path, capsys,
                                                monkeypatch, spectral_tables):
    # harmonic_decompose solves its layers with the box factors
    # k (n + s + k), while the operator applies the eigenvalue table, so
    # the eigen records compare two routes with independent constants.
    monkeypatch.setattr(spectral, "_box_factor",
                        lambda k, s, n: k * (n + s + k + 1))
    out = tmp_path / "r.txt"
    spectral._layer_rows.cache_clear()
    try:
        code, _, _ = run(capsys, "verify", "--n", "1", "--degree", "2",
                         "--suites", "spectral", "--samples", "0",
                         "--output", str(out))
    finally:
        spectral._layer_rows.cache_clear()
    assert code == 1
    assert "FAIL decompose.eigen[(1/1,0/1) z2 w2]" in out.read_text()


def test_box_dropping_a_coordinate_fails_the_gate(tmp_path, capsys,
                                                  monkeypatch, spectral_tables):
    # the decomposition and sub-Laplacian tables are filled from box; one
    # that leaves out d/dz_3 d/dzbar_3 must fail the spectral suite at n = 2.
    # Both tables agree with each other, so the eigen records pass the
    # wrong (1, 1) component z3 zbar3; its nonzero mean fails it.
    def short_box(n, nums):
        out = {}
        for a in range(1, n):
            ring.accumulate(out, ring.partial(
                n, ring.partial(n, nums, 1, a), 0, a).items())
        return out

    monkeypatch.setattr(spectral, "box", short_box)
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "verify", "--n", "2", "--degree", "2",
                     "--suites", "spectral", "--samples", "0",
                     "--output", str(out))
    assert code == 1
    assert "FAIL decompose.eigen[(1/1,0/1) z3 w3]" in out.read_text()


# -- run sizes are capped ---------------------------------------------------------

@pytest.mark.parametrize("argv, config", [
    (["--degree", str(MAX_TERM_DEGREE + 1)], None),
    (["--degree", "30", "--suites", "oracle3"], None),
    ([], "degree = 100000\n"),
])
def test_verify_rejects_degree_above_cap(tmp_path, capsys, monkeypatch,
                                         argv, config):
    def no_work(cfg):
        raise AssertionError("suites ran on a degree above the cap")

    monkeypatch.setattr(verify, "run_suite", no_work)
    if config is not None:
        (tmp_path / "cfg.txt").write_text(config)
        argv = argv + ["--config", str(tmp_path / "cfg.txt")]
    code, stdout, err = run(capsys, "verify", "--n", "1", "--samples", "0",
                            "--output", str(tmp_path / "r.txt"), *argv)
    assert code == 2 and stdout == ""
    assert err.startswith("config error: degree bound must be >= 1 and <= "
                          f"{MAX_TERM_DEGREE}")
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("argv, config", [
    (["--seed", "-5", "--samples", "3"], None),
    (["--seed", "-5"], None),
    (["--seed", str(2 ** 32)], None),
    ([], "seed = -1\n"),
])
def test_verify_rejects_seed_out_of_range(tmp_path, capsys, monkeypatch,
                                          argv, config):
    def no_work(cfg):
        raise AssertionError("suites ran on a seed out of range")

    monkeypatch.setattr(verify, "run_suite", no_work)
    if config is not None:
        (tmp_path / "cfg.txt").write_text(config)
        argv = argv + ["--config", str(tmp_path / "cfg.txt")]
    code, stdout, err = run(capsys, "verify", "--n", "1", "--degree", "1",
                            "--suites", "ring", "--samples", "0",
                            "--output", str(tmp_path / "r.txt"), *argv)
    assert code == 2 and stdout == ""
    assert err == "config error: seed must be >= 0 and < 2^32\n"
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("samples, config", [
    (["--samples", "1"], None),
    ([], "samples = 1\n"),
    (["--samples", "-1"], None),
    (["--samples", str(verify.MAX_SAMPLES + 1)], None),
    (["--samples", "3000000000"], None),
])
def test_verify_rejects_sample_count(tmp_path, capsys, monkeypatch,
                                     samples, config):
    # one sample has no standard error (every float record would read NaN),
    # and a count past the cap would exhaust memory
    def no_work(cfg):
        raise AssertionError("suites ran on a bad sample count")

    monkeypatch.setattr(verify, "run_suite", no_work)
    argv = list(samples)
    if config is not None:
        (tmp_path / "cfg.txt").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.txt")]
    code, stdout, err = run(capsys, "verify", "--n", "1", "--degree", "1",
                            "--suites", "ring",
                            "--output", str(tmp_path / "r.txt"), *argv)
    assert code == 2 and stdout == ""
    assert err == (f"config error: sample count must be 0 (no Monte-Carlo)"
                   f" or 2 to {verify.MAX_SAMPLES}; one has no standard"
                   f" error\n")
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("argv, prefix", [
    (["analyze"], "parse error: cannot read deformation file"),
    (["verify", "--config"], "config error: cannot read config file"),
])
def test_non_utf8_file_exits_2(tmp_path, capsys, argv, prefix):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe n = 1\n")
    code, stdout, err = run(capsys, *argv, str(bad))
    assert code == 2 and stdout == ""
    assert err.startswith(f"{prefix} {bad}: ") and err.count("\n") == 1


def test_analyze_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte-order mark before ``n = 1`` is not part of the line."""
    body = "n = 1\nE = (1/1,0/1) z1 w2^2\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(body, encoding="utf-8")
    marked.write_text(body, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    outs = [run(capsys, "analyze", str(f)) for f in (plain, marked)]
    assert outs[0][0] == 0 and outs[0][2] == ""
    assert outs[1] == outs[0]


def test_verify_config_with_a_byte_order_mark(tmp_path, capsys):
    """A config file that starts with a UTF-8 byte-order mark reads its
    first key as written."""
    body = "n = 1\ndegree = 1\nsuites = ring\n"
    reports = []
    for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.txt"
        cfg.write_text(body, encoding=encoding)
        code, _, err = run(capsys, "verify", "--config", str(cfg),
                           "--output", str(out))
        assert (code, err) == (0, ""), name
        reports.append(out.read_text())
    assert reports[1] == reports[0]
    assert "n: 1\ndegree: 1\nsuites: ring\n" in reports[0]


@pytest.mark.parametrize("n, body, col", [
    (1, "E =", 4), (1, "E = +", 6), (2, "E[1 2, 1 2] =", 14)])
def test_analyze_rejects_empty_polynomial(tmp_path, capsys, n, body, col):
    f = tmp_path / "d.txt"
    f.write_text(f"n = {n}\n{body}\n")
    code, stdout, err = run(capsys, "analyze", str(f), "--oracle")
    assert code == 2 and stdout == ""
    assert err == f"parse error: {f}:2:{col}: expected a term\n"


@pytest.mark.parametrize("n", ["9", "1000000"])
def test_analyze_rejects_dimension_above_cap(tmp_path, capsys, monkeypatch,
                                             n):
    def no_work(*args):
        raise AssertionError("parsed a file above the dimension cap")

    monkeypatch.setattr(cli, "parse_poly", no_work)
    f = tmp_path / "d.txt"
    f.write_text(f"n = {n}\nE[1 2, 1 3] = (1/1,0/1) z3\n")
    code, stdout, err = run(capsys, "analyze", str(f), "--oracle")
    assert code == 2 and stdout == ""
    assert err == (f"parse error: {f}:1: dimension {n} exceeds the cap "
                   f"{cli.MAX_DIMENSION}\n")
    assert cli.MAX_DIMENSION == 8


@pytest.mark.parametrize("flag", ["--degree", "--n-max"])
def test_spectrum_rejects_size_above_cap(capsys, flag):
    code, stdout, err = run(capsys, "spectrum", flag,
                            str(MAX_TERM_DEGREE + 1))
    assert code == 2 and stdout == ""
    assert err.startswith(f"config error: {flag[2:]} must be >= 1 and <= "
                          f"{MAX_TERM_DEGREE}")


# -- one parser serves every call ------------------------------------------------

def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1)\n")
    out = tmp_path / "r.txt"
    code, first, _ = run(capsys, "analyze", str(f), "--output", str(out))
    assert code == 0 and f"(written to {out})" in first
    out.unlink()
    code, second, _ = run(capsys, "analyze", str(f))
    assert code == 0 and "(written to" not in second
    assert not out.exists()
    assert first.startswith(second)
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("crsphere ")


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
    g = tmp_path / "e.txt"
    g.write_text("n = 1\nE = (1/1,0/1) (1/2,1/1) z1 w2^2 (0/1,-1/3) w1^3\n")
    for argv, status in ((["verify", "--n", "2", "--degree", "1",
                           "--samples", "0"], 0),
                         (["verify", "--n", "3", "--degree", "2",
                           "--suites", "ring,spectral"], 0),
                         (["analyze", str(f)], 1),
                         (["analyze", str(g), "--oracle"], 0)):
        runs = [_cli_bytes(tmp_path, seed, *argv) for seed in (0, 1)]
        assert runs[0][0] == status
        assert runs[0] == runs[1]
