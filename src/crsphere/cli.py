"""Command-line front door: verify, analyze, spectrum, conventions.

Only ``ring``, with the ``scalar`` and ``grammar`` modules it imports, is
loaded with this module; each subcommand imports the modules it calls, so
``crsphere analyze`` never loads ``verify`` and ``crsphere spectrum``
loads neither ``oracle3`` nor ``verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import re
import sys
from typing import TYPE_CHECKING

from . import __version__
from .ring import MAX_TERM_DEGREE, SpherePoly, PolyParseError, parse_poly

if TYPE_CHECKING:
    from . import variation
    from .verify import SuiteConfig

__all__ = ["main", "load_config", "parse_deformation_file", "MAX_DIMENSION"]

# Cap on the dimension line ``n = ...`` of an ``analyze`` file.  It bounds
# run time only: the cost of even a one-term file grows steeply with n.
MAX_DIMENSION = 8


class ConfigError(ValueError):
    pass


def _key_lines(path: str, kind: str):
    """(line number, line) for each line of the ``key = value`` file at
    ``path`` that is not blank once its '#' comment is cut off; ``kind``
    names the file in the error when it cannot be read."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip("\n")
        if line.strip():
            yield ln, line


def _once(first_line: dict, key, what: str, path: str, ln: int) -> None:
    """Record the line ``key`` first appears on; a repeat is an error."""
    if key in first_line:
        raise ConfigError(f"{path}:{ln}: repeated {what} (first at line "
                          f"{first_line[key]})")
    first_line[key] = ln


def load_config(path: str) -> dict:
    """Read a ``key = value`` configuration file ('#' starts a comment)."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for ln, line in _key_lines(path, "config"):
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        _once(first_line, key, f"key {key!r}", path, ln)
        values[key] = val.strip()
    return values


def _build_suite_config(args) -> SuiteConfig:
    from .verify import SUITE_NAMES, SuiteConfig
    base = {**dataclasses.asdict(SuiteConfig()), "suites": "all"}
    if args.config:
        for k, v in load_config(args.config).items():
            if k not in base:
                raise ConfigError(f"unknown config key {k!r}")
            base[k] = v
    for k in base:
        v = getattr(args, k, None)
        if v is not None:
            base[k] = v
    try:
        n = int(base["n"])
        degree = int(base["degree"])
        samples = int(base["samples"])
        seed = int(base["seed"])
    except ValueError as exc:
        raise ConfigError(f"non-integer config value: {exc}") from exc
    suites = str(base["suites"])
    names = (SUITE_NAMES if suites == "all"
             else tuple(s.strip() for s in suites.split(",") if s.strip()))
    cfg = SuiteConfig(n=n, degree=degree, suites=names, samples=samples,
                      seed=seed, output=str(base["output"]))
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_deformation_file(path: str) -> variation.DeformationTensor:
    """Read a deformation tensor file.

    Format: a line ``n = <int>``, then either ``E = <poly>`` for n = 1
    or lines ``E[j k, l m] = <poly>`` for higher dimensions, with
    polynomials in the term grammar.  The key left of ``=`` must be one
    of these exactly; any other line is rejected.  Each of the dimension
    line, the ``E`` line and each tensor index may appear once, and the
    two coefficient forms are not mixed.
    """
    n: int | None = None
    scalar: SpherePoly | None = None
    coeffs: dict = {}
    first_line: dict = {}   # 'n', 'E' or a tensor index -> its line

    def poly_at(text: str, ln: int, col0: int) -> SpherePoly:
        try:
            return parse_poly(text, n)
        except PolyParseError as exc:
            raise ConfigError(
                f"{path}:{ln}:{col0 + exc.column}: {exc.message}") from exc

    for ln, line in _key_lines(path, "deformation"):
        head, sep, body = line.partition("=")
        key = head.strip()
        index = re.fullmatch(r"E\[([^\]]*)\]", key)
        if key.startswith("E[") and "]" not in key:
            raise ConfigError(f"{path}:{ln}: expected ']' after tensor index")
        if not sep or (key not in ("n", "E") and index is None):
            raise ConfigError(f"{path}:{ln}: unrecognized line "
                              f"{line.strip()!r}")
        if key == "n":
            _once(first_line, "n", "dimension line 'n = ...'", path, ln)
            try:
                n = int(body.strip())
            except ValueError:
                raise ConfigError(f"{path}:{ln}: bad dimension "
                                  f"{body.strip()!r}")
            if n < 1:
                raise ConfigError(f"{path}:{ln}: dimension must be >= 1")
            if n > MAX_DIMENSION:
                raise ConfigError(f"{path}:{ln}: dimension {n} exceeds the "
                                  f"cap {MAX_DIMENSION}")
            continue
        if n is None:
            raise ConfigError(f"{path}:{ln}: dimension line 'n = ...' must "
                              "come first")
        if index is not None:
            idx = index.group(1).replace(",", " ").split()
            if len(idx) != 4:
                raise ConfigError(f"{path}:{ln}: tensor index needs four "
                                  "entries 'E[j k, l m]'")
            try:
                j, k, l, m = (int(x) for x in idx)
            except ValueError:
                raise ConfigError(f"{path}:{ln}: tensor index entries must "
                                  "be integers")
            if not (1 <= j < k <= n + 1 and 1 <= l < m <= n + 1):
                raise ConfigError(f"{path}:{ln}: index pair out of range")
            _once(first_line, ((j, k), (l, m)),
                  f"tensor index E[{j} {k}, {l} {m}]", path, ln)
            coeffs[((j, k), (l, m))] = poly_at(body, ln, len(head) + 1)
        else:
            _once(first_line, "E", "coefficient line 'E = ...'", path, ln)
            scalar = poly_at(body, ln, len(head) + 1)

    if n is None:
        raise ConfigError(f"{path}: missing dimension line 'n = ...'")
    if scalar is not None and coeffs:
        raise ConfigError(f"{path}:{first_line['E']}: 'E = ...' cannot be "
                          "mixed with 'E[j k, l m] = ...' lines")
    from . import frames, variation
    if n == 1:
        if scalar is None and not coeffs:
            raise ConfigError(f"{path}: missing coefficient line 'E = ...'")
        if scalar is None:
            return variation.DeformationTensor.from_tensor(
                frames.TensorField(1, coeffs))
        return variation.DeformationTensor.from_coefficient(scalar)
    if not coeffs:
        raise ConfigError(f"{path}: n > 1 needs 'E[j k, l m] = ...' lines")
    return variation.DeformationTensor.from_tensor(
        frames.TensorField(n, coeffs))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _writing(path: str):
    """Raise an OSError met while opening or writing path as a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Fail before any work if the report path cannot be opened.

    A file the probe creates is removed again, so a run that fails later
    leaves no empty report behind.
    """
    with _writing(path):
        try:
            open(path, "x", encoding="utf-8").close()
        except FileExistsError:
            open(path, "a", encoding="utf-8").close()
        else:
            os.remove(path)


def _cmd_verify(args) -> int:
    from .verify import run_suite
    cfg = _build_suite_config(args)
    _check_writable(cfg.output)
    report = run_suite(cfg)
    with _writing(cfg.output):
        report.write(cfg.output)
    for name, recs in report.suites:
        bad = sum(1 for r in recs if not r.ok)
        status = "PASS" if bad == 0 else f"FAIL ({bad})"
        print(f"suite {name}: {status} ({len(recs)} checks)")
    print(f"report written to {cfg.output}")
    print(f"exact failures: {report.exact_failures()}, "
          f"float failures: {report.float_failures()}")
    return 0 if report.passed() else 1


def _cmd_analyze(args) -> int:
    if args.output:
        _check_writable(args.output)
    try:
        e = parse_deformation_file(args.file)
    except ConfigError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    from . import variation

    lines = ["crsphere deformation analysis", f"version: {__version__}",
             f"dimension n: {e.n}"]
    for key, c in sorted(e.coefficients().items()):
        lines.append(f"coefficient {key}: {c.to_grammar()}")

    lines.append("symmetric lowered form: "
                 f"{'no' if e.asymmetries else 'yes'}")
    if e.asymmetries:
        for pa, pb, lhs, rhs in e.asymmetries:
            lines.append(f"asymmetry at frame pair {pa},{pb}: "
                         f"{lhs.to_grammar()} vs {rhs.to_grammar()}")
        text = "\n".join(lines) + "\n"
        _emit(args.output, text)
        return 1

    rep = variation.j_hessian(e)
    lines.append("fourier modes:")
    for m, nrm, wt in rep.modes:
        lines.append(f"  m={m}: norm2={nrm.serialize()} "
                     f"(m+4)-weighted={wt.serialize()}")
    if e.n == 1:
        bad = variation.obstructing_modes(e)
        note = f" (obstructing modes: {bad})" if bad else ""
        lines.append("embeddable: "
                     f"{'yes' if rep.embeddable else 'no'}{note}")
    else:
        lines.append("embeddable: yes (dimension >= 5, always embeddable; "
                     "mode criterion not applicable)")
        if not e.admissible():
            lines.append("note: negative modes present; such a tensor does "
                         "not arise from an integrable deformation here")
    lines.append(f"hessian total: {rep.total.serialize()}")
    via = variation.j_hessian_via_T(e)
    lines.append(f"transverse-derivative route: {via.serialize()} "
                 f"(exact match: {'yes' if via == rep.total else 'NO'})")
    if 0 in e.coefficient_modes():
        lines.append("note: constant-mode content classifies as embeddable "
                     "under this orientation; the opposite trivialization "
                     "flips the mode sign (cross-check only, not asserted)")

    status = 0 if via == rep.total else 1
    if args.oracle:
        if e.n != 1:
            lines.append("oracle cross-check: skipped (S^3 only)")
        else:
            from . import oracle3
            ps = oracle3.solve_structure(oracle3.deform_frame(e.coefficient))
            verdict, d2 = oracle3.second_derivative_check(
                e.coefficient, ps, rep.total, via)
            lines.append(f"oracle second derivative: {d2.serialize()} "
                         f"[{'PASS' if verdict.ok else 'FAIL'}]")
            for v in (oracle3.check_first_variation(e.coefficient, ps),
                      oracle3.check_torsion_variation(e.coefficient, ps)):
                lines.append(f"oracle {v.name}: "
                             f"{'PASS' if v.ok else 'FAIL'}")
                if not v.ok:
                    status = 1
            if not verdict.ok:
                status = 1
    text = "\n".join(lines) + "\n"
    _emit(args.output, text)
    return status


def _emit(output: str | None, text: str) -> None:
    print(text, end="")
    if output:
        with _writing(output), open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"(written to {output})")


def _cmd_spectrum(args) -> int:
    nmax = args.n_max
    dmax = args.degree
    for flag, value in (("n-max", nmax), ("degree", dmax)):
        if not 1 <= value <= MAX_TERM_DEGREE:
            raise ConfigError(f"{flag} must be >= 1 and <= "
                              f"{MAX_TERM_DEGREE}")
    from . import spectral, variation
    print("sub-Laplacian eigenvalues lambda(p,q,n) = p q + n (p+q)/2")
    for n in range(1, nmax + 1):
        print(f"n = {n} (S^{2 * n + 1}):")
        for total in range(1, dmax + 1):
            row = []
            for p in range(total + 1):
                q = total - p
                lam = spectral.eigenvalue(p, q, n)
                row.append(f"lambda({p},{q})={lam}")
            print("  " + "  ".join(row))
        b_n = variation.conformal_exponent(n)
        w0 = variation.round_webster_curvature(n)
        print(f"  conformal weights b_n lambda - (n+1) with b_n = {b_n}, "
              f"W0 = {w0}:")
        kernel = []
        for total in range(1, dmax + 1):
            for p in range(total + 1):
                q = total - p
                wgt = b_n * spectral.eigenvalue(p, q, n) - (n + 1)
                if wgt == 0:
                    kernel.append((p, q))
        print(f"  zero weight exactly at {kernel} "
              f"(ambient-linear functions)")
    return 0


def _cmd_conventions(args) -> int:
    if args.n < 1:
        raise ConfigError("n must be >= 1")
    from .verify import conventions_text
    print(conventions_text(args.n))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="crsphere",
        description="Exact verification of Webster curvature variations "
                    "on odd spheres")
    parser.add_argument("--version", action="version",
                        version=f"crsphere {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--config", help="key = value config file")
    p_verify.add_argument("--n", type=int, default=None,
                          help="sphere dimension parameter (S^{2n+1})")
    p_verify.add_argument("--degree", type=int, default=None,
                          help="max total degree of pool monomials")
    p_verify.add_argument("--suites", default=None,
                          help="comma list of suites or 'all'")
    p_verify.add_argument("--samples", type=int, default=None,
                          help="Monte-Carlo sample count (0 disables floats)")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="Monte-Carlo seed")
    p_verify.add_argument("--output", default=None, help="report path")
    p_verify.set_defaults(func=_cmd_verify)

    p_analyze = sub.add_parser("analyze",
                               help="analyze a deformation tensor file")
    p_analyze.add_argument("file", help="deformation file")
    p_analyze.add_argument("--output", default=None, help="report path")
    p_analyze.add_argument("--oracle", action="store_true",
                           help="run the S^3 structure-equation cross-check")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_spec = sub.add_parser("spectrum",
                            help="print the eigenvalue table and kernel")
    p_spec.add_argument("--n-max", type=int, default=3)
    p_spec.add_argument("--degree", type=int, default=4)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_conv = sub.add_parser("conventions",
                            help="print the calibration ledger")
    p_conv.add_argument("--n", type=int, default=1)
    p_conv.set_defaults(func=_cmd_conventions)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
