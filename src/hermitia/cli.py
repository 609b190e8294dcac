"""Command-line front end.

Every consistency comparison is computed twice where possible (closed-form
path and search path) and reported side by side with a match flag; a
mismatch is surfaced through exit code 2, never reconciled silently.

Exit codes: 0 success and consistent, 2 inconsistent finding, 3 invalid
input, 4 search bound exhausted.  main returns each one: the handler's
verdict, or 3 or 4 for the error it raised, with a one-line reason on stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import gf
from .matff import Mat, MatError, SurfaceSpec, fermat_surface
from .tetra import (CASE_C1, SignatureError, case_signature, on_surface,
                    smoothness_scan)
from .classify import ClassifyError, enumerate_admissible, predicted_signatures
from .orbit import (OrbitError, SearchExhausted, build_curve, count_report,
                    embed_qprime, inflate_case1, pairwise_equivalence,
                    q2_lambda_member, q2_parameter_matrices,
                    stabilizer_search)

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_INVALID = 3
EXIT_EXHAUSTED = 4


class InputError(ValueError):
    """Command-line input the CLI refuses itself: a q the subcommand cannot
    take, or a file that cannot be read or written or does not hold what it
    should."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 3
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


class _TopLevel(_Parser):
    """Refuses a flag before the subcommand by name, where argparse would
    read the flag's value as the subcommand; only help may come first."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        if args and args[0].startswith("-") and not (
                args[0] == "-h" or len(args[0]) > 2 and "--help".startswith(args[0])):
            self.error(f"unrecognized arguments: {args[0]} "
                       "(flags go after the subcommand)")
        return super().parse_known_args(args, namespace)


class _Subcommand(_Parser):
    """A subcommand refuses the arguments it does not take itself, so the
    usage line printed is the subcommand's, naming the flags it does take."""

    def parse_known_args(self, args=None, namespace=None):
        cfg, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return cfg, extra


def _build_parser() -> _Parser:
    p = _TopLevel(prog="hermitia",
                description="exact verification, classification, construction "
                            "and counting of tetranomial curves on smooth "
                            "Hermitian surfaces")
    sub = p.add_subparsers(dest="subcommand", required=True,
                           parser_class=_Subcommand)

    def common(sp, q=True):
        if q:
            sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--format", dest="fmt", choices=("json", "tsv"),
                        default="json")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("classify", help="rediscover the admissible signatures")
    sp.add_argument("--max-d", dest="d_max", type=int, default=None)
    common(sp)

    sp = sub.add_parser("count", help="closed-form curve counts per case")
    common(sp)

    sp = sub.add_parser("build", help="construct and verify a curve on a surface")
    sp.add_argument("--case", required=True, choices=("c1", "c2", "c3"))
    sp.add_argument("--max-ext", dest="max_ext", type=int, default=6)
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--fermat", action="store_true")
    grp.add_argument("--surface", dest="surface_path")
    common(sp)

    sp = sub.add_parser("stabilizer", help="exact diagonal stabilizer")
    sp.add_argument("--case", required=True, choices=("c2", "c3"))
    sp.add_argument("--samples", type=int, default=10 ** 4)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--seed", type=int, default=1)  # accepted; nothing is drawn
    common(sp, q=False)

    sp = sub.add_parser("reps-q2", help="q=2 representative inequivalence matrix")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--scan", action="store_true",
                     help="lambda family over all of GF(4)")
    grp.add_argument("--lambdas-file", dest="lambdas_path")
    common(sp, q=False)
    return p


def _emit(doc: dict, cfg) -> None:
    if cfg.fmt == "tsv":
        lines = []
        for key, val in _flatten(doc):
            lines.append(f"{key}\t{val}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {cfg.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _flatten(doc[k], f"{prefix}{k}.")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), doc


def _check_prime_power(q: int) -> None:
    # classify and count leave this to the package, which gives the same reason
    if not gf.is_prime_power(q):
        raise InputError(f"q={q} is not a prime power")


def cmd_classify(cfg: argparse.Namespace) -> int:
    report = enumerate_admissible(cfg.q, cfg.d_max)
    doc = report.to_json()
    doc["predicted"] = [list(s.astuple())
                        for s in predicted_signatures(cfg.q, report.d_max)]
    _emit(doc, cfg)
    return EXIT_OK if report.matches_prediction else EXIT_INCONSISTENT


def cmd_count(cfg: argparse.Namespace) -> int:
    report = count_report(cfg.q)
    _emit(report.to_json(), cfg)
    return EXIT_OK


def _read_json(path: str, parse, what: str):
    """parse(the JSON document at path); any failure becomes an InputError
    with a one-line reason."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise InputError(f"{path} is not a valid {what}: "
                         f"{type(exc).__name__}: {exc}") from None


def _surface_gram(doc: dict, q: int) -> Mat:
    p, n = gf.prime_power_split(q)  # checked before the file's field is built
    if (doc["field"]["p"], doc["field"]["m"]) != (p, 2 * n):
        raise MatError(f"surface field is not GF(q^2) = GF({p}^{2 * n})")
    return Mat.from_json(doc)


def _load_surface(cfg: argparse.Namespace) -> SurfaceSpec:
    if cfg.fermat:
        return fermat_surface(cfg.q)
    gram = _read_json(cfg.surface_path, lambda doc: _surface_gram(doc, cfg.q),
                      "surface file")
    surf = SurfaceSpec(cfg.q, gram)
    if not surf.hermitian:
        raise InputError("surface matrix is not Hermitian for this q")
    if not surf.smooth:
        raise InputError("surface matrix is singular")
    return surf


def cmd_build(cfg: argparse.Namespace) -> int:
    _check_prime_power(cfg.q)
    case_signature(cfg.case, cfg.q)  # parity check before reading the surface
    surf = _load_surface(cfg)
    curve = build_curve(cfg.case, cfg.q, surf, max_ext=cfg.max_ext)
    scan = smoothness_scan(cfg.case, cfg.q, gf.gf_ext(cfg.q, 2))
    doc = {
        "curve": curve.to_json(),
        "on_surface": on_surface(curve, surf),
        "nonplanar": curve.nonplanar,
        "standard_model_scan": scan.to_json(),
    }
    _emit(doc, cfg)
    return EXIT_OK


def cmd_stabilizer(cfg: argparse.Namespace) -> int:
    _check_prime_power(cfg.q)
    if cfg.q < 3:
        raise InputError(f"stabilizer scans need q >= 3, got q={cfg.q}")
    report = stabilizer_search(cfg.case, cfg.q, samples=cfg.samples)
    _emit(report.to_json(), cfg)
    if report.matches_prediction:
        return EXIT_OK
    # the group is cyclic by construction, so only the order can disagree
    print(f"stabilizer order {report.order} != predicted_order "
          f"{report.predicted_order}", file=sys.stderr)
    return EXIT_INCONSISTENT


def cmd_reps_q2(cfg: argparse.Namespace) -> int:
    fld4 = gf.gfq2(2)
    members = []
    for k, params in enumerate(q2_parameter_matrices()):
        members.append((f"fixed-{k}", params))
    if cfg.scan:
        lams = list(fld4.elements())
    else:
        lams = _read_json(cfg.lambdas_path,
                          lambda doc: [fld4.element(c) for c in doc],
                          "lambdas file")
    for lam in lams:
        members.append((f"lambda-{fld4.coeffs(lam)}", q2_lambda_member(lam)))
    forms = [embed_qprime(inflate_case1(p), CASE_C1, 2) for _, p in members]
    search = gf.make_field(2, 4)
    verdicts = pairwise_equivalence(forms, search)
    n = len(forms)
    matrix = [[None if i == j else verdicts[(i, j)] is not None
               for j in range(n)] for i in range(n)]
    doc = {
        "search_field": gf.field_to_json(search),
        "members": [name for name, _ in members],
        "equivalent": matrix,
        "all_pairwise_inequivalent": not any(any(row) for row in matrix),
    }
    _emit(doc, cfg)
    return EXIT_OK if doc["all_pairwise_inequivalent"] else EXIT_INCONSISTENT


def main(argv=None) -> int:
    cfg = _build_parser().parse_args(argv)
    handlers = {
        "classify": cmd_classify,
        "count": cmd_count,
        "build": cmd_build,
        "stabilizer": cmd_stabilizer,
        "reps-q2": cmd_reps_q2,
    }
    try:
        out = cfg.out  # refuse an unwritable --out before any work
        if out and os.path.isdir(out):
            raise InputError(f"cannot write {out}: {os.strerror(errno.EISDIR)}")
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise InputError(f"cannot write {out}: {os.strerror(errno.ENOENT)}")
        return handlers[cfg.subcommand](cfg)
    except SearchExhausted as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_EXHAUSTED
    except (MatError, OrbitError, SignatureError, ClassifyError, gf.FieldError,
            InputError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
