"""Batch command-line front end.

Subcommands: entropy, spectrum, synthesize, verify.  All randomness flows
from --seed, outputs are written atomically and before anything is printed,
and repeated runs with identical inputs produce byte-identical files.
Exit codes: 0 success, 2 invalid input, 3 mixing required but absent,
4 certificate mismatch, 5 statistical verdict failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import io
from .beta import beta_entropy_estimate, quasi_greedy_normalize
from .classify import evaluate_certificate, evaluate_checks
from .errors import CertificateMismatch, NotPrimitive, ShiftlabError
from .shifts import count_periodic, count_words, parse_word, topological_entropy
from .spectrum import check_concavity, spectrum_curve, sup_equals_htop
from .synthesis import GapClass, certify, synthesize_witness

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_PRIMITIVE = 3
EXIT_CERTIFICATE = 4
EXIT_VERDICT = 5

LOG_BASE_NOTE = "# log base: natural (nats)"


def _maybe_manifest(args, command: str, inputs: dict, outputs: list[str]) -> None:
    if args.manifest:
        io.write_json(args.manifest, io.manifest_doc(command, inputs, outputs))


def cmd_entropy(args) -> int:
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n {args.n} is not a positive word length")
    if args.beta is not None and args.method:
        raise ValueError("--method goes with --shift, not --beta")
    if args.shift is not None and args.raw_digits:
        raise ValueError("--raw-digits goes with --beta, not --shift")
    lines = [LOG_BASE_NOTE]
    if args.beta is not None:
        spec = quasi_greedy_normalize(args.beta, raw=args.raw_digits)
        n = args.n or 22
        est = beta_entropy_estimate(spec, n)
        lines += [f"beta = {args.beta}  alphabet = {spec.alphabet}",
                  f"word-count estimate (n={n}): {est:.12f}",
                  f"log beta:                    {math.log(spec.beta):.12f}"]
        inputs = {
            "beta": str(args.beta),
            "raw_digits": bool(args.raw_digits),
            "n": n,
            "digit_stream": {"preperiod": list(spec.preperiod), "period": list(spec.period),
                             "validity_length": min(spec.validity_length, 1 << 30),
                             "is_integer": spec.is_integer},
        }
    else:
        s = io.shift_from_doc(io.read_json(args.shift))
        methods = [args.method] if args.method else ["spectral", "words", "periodic"]
        n = args.n or 24
        for method in methods:
            if method == "spectral":
                lines.append(f"spectral: {topological_entropy(s):.12f}")
            elif method == "words":
                lines.append(f"words (n={n}): {math.log(count_words(s, n)) / n:.12f}")
            elif method == "periodic":
                cnt = count_periodic(s, n)
                if not cnt:
                    raise ValueError(f"no point has a period dividing n={n}: no periodic estimate")
                lines.append(f"periodic (n={n}): {math.log(cnt) / n:.12f}")
        inputs = {"shift": args.shift, "methods": methods, "n": n}
    _maybe_manifest(args, "entropy", inputs, [])
    print("\n".join(lines))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    s = io.shift_from_doc(io.read_json(args.shift))
    phi = io.potential_from_doc(io.read_json(args.potential), s)
    curve = spectrum_curve(s, phi, args.points)
    iv = curve.interval
    lines = ["a,psi,q_star"]
    for a, psi, q in curve.points:
        lines.append(f"{a:.12g},{psi:.12g},{q:.12g}")
    io.atomic_write(args.out, ("\n".join(lines) + "\n").encode("ascii"))
    _maybe_manifest(args, "spectrum",
                    {"shift": args.shift, "potential": args.potential,
                     "points": args.points, "h_top": curve.h_top,
                     "L_phi": [iv.lo, iv.hi],
                     "lo_cycle": list(iv.lo_cycle), "hi_cycle": list(iv.hi_cycle)},
                    [args.out])
    print(LOG_BASE_NOTE)
    print(f"h_top = {curve.h_top:.12f}  L_phi = [{iv.lo:.12g}, {iv.hi:.12g}]")
    print(f"points = {len(curve.points)} concave = {check_concavity(curve)} "
          f"sup_reaches_htop = {sup_equals_htop(curve)}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    s = io.shift_from_doc(io.read_json(args.shift))
    if s.k > io.STREAM_ALPHABET:
        raise ValueError(f"the stream format holds one digit per symbol (alphabet <= "
                         f"{io.STREAM_ALPHABET}); this shift has {s.k} symbols")
    phi = None
    if args.potential:
        phi = io.potential_from_doc(io.read_json(args.potential), s)
    prefix = parse_word(args.prefix) if args.prefix else None
    cycle = parse_word(args.cycle) if args.cycle else None
    o = synthesize_witness(s, GapClass(args.gap_class), phi, args.horizon, args.seed,
                           pinned_prefix=prefix, cycle=cycle)
    outputs = io.write_orbit_dir(o, args.out)
    manifest = io.manifest_doc(
        "synthesize",
        {"shift": args.shift, "potential": args.potential, "class": args.gap_class,
         "horizon": args.horizon, "seed": args.seed, "prefix": args.prefix,
         "cycle": args.cycle}, outputs)
    io.write_json(Path(args.out) / "manifest.json", manifest)
    print(f"wrote {args.out}: {', '.join(outputs + ['manifest.json'])}")
    print(f"class = {o.certificate.gap_class.value}  "
          f"inf entropy over K = {o.certificate.inf_entropy_over_K:.6f}")
    return EXIT_OK


def _print_verdicts(verdicts: list[dict]) -> None:
    width = max((len(v["check"]) for v in verdicts), default=10)
    print(f"{'verdict':<{width}}  result")
    for v in verdicts:
        print(f"{v['check']:<{width}}  {'pass' if v['passed'] else 'FAIL'}")


def cmd_verify(args) -> int:
    try:
        o = io.read_orbit_dir(args.orbit)   # a schema 1 or 2 sub_seed is checked on reading
        certify(o)
    except CertificateMismatch as e:
        print(f"certificate mismatch: {e}", file=sys.stderr)
        return EXIT_CERTIFICATE
    checks, phi = o.certificate.expected_statistics, o.certificate.phi
    if args.report:
        report = evaluate_certificate(o.word, o.shift, checks, phi=phi)
        io.write_json(args.report, io.report_to_doc(report))
        verdicts = report.verdicts
    else:
        verdicts = evaluate_checks(o.word, o.shift, checks, phi=phi)
    _maybe_manifest(args, "verify", {"orbit": args.orbit}, [args.report] if args.report else [])
    _print_verdicts(verdicts)
    if not all(v["passed"] for v in verdicts):
        return EXIT_VERDICT
    print("verified")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Shift spaces, entropy, Birkhoff spectra, witness orbits. "
                    "All logarithms natural.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="entropy of a shift space or beta-shift")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--shift", help="shift definition JSON")
    source.add_argument("--beta", help="beta as a decimal literal")
    p.add_argument("--raw-digits", action="store_true",
                   help="keep the literal terminating digit stream (comparison mode)")
    p.add_argument("--method", choices=["spectral", "words", "periodic"])
    p.add_argument("--n", type=int, help="word length for counting estimates")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("spectrum", help="constrained-entropy curve over Birkhoff averages")
    p.add_argument("--shift", required=True)
    p.add_argument("--potential", required=True)
    p.add_argument("--points", type=int, default=33)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("synthesize", help="build a witness orbit for a gap class")
    p.add_argument("--shift", required=True)
    p.add_argument("--class", dest="gap_class", required=True,
                   choices=[gc.value for gc in GapClass])
    p.add_argument("--potential")
    p.add_argument("--horizon", type=int, default=1 << 20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--prefix", help="pinned prefix as a digit string")
    p.add_argument("--cycle", help="cycle digits (PERIODIC class only)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="certificate arithmetic + statistical verdicts")
    p.add_argument("--orbit", required=True)
    p.add_argument("--report", help="recurrence/regularity report JSON path, "
                                    "written once the certificate holds")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotPrimitive as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_PRIMITIVE
    except (OSError, ValueError, ShiftlabError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
