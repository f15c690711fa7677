"""Command line surface.

Subcommands: present, certify, member, relator, sweep, verify.
Exit codes: 0 success / Arithmetic, 2 Inconclusive or not found,
1 computation error (for `sweep`: any entry raised), 64 usage error.
MOEBIUS_MAX_COSETS overrides the default coset budget.  All numeric input
is exact; floats are rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from math import gcd

from .certifier import (
    Certificate,
    MoebiusSpec,
    certify_with_table,
    express_generators,
    membership_report,
    table_sweep,
    verify_certificate,
)
from .coset_enum import DEFAULT_MAX_COSETS, EnumerationLimits, find_relator
from .exact import format_word, parse_matrix
from .presentation import (
    build_presentation,
    presentation_to_json,
    presentation_to_text,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_rational(text: str) -> MoebiusSpec:
    m = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not m:
        raise _UsageError(f"expected a rational a/b, got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    try:
        return MoebiusSpec(a, b)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _default_max_cosets() -> int:
    env = os.environ.get("MOEBIUS_MAX_COSETS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"bad MOEBIUS_MAX_COSETS value {env!r}") from None
    return DEFAULT_MAX_COSETS


def _limits(args) -> EnumerationLimits:
    max_cosets = args.max_cosets if args.max_cosets else _default_max_cosets()
    return EnumerationLimits(max_cosets=max_cosets,
                             strategy=args.strategy,
                             time_limit_s=args.time_limit)


def _add_limit_flags(sub):
    sub.add_argument("--max-cosets", type=int, default=None,
                     help="coset budget (default 10^7 or MOEBIUS_MAX_COSETS)")
    sub.add_argument("--strategy", choices=("hlt", "felsch"), default="hlt")
    sub.add_argument("--time-limit", type=float, default=1800.0,
                     help="wall clock budget per enumeration, seconds")
    sub.add_argument("--json", action="store_true", help="JSON output")


def _print_certificate(cert: Certificate, as_json: bool) -> None:
    if as_json:
        print(json.dumps(cert.to_json_dict(), indent=2))
        return
    print(f"G({cert.spec})  status={cert.status}")
    print(f"  level           {cert.level}")
    print(f"  expected index  {cert.expected_index}")
    if cert.index is not None:
        print(f"  index           {cert.index}")
    print(f"  word A          {cert.word_a}")
    print(f"  word B          {cert.word_b}")
    for name, ok in cert.checks:
        print(f"  check {name}: {'pass' if ok else 'FAIL'}")
    if cert.witness:
        print(f"  relator witness {cert.witness}")
    if cert.reason:
        print(f"  reason          {cert.reason}")
    r = cert.resources
    print(f"  resources       peak={r.get('peak_cosets')} "
          f"defined={r.get('defined_cosets')} "
          f"time={r.get('wall_time_s')}s strategy={r.get('strategy')}")
    if cert.status == "Arithmetic":
        print("  verdict: G is S-arithmetic, hence NOT FREE")
    else:
        print("  verdict: inconclusive (no claim about thinness or freeness)")


def _sweep_summary(b: int, certs) -> str:
    """One line of counts by status and reason, e.g. `sweep b=3:
    2 Arithmetic, 1 Inconclusive (max_cosets), 1 Inconclusive (error:
    IndexMismatchError)`; a reason is cut before its message."""
    def key(cert):
        if cert.reason is None:
            return cert.status
        parts = cert.reason.split(": ")
        head = parts[:2] if parts[0] == "error" else parts[:1]
        return f"{cert.status} ({': '.join(head)})"
    counts = Counter(key(c) for c in certs)
    return f"sweep b={b}: " + ", ".join(f"{n} {k}" for k, n in counts.items())


def run(argv) -> int:
    parser = _Parser(prog="moebius-arith",
                     description="S-arithmeticity certificates for parabolic "
                                 "Moebius groups G(a/b) in SL(2, Z[1/b])")
    subs = parser.add_subparsers(dest="command", required=True)

    p_present = subs.add_parser("present",
                                help="print a presentation of SL(2, Z[1/b])")
    p_present.add_argument("b", type=int)
    p_present.add_argument("--json", action="store_true")
    p_present.add_argument("--out", default=None, help="write to a file")

    p_certify = subs.add_parser("certify", help="certify S-arithmeticity")
    p_certify.add_argument("rational", help="a/b")
    p_certify.add_argument("--witness", action="store_true",
                           help="also search for a relator witness")
    p_certify.add_argument("--witness-bound", type=int, default=300)
    p_certify.add_argument("--out", default=None,
                           help="write the certificate JSON to a file")
    _add_limit_flags(p_certify)

    p_member = subs.add_parser("member", help="membership verdict for a matrix")
    p_member.add_argument("rational", help="a/b")
    p_member.add_argument("matrix", help='matrix literal [[p/q,r/s],[t/u,v/w]]')
    _add_limit_flags(p_member)

    p_relator = subs.add_parser("relator", help="search for a relator in A, B")
    p_relator.add_argument("rational", help="a/b")
    p_relator.add_argument("--bound", type=int, default=300,
                           help="maximum total exponent of the relator")
    _add_limit_flags(p_relator)

    p_sweep = subs.add_parser("sweep", help="certify a <= amax for fixed b")
    p_sweep.add_argument("b", type=int)
    p_sweep.add_argument("--amax", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    _add_limit_flags(p_sweep)

    p_verify = subs.add_parser("verify", help="re-check a certificate file")
    p_verify.add_argument("certificate", help="path to certificate JSON")
    p_verify.add_argument("--json", action="store_true")

    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:      # --help and friends
        return int(exc.code or 0)

    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(args) -> int:
    if args.command == "present":
        pres = build_presentation(args.b)
        text = presentation_to_json(pres) if args.json \
            else presentation_to_text(pres)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            print(text, end="" if text.endswith("\n") else "\n")
        return EXIT_OK

    if args.command == "certify":
        spec = _parse_rational(args.rational)
        cert, _ = certify_with_table(spec, _limits(args),
                                     find_witness=args.witness,
                                     witness_bound=args.witness_bound)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(cert.to_json_dict(), fh, indent=2)
                fh.write("\n")
        _print_certificate(cert, args.json)
        return EXIT_OK if cert.status == "Arithmetic" else EXIT_INCONCLUSIVE

    if args.command == "member":
        spec = _parse_rational(args.rational)
        g = parse_matrix(args.matrix)
        cert, table = certify_with_table(spec, _limits(args))
        pres = build_presentation(spec.b)
        verdict = membership_report(spec, g, cert, table=table, pres=pres)
        if args.json:
            print(json.dumps({"spec": {"a": spec.a, "b": spec.b},
                              "matrix": args.matrix, "verdict": verdict}))
        else:
            print(verdict)
        return EXIT_INCONCLUSIVE if verdict == "Unknown" else EXIT_OK

    if args.command == "relator":
        spec = _parse_rational(args.rational)
        pres = build_presentation(spec.b)
        cert, table = certify_with_table(spec, _limits(args))
        if table is None:
            print("NotFound (enumeration did not complete)")
            return EXIT_INCONCLUSIVE
        wa, wb = express_generators(spec, pres)
        rel = find_relator(pres, wa, wb, table, bound=args.bound)
        if rel is None:
            print("NotFound")
            return EXIT_INCONCLUSIVE
        if args.json:
            print(json.dumps({"relator": format_word(rel),
                              "weight": rel.weight}))
        else:
            print(format_word(rel))
        return EXIT_OK

    if args.command == "sweep":
        if args.b <= 1:
            raise _UsageError("b must exceed 1")
        a_values = [a for a in range(1, args.amax + 1) if gcd(a, args.b) == 1]
        certs = table_sweep(args.b, a_values, _limits(args),
                            workers=args.jobs)
        if args.json:
            print(json.dumps([c.to_json_dict() for c in certs], indent=2))
        else:
            for cert in certs:
                idx = cert.index if cert.index is not None else "-"
                print(f"a={cert.spec.a:>4}  {cert.status:<13} "
                      f"index={idx} expected={cert.expected_index}")
        print(_sweep_summary(args.b, certs), file=sys.stderr)
        errored = any((c.reason or "").startswith("error:") for c in certs)
        return EXIT_ERROR if errored else EXIT_OK

    if args.command == "verify":
        with open(args.certificate) as fh:
            payload = json.load(fh)
        ok, problems = verify_certificate(payload)
        if args.json:
            print(json.dumps({"valid": ok, "problems": problems,
                              "status": payload.get("status")}))
        else:
            print("valid" if ok else "INVALID")
            for p in problems:
                print(f"  - {p}")
        if not ok:
            return EXIT_ERROR
        return (EXIT_OK if payload.get("status") == "Arithmetic"
                else EXIT_INCONCLUSIVE)

    raise _UsageError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
