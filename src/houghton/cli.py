"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses its
arguments, calls one library function, and prints the result.  Exit
codes are fixed for scripting: 0 for success or a verified accept,
1 for a verified reject, 2 for a usage or parse error, or when no
criterion applies.
"""

import argparse
import json
import math
import sys
from typing import List, Optional

from .perm import PermError
from .elem import ElemError, Group, GroupElement, parse_element, parse_group
from .orbits import decompose
from .certs import (
    MAX_SUPPORT,
    CertError,
    PositiveCertificate,
    cert_from_json,
    cert_to_dict,
    cert_to_json,
    verify,
    walk_error,
)
from .construct import ConstructError, common_partner, g2_seed_test, gcd_test
from .bounds import BoundsError, defeat_ten, refute_dominating, spread_zero_witness
from .oracle import OracleError
from .suite import run_all

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _elem(text: str) -> GroupElement:
    try:
        return parse_element(text)
    except (ElemError, PermError) as exc:
        raise UsageError(str(exc))


def _need_group(args) -> Group:
    if args.group is None:
        raise UsageError("this command needs --group")
    return parse_group(args.group)


def _need_gk(args) -> Group:
    grp = _need_group(args)
    if grp.kind != "Gk":
        raise UsageError("this command needs a G_k group, not H2")
    return grp


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cert_lines(cert) -> str:
    res = verify(cert)
    if isinstance(cert, PositiveCertificate):
        return "positive certificate (%d steps): %s" % (len(cert.steps), res.reason)
    return "negative certificate (%s): %s" % (cert.variant, res.reason)


# -- subcommands --------------------------------------------------------------


def _cmd_parse(args) -> int:
    g = _elem(args.element)
    if args.json:
        _emit_json(
            {
                "element": str(g),
                "shift": g.shift,
                "finitary_part": str(g.fin),
                "support": sorted(g.fin.support),
            }
        )
    else:
        print(str(g))
    return EXIT_OK


def _cmd_op(args) -> int:
    if args.compose:
        gs = [_elem(x) for x in args.compose]
        out = gs[0]
        for g in gs[1:]:
            out = out * g
    elif args.inverse:
        out = _elem(args.inverse).inverse()
    elif args.power:
        g = _elem(args.power[0])
        try:
            n = int(args.power[1])
        except ValueError:
            raise UsageError("power N must be an integer, not %r" % args.power[1])
        out = g.power(n, MAX_SUPPORT)
    else:
        raise UsageError("op needs --compose, --inverse, or --power")
    if args.json:
        _emit_json({"element": str(out)})
    else:
        print(str(out))
    return EXIT_OK


def _cmd_orbits(args) -> int:
    g = _elem(args.element)
    err = walk_error([g])
    if err:
        raise UsageError(err)
    dec = decompose(g)
    if args.json:
        _emit_json(
            {
                "shift": dec.shift,
                "bound": dec.bound,
                "infinite": [
                    {
                        "index": o.index,
                        "pos_residue": o.pos_residue,
                        "neg_residue": o.neg_residue,
                        "exceptional_points": list(o.exceptional_points),
                    }
                    for o in dec.infinite
                ],
                "finite": [list(c) for c in dec.finite],
            }
        )
        return EXIT_OK
    print("shift %d, eventual bound %d" % (dec.shift, dec.bound))
    for o in dec.infinite:
        print(
            "inf%d: +residue %d, -residue %d, exceptional %s"
            % (o.index, o.pos_residue, o.neg_residue, list(o.exceptional_points))
        )
    for i, c in enumerate(dec.finite):
        print("fin%d: %s" % (i, list(c)))
    if not dec.infinite and not dec.finite:
        print("identity-like: no moved points")
    return EXIT_OK


def _cmd_member(args) -> int:
    grp = _need_group(args)
    g = _elem(args.element)
    from .elem import member

    ok = member(g, grp)
    if args.json:
        _emit_json({"element": str(g), "group": str(grp), "member": ok})
    else:
        print("%s %s %s" % (g, "in" if ok else "not in", grp))
    return EXIT_OK if ok else EXIT_REJECT


def _cmd_certify(args) -> int:
    if args.check:
        try:
            with open(args.check, encoding="utf-8") as f:
                text = f.read()
        except UnicodeDecodeError as exc:
            raise UsageError("%s is not UTF-8 text: %s" % (args.check, exc))
        cert = cert_from_json(text)
        res = verify(cert)
        if args.json:
            _emit_json({"ok": res.ok, "reason": res.reason})
        else:
            print("%s: %s" % ("accept" if res.ok else "reject", res.reason))
        return EXIT_OK if res.ok else EXIT_REJECT
    if not args.pair:
        raise UsageError("certify needs --pair CYCLE ELEMENT or --check FILE")
    grp = _need_gk(args)
    a = _elem(args.pair[0])
    s = _elem(args.pair[1])
    if a.shift != 0:
        raise UsageError("the first element of --pair must be finitary")
    if grp.k not in (1, 2):
        raise UsageError("certify --pair supports G1 and G2 targets")
    res = (gcd_test if grp.k == 1 else g2_seed_test)(a.fin, s)
    if args.json:
        print(cert_to_json(res.certificate))
    else:
        if grp.k == 1:
            q0, q1, q2 = res.positions
            why = "gcd(%d, %d) = %d" % (q1 - q0, q2 - q1, math.gcd(q1 - q0, q2 - q1))
        else:
            why = "orbit positions %s under s" % (res.positions,)
        verdict = "accept" if res.verdict == "positive" else "reject"
        print("%s: %s; %s" % (verdict, why, _cert_lines(res.certificate)))
    return EXIT_OK if res.verdict == "positive" else EXIT_REJECT


def _cmd_partner(args) -> int:
    grp = _need_gk(args)
    res = common_partner(grp.k, [_elem(x) for x in args.elements])
    if args.json:
        _emit_json(
            {
                "h": str(res.h),
                "conjugator": str(res.conjugator),
                "certificates": [cert_to_dict(c) for c in res.certificates],
            }
        )
    else:
        print("partner h = %s" % res.h)
        print("conjugator omega = %s (h = omega^-1 t^%d omega)" % (res.conjugator, grp.k))
        for c in res.certificates:
            print(_cert_lines(c))
    return EXIT_OK


def _cmd_defeat(args) -> int:
    grp = _need_group(args)
    h = _elem(args.elem)
    sigma, cert = defeat_ten(h, grp)
    if args.json:
        _emit_json({"sigma": str(sigma), "certificate": cert_to_dict(cert)})
    else:
        print("sigma = %s defeats %s in %s" % (sigma, h, grp))
        print(_cert_lines(cert))
    return EXIT_OK


def _cmd_refute(args) -> int:
    grp = _need_group(args)
    S = [_elem(x) for x in args.elements]
    gamma, certs = refute_dominating(S, grp)
    if args.json:
        _emit_json(
            {
                "gamma": str(gamma),
                "certificates": [cert_to_dict(c) for c in certs],
            }
        )
    else:
        print("gamma = %s generates %s with no element of S" % (gamma, grp))
        for c in certs:
            print(_cert_lines(c))
    return EXIT_OK


def _cmd_spread_zero(args) -> int:
    grp = _need_gk(args)
    h = _elem(args.elem)
    sigma, cert = spread_zero_witness(grp.k, h)
    if args.json:
        _emit_json({"sigma": str(sigma), "certificate": cert_to_dict(cert)})
    else:
        print("no partner: sigma = %s and %s never generate %s" % (sigma, h, grp))
        print(_cert_lines(cert))
    return EXIT_OK


def _cmd_suite(args) -> int:
    all_ok = True
    for name, ok, detail, elapsed, budget in run_all(args.scale):
        all_ok = all_ok and ok
        print(
            "%s criterion %-32s %6.1fs (budget %4.0fs)  %s"
            % ("PASS" if ok else "FAIL", name, elapsed, budget, detail),
            flush=True,
        )
    return EXIT_OK if all_ok else EXIT_REJECT


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="houghton", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--group", help="H2, or G_k as G<k>, G_<k> or Gk:<k>")
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("parse", _cmd_parse, help="parse an element and print its normal form")
    sp.add_argument("element")

    sp = add("op", _cmd_op, help="element arithmetic")
    sp.add_argument("--compose", nargs="+", metavar="ELEM")
    sp.add_argument("--inverse", metavar="ELEM")
    sp.add_argument("--power", nargs=2, metavar=("ELEM", "N"))

    sp = add("orbits", _cmd_orbits, help="orbit decomposition of an element")
    sp.add_argument("element")

    sp = add("member", _cmd_member, help="test membership in a group")
    sp.add_argument("element")

    sp = add("certify", _cmd_certify, help="certify a generating pair or check a file")
    sp.add_argument("--pair", nargs=2, metavar=("CYCLE", "ELEM"))
    sp.add_argument("--check", metavar="FILE")

    sp = add("partner", _cmd_partner, help="construct a common generating partner")
    sp.add_argument("elements", nargs="+")

    sp = add("pair-partner", _cmd_partner, help="partner with exactly two elements")
    sp.add_argument("elements", nargs=2)

    sp = add("defeat", _cmd_defeat, help="find a defeating 3-cycle from the ten-cycle set")
    sp.add_argument("--elem", required=True)

    sp = add("refute-dominating", _cmd_refute, help="refute a finite total dominating set")
    sp.add_argument("elements", nargs="+")

    sp = add("spread-zero", _cmd_spread_zero, help="witness that (1 2 3) has no partner")
    sp.add_argument("--elem", required=True)

    sp = add("suite", _cmd_suite, help="run the acceptance criteria")
    sp.add_argument("--scale", type=float, default=1.0)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for arg in argv:
        if "−" in arg:
            print("error: unicode minus U+2212; use ASCII '-'", file=sys.stderr)
            return EXIT_USAGE
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (UsageError, ElemError, PermError, CertError, OracleError,
            ConstructError, BoundsError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
