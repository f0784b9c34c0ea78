"""Command-line front end: one verb per library operation, JSON in and out.

Exit codes: 0 success, 1 usage error, 2 domain error (bad values, schema
violations, non-invertible elements, a computation that runs out of memory
or of recursion depth, a request over budget), 3 I/O failure.  "-"
reads standard input; output goes to --out or standard output.

Verbs that enumerate or visit partitions size the work from closed forms
before doing any of it, and refuse more than ENUM_BUDGET = 100,000 with
exit code 2 and a message that gives the size and the budget:
- nc-enum lists Catalan(n) partitions, nck-enum Catalan(n) times the
  Fuss-Catalan fiber size: nc-enum runs up to n = 11, nck-enum up to
  (n, k) = (6, 2) or (5, 3), for example.  Both sizes are running
  products that stop once they pass the digits the interpreter prints,
  and such a size is reported as that many digits, so a huge n or k is
  refused in milliseconds;
- boxconv --type b and --type k sum over Catalan(m) times the fiber size
  of type-i elements for every degree m up to the smaller trunc and every
  i up to k (up to 1 for type b);
- the table transforms (m2c, c2m, check-freeness) visit v^n 2^(n-1)
  first blocks at each word length n, for v variables: one variable runs
  up to length 16, two up to length 8;
- upgrade makes k + 1 derivation passes over each of the v^n words.
The series verbs (convolve-add, convolve-mul, deriv-demo, boxconv --type
a) take about trunc^3 (k+1)^2 coordinate products, and refuse more than
SERIES_BUDGET = 500,000 the same way: at k = 2 they run up to degree 38.

Importing this module loads only it and the JSON codec.  Each handler
imports the functions it runs from their defining module when it runs, so
a verb loads only the layers it uses: nc-enum, kreweras and mobius load
partitions alone.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain

from . import __version__
from .jsonio import (
    SchemaError,
    decode_coloring,
    decode_cumulant_table,
    decode_derivation,
    decode_law,
    decode_partition,
    decode_series,
    encode,
)


_INT = re.compile(r"-?[0-9]+")

ENUM_BUDGET = 100_000  # the most partitions, first blocks or derivation passes a verb visits
SERIES_BUDGET = 500_000  # the most trunc^3 (k+1)^2 a series verb will take on


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int(text: str) -> int:
    """An integer written in ASCII digits with an optional minus sign; int()
    alone would also take '٣', '1_0' and ' 3'."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    name = path if path != "-" else "stdin"
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(name, f"invalid JSON: {e}") from e
    except RecursionError:
        raise SchemaError(name, "invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal beyond the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(name, f"invalid JSON: integer longer than {limit} digits") from None


def _write(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _within_budget(verb: str, factors, divisor: int = 1) -> None:
    """Refuse an enumeration of more than ENUM_BUDGET partitions.  Its size
    is a running product, multiplied by a and divided exactly by b for each
    pair (a, b) of factors and never decreasing, then divided by divisor.
    The product stops once the size has more digits than the interpreter
    prints, so a huge size costs no more than that."""
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    cap = 10 ** digits * divisor
    size = 1
    for a, b in factors:
        size = size * a // b
        if size >= cap:
            raise ValueError(f"{verb}: output of a number of partitions with more than "
                             f"{digits} digits is over the budget of {ENUM_BUDGET}")
    size //= divisor
    if size > ENUM_BUDGET:
        raise ValueError(f"{verb}: output of {size} partitions is over the budget of {ENUM_BUDGET}")


def _catalan_factors(n: int):
    """Catalan(m + 1) = Catalan(m) * 2(2m + 1) / (m + 2), from Catalan(1) = 1."""
    return ((2 * (2 * m + 1), m + 2) for m in range(1, n))


def _within_running_budget(verb: str, sizes, what: str, upto: str) -> None:
    """Refuse once the running total of sizes, the work at n = 1, 2, ...,
    passes ENUM_BUDGET; the sum stops there, so a huge n costs nothing."""
    total = 0
    for n, size in enumerate(sizes, start=1):
        total += size
        if total > ENUM_BUDGET:
            raise ValueError(f"{verb}: {total} {what} up to {upto} {n} are over "
                             f"the budget of {ENUM_BUDGET}")


def _within_table_budget(verb: str, num_vars: int, max_len: int) -> None:
    """A table transform visits num_vars^n 2^(n-1) first blocks at length n."""
    _within_running_budget(verb, (num_vars ** n * 2 ** (n - 1) for n in range(1, max_len + 1)),
                           "first blocks", "length")


def _within_series_budget(verb: str, k: int, trunc: int) -> None:
    """A series verb takes about trunc products of series to degree trunc,
    each coefficient of each a Leibniz product of order k."""
    if trunc ** 3 * (k + 1) ** 2 > SERIES_BUDGET:
        raise ValueError(f"{verb}: series to degree {trunc} at order {k} are over the budget "
                         f"of {SERIES_BUDGET} for trunc^3 (k+1)^2")


def _domain_errors() -> tuple:
    """The exceptions reported as domain errors.  NotInvertible comes from
    ck, imported here so that a verb that never loads ck does not pay for
    it; main evaluates this only while it handles an exception."""
    from .ck import NotInvertible

    return SchemaError, ValueError, NotInvertible


def _cmd_nc_enum(args) -> str:
    from .partitions import enumerate_nc

    if args.n >= 1:  # smaller n is refused by enumerate_nc
        _within_budget("nc-enum", _catalan_factors(args.n))
    return encode(list(enumerate_nc(args.n)))


def _cmd_nck_enum(args) -> str:
    from .typek import enumerate_type_k

    n, b = args.n, args.k + 1
    if n >= 1 and b >= 1:  # other values are refused by enumerate_type_k
        # Catalan(n) times the Fuss-Catalan fiber size C((n+1)b, b) / (nb + 1),
        # where C(nb + i, i) = C(nb + i - 1, i - 1) (nb + i) / i
        fiber = ((n * b + i, i) for i in range(1, b + 1))
        _within_budget("nck-enum", chain(_catalan_factors(n), fiber), n * b + 1)
    return encode(list(enumerate_type_k(n, args.k)))


def _cmd_kreweras(args) -> str:
    from .partitions import kreweras

    p = decode_partition(_read_json(args.lhs))
    direction = "inverse" if args.inverse else "forward"
    return encode(kreweras(p, direction))


def _cmd_mobius(args) -> str:
    from .partitions import mobius_to_top

    p = decode_partition(_read_json(args.lhs))
    return encode({"mobius": mobius_to_top(p)})


def _cmd_m2c(args) -> str:
    from .cumulants import moments_to_cumulants

    law = decode_law(_read_json(args.law))
    _within_table_budget("m2c", law.num_vars, law.max_len)
    return encode(moments_to_cumulants(law))


def _cmd_c2m(args) -> str:
    from .cumulants import cumulants_to_moments

    table = decode_cumulant_table(_read_json(args.law))
    _within_table_budget("c2m", table.num_vars, table.max_len)
    return encode(cumulants_to_moments(table))


def _cmd_boxconv(args) -> str:
    from .convolve import boxed_conv_ck, boxed_conv_type_b, boxed_conv_type_k
    from .partitions import catalan
    from .typek import fiber_size_formula

    f = decode_series(_read_json(args.lhs), "lhs")
    g = decode_series(_read_json(args.rhs), "rhs")
    if args.k is not None and (f.k != args.k or g.k != args.k):
        raise ValueError(f"series have k={f.k},{g.k}, flag says k={args.k}")
    if args.type == "a":
        _within_series_budget("boxconv", f.k, min(f.trunc, g.trunc))
        return encode(boxed_conv_ck(f, g))
    # the witness routes build every type-i element of degree m <= trunc
    top = 1 if args.type == "b" else f.k
    _within_running_budget("boxconv", (
        catalan(m) * sum(fiber_size_formula(m, i) for i in range(top + 1))
        for m in range(1, min(f.trunc, g.trunc) + 1)
    ), "type-k elements", "degree")
    if args.type == "b":
        return encode(boxed_conv_type_b(f, g))
    return encode(boxed_conv_type_k(f, g))


def _cmd_convolve_add(args) -> str:
    from .convolve import additive_convolve

    mu = decode_law(_read_json(args.lhs), "lhs")
    nu = decode_law(_read_json(args.rhs), "rhs")
    _within_series_budget("convolve-add", mu.k, mu.max_len)
    return encode(additive_convolve(mu, nu))


def _cmd_convolve_mul(args) -> str:
    from .convolve import multiplicative_convolve

    mu = decode_law(_read_json(args.lhs), "lhs")
    nu = decode_law(_read_json(args.rhs), "rhs")
    _within_series_budget("convolve-mul", mu.k, mu.max_len)
    return encode(multiplicative_convolve(mu, nu))


def _cmd_check_freeness(args) -> str:
    from .freeness import check_inf_freeness

    law = decode_law(_read_json(args.law), "law")
    coloring = decode_coloring(_read_json(args.colors), "colors")
    max_len = args.max_len if args.max_len is not None else law.max_len
    # a budget beyond the law's own length is refused before any word
    _within_table_budget("check-freeness", law.num_vars, min(max_len, law.max_len))
    return encode(check_inf_freeness(law, coloring, max_len))


def _cmd_upgrade(args) -> str:
    from .freeness import upgraded_law

    base = decode_law(_read_json(args.base), "base")
    d = decode_derivation(_read_json(args.derivation), "derivation")
    passes = max(args.k + 1, 1)  # upgraded_law refuses k < 0; the sum must still grow
    _within_running_budget("upgrade", (base.num_vars ** n * passes
                                       for n in range(1, args.max_len + 1)),
                           "derivation passes", "length")
    return encode(upgraded_law(base, d, args.k, args.max_len))


def _cmd_deriv_demo(args) -> str:
    """Built-in one-parameter families: semicircular(1+t) with
    free_poisson(2+t) under addition, free_poisson(2+t) with
    free_poisson(3) under multiplication."""
    from .ck import CkScalar
    from .convolve import example_law
    from .freeness import derivative_of_convolution

    k, L = args.k, args.max_len
    _within_series_budget("deriv-demo", k, L)
    with_t = CkScalar(k, [1, 1] + [0] * (k - 1)) if k >= 1 else CkScalar(k, [1])

    def shifted(c0):
        return CkScalar.from_rational(k, c0) + with_t - CkScalar.one(k)

    if args.mode == "additive":
        mu = example_law("semicircular", shifted(1), k, L)
        nu = example_law("free_poisson", shifted(2), k, L)
    else:
        mu = example_law("free_poisson", shifted(2), k, L)
        nu = example_law("free_poisson", CkScalar.from_rational(k, 3), k, L)
    return encode(derivative_of_convolution(mu, nu, args.mode))


def build_parser() -> _Parser:
    parser = _Parser(prog="infree", description=__doc__)
    parser.add_argument("--version", action="version", version=f"infree {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    p = sub.add_parser("nc-enum", help="enumerate non-crossing partitions of [n]")
    p.add_argument("--n", type=_int, required=True)
    p.set_defaults(func=_cmd_nc_enum)

    p = sub.add_parser("nck-enum", help="enumerate non-crossing partitions of type k")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.set_defaults(func=_cmd_nck_enum)

    p = sub.add_parser("kreweras", help="Kreweras complement of a partition document")
    p.add_argument("--lhs", required=True, help="partition JSON path or -")
    p.add_argument("--inverse", action="store_true", help="inverse complement")
    p.set_defaults(func=_cmd_kreweras)

    p = sub.add_parser("mobius", help="Mobius value of [p, top] in the NC lattice")
    p.add_argument("--lhs", required=True, help="partition JSON path or -")
    p.set_defaults(func=_cmd_mobius)

    p = sub.add_parser("m2c", help="moments to cumulants")
    p.add_argument("--law", required=True, help="law JSON path or -")
    p.set_defaults(func=_cmd_m2c)

    p = sub.add_parser("c2m", help="cumulants to moments")
    p.add_argument("--law", required=True, help="cumulant table JSON path or -")
    p.set_defaults(func=_cmd_c2m)

    p = sub.add_parser("boxconv", help="boxed convolution of two series")
    p.add_argument("--type", choices=("a", "b", "k"), default="a")
    p.add_argument("--k", type=_int, default=None, help="validate the series order")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=_cmd_boxconv)

    p = sub.add_parser("convolve-add", help="free additive convolution of two laws")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=_cmd_convolve_add)

    p = sub.add_parser("convolve-mul", help="free multiplicative convolution of two laws")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=_cmd_convolve_mul)

    p = sub.add_parser("check-freeness", help="moment test of infinitesimal freeness")
    p.add_argument("--law", required=True)
    p.add_argument("--colors", required=True)
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_check_freeness)

    p = sub.add_parser("upgrade", help="order-k law from an order-0 law and a derivation")
    p.add_argument("--base", required=True)
    p.add_argument("--derivation", required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--max-len", type=_int, required=True)
    p.set_defaults(func=_cmd_upgrade)

    p = sub.add_parser("deriv-demo", help="derivative of a convolution of built-in families")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--max-len", type=_int, required=True)
    p.add_argument("--mode", choices=("additive", "multiplicative"), default="additive")
    p.set_defaults(func=_cmd_deriv_demo)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help, --version
        return 0 if e.code in (0, None) else 1
    try:
        text = args.func(args)
        _write(text, args.out)
        return 0
    except MemoryError:
        print(f"error: {args.verb}: out of memory", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: {args.verb}: maximum recursion depth exceeded", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except _domain_errors() as e:  # evaluated only once an exception is raised
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
