"""Command-line front end: one verb per library operation, JSON in and out.

Exit codes: 0 success, 1 usage error, 2 domain error (bad values, schema
violations, non-invertible elements, a computation that runs out of memory
or of recursion depth, a request over budget), 3 I/O failure.  "-"
reads standard input; output goes to --out or standard output.  A failure
after the arguments parse prints one line on standard error, "KIND: VERB:
MESSAGE", with KIND "error" for exit code 2 and "i/o error" for 3; a
schema error's message starts with the JSON path it names.

Every verb that could take long sizes its work from closed forms before
doing any of it, with one check: the sizes of larger and larger parts of
the request, the whole request last, are compared in turn with the
budget, and the first part over it is refused with exit code 2 and the
message "SIZE WHAT are over the budget of BUDGET".  A huge n or k is
refused at its first part over the budget, in milliseconds.  The budget
is ENUM_BUDGET = 100,000 partitions, first blocks or entries and terms:
- nc-enum lists Catalan(n) partitions, sized over NC(m) for m = 1..n;
  nck-enum lists Catalan(n) times the Fuss-Catalan fiber size, sized over
  NC(m) and then the type-j partitions of [n] for j = 1..k: nc-enum runs
  up to n = 11, nck-enum up to (n, k) = (6, 2) or (5, 3), for example;
- boxconv --type b and --type k sum over Catalan(m) times the fiber size
  of type-i elements for every degree m up to the smaller trunc and every
  i up to k (up to 1 for type b);
- the table transforms (m2c, c2m, check-freeness) visit v^n 2^(n-1)
  first blocks at each word length n, for v variables: one variable runs
  up to length 16, two up to length 8;
- upgrade counts the entries and image terms of its recursion: level
  i = 0..k covers lengths up to max-len + (k - i) g, for images of the
  letters 1..v of degree g + 1 or less, with v^n entries at length n plus
  n v^(n-1) T image terms above level 0, sized by levels at length 1,
  then by length;
these are running totals over the degree or length.  The series verbs
(convolve-add, convolve-mul, deriv-demo, boxconv --type a) take about
trunc^3 (k+1)^2 coordinate products, each costing about w^2 word products
for w = ceil(trunc bits / 512) and bits the largest input bit length, and
refuse more than SERIES_BUDGET = 500,000 word products, sized over the
orders up to k and then the degrees up to trunc: at k = 2 and small
coefficients they run up to degree 38, at k = 0 and 1000-bit coefficients
up to degree 10.  An output holding an integer longer than the interpreter
converts to a string is an error that names that limit.

Importing this module loads only it and the JSON codec.  Each handler
imports the functions it runs from their defining module when it runs, so
a verb loads only the layers it uses: nc-enum, kreweras and mobius load
partitions alone; m2c and c2m load ck and cumulants; convolve-add,
convolve-mul and boxconv --type a add convolve to those, check-freeness
and upgrade add freeness, and deriv-demo adds both; only nck-enum and
boxconv --type b and k load typek.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import accumulate, chain

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

ENUM_BUDGET = 100_000  # the most partitions, first blocks or upgrade entries and terms
SERIES_BUDGET = 500_000  # the most trunc^3 (k+1)^2 w^2 a series verb will take on
SERIES_WIDTH = 512  # trunc times the input bit length per unit of w


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


def _within_budget(steps, budget: int = ENUM_BUDGET) -> None:
    """Refuse a request whose work is over budget.  steps yields (size,
    what) for larger and larger parts of the request, each size at least the
    one before and the whole request last; the check stops at the first
    size over budget, so a huge request costs no more than that part."""
    for size, what in steps:
        if size > budget:
            raise ValueError(f"{size} {what} are over the budget of {budget}")


def _totals(sizes, what: str):
    """Steps for the running totals of sizes, the work at n = 1, 2, ...,
    each named what followed by n."""
    return ((total, f"{what} {n}") for n, total in enumerate(accumulate(sizes), start=1))


def _table_steps(num_vars: int, max_len: int):
    """A table transform visits num_vars^n 2^(n-1) first blocks at length n."""
    return _totals((num_vars ** n * 2 ** (n - 1) for n in range(1, max_len + 1)),
                   "first blocks up to length")


def _bit_length(scalars) -> int:
    """The largest bit length of a numerator or denominator of the scalars."""
    return max((n.bit_length() for x in scalars for n in (x.den, *x.nums)), default=0)


def _series_steps(k: int, trunc: int, scalars=()):
    """A series verb takes about trunc products of series to degree trunc,
    each coefficient of each a Leibniz product of order k.  The integers in
    that work grow to about trunc times the widest input coefficient, w =
    ceil(trunc bits / SERIES_WIDTH) words of SERIES_WIDTH bits for the
    largest input bit length bits, and a product of two of them costs about
    w^2 word products: trunc^3 (k+1)^2 w^2 in all.  The steps raise the
    order to k at degree 1, then the degree to trunc, so that a huge k or
    trunc is refused at a size short enough to print."""
    bits = _bit_length(scalars)

    def step(order, degree):
        width = max(1, -(-degree * bits // SERIES_WIDTH))
        what = f"word products for series to degree {degree} at order {order}"
        if width > 1:
            what += f" with {bits}-bit coefficients"
        return degree ** 3 * (order + 1) ** 2 * width ** 2, what

    orders = range(k + 1) if trunc >= 1 else ()
    return chain((step(j, 1) for j in orders), (step(k, d) for d in range(2, trunc + 1)))


def _encoded(value) -> str:
    """The JSON text of value; the one way it fails is an integer longer
    than the interpreter converts to a string."""
    try:
        return encode(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"the output holds an integer longer than {limit} digits") from None


def _cmd_nc_enum(args):
    from .partitions import catalan, enumerate_nc

    _within_budget((catalan(m), f"partitions of [{m}]") for m in range(1, args.n + 1))
    return list(enumerate_nc(args.n))


def _cmd_nck_enum(args):
    from .partitions import catalan
    from .typek import enumerate_type_k, fiber_size_formula

    n, k = args.n, args.k
    if n >= 1 and k >= 0:  # other values are refused by enumerate_type_k
        # NC(m) for m up to n, then Catalan(n) reductions times the
        # Fuss-Catalan fiber of type j for j up to k
        _within_budget(chain(
            ((catalan(m), f"partitions of [{m}]") for m in range(1, n + 1)),
            ((catalan(n) * fiber_size_formula(n, j), f"type-{j} partitions of [{n}]")
             for j in range(1, k + 1))))
    return list(enumerate_type_k(n, args.k))


def _cmd_kreweras(args):
    from .partitions import kreweras

    p = decode_partition(_read_json(args.lhs))
    direction = "inverse" if args.inverse else "forward"
    return kreweras(p, direction)


def _cmd_mobius(args):
    from .partitions import mobius_to_top

    p = decode_partition(_read_json(args.lhs))
    return {"mobius": mobius_to_top(p)}


def _cmd_m2c(args):
    from .cumulants import moments_to_cumulants

    law = decode_law(_read_json(args.law))
    _within_budget(_table_steps(law.num_vars, law.max_len))
    return moments_to_cumulants(law)


def _cmd_c2m(args):
    from .cumulants import cumulants_to_moments

    table = decode_cumulant_table(_read_json(args.law))
    _within_budget(_table_steps(table.num_vars, table.max_len))
    return cumulants_to_moments(table)


def _cmd_boxconv(args):
    from .convolve import boxed_conv_ck, boxed_conv_type_b, boxed_conv_type_k

    f = decode_series(_read_json(args.lhs), "lhs")
    g = decode_series(_read_json(args.rhs), "rhs")
    if args.k is not None and (f.k != args.k or g.k != args.k):
        raise ValueError(f"series have k={f.k},{g.k}, flag says k={args.k}")
    if args.type == "a":
        n = min(f.trunc, g.trunc)
        _within_budget(_series_steps(
            f.k, n, chain(f.coeffs[:n], g.coeffs[:n], (f.const, g.const))), SERIES_BUDGET)
        return boxed_conv_ck(f, g)
    from .partitions import catalan
    from .typek import fiber_size_formula

    # the witness routes build every type-i element of degree m <= trunc
    top = 1 if args.type == "b" else f.k
    sizes = (catalan(m) * sum(fiber_size_formula(m, i) for i in range(top + 1))
             for m in range(1, min(f.trunc, g.trunc) + 1))
    _within_budget(_totals(sizes, "type-k elements up to degree"))
    if args.type == "b":
        return boxed_conv_type_b(f, g)
    return boxed_conv_type_k(f, g)


def _cmd_convolve(args):
    from .convolve import additive_convolve, multiplicative_convolve

    mu = decode_law(_read_json(args.lhs), "lhs")
    nu = decode_law(_read_json(args.rhs), "rhs")
    _within_budget(_series_steps(
        mu.k, mu.max_len, chain(mu.values.values(), nu.values.values())), SERIES_BUDGET)
    return (additive_convolve if args.verb == "convolve-add" else multiplicative_convolve)(mu, nu)


def _cmd_check_freeness(args):
    from .freeness import check_inf_freeness

    law = decode_law(_read_json(args.law), "law")
    coloring = decode_coloring(_read_json(args.colors), "colors")
    max_len = args.max_len if args.max_len is not None else law.max_len
    # a budget beyond the law's own length is refused before any word
    _within_budget(_table_steps(law.num_vars, min(max_len, law.max_len)))
    return check_inf_freeness(law, coloring, max_len)


def _upgrade_steps(num_vars: int, d, k: int, max_len: int):
    """The work of upgrade by the count in the module docstring, one level
    of one length at a time, so a huge k is refused at length 1."""
    terms = sum(len(p.terms) for x, p in d.images.items() if 1 <= x <= num_vars)
    growth, total = d.growth(num_vars), 0
    for n in range(1, max_len + k * growth + 1):
        for i in range(k + 1):
            if n > max_len + (k - i) * growth:
                break
            total += num_vars ** n + (n * num_vars ** (n - 1) * terms if i else 0)
            yield total, f"entries and image terms up to length {n}"


def _cmd_upgrade(args):
    from .freeness import upgraded_law

    base = decode_law(_read_json(args.base), "base")
    d = decode_derivation(_read_json(args.derivation), "derivation")
    _within_budget(_upgrade_steps(base.num_vars, d, args.k, args.max_len))
    return upgraded_law(base, d, args.k, args.max_len)


def _cmd_deriv_demo(args):
    """Built-in one-parameter families: semicircular(1+t) with
    free_poisson(2+t) under addition, free_poisson(2+t) with
    free_poisson(3) under multiplication."""
    from .ck import CkScalar
    from .convolve import example_law
    from .freeness import derivative_of_convolution

    k, L = args.k, args.max_len
    _within_budget(_series_steps(k, L), SERIES_BUDGET)
    with_t = CkScalar(k, [1, 1] + [0] * (k - 1)) if k >= 1 else CkScalar(k, [1])

    def shifted(c0):
        return CkScalar.from_rational(k, c0) + with_t - CkScalar.one(k)

    if args.mode == "additive":
        mu = example_law("semicircular", shifted(1), k, L)
        nu = example_law("free_poisson", shifted(2), k, L)
    else:
        mu = example_law("free_poisson", shifted(2), k, L)
        nu = example_law("free_poisson", CkScalar.from_rational(k, 3), k, L)
    return derivative_of_convolution(mu, nu, args.mode)


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

    for verb, kind in (("convolve-add", "additive"), ("convolve-mul", "multiplicative")):
        p = sub.add_parser(verb, help=f"free {kind} convolution of two laws")
        p.add_argument("--lhs", required=True)
        p.add_argument("--rhs", required=True)
        p.set_defaults(func=_cmd_convolve)

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
        _write(_encoded(args.func(args)), args.out)
        return 0
    except MemoryError:
        kind, code, message = "error", 2, "out of memory"
    except RecursionError:
        kind, code, message = "error", 2, "maximum recursion depth exceeded"
    except OSError as e:
        kind, code, message = "i/o error", 3, e
    except ValueError as e:  # schema and domain errors, NotInvertible among them
        kind, code, message = "error", 2, e
    print(f"{kind}: {args.verb}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
