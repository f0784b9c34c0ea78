"""One benchmark process: builds seeded inputs, runs jobs, verifies results.

`run.py` starts this file in a fresh interpreter for every measured process,
so that import time, cold caches and the process's own peak memory belong to
the workload alone.  Modes:

  run        import, input generation and one warm-up job per shape (the
             set-up), then one part of the timed closed loop, then
             verification
  trace      setup and a fixed job list, traced or not (--traced)
  cli-prep   write the cli-cold input files and print the job list
  cli-verify check the captured cli-cold outputs through in-process routes

Each mode prints one JSON object on its last line of standard output.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import resource
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "infree" / "__init__.py").is_file():
    sys.exit(f"benchmark: no infree sources under {SRC}")
sys.path.insert(0, str(SRC))

import infree  # noqa: E402
from infree import ck, convolve, cumulants, freeness, jsonio, partitions, typek  # noqa: E402

if Path(infree.__file__).resolve().parent != SRC / "infree":
    sys.exit(f"benchmark: imported infree from {infree.__file__}, not from {SRC}")

TRACE_PASSES = 2  # passes of the job pattern in a traced run


class Draw:
    """Seeded coefficients n/d.  |n| is drawn from [8, 15], always four bits,
    with a random sign, and d cycles through 1..4 in drawing order, so that
    every seed gives inputs of one bit-size profile and so close to one
    cost.  Nonzero numerators keep first moments invertible."""

    NUMERATORS = (8, 15)
    DENOMS = (1, 2, 3, 4)

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self._den = itertools.cycle(self.DENOMS)

    def rational(self) -> Fraction:
        n = self.rng.randint(*self.NUMERATORS) * self.rng.choice((-1, 1))
        return Fraction(n, next(self._den))

    def scalar(self, k: int) -> ck.CkScalar:
        return ck.CkScalar(k, [self.rational() for _ in range(k + 1)])

    def law(self, k: int, num_vars: int, max_len: int, cls=None):
        cls = cls or cumulants.InfLaw
        return cls(k, num_vars, max_len,
                   {w: self.scalar(k) for w in cumulants.all_words(num_vars, max_len)})

    @classmethod
    def props(cls) -> dict:
        return {"numerator_sizes": list(cls.NUMERATORS), "denominators": list(cls.DENOMS)}


def words_in_table(num_vars: int, max_len: int) -> int:
    return sum(num_vars ** n for n in range(1, max_len + 1))


def max_bits(values) -> tuple:
    """Largest numerator and denominator bit lengths among rationals."""
    num = den = 0
    for x in values:
        num = max(num, x.numerator.bit_length())
        den = max(den, x.denominator.bit_length())
    return num, den


def table_rationals(table):
    return (c for v in table.values.values() for c in v.coords)


# --- warm: series-mul jobs --------------------------------------------------


class SeriesMul:
    """multiplicative_convolve of two random one-variable laws.

    Nearly all the time goes to the Catalan-sized boxed kernel in convolve
    and the jet products in ck; cumulants, freeness, jsonio and cli stay idle.
    """

    name = "series-mul"
    shapes = [{"k": 1, "max_len": 7}, {"k": 2, "max_len": 6}, {"k": 3, "max_len": 5},
              {"k": 2, "max_len": 7}]

    def make(self, draw, shape):
        return tuple(draw.law(shape["k"], 1, shape["max_len"]) for _ in range(2))

    def run(self, inp):
        return convolve.multiplicative_convolve(*inp)

    def verify(self, inp, out):
        mu, nu = inp
        s = convolve.s_transform
        if s(out) != ck.series_mul(s(mu), s(nu)):
            return "S-transform of the product is not the product of S-transforms"
        return None

    def rationals(self, inp, out):
        return table_rationals(out)

    def props(self):
        return [dict(s, variables=1, words_per_table=s["max_len"]) for s in self.shapes]


# --- warm: tables-free jobs --------------------------------------------------


class TablesFree:
    """Free product tables, the freeness checker passing and failing, and
    product-tuple cumulants.

    The time goes to multivariate m2c/c2m in cumulants and the centred
    products in freeness; the boxed kernel never runs.
    """

    name = "tables-free"
    shapes = [
        {"k": 2, "vars": (1, 1), "max_len": 5},
        {"k": 1, "vars": (2, 2), "max_len": 4},
        {"k": 2, "vars": (2, 1), "max_len": 4},
        {"k": 2, "vars": (1, 1, 1), "max_len": 4},
        {"k": 3, "vars": (1, 1), "max_len": 4},
    ]

    def make(self, draw, shape):
        k, nvs, L = shape["k"], shape["vars"], shape["max_len"]
        laws = [draw.law(k, nv, L) for nv in nvs]
        colors = [c for c, nv in enumerate(nvs, start=1) for _ in range(nv)]
        # perturb the middle mixed word of length 4 in its top component
        mixed = [w for w in cumulants.all_words(len(colors), L)
                 if len(w) == 4 and len({colors[v - 1] for v in w}) > 1]
        return {"shape": shape, "laws": laws, "word": mixed[len(mixed) // 2]}

    def run(self, inp):
        k, nvs, L = inp["shape"]["k"], inp["shape"]["vars"], inp["shape"]["max_len"]
        joint, coloring = freeness.free_product_joint(inp["laws"], L)
        passed = freeness.check_inf_freeness(joint, coloring, L)
        values = dict(joint.values)
        w = inp["word"]
        c = values[w].coords
        values[w] = ck.CkScalar(k, c[:-1] + (c[-1] + 1,))
        bad = cumulants.InfLaw(k, joint.num_vars, L, values)
        failed = freeness.check_inf_freeness(bad, coloring, L)
        products = None
        if nvs[0] == nvs[1]:
            nv2 = 2 * nvs[0]
            pair = cumulants.InfLaw(
                k, nv2, L, {u: joint.values[u] for u in cumulants.all_words(nv2, L)})
            products = freeness.product_tuple_cumulants(
                cumulants.moments_to_cumulants(pair),
                freeness.Coloring(coloring.colors[:nv2]), L)
        return joint, passed, failed, products

    def verify(self, inp, out):
        joint, passed, failed, products = out
        k, nvs, L = inp["shape"]["k"], inp["shape"]["vars"], inp["shape"]["max_len"]
        offset = 0
        for law, nv in zip(inp["laws"], nvs):
            for u in cumulants.all_words(nv, L):
                if joint.moment(tuple(v + offset for v in u)) != law.moment(u):
                    return f"restriction of the joint to a colour differs from its factor at {u}"
            offset += nv
        if not passed.passed or passed.witness is not None:
            return "freeness check failed on a free product"
        wit = failed.witness
        if failed.passed or wit is None or wit.word != inp["word"] or wit.component != k:
            return "freeness check missed the perturbed moment"
        if products is not None and nvs[0] == 1:
            mu, nu = inp["laws"][:2]
            if cumulants.cumulants_to_moments(products) != convolve.multiplicative_convolve(mu, nu):
                return "product-tuple cumulants disagree with multiplicative_convolve"
        return None

    def rationals(self, inp, out):
        joint, _, failed, products = out
        yield from table_rationals(joint)
        yield failed.witness.value
        if products is not None:
            yield from table_rationals(products)

    def props(self):
        out = []
        for s in self.shapes:
            nv = sum(s["vars"])
            out.append(dict(s, vars=list(s["vars"]),
                            words_per_table=words_in_table(nv, s["max_len"])))
        return out


class Warm:
    """The `warm` workload: every series-mul and tables-free shape in one
    closed loop, so that the boxed kernel and the cumulant and freeness
    layers are timed in the same run.  Nine shapes, an odd count, keep the
    median and the p75 of whole passes inside one shape's samples."""

    name = "warm"
    kinds = (SeriesMul(), TablesFree())
    shapes = [(kind, shape) for kind in kinds for shape in kind.shapes]
    pattern = list(range(len(shapes)))

    def make(self, draw, shape):
        kind, s = shape
        return kind, kind.make(draw, s)

    def run(self, inp):
        kind, x = inp
        return kind.run(x)

    def verify(self, inp, out):
        kind, x = inp
        return kind.verify(x, out)

    def rationals(self, inp, out):
        kind, x = inp
        return kind.rationals(x, out)

    def props(self):
        return [dict(p, kind=kind.name) for kind in self.kinds for p in kind.props()]


WARM = {"warm": Warm()}


def setup(wl, seed: int, part: int = 0, tracer=None):
    """The part's input for every shape, plus the warm-up results by shape,
    which become the references.  Each part of a run draws its own inputs
    from the seed."""
    draw = Draw(f"{wl.name}:{seed}:{part}")
    inputs = [wl.make(draw, shape) for shape in wl.shapes]
    if tracer is not None:
        tracer.install()
    refs = {}
    for s in sorted(set(wl.pattern)):
        if tracer is not None:
            tracer.job = f"warmup-{s}"
        refs[s] = wl.run(inputs[s])
    return inputs, refs


def peak_rss_mb() -> float:
    """Peak resident set of this process.  The parent that started it is a
    small stdlib-only process, so the image inherited at exec does not set
    this number."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def verify_refs(wl, inputs, refs, counts) -> tuple:
    """Verify each reference through an independent route; returns the
    number of jobs that share a failing reference, the first errors, and
    the output bit lengths."""
    failed = 0
    errors = []
    num = den = 0
    for s, out in sorted(refs.items()):
        try:
            err = wl.verify(inputs[s], out)
        except Exception as e:  # a raising check is a failed check
            err = f"{type(e).__name__}: {e}"
        if err:
            failed += counts.get(s, 0)
            errors.append(f"shape {s}: {err}")
        n, d = max_bits(wl.rationals(inputs[s], out))
        num, den = max(num, n), max(den, d)
    return failed, errors[:5], {"max_num_bits": num, "max_den_bits": den}


def mode_run(wl, seed: int, seconds: float, min_jobs: int, part: int, t0: float) -> dict:
    """One part of a timed run: set-up, then the closed loop over this
    part's inputs, then verification."""
    inputs, refs = setup(wl, seed, part)
    setup_s = time.monotonic() - t0
    clock = time.perf_counter
    lat = []
    counts = {}
    failed = 0
    errors = []
    start = clock()
    j = 0
    while True:
        s = wl.pattern[j % len(wl.pattern)]
        t = clock()
        try:
            out = wl.run(inputs[s])
        except Exception as e:
            lat.append(clock() - t)
            failed += 1
            errors.append(f"job {j}: {type(e).__name__}: {e}")
        else:
            lat.append(clock() - t)
            # untimed: every job must repeat its reference exactly
            counts[s] = counts.get(s, 0) + 1
            if refs[s] != out:
                failed += 1
                errors.append(f"job {j}: result differs from an earlier run of the same input")
        j += 1
        # stop at the whole pass that ends nearest to `seconds`: less than
        # half of an average pass is left
        passes = j / len(wl.pattern)
        if passes.is_integer() and j >= min_jobs and (clock() - start) * (1 + 0.5 / passes) >= seconds:
            break
    rss = peak_rss_mb()
    bad, verr, io = verify_refs(wl, inputs, refs, counts)
    return {
        "setup_s": setup_s, "lat": lat, "attempted": j, "failed": failed + bad,
        "errors": (errors + verr)[:5], "peak_rss_mb": rss, "io": io,
        "inputs": {"shapes": wl.props(), "pattern": wl.pattern, "coefficients": Draw.props()},
    }


def mode_trace(wl, seed: int, traced: bool, spans_path: str | None) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer  # imported only here, to keep it out of set-up time

        tracer = Tracer()
    inputs, refs = setup(wl, seed, tracer=tracer)
    clock = time.perf_counter
    n = TRACE_PASSES * len(wl.pattern)
    outs = []
    start = clock()
    for j in range(n):
        s = wl.pattern[j % len(wl.pattern)]
        if tracer is not None:
            tracer.job = f"job-{j}"
        outs.append((s, wl.run(inputs[s])))
    wall = clock() - start
    snap = None
    if tracer is not None:
        tracer.uninstall()
        snap = tracer.snapshot()
        if spans_path:
            tracer.write_spans(spans_path)
    failed = 0
    counts = {}
    for s, out in outs:
        counts[s] = counts.get(s, 0) + 1
        if refs[s] != out:
            failed += 1
    bad, errors, _ = verify_refs(wl, inputs, refs, counts)
    return {"wall_s": wall, "attempted": n, "failed": failed + bad, "errors": errors,
            "trace": snap}


# --- cli-cold ---------------------------------------------------------------


def random_nc(rng, n: int) -> partitions.NcPartition:
    """A seeded non-crossing partition of [n], built left to right with a
    stack of open blocks, without enumerating NC(n)."""
    stack, closed = [], []
    for pos in range(1, n + 1):
        if stack and rng.random() < 0.6:
            i = rng.randrange(len(stack))
            closed.extend(stack[i + 1:])
            del stack[i + 1:]
            stack[i].append(pos)
        else:
            stack.append([pos])
    return partitions.NcPartition(n, closed + stack)


def random_series(draw, k: int, trunc: int):
    return ck.CkSeries(k, trunc, [draw.scalar(k) for _ in range(trunc)])


# name -> size parameters; the sizes avoided on purpose are in NOTES.md
CLI_SIZES = {
    "nc_n": 9, "nck": (4, 2), "kr_n": 12, "table": (1, 2, 4), "box_pair": (1, 4),
    "box_a2": (2, 6), "box_k2": (2, 4), "add": (2, 5), "mul": (2, 5), "free": (1, 6),
    "upgrade": (2, 4), "demo": (2, 5),
}


def cli_inputs(seed: int) -> dict:
    """The in-process inputs of the cli-cold jobs, keyed by file name."""
    draw = Draw(f"cli-cold:{seed}")
    z = CLI_SIZES
    k, nv, L = z["table"]
    base_k, base_l = z["upgrade"]
    partition = random_nc(draw.rng, z["kr_n"])
    joint, coloring = freeness.free_product_joint(
        [draw.law(z["free"][0], 1, z["free"][1]) for _ in range(2)], z["free"][1])
    # degree-2 images grow words by one letter per derivative
    images = {1: freeness.NcPolynomial({(1, 2): 1, (2,): Fraction(1, 2)}),
              2: freeness.NcPolynomial({(1,): draw.rational()})}
    return {
        "partition.json": partition,
        "complement.json": partitions.kreweras(partition),
        "moments.json": draw.law(k, nv, L),
        "cumulants.json": draw.law(k, nv, L, cumulants.CumulantTable),
        "pair-f.json": random_series(draw, *z["box_pair"]),
        "pair-g.json": random_series(draw, *z["box_pair"]),
        "a2-f.json": random_series(draw, *z["box_a2"]),
        "a2-g.json": random_series(draw, *z["box_a2"]),
        "k2-f.json": random_series(draw, *z["box_k2"]),
        "k2-g.json": random_series(draw, *z["box_k2"]),
        "add-mu.json": draw.law(z["add"][0], 1, z["add"][1]),
        "add-nu.json": draw.law(z["add"][0], 1, z["add"][1]),
        "mul-mu.json": draw.law(z["mul"][0], 1, z["mul"][1]),
        "mul-nu.json": draw.law(z["mul"][0], 1, z["mul"][1]),
        "free-law.json": joint,
        "free-colors.json": coloring,
        "base.json": draw.law(0, 2, base_l + base_k),
        "derivation.json": freeness.Derivation(images),
    }


def cli_jobs(d: str) -> list:
    """The 17 cli-cold jobs, as argument lists of `python -m infree.cli`.
    An odd count keeps the median and p75 of whole passes inside one job's
    samples rather than on the edge between two jobs."""
    z = CLI_SIZES

    def f(name):
        return os.path.join(d, name)

    pair = ["--lhs", f("pair-f.json"), "--rhs", f("pair-g.json")]
    return [
        ["nc-enum", "--n", str(z["nc_n"])],
        ["nck-enum", "--n", str(z["nck"][0]), "--k", str(z["nck"][1])],
        ["kreweras", "--lhs", f("partition.json")],
        ["kreweras", "--inverse", "--lhs", f("complement.json")],
        ["mobius", "--lhs", f("partition.json")],
        ["m2c", "--law", f("moments.json")],
        ["c2m", "--law", f("cumulants.json")],
        ["boxconv", "--type", "a", *pair],
        ["boxconv", "--type", "b", *pair],
        ["boxconv", "--type", "k", *pair],
        ["boxconv", "--type", "a", "--lhs", f("a2-f.json"), "--rhs", f("a2-g.json")],
        ["boxconv", "--type", "k", "--lhs", f("k2-f.json"), "--rhs", f("k2-g.json")],
        ["convolve-add", "--lhs", f("add-mu.json"), "--rhs", f("add-nu.json")],
        ["convolve-mul", "--lhs", f("mul-mu.json"), "--rhs", f("mul-nu.json")],
        ["check-freeness", "--law", f("free-law.json"), "--colors", f("free-colors.json")],
        ["upgrade", "--base", f("base.json"), "--derivation", f("derivation.json"),
         "--k", str(z["upgrade"][0]), "--max-len", str(z["upgrade"][1])],
        ["deriv-demo", "--k", str(z["demo"][0]), "--max-len", str(z["demo"][1])],
    ]


def cli_props() -> dict:
    z = CLI_SIZES
    k, nv, L = z["table"]
    return {"sizes": {n: list(v) if isinstance(v, tuple) else v for n, v in z.items()},
            "words_per_table": words_in_table(nv, L),
            "coefficients": Draw.props()}


def mode_cli_prep(seed: int, d: str) -> dict:
    for name, value in cli_inputs(seed).items():
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            fh.write(jsonio.encode(value))
    return {"jobs": cli_jobs(d), "inputs": cli_props()}


def _in_process(inputs: dict, argv: list):
    """The library result a cli job should print, computed in-process."""
    z = CLI_SIZES
    verb = argv[0]
    name = {a: os.path.basename(b) for a, b in zip(argv, argv[1:]) if a.startswith("--")}
    if verb == "nc-enum":
        return list(partitions.enumerate_nc(z["nc_n"]))
    if verb == "nck-enum":
        return list(typek.enumerate_type_k(*z["nck"]))
    if verb == "kreweras":
        direction = "inverse" if "--inverse" in argv else "forward"
        return partitions.kreweras(inputs[name["--lhs"]], direction)
    if verb == "mobius":
        return {"mobius": partitions.mobius_to_top(inputs[name["--lhs"]])}
    if verb == "m2c":
        return cumulants.moments_to_cumulants(inputs[name["--law"]])
    if verb == "c2m":
        return cumulants.cumulants_to_moments(inputs[name["--law"]])
    if verb == "boxconv":
        f, g = inputs[name["--lhs"]], inputs[name["--rhs"]]
        route = {"a": convolve.boxed_conv_ck, "b": convolve.boxed_conv_type_b,
                 "k": convolve.boxed_conv_type_k}[argv[2]]
        return route(f, g)
    if verb == "convolve-add":
        return convolve.additive_convolve(inputs[name["--lhs"]], inputs[name["--rhs"]])
    if verb == "convolve-mul":
        return convolve.multiplicative_convolve(inputs[name["--lhs"]], inputs[name["--rhs"]])
    if verb == "check-freeness":
        law = inputs[name["--law"]]
        return freeness.check_inf_freeness(law, inputs[name["--colors"]], law.max_len)
    if verb == "upgrade":
        return freeness.upgraded_law(inputs[name["--base"]], inputs[name["--derivation"]],
                                     *z["upgrade"])
    if verb == "deriv-demo":
        k, L = z["demo"]
        with_t = ck.CkScalar(k, [1, 1] + [0] * (k - 1))

        def shifted(c0):
            return ck.CkScalar.from_rational(k, c0) + with_t - ck.CkScalar.one(k)

        mu = convolve.example_law("semicircular", shifted(1), k, L)
        nu = convolve.example_law("free_poisson", shifted(2), k, L)
        return freeness.derivative_of_convolution(mu, nu, "additive")
    raise ValueError(f"no in-process route for {verb}")


_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def _output_rationals(data):
    """Every rational string in a decoded JSON document."""
    if isinstance(data, str):
        if _RATIONAL.match(data):
            yield Fraction(data)
    elif isinstance(data, list):
        for v in data:
            yield from _output_rationals(v)
    elif isinstance(data, dict):
        for v in data.values():
            yield from _output_rationals(v)


def mode_cli_verify(seed: int, d: str, outputs: list) -> dict:
    """Check the captured stdout of each distinct job: byte-equal to the
    in-process result, plus the cross-route identities."""
    inputs = cli_inputs(seed)
    jobs = cli_jobs(d)
    bad = {}
    text = {}
    for i, (argv, path) in enumerate(zip(jobs, outputs)):
        with open(path, "rb") as fh:
            text[i] = fh.read()
        try:
            expect = jsonio.encode(_in_process(inputs, argv)).encode()
        except Exception as e:
            bad[i] = f"in-process route raised {type(e).__name__}: {e}"
            continue
        if text[i] != expect:
            bad[i] = f"stdout of {' '.join(argv[:3])} differs from jsonio.encode of the in-process result"
    z = CLI_SIZES

    def check(i, ok, msg):
        if not ok and i not in bad:
            bad[i] = msg

    docs = {i: json.loads(t) for i, t in text.items() if i not in bad}

    def job(*prefix):
        """Index of the first job whose arguments start with prefix."""
        return next(i for i, argv in enumerate(jobs) if argv[:len(prefix)] == list(prefix))

    i = job("nc-enum")
    if i in docs:
        check(i, len(docs[i]) == partitions.catalan(z["nc_n"]), "nc-enum count is not Catalan(n)")
    i = job("nck-enum")
    if i in docs:
        n, k = z["nck"]
        fuss = comb((n + 1) * (k + 1), k + 1) // ((k + 1) * n + 1)
        check(i, len(docs[i]) == partitions.catalan(n) * fuss,
              "nck-enum count is not Catalan(n) times the Fuss-Catalan fiber size")
    for i in (job("kreweras", "--lhs"), job("kreweras", "--inverse")):
        if i in docs:
            out = jsonio.decode_partition(docs[i])
            back = partitions.kreweras(out, "inverse" if jobs[i][1] == "--lhs" else "forward")
            check(i, back == inputs[os.path.basename(jobs[i][-1])],
                  "kreweras and its inverse do not return the input")
    a, b, kk = (job("boxconv", "--type", t) for t in "abk")
    if all(i in docs for i in (a, b, kk)):
        fa, fb, fk = (jsonio.decode_series(docs[i]) for i in (a, b, kk))
        check(b, fa == fb, "boxconv types a and b disagree")
        check(kk, fa == fk, "boxconv types a and k disagree")
    num, den = max_bits(r for doc in docs.values() for r in _output_rationals(doc))
    return {"bad": {str(i): m for i, m in bad.items()},
            "io": {"max_num_bits": num, "max_den_bits": den}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("run", "trace", "cli-prep", "cli-verify"))
    ap.add_argument("--workload", default="cli-cold")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-jobs", type=int, default=1, help="timed jobs at least")
    ap.add_argument("--part", type=int, default=0, help="which part of a split run")
    ap.add_argument("--t0", type=float, default=None, help="parent's time.monotonic() at spawn")
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    ap.add_argument("--dir", default=None, help="cli-cold input directory")
    ap.add_argument("--outputs", nargs="*", default=(), help="captured cli-cold outputs")
    args = ap.parse_args()
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    if args.mode == "run":
        result = mode_run(WARM[args.workload], args.seed, args.seconds, args.min_jobs,
                          args.part, t0)
    elif args.mode == "trace":
        result = mode_trace(WARM[args.workload], args.seed, bool(args.traced), args.spans)
    elif args.mode == "cli-prep":
        result = mode_cli_prep(args.seed, args.dir)
    else:
        result = mode_cli_verify(args.seed, args.dir, args.outputs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
