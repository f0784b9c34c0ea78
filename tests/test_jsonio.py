"""JSON codecs: round trips, schema rejection paths, deterministic bytes;
pickle round trips."""
from fractions import Fraction
import importlib
import json
import pickle
import random

import pytest

from infree.ck import CkScalar, CkSeries
from infree.freeness import (
    Coloring,
    Derivation,
    FreenessVerdict,
    NcPolynomial,
    Witness,
)
from infree import jsonio
from infree.jsonio import (
    SchemaError,
    decode_ck_scalar,
    decode_coloring,
    decode_cumulant_table,
    decode_derivation,
    decode_law,
    decode_partition,
    decode_polynomial,
    decode_rational,
    decode_series,
    encode,
    encode_rational,
    to_jsonable,
)
from infree._value import Value
from infree.cumulants import CumulantTable, InfLaw, moments_to_cumulants
from infree.partitions import NcPartition, SetPartition
from infree.typek import TypeKPartition, enumerate_type_k

from helpers import decode_type_k, decode_verdict, rand_law, rand_series


def reject(fn, data, fragment):
    with pytest.raises(SchemaError) as exc:
        fn(data)
    assert fragment in str(exc.value), str(exc.value)


def test_rationals():
    assert decode_rational("3", "") == 3
    assert decode_rational("-4", "") == -4
    assert decode_rational("5/7", "") == Fraction(5, 7)
    assert encode_rational(Fraction(5, 7)) == "5/7"
    assert encode_rational(Fraction(-3)) == "-3"
    assert encode_rational(Fraction(2, 4)) == "1/2"
    for bad, frag in [
        ("3/6", "not reduced"),
        ("3/-6", "malformed"),
        ("3/0", "zero denominator"),
        ("a/b", "malformed"),
        (1.5, "expected a rational string"),
    ]:
        with pytest.raises(SchemaError) as exc:
            decode_rational(bad, "x.y[2]")
        assert frag in str(exc.value)
        assert "x.y[2]" in str(exc.value)


def test_rational_grammar_is_exact_ascii():
    # p or p/q in ASCII digits and nothing around them: no final newline, no
    # blanks, signs on the denominator, underscores or non-ASCII digits
    for bad in ["5\n", "\u0663", "1/\u0662", " 5", "5 ", "+5", "1_0", "1/2\n", "-", "1/"]:
        with pytest.raises(SchemaError) as exc:
            decode_rational(bad, "v")
        assert "malformed rational" in str(exc.value), bad
    assert decode_rational("-0", "") == 0


def test_word_and_variable_keys_are_exact_ascii():
    # int() accepts " 1", "+1", "1_0", "\u0663" and "01"; none may spell a
    # word a second time and overwrite its entry
    for bad in [" 1", "1 ", "+1", "1_0", "\u0663", "01", "1,01", "1,,2", "1,", ",1", "1, 2"]:
        reject(decode_law, {"k": 0, "num_vars": 2, "max_len": 1,
                            "moments": {"1": ["2"], bad: ["3"]}}, "malformed word key")
        reject(decode_polynomial, {"terms": {bad: "1"}}, "malformed word key")
        reject(decode_derivation, {"images": {bad: {"terms": {}}}}, "must be integers")
    law = decode_law({"k": 0, "num_vars": 10, "max_len": 1,
                      "moments": {str(v): [str(v)] for v in range(1, 11)}})
    assert law.moment((10,)).coords == (10,)
    assert decode_derivation({"images": {"12": {"terms": {}}}}).images.keys() == {12}


def test_ck_scalar():
    a = CkScalar(1, [Fraction(1, 2), Fraction(-3)])
    data = json.loads(encode(a))
    assert data == ["1/2", "-3"]
    assert decode_ck_scalar(data, 1, "") == a
    reject(lambda d: decode_ck_scalar(d, 2, "s"), data, "expected 3 coordinates")
    reject(lambda d: decode_ck_scalar(d, 1, "s"), {"a": 1}, "expected an array")


def test_series():
    rng = random.Random(211)
    f = rand_series(rng, 2, 4)
    data = json.loads(encode(f))
    assert "const" not in data  # zero constant term is omitted
    assert decode_series(data) == f
    g = CkSeries(0, 2, [CkScalar.one(0)] * 2, CkScalar.from_rational(0, 5))
    gdata = json.loads(encode(g))
    assert gdata["const"] == ["5"]
    assert decode_series(gdata) == g
    reject(decode_series, {"k": 0, "trunc": 2, "coeffs": [["1"]]}, ".coeffs")
    reject(decode_series, {"k": 0, "trunc": 0, "coeffs": []}, "trunc")
    reject(
        decode_series,
        {"k": 0, "trunc": 1, "coeffs": [["1"]], "extra": 1},
        "unexpected fields",
    )


def test_partition():
    p = NcPartition(4, [[1, 4], [2, 3]])
    data = json.loads(encode(p))
    assert data == {"n": 4, "blocks": [[1, 4], [2, 3]]}
    assert decode_partition(data) == p
    reject(decode_partition, {"n": 4, "blocks": [[1, 3], [2, 4]]}, "crossing")
    reject(decode_partition, {"n": 2, "blocks": [[1]]}, "$")
    reject(decode_partition, {"n": 2}, "missing field 'blocks'")


def test_type_k():
    for tk in enumerate_type_k(2, 1):
        data = json.loads(encode(tk))
        assert set(data) == {"n", "k", "blocks", "reduction", "shape"}
        assert decode_type_k(data) == tk
    tk = enumerate_type_k(2, 1)[0]
    data = json.loads(encode(tk))
    tampered = dict(data)
    tampered["shape"] = [99] + list(data["shape"][1:])
    reject(decode_type_k, tampered, ".shape")
    tampered = dict(data)
    tampered["reduction"] = {"n": 2, "blocks": [[1, 2]]}
    if decode_partition(tampered["reduction"]) != tk.reduction:
        reject(decode_type_k, tampered, ".reduction")
    bad = {"n": 2, "k": 2, "blocks": [[1, 2, 3], [4, 5, 6]]}
    reject(decode_type_k, bad, "not a type-2 partition")


def test_tables():
    rng = random.Random(223)
    law = rand_law(rng, k=1, num_vars=2, max_len=3)
    data = json.loads(encode(law))
    assert set(data) == {"k", "num_vars", "max_len", "moments"}
    assert decode_law(data) == law
    # cumulant tables use the same wire shape under another key
    cdata = dict(data)
    cdata["cumulants"] = cdata.pop("moments")
    ct = decode_cumulant_table(cdata)
    assert ct.value((1, 2)) == law.moment((1, 2))
    incomplete = dict(data)
    incomplete["moments"] = {"1": data["moments"]["1"]}
    reject(decode_law, incomplete, ".moments")
    badkey = dict(data)
    badkey["moments"] = dict(data["moments"])
    badkey["moments"]["1,0"] = data["moments"]["1"]
    reject(decode_law, badkey, "letters must be >= 1")
    badkey["moments"].pop("1,0")
    badkey["moments"][""] = data["moments"]["1"]
    reject(decode_law, badkey, "empty word key")


def test_coloring():
    c = Coloring((1, 2, 1))
    data = json.loads(encode(c))
    assert data == {"colors": [1, 2, 1]}
    assert decode_coloring(data) == c
    reject(decode_coloring, {"colors": ["a"]}, ".colors[0]")
    reject(decode_coloring, {"colors": []}, "at least one variable")


def test_polynomial():
    p = NcPolynomial({(1, 2): Fraction(1, 3), (): -2})
    data = json.loads(encode(p))
    assert data == {"terms": {"1,2": "1/3", "": "-2"}}
    assert decode_polynomial(data) == p
    reject(decode_polynomial, {"terms": {"1": "3/6"}}, "not reduced")
    reject(decode_polynomial, {"terms": {"1,x": "1"}}, "malformed word key")


def test_derivation():
    d = Derivation({1: NcPolynomial.variable(2), 3: NcPolynomial.constant(5)})
    data = json.loads(encode(d))
    assert decode_derivation(data) == Derivation(d.images)
    assert decode_derivation(data).images == d.images
    reject(decode_derivation, {"images": {"x": {"terms": {}}}}, "must be integers")
    reject(decode_derivation, {"images": {"0": {"terms": {}}}}, "must be >= 1")


def test_verdict():
    ok = FreenessVerdict(True, None)
    data = json.loads(encode(ok))
    assert data == {"pass": True, "witness": None}
    assert decode_verdict(data) == ok
    bad = FreenessVerdict(False, Witness((1, 2, 1, 2), 1, Fraction(-1, 2)))
    data = json.loads(encode(bad))
    assert data["witness"] == {"word": [1, 2, 1, 2], "component": 1, "value": "-1/2"}
    assert decode_verdict(data) == bad
    reject(decode_verdict, {"pass": 1, "witness": None}, ".pass")
    reject(decode_verdict, {"pass": True}, "missing field 'witness'")


def test_encode_is_deterministic_and_float_free():
    rng = random.Random(227)
    law = rand_law(rng, k=2, num_vars=2, max_len=3)
    text = encode(law)
    assert text == encode(law)
    assert text.endswith("\n")
    assert "." not in text  # rationals stay exact strings on the wire
    # scrambled key order decodes to the same value
    scrambled = json.loads(text)
    assert decode_law(scrambled) == law
    with pytest.raises(TypeError):
        encode(object())
    assert to_jsonable([Fraction(1, 2), 3]) == ["1/2", "3"]


def test_encoder_table_names_classes_and_serves_subclasses():
    # the table is keyed by "module.qualname" strings, so each key must
    # name a class, and a subclass is encoded as its nearest listed base
    for key in jsonio._ENCODERS:
        module, _, name = key.rpartition(".")
        assert isinstance(getattr(importlib.import_module(module), name), type), key
    p = NcPartition(4, [[1, 4], [2, 3]])
    assert to_jsonable(p) == to_jsonable(SetPartition(4, [[1, 4], [2, 3]]))
    assert to_jsonable([True, (1, Fraction(1, 2))]) == ["1", ["1", "1/2"]]
    assert to_jsonable({1: (1, 2)}) == {"1": ["1", "2"]}


def test_every_library_value_pickles():
    # each immutable class rebuilds through its validating constructor,
    # and a subclass comes back as itself
    rng = random.Random(229)
    law = rand_law(rng, k=2, num_vars=2, max_len=3)
    poly = NcPolynomial({(1, 2): Fraction(1, 2), (): 3})
    values = [
        CkScalar(2, [Fraction(1, 3), -2, Fraction(5, 7)]),
        rand_series(rng, 2, 4),
        law,
        moments_to_cumulants(law),
        SetPartition(4, [[1, 3], [2, 4]]),
        NcPartition(4, [[1, 4], [2, 3]]),
        enumerate_type_k(3, 2)[17],
        poly,
        Derivation({1: poly, 2: NcPolynomial.variable(1)}),
        Coloring((1, 2, 1)),
        Witness((1, 2), 1, Fraction(-3, 4)),
        FreenessVerdict(False, Witness((1, 2), 1, Fraction(-3, 4))),
        FreenessVerdict(True, None),
    ]
    assert {type(v) for v in values} == {
        CkScalar, CkSeries, type(law), CumulantTable, SetPartition, NcPartition,
        TypeKPartition, NcPolynomial, Derivation, Coloring, Witness, FreenessVerdict,
    }
    for v in values:
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is type(v)
        assert back == v


def test_record_classes_keep_their_value_semantics():
    # every value class: equal fields give equal, equally hashed values;
    # fields cannot be assigned; the constructors validate as before; the
    # records' repr is field=value in field order
    witness = Witness((1, 2), 2, Fraction(1, 2))
    rng = random.Random(271)
    law, law2 = rand_law(rng, k=1, num_vars=1, max_len=2), rand_law(rng, k=1, num_vars=1, max_len=2)
    cumulants = moments_to_cumulants(law)
    series = rand_series(rng, 1, 3)
    poly = NcPolynomial({(1, 2): Fraction(1, 2), (): 3})
    fiber = enumerate_type_k(2, 1)
    cases = [
        (Coloring([1, "2"]), Coloring((1, 2)), Coloring((2, 1)), "Coloring(colors=(1, 2))"),
        (witness, Witness((1, 2), 2, Fraction(1, 2)), Witness((1, 2), 1, Fraction(1, 2)),
         "Witness(word=(1, 2), component=2, value=Fraction(1, 2))"),
        (FreenessVerdict(False, witness), FreenessVerdict(False, Witness((1, 2), 2, Fraction(1, 2))),
         FreenessVerdict(True, None),
         "FreenessVerdict(passed=False, witness=Witness(word=(1, 2), component=2, "
         "value=Fraction(1, 2)))"),
        (Derivation({1: poly, 2: NcPolynomial.variable(1)}),
         Derivation({1: NcPolynomial({(): 3, (1, 2): "1/2"}), 2: NcPolynomial.variable(1)}),
         Derivation({1: poly}),
         "Derivation(images={1: NcPolynomial(3*() + 1/2*(1, 2)), 2: NcPolynomial(1*(1,))})"),
        (CkScalar(1, [Fraction(1, 2), 3]), CkScalar(1, ["1/2", 3]), CkScalar(2, [Fraction(1, 2), 3, 0]),
         None),
        (series, CkSeries(1, 3, list(series.coeffs)), series.truncate(2), None),
        (law, InfLaw(1, 1, 2, dict(law.values)), law2, None),
        (cumulants, CumulantTable(1, 1, 2, dict(cumulants.values)), moments_to_cumulants(law2), None),
        (poly, NcPolynomial({(): 3, (1, 2): "1/2"}), poly.scale(2), None),
        (SetPartition(4, [[1, 3], [2, 4]]), SetPartition(4, [(4, 2), (3, 1)]),
         SetPartition(4, [[1, 2], [3, 4]]), None),
        (NcPartition(4, [[1, 4], [2, 3]]), NcPartition(4, [[3, 2], [4, 1]]),
         NcPartition(4, [[1], [2, 3], [4]]), None),
        (fiber[3], TypeKPartition(fiber[3].partition, 2, 1), fiber[4], None),
    ]
    assert {type(v) for v, *_ in cases} == {
        CkScalar, CkSeries, InfLaw, CumulantTable, SetPartition, NcPartition, TypeKPartition,
        NcPolynomial, Derivation, Coloring, Witness, FreenessVerdict,
    }
    for value, same, other, text in cases:
        assert isinstance(value, Value)
        assert value == same and hash(value) == hash(same)
        assert value != other and same != other
        assert len({value, same, other}) == 2
        if text is not None:
            assert repr(value) == text
        for name in (*type(value)._fields, "extra"):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                setattr(value, name, None)
        assert value == same
    # a non-crossing partition equals its plain twin, and hashes alike
    nc, plain = NcPartition(4, [[1, 4], [2, 3]]), SetPartition(4, [[1, 4], [2, 3]])
    assert nc == plain and plain == nc and hash(nc) == hash(plain)
    # a law and a cumulant table over the same entries are different values
    assert law != CumulantTable(law.k, law.num_vars, law.max_len, law.values)
    assert CumulantTable(law.k, law.num_vars, law.max_len, law.values) != law
    assert repr(FreenessVerdict(True, None)) == "FreenessVerdict(passed=True, witness=None)"
    coloring = Coloring((3, 1, 3))
    assert (coloring.num_vars, coloring.color_of(3), coloring.palette()) == (3, 3, (1, 3))
    for build, error, message in (
        (lambda: Coloring(()), ValueError, "coloring must cover at least one variable"),
        (lambda: Coloring(["x"]), ValueError, "invalid literal for int() with base 10: 'x'"),
    ):
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message
