"""JSON codecs for every domain type.

All numbers on the wire are rational strings like "-3" or "5/7", always
reduced with positive denominator; floats never appear.  Encoding sorts all
object keys so equal values produce identical bytes.  Decoding validates
shape and reports the offending path in every error.

Importing this module loads no layer of the package: each decoder imports
its domain class when it runs, and `to_jsonable` finds the encoder of a
value by the names of the classes in its type's MRO, so encoding a value
loads nothing its own module did not.
"""
from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterator
from fractions import Fraction


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path or '$'}: {message}")


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# a word letter or variable key: ASCII digits without a leading zero, so no
# two keys name the same word
_LETTER = r"(?:0|[1-9][0-9]*)"
_WORD_KEY = re.compile(rf"{_LETTER}(?:,{_LETTER})*")


def decode_rational(data, path: str) -> Fraction:
    if not isinstance(data, str):
        raise SchemaError(path, f"expected a rational string, got {type(data).__name__}")
    m = _RATIONAL.fullmatch(data)
    if not m:
        raise SchemaError(path, f"malformed rational {data!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # beyond the interpreter's limit on int digits
        limit = sys.get_int_max_str_digits()
        raise SchemaError(path, f"rational with a part longer than {limit} digits") from None
    if den == 0:
        raise SchemaError(path, "zero denominator")
    f = Fraction(num, den)
    if f.numerator != num or f.denominator != den:
        raise SchemaError(path, f"rational {data!r} is not reduced")
    return f


def encode_rational(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _expect(data, typ, path, name):
    if not isinstance(data, typ) or isinstance(data, bool):
        raise SchemaError(path, f"expected {name}, got {type(data).__name__}")
    return data


def _field(data, key, path):
    _expect(data, dict, path, "an object")
    if key not in data:
        raise SchemaError(path, f"missing field {key!r}")
    return data[key]


def _check_keys(data, allowed, path):
    extra = set(data) - set(allowed)
    if extra:
        raise SchemaError(path, f"unexpected fields {sorted(extra)}")


def decode_ck_scalar(data, k: int, path: str) -> CkScalar:
    from .ck import CkScalar

    _expect(data, list, path, "an array of rationals")
    if len(data) != k + 1:
        raise SchemaError(path, f"expected {k + 1} coordinates, got {len(data)}")
    return CkScalar(k, [decode_rational(v, f"{path}[{i}]") for i, v in enumerate(data)])


def encode_ck_scalar(x: CkScalar) -> list:
    return [encode_rational(c) for c in x.coords]


def decode_series(data, path: str = "") -> CkSeries:
    from .ck import CkSeries

    _expect(data, dict, path, "an object")
    _check_keys(data, {"k", "trunc", "const", "coeffs"}, path)
    k = _expect(_field(data, "k", path), int, f"{path}.k", "an integer")
    trunc = _expect(_field(data, "trunc", path), int, f"{path}.trunc", "an integer")
    if k < 0 or trunc < 1:
        raise SchemaError(path, f"need k >= 0 and trunc >= 1, got k={k}, trunc={trunc}")
    coeffs = _expect(_field(data, "coeffs", path), list, f"{path}.coeffs", "an array")
    if len(coeffs) != trunc:
        raise SchemaError(f"{path}.coeffs", f"expected {trunc} coefficients, got {len(coeffs)}")
    decoded = [decode_ck_scalar(c, k, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs)]
    const = None
    if "const" in data:
        const = decode_ck_scalar(data["const"], k, f"{path}.const")
    return CkSeries(k, trunc, decoded, const)


def encode_series(f: CkSeries) -> dict:
    out = {
        "k": f.k,
        "trunc": f.trunc,
        "coeffs": [encode_ck_scalar(c) for c in f.coeffs],
    }
    if not f.const.is_zero():
        out["const"] = encode_ck_scalar(f.const)
    return out


def decode_partition(data, path: str = ""):
    from .partitions import NcPartition

    _expect(data, dict, path, "an object")
    _check_keys(data, {"n", "blocks"}, path)
    n = _expect(_field(data, "n", path), int, f"{path}.n", "an integer")
    blocks = _expect(_field(data, "blocks", path), list, f"{path}.blocks", "an array")
    parsed = []
    for i, b in enumerate(blocks):
        _expect(b, list, f"{path}.blocks[{i}]", "an array of integers")
        parsed.append([
            _expect(x, int, f"{path}.blocks[{i}][{j}]", "an integer") for j, x in enumerate(b)
        ])
    try:
        return NcPartition(n, parsed)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e


def encode_partition(p: SetPartition) -> dict:
    return {"n": p.n, "blocks": [list(b) for b in p.blocks]}


def encode_type_k(tk: TypeKPartition) -> dict:
    return {
        "n": tk.n,
        "k": tk.k,
        "blocks": [list(b) for b in tk.partition.blocks],
        "reduction": encode_partition(tk.reduction),
        "shape": list(tk.shape),
    }


def _word_key(w: tuple) -> str:
    return ",".join(str(v) for v in w)


def _parse_word(key: str, path: str) -> tuple:
    if key == "":
        raise SchemaError(path, "empty word key")
    try:
        if not _WORD_KEY.fullmatch(key):
            raise ValueError
        w = tuple(int(part) for part in key.split(","))
    except ValueError:  # off the grammar, or beyond the limit on int digits
        raise SchemaError(path, f"malformed word key {key!r}") from None
    if any(v < 1 for v in w):
        raise SchemaError(path, f"word letters must be >= 1 in {key!r}")
    return w


def _decode_table(data, path: str, value_key: str, cls):
    _expect(data, dict, path, "an object")
    _check_keys(data, {"k", "num_vars", "max_len", value_key}, path)
    k = _expect(_field(data, "k", path), int, f"{path}.k", "an integer")
    num_vars = _expect(_field(data, "num_vars", path), int, f"{path}.num_vars", "an integer")
    max_len = _expect(_field(data, "max_len", path), int, f"{path}.max_len", "an integer")
    entries = _expect(_field(data, value_key, path), dict, f"{path}.{value_key}", "an object")
    values = {}
    for key, val in entries.items():
        w = _parse_word(key, f"{path}.{value_key}.{key}")
        values[w] = decode_ck_scalar(val, k, f"{path}.{value_key}.{key}")
    try:
        return cls(k, num_vars, max_len, values)
    except ValueError as e:
        raise SchemaError(f"{path}.{value_key}", str(e)) from e


def decode_law(data, path: str = "") -> InfLaw:
    from .cumulants import InfLaw

    return _decode_table(data, path, "moments", InfLaw)


def decode_cumulant_table(data, path: str = "") -> CumulantTable:
    from .cumulants import CumulantTable

    return _decode_table(data, path, "cumulants", CumulantTable)


def _encode_table(t, value_key: str) -> dict:
    return {
        "k": t.k,
        "num_vars": t.num_vars,
        "max_len": t.max_len,
        value_key: {_word_key(w): encode_ck_scalar(v) for w, v in t.values.items()},
    }


def encode_law(law: InfLaw) -> dict:
    return _encode_table(law, "moments")


def encode_cumulant_table(c: CumulantTable) -> dict:
    return _encode_table(c, "cumulants")


def decode_coloring(data, path: str = "") -> Coloring:
    from .freeness import Coloring

    _expect(data, dict, path, "an object")
    _check_keys(data, {"colors"}, path)
    colors = _expect(_field(data, "colors", path), list, f"{path}.colors", "an array")
    for i, c in enumerate(colors):
        _expect(c, int, f"{path}.colors[{i}]", "an integer")
    try:
        return Coloring(tuple(colors))
    except ValueError as e:
        raise SchemaError(f"{path}.colors", str(e)) from e


def encode_coloring(c: Coloring) -> dict:
    return {"colors": list(c.colors)}


def decode_polynomial(data, path: str = "") -> NcPolynomial:
    from .freeness import NcPolynomial

    _expect(data, dict, path, "an object")
    _check_keys(data, {"terms"}, path)
    terms = _expect(_field(data, "terms", path), dict, f"{path}.terms", "an object")
    out = {}
    for key, val in terms.items():
        w = () if key == "" else _parse_word(key, f"{path}.terms.{key}")
        out[w] = decode_rational(val, f"{path}.terms.{key}")
    return NcPolynomial(out)


def encode_polynomial(p: NcPolynomial) -> dict:
    return {"terms": {_word_key(w): encode_rational(c) for w, c in p.terms.items()}}


def decode_derivation(data, path: str = "") -> Derivation:
    from .freeness import Derivation

    _expect(data, dict, path, "an object")
    _check_keys(data, {"images"}, path)
    images = _expect(_field(data, "images", path), dict, f"{path}.images", "an object")
    out = {}
    for key, val in images.items():
        try:
            if not re.fullmatch(_LETTER, key):
                raise ValueError
            v = int(key)
        except ValueError:  # off the grammar, or beyond the limit on int digits
            raise SchemaError(f"{path}.images.{key}", "variable keys must be integers") from None
        if v < 1:
            raise SchemaError(f"{path}.images.{key}", "variable keys must be >= 1")
        out[v] = decode_polynomial(val, f"{path}.images.{key}")
    return Derivation(out)


def encode_derivation(d: Derivation) -> dict:
    return {"images": {str(v): encode_polynomial(p) for v, p in d.images.items()}}


def encode_verdict(v: FreenessVerdict) -> dict:
    if v.witness is None:
        return {"pass": v.passed, "witness": None}
    return {
        "pass": v.passed,
        "witness": {
            "word": list(v.witness.word),
            "component": v.witness.component,
            "value": encode_rational(v.witness.value),
        },
    }


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode(value) -> str:
    """Serialize any domain value to deterministic JSON text."""
    return _JSON.encode(to_jsonable(value)) + "\n"


def encode_items(value):
    """The text of encode(value) in pieces, "".join of them the whole: a
    list, tuple or iterator as "[" and its first item, "," and each next
    item, then "]\n", so that its text is never held whole; any other
    value as one piece."""
    if not isinstance(value, (list, tuple, Iterator)):
        yield encode(value)
        return
    lead = "["
    for item in value:
        yield lead + _JSON.encode(to_jsonable(item))
        lead = ","
    yield "]\n" if lead == "," else "[]\n"


def _encode_list(value) -> list:
    return [to_jsonable(v) for v in value]


def _encode_dict(value) -> dict:
    return {str(k): to_jsonable(v) for k, v in value.items()}


# The encoder of each class, keyed by "module.qualname" so that this table
# imports none of them; a subclass uses the encoder of its nearest base.
_ENCODERS = {
    "infree.ck.CkScalar": encode_ck_scalar,
    "infree.ck.CkSeries": encode_series,
    "infree.partitions.SetPartition": encode_partition,
    "infree.typek.TypeKPartition": encode_type_k,
    "infree.cumulants.InfLaw": encode_law,
    "infree.cumulants.CumulantTable": encode_cumulant_table,
    "infree.freeness.Coloring": encode_coloring,
    "infree.freeness.NcPolynomial": encode_polynomial,
    "infree.freeness.Derivation": encode_derivation,
    "infree.freeness.FreenessVerdict": encode_verdict,
    "fractions.Fraction": encode_rational,
    "builtins.int": encode_rational,
    "builtins.list": _encode_list,
    "builtins.tuple": _encode_list,
    "builtins.dict": _encode_dict,
}


def to_jsonable(value):
    for cls in type(value).__mro__:
        encoder = _ENCODERS.get(f"{cls.__module__}.{cls.__qualname__}")
        if encoder is not None:
            return encoder(value)
    raise TypeError(f"cannot encode {type(value).__name__}")
