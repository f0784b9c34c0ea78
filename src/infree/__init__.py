"""Exact arithmetic for higher-order infinitesimal free probability.

Truncated jet scalars, non-crossing partitions of types A, B and k,
moment-cumulant transforms, boxed convolutions, free additive and
multiplicative convolution of infinitesimal laws, a freeness checker, and
derivation upgrades.  Everything is rational and exact.

Importing the package loads none of its layers: each public name below is
imported from its home module on first use, and so is each submodule named
as an attribute (`infree.convolve`).
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("ck", "partitions", "typek", "cumulants", "convolve", "freeness", "jsonio", "cli")

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "CkScalar", "CkSeries", "NotInvertible", "ck_inverse", "ck_mul", "ck_prod_many",
        "series_comp_inverse", "series_compose", "series_mul",
    ), "ck"),
    **dict.fromkeys((
        "NcPartition", "SetPartition", "biane_permutation", "enumerate_nc", "is_noncrossing",
        "kreweras", "mobius_to_top", "ordered_blocks", "partition_join",
    ), "partitions"),
    **dict.fromkeys((
        "TypeKPartition", "enumerate_type_k", "enumerate_type_k_star", "is_type_k",
        "r_of_shape", "reduce_mod",
    ), "typek"),
    **dict.fromkeys((
        "CumulantTable", "InfLaw", "cumulant_of_products", "cumulants_to_moments", "kappa_pi",
        "moments_to_cumulants",
    ), "cumulants"),
    **dict.fromkeys((
        "additive_convolve", "boxed_conv_ck", "boxed_conv_type_b", "boxed_conv_type_k",
        "example_law", "fourier_transform", "moments_from_r", "multiplicative_convolve",
        "r_from_moments", "s_transform", "special_series",
    ), "convolve"),
    **dict.fromkeys((
        "Coloring", "Derivation", "FreenessVerdict", "NcPolynomial", "check_inf_freeness",
        "derivative_of_convolution", "free_product_joint", "product_tuple_cumulants",
        "upgraded_law",
    ), "freeness"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _LAYERS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
