import inspect
from fractions import Fraction

import numpy as np
import pytest

import bisector_words
from bisector_words import enumeration, geometry, random_points, realization, sampler, words

# The public views of the fold bijection, with the module that defines each.
FOLD_VIEWS = {
    "letters_to_word": words,
    "fold": words,
    "unfold": words,
    "LatticeWalk": sampler,
    "word_to_walk": sampler,
    "walk_to_word": sampler,
}

# Public-looking names of each library module that are not in __all__: internal
# helpers that other modules or the tests import.  Anything else is either
# exported or private.
UNEXPORTED = {
    words: {
        "bracelet_orbit",
        "check_folded",
        "check_signature",
        "check_word",
        "int_to_word",
        "word_to_int",
    },
    geometry: {"ensure_generic", "genericity_margin"},
    sampler: {"CltReport", "walk_from_steps"},
    random_points: {
        "PathReport",
        "TransferComparison",
        "TransferReport",
        "batch_rng",
        "interlacing_failures",
        "z_between",
    },
    enumeration: set(),
    realization: set(),
}

# Public methods and properties that each exported class defines itself, so
# that a new one is listed here on purpose; one that only tests would call is
# left out of the library instead.
PUBLIC_METHODS = {
    "Arrangement": set(),
    "Bracelet": set(),
    "EnumerationReport": set(),
    "EstimatorResult": {"to_json_dict"},
    "ExpSpacingSample": set(),
    "LatticeWalk": set(),
    "NonGenericConfiguration": set(),
    "NotRealizable": set(),
    "PointConfig": {"from_points", "from_strings", "n", "to_strings"},
    "RealizationPlan": {"to_json_dict"},
    "RegionStats": {"to_json_dict"},
}


def test_every_export_resolves():
    assert len(set(bisector_words.__all__)) == len(bisector_words.__all__)
    assert bisector_words.__all__ == sorted(bisector_words.__all__)
    for name in bisector_words.__all__:
        assert hasattr(bisector_words, name), name


def test_fold_views_are_exported_from_their_module():
    for name, module in FOLD_VIEWS.items():
        assert name in bisector_words.__all__
        assert getattr(bisector_words, name) is getattr(module, name)


def test_unexported_public_names_are_the_allowed_ones():
    for module, allowed in UNEXPORTED.items():
        defined = {
            name
            for name, value in vars(module).items()
            if (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
            and not name.startswith("_")
        }
        assert defined - set(bisector_words.__all__) == allowed, module.__name__


def test_exported_classes_define_only_the_allowed_public_methods():
    classes = {
        name: value for name in bisector_words.__all__ if inspect.isclass(value := getattr(bisector_words, name))
    }
    assert set(classes) == set(PUBLIC_METHODS)
    for name, cls in classes.items():
        defined = {
            attr
            for attr, value in vars(cls).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))
        }
        assert defined == PUBLIC_METHODS[name], name


class NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used")


# Every public entry point that takes n, as (call of n, least n, most n or
# None).
N_ENTRY_POINTS = {
    "count_words": (enumeration.count_words, 3, words.MAX_BRACELET_N),
    "count_bracelets": (enumeration.count_bracelets, 3, words.MAX_BRACELET_N),
    "enumerate_words": (enumeration.enumerate_words, 3, enumeration.MAX_ENUMERATION_N),
    "enumeration_report": (enumeration.enumeration_report, 3, enumeration.MAX_ENUMERATION_N),
    "run_word": (words.run_word, 3, words.MAX_BRACELET_N),
    "canonical_bracelet": (lambda n: words.canonical_bracelet((0, 1) * n), 3, words.MAX_BRACELET_N),
    "realize": (lambda n: realization.realize((0, 1) * n), 3, realization.MAX_REALIZE_N),
    "sample_uniform_word": (lambda n: sampler.sample_uniform_word(n, NoDraws()), 3, sampler.MAX_WORD_N),
    "sample_uniform_bracelet": (
        lambda n: sampler.sample_uniform_bracelet(n, NoDraws()),
        3,
        words.MAX_BRACELET_N,
    ),
    "sample_uniform_words": (lambda n: sampler.sample_uniform_words(n, 0, NoDraws()), 3, sampler.MAX_WORD_N),
    "sample_uniform_bracelets": (
        lambda n: sampler.sample_uniform_bracelets(n, 0, NoDraws()),
        3,
        words.MAX_BRACELET_N,
    ),
    "lln_clt_experiment": (lambda n: sampler.lln_clt_experiment(n, 10), 3, sampler.MAX_WORD_N),
    "binomial_parity_check": (sampler.binomial_parity_check, 1, sampler._MAX_PARITY_N),
    "closed_form": (lambda n: random_points.closed_form("h2", n), 3, random_points.MAX_GEOMETRY_N),
    "closed_form_pbn": (lambda n: random_points.closed_form("pbn", n), 3, random_points.MAX_GEOMETRY_N),
    # bounded as phi at 1/3 is, whose callers take n <= 10
    "closed_form_phi13": (lambda n: random_points.closed_form("phi13", n), 3, random_points._MAX_PHI_BITS // 3),
    "phi": (lambda n: random_points.phi(Fraction(1, 3), n), 3, random_points._MAX_PHI_BITS // 3),
    "phi_series": (lambda n: random_points.phi_series(Fraction(1, 3), n), 3, random_points._MAX_SERIES_N),
    "estimate_bracelet_prob": (
        lambda n: random_points.estimate_bracelet_prob(n, words.canonical_bracelet(words.run_word(4)), 10, 0),
        3,
        random_points.MAX_PACKED_N,
    ),
    "estimate_region_stats": (
        lambda n: random_points.estimate_region_stats(n, 10, 0),
        3,
        random_points.MAX_GEOMETRY_N,
    ),
    "interlacing_failures": (
        lambda n: random_points.interlacing_failures(n, 10, 0),
        3,
        random_points.MAX_GEOMETRY_N,
    ),
    "transfer_check": (lambda n: random_points.transfer_check(n, 10, 0), 3, random_points.MAX_GEOMETRY_N),
    "equidistribution_paths": (
        lambda n: random_points.equidistribution_paths(n, [0.5], 10, 0),
        3,
        random_points.MAX_GEOMETRY_N,
    ),
    "max_spacing_check": (
        lambda n: random_points.max_spacing_check(n, 10, 0),
        2,
        random_points.MAX_GEOMETRY_N,
    ),
    "sample_uniform_config": (
        lambda n: random_points.sample_uniform_config(n, NoDraws()),
        3,
        random_points.MAX_CONFIG_N,
    ),
    "sample_exp_model": (
        lambda n: random_points.sample_exp_model(n, NoDraws()),
        3,
        random_points.MAX_GEOMETRY_N,
    ),
}
# These take a word, whose length sets n: a word too short fails the word
# check, and n is always an integer, so only the upper bound applies.
N_FROM_WORD_LENGTH = {"canonical_bracelet", "realize"}
# 4.0 equals 4, so it would find the cached results of n = 4; a numpy
# integer would compute the exact counts in int64 and overflow silently.
N_CASES = [
    (name, case)
    for name, (_, _, most) in N_ENTRY_POINTS.items()
    for case in ("below", "above", "huge", 3.5, 4.0, np.int64(4))
    if case == "above" or name not in N_FROM_WORD_LENGTH
]


@pytest.mark.parametrize("name, case", N_CASES, ids=lambda v: repr(v) if isinstance(v, np.integer) else None)
def test_n_is_an_integer_in_range_before_any_draw(monkeypatch, name, case):
    def no_draws(*args):
        raise AssertionError("drew before checking n")

    monkeypatch.setattr(random_points, "batch_rng", no_draws)
    call, least, most = N_ENTRY_POINTS[name]
    if not isinstance(case, str):
        n, message = case, f"need n to be an integer, got {case!r}"
    elif case == "huge":
        # beyond Python's limit for converting an int to text, so shown by its type
        n, message = 10**5000, f"need {least} <= n <= {most}, got a value of type int"
    else:
        n = least - 1 if case == "below" else most + 1
        message = f"need {least} <= n <= {most}, got {n}"
    with pytest.raises(ValueError) as raised:
        call(n)
    assert str(raised.value) == message
