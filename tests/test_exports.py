import inspect

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

# Public-looking names of each library module that are not in __all__: helpers
# that other modules import, and the geometry test seams.  Anything else is
# either exported or private.
UNEXPORTED = {
    words: {
        "bracelet_orbit",
        "check_folded",
        "check_signature",
        "check_word",
        "int_to_word",
        "word_to_int",
    },
    geometry: {
        "bisector_positions",
        "critical_values",
        "ensure_generic",
        "genericity_margin",
        "region_boundaries",
    },
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
