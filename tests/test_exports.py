import bisector_words
from bisector_words import sampler, words

# The public views of the fold bijection, with the module that defines each.
FOLD_VIEWS = {
    "letters_to_word": words,
    "fold": words,
    "unfold": words,
    "LatticeWalk": sampler,
    "word_to_walk": sampler,
    "walk_to_word": sampler,
}


def test_every_export_resolves():
    assert len(set(bisector_words.__all__)) == len(bisector_words.__all__)
    for name in bisector_words.__all__:
        assert hasattr(bisector_words, name), name


def test_fold_views_are_exported_from_their_module():
    for name, module in FOLD_VIEWS.items():
        assert name in bisector_words.__all__
        assert getattr(bisector_words, name) is getattr(module, name)
