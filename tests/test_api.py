import franklin


def test_all_names_resolve_once():
    names = franklin.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(franklin, name)
