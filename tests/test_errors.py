import pytest

from gocpd.errors import ConfigError, check_keys


@pytest.mark.parametrize("doc", [[1], "x", None, 3.0])
def test_check_keys_wants_an_object(doc):
    with pytest.raises(ConfigError, match="^doc must be a JSON object$"):
        check_keys(doc, "doc", ("a",))


def test_check_keys_lists_unknown_fields_sorted_with_the_known_ones():
    with pytest.raises(ConfigError) as info:
        check_keys({"z": 1, "a": 2, "y": 3}, "doc", ("a", "b"), required=("b",))
    assert str(info.value) == "doc has unknown field(s): y, z (known: a, b)"


def test_check_keys_lists_missing_fields_in_declared_order():
    with pytest.raises(ConfigError) as info:
        check_keys({"b": 1}, "doc", ("c", "b", "a"), required=("c", "b", "a"))
    assert str(info.value) == "doc missing required field(s): c, a"


def test_check_keys_passes_a_document_with_known_and_required_fields():
    check_keys({"a": 1}, "doc", {"a": 0, "b": 0}, required=("a",))
    check_keys({}, "doc", ())
