from fractions import Fraction

import numpy as np
import pytest

from gbrw.rules import LevyRule, RecyclingRule, WindowMaxRule
from gbrw.rulespec import (
    BUILTINS,
    RuleSpecError,
    load_rule,
    make_builtin,
    parse_index_set,
    parse_rule_document,
)


def test_make_builtin_names():
    assert make_builtin("identity").name == "identity"
    assert make_builtin("window-max:3").width == 3
    assert isinstance(make_builtin("levy"), LevyRule)
    assert make_builtin("levy", sgn0=1).sgn0 == 1
    assert make_builtin("extended-brw:prefix:0.5").seq.kind == "prefix"
    assert make_builtin("sign-flips:0.25").density == 0.25
    assert make_builtin("max").width is None


def test_sign_flips_density_parses_exactly():
    assert make_builtin("sign-flips:0.29").density == Fraction(29, 100)
    assert make_builtin("sign-flips:1/3").density == Fraction(1, 3)
    assert make_builtin("sign-flips:0.25").name == "sign-flips:0.25"
    for bad in ("sign-flips:1/0", "sign-flips:x", "sign-flips:1.5"):
        with pytest.raises(RuleSpecError):
            make_builtin(bad)


def test_make_builtin_errors():
    with pytest.raises(RuleSpecError):
        make_builtin("no-such-rule")
    with pytest.raises(RuleSpecError):
        make_builtin("window-max")
    with pytest.raises(RuleSpecError):
        make_builtin("window-max:zero")
    with pytest.raises(RuleSpecError):
        make_builtin("extended-brw:mystery")
    with pytest.raises(RuleSpecError, match="prefix-log takes no parameter"):
        make_builtin("extended-brw:prefix-log:3")


@pytest.mark.parametrize("name", ["identity", "negation", "brw", "product", "max",
                                  "levy", "modified-levy", "modified-levy-max"])
def test_parameterless_builtins_reject_parameters(name):
    # builtin:max:3 is not window-max:3, so a parameter is an error
    for spec in (f"builtin:{name}:3", f"builtin:{name}:x"):
        with pytest.raises(RuleSpecError, match=f"^{name} takes no parameter$"):
            load_rule(spec)


# one sample parameter per parameter spelling of the catalogue
SAMPLE_PARAMETERS = {"": "", ":M": ":3", ":P": ":0.25", ":KIND[:PARAM]": ":prefix:0.5",
                     ":V0[:Z1:V1...]": ":-1:0:1"}


@pytest.mark.parametrize("name", BUILTINS)
def test_every_listed_builtin_parses_with_a_sample_parameter(name):
    spelling, description, _ = BUILTINS[name]
    rule = load_rule(f"builtin:{name}{SAMPLE_PARAMETERS[spelling]}", sgn0=1)
    assert isinstance(rule, RecyclingRule) and description


def test_symmetric_builtin():
    rule = make_builtin("symmetric:-1:0:1")
    assert rule.psi(2, [1, 1]) == 1
    assert rule.psi(2, [-1, -1]) == -1
    # right-continuous: value at the jump comes from the upper piece
    assert rule.psi(2, [1, -1]) == 1


def test_parse_index_set():
    assert parse_index_set("{1,2,5}") == 0b10011
    assert parse_index_set("{}") == 0
    assert parse_index_set("{2,2,1}") == 0b11
    with pytest.raises(RuleSpecError):
        parse_index_set("{1;2}")
    with pytest.raises(RuleSpecError, match="indices must be positive, got 0"):
        parse_index_set("{0,1}")


def test_parse_builtin_document():
    rule = parse_rule_document("psi0: -1\ngenerator: builtin levy\n")
    assert isinstance(rule, LevyRule)


def test_parse_builtin_document_psi0_conflict():
    with pytest.raises(RuleSpecError):
        parse_rule_document("psi0: +1\ngenerator: builtin levy\n")


def test_parse_beta_document():
    text = """
# a patched window rule
psi0: -1
generator: beta {
  2: [{1}]
  3: [{1,2}, {}]
  fallback: window-max:2
}
"""
    rule = parse_rule_document(text)
    assert rule.psi0 == -1
    assert set(rule.step_family(2).masks) == {0b1}
    assert set(rule.step_family(3).masks) == {0b11, 0}
    # unlisted step falls back
    expected = WindowMaxRule(2).step_table(4)
    assert rule.step_table(4) == expected


def test_parse_truth_document():
    text = """
psi0: +1
generator: truth {
  3: +--+
  fallback: identity
}
"""
    rule = parse_rule_document(text)
    table = rule.step_table(3)
    assert list(table.signs) == [1, -1, -1, 1]
    assert rule.multiplier(5, [1, 1, 1, 1]) == 1


def test_parse_truth_document_wrong_length():
    with pytest.raises(RuleSpecError) as err:
        parse_rule_document("psi0: +1\ngenerator: truth {\n3: +-\n}\n")
    assert "line 3" in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(RuleSpecError) as err:
        parse_rule_document("psi0: maybe\ngenerator: builtin levy\n")
    assert "line 1" in str(err.value)
    with pytest.raises(RuleSpecError):
        parse_rule_document("psi0: -1\ngenerator: beta {\n2: [{1}]\n")  # no brace
    with pytest.raises(RuleSpecError):
        parse_rule_document("generator: builtin levy\n")  # no psi0


def _document_error(block_line):
    text = f"psi0: -1\ngenerator: beta {{\n  {block_line}\n}}\n"
    with pytest.raises(RuleSpecError) as err:
        parse_rule_document(text)
    return str(err.value)


def test_document_set_index_error_names_its_line():
    assert _document_error("2: [{0}]") == "line 3: indices must be positive, got 0"


def test_document_set_range_error_names_its_line():
    assert _document_error("3: [{3}]") == (
        "line 3: member {3} not a subset of {1,...,2}")


def test_document_fallback_error_names_its_line():
    assert _document_error("fallback: nosuch") == (
        "line 3: unknown builtin rule 'nosuch'")


def test_load_rule_builtin_and_file(tmp_path):
    rule = load_rule("builtin:window-max:2")
    assert rule.width == 2
    doc = tmp_path / "rule.gbrw"
    doc.write_text("psi0: -1\ngenerator: builtin modified-levy\n")
    loaded = load_rule(str(doc))
    assert loaded.name == "modified-levy"
    with pytest.raises(RuleSpecError):
        load_rule("no/such/file.gbrw")


def test_document_rule_round_trips_through_apply():
    text = "psi0: -1\ngenerator: beta {\n2: [{}]\n3: [{2}]\nfallback: brw\n}\n"
    rule = parse_rule_document(text)
    xi = np.array([1, -1, 1, 1], dtype=np.int8)
    eta = rule.apply(xi)
    assert eta[0] == -1  # psi0
    assert eta[1] == 1  # constant flip times -1
    assert eta[2] == -1  # u_[{2}] = xi_2 = -1
    assert eta[3] == -1  # fallback product of first three
