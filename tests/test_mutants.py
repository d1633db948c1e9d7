import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_still_applies(mutant):
    # The old text occurs exactly once, so the mutation is the one named,
    # and each test that must catch it is still defined where it says.
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text()


@pytest.mark.parametrize("mutant", EQUIVALENT, ids=lambda m: m.name)
def test_each_equivalent_mutant_still_applies(mutant):
    # An equivalent mutant names one place in the code, like a registered
    # one, and says why no test can catch it.
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.reason
