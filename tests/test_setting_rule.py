"""The rule for a setting's allowed type and values is written in one place.

errors.check_range and errors.check_choice word every "must be <range>,
got <value>" and "expected one of <choices>" message. A module that
words one itself compares the value by hand, and each such comparison
has to get NaN and the infinities right on its own. They also decide a
setting's type. Python counts a bool as an int, so a module that tests
a value for bool is writing a type rule of its own.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "socdfn"
HAND_WRITTEN_RULE = re.compile(
    r"must be (positive|non-negative|finite|in [\[(].*?[)\]]|>= \d+), got|expected one of"
)
HAND_WRITTEN_TYPE_RULE = re.compile(r"isinstance\(.*\bbool\b")


def hand_written_rules(pattern=HAND_WRITTEN_RULE):
    return [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_only_errors_words_a_range_or_choice_rule():
    assert hand_written_rules() == []


def test_only_errors_tests_a_value_for_bool():
    assert hand_written_rules(HAND_WRITTEN_TYPE_RULE) == []
