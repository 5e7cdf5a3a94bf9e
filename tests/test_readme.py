"""The ``>>>`` examples in README.md, run as doctests."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    # A closing fence would read as expected output; blank it, keeping line numbers.
    lines = README.read_text().splitlines()
    text = "\n".join("" if line.startswith("```") else line for line in lines)
    test = doctest.DocTestParser().get_doctest(text, {}, README.name, str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples
    assert runner.failures == 0
