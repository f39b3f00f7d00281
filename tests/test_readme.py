"""The README's library tour, run as doctests that share one namespace."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_pass_as_doctests():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    report: list[str] = []
    globs: dict = {}
    for i, block in enumerate(blocks):
        # Later blocks use the names earlier ones defined.
        test = parser.get_doctest(block, globs, f"README.md python block {i}", str(README), 0)
        runner.run(test, out=report.append, clear_globs=False)
        globs = test.globs
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0
    assert failed == 0, "".join(report)
