"""The README's library quick start runs and prints the errors its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_its_commented_errors(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    # each print line's comment gives its error to two decimals: "# ~0.14 : ..."
    claimed = re.findall(r"^print\(.*\)\s+# ~(\d\.\d\d) :", block, flags=re.M)
    assert len(claimed) == 2
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
    printed = capsys.readouterr().out.split()
    assert [f"{float(v):.2f}" for v in printed] == claimed
