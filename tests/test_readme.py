"""README's library example runs as written, on a smaller mesh budget."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert "max_elements=200_000" in code
    code = code.replace("max_elements=200_000", "max_elements=400")
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    rate, levels = lines[0].split()
    assert float(rate) > 0.0 and int(levels) >= 3
    assert lines[1].split()[0] in ("True", "False")
