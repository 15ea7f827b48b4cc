"""README's library example runs as written, and its usage block names every flag."""

import re
from pathlib import Path

from sepfem.cli import build_parser

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


def test_readme_usage_block_names_exactly_the_parsers_flags():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```\n(sepfem .*?)```", section, re.S).group(1)
    long_flag = r"--[a-z][a-z-]*"
    # argparse's usage line lists every option once; help shows as -h
    usage = build_parser().format_usage()
    assert sorted(set(re.findall(long_flag, block))) == sorted(set(re.findall(long_flag, usage)))
