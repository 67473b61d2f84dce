"""The README's library example and CLI lines run as written."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from irlab.cli import main
from irlab.model import serialize_profile

from hard_instances import two_camps_with_bridge

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the first python block under "## Library example", run on the bridge
    # profile (unique IR committee {c1, c2}) written as profile.avp
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S).group(1)
    (tmp_path / "profile.avp").write_text(serialize_profile(two_camps_with_bridge()))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "[0, 1]\n"


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch):
    # every line of the sh block under "## CLI", in order, in one directory:
    # the first writes the profile the others read
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) == 9 and all(words[0] == "irlab" for words in lines)
    monkeypatch.chdir(tmp_path)
    for words in lines:
        result = CliRunner().invoke(main, words[1:])
        assert result.exit_code == 0, (words, result.output)
