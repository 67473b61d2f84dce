"""The README's library example runs as written."""

import re
from pathlib import Path

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
