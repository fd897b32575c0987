"""The README's examples must run against the current API."""

import json
import re
import shlex
from pathlib import Path

from chebgap import envelope
from chebgap.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["g"] > 0.0
    assert namespace["p"].phi > 0.0
    assert namespace["r"].value > 1.0
    assert namespace["L"].value > 1.0


def test_stats_example_shows_the_counts(capsys):
    # the `--stats` example's command, run in-process, prints every counter
    # value that the README line below it shows; those are a fresh
    # process's, so the envelope's cache of c rows starts empty
    envelope._shared_c.cache_clear()
    text = README.read_text(encoding="utf-8")
    command, shown = re.search(r"^chebgap (\S.*--stats) > /dev/null\n# (\{.*\})$", text,
                               re.M).groups()
    assert main(shlex.split(command)) == 0
    counts = json.loads(capsys.readouterr().err)
    expected = {key: int(v) for key, v in re.findall(r'"([\w.]+)": (\d+)', shown)}
    assert len(expected) == 9
    assert {key: counts.get(key) for key in expected} == expected
