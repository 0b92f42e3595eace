"""The README's examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs(capsys):
    # the blocks run in order in one namespace, as a reader would run them
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"{README.name}, python block {k}", "exec"), namespace)
    out = capsys.readouterr().out.splitlines()
    # the solved mechanism's revenue, then the one read back from JSON
    assert out[0].startswith("0.583333") and out[-1] == out[0]
