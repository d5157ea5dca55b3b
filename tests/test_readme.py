"""The README's library quick start runs against the package as it is."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    first = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    names = {}
    exec(compile(first, "README.md", "exec"), names)
    assert math.isfinite(names["h"]) and names["h"] > 0
    assert names["mom"].l_grad_phi >= 0
