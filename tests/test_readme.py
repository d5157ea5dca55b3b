"""The README's library quick start runs against the package as it is.

Its python blocks run in order in one namespace, as a reader pasting them
into one session would, and each gives the result its comments state.
"""

import math
import re
from pathlib import Path

import pytest

from lipcert.empirical import _CHUNK_BYTES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    names = {}

    def run(block):
        exec(compile(block, "README.md", "exec"), names)

    run(blocks[0])  # certificates
    assert math.isfinite(names["h"]) and names["h"] > 0
    assert names["mom"].l_grad_phi >= 0

    run(blocks[1])  # falsification, against the network certificate of the first block
    assert names["est"].max_ratio <= names["cert"].l_n

    run(blocks[2])  # controlled ODEs; rebinds cert to the growth certificate
    traj, cert, e = names["traj"], names["cert"], math.e
    assert traj.final_state == pytest.approx(math.exp(0.5), rel=1e-4)
    assert traj.final_first_variation == pytest.approx(math.exp(0.5), rel=1e-4)
    assert cert.b_x == pytest.approx(2 * e, rel=1e-12)
    assert cert.l_x == pytest.approx((1 + 2 * e) * e, rel=1e-12)
    assert names["finals"].shape == (101, 1)


def test_chunk_size_matches_the_sampler():
    sizes = re.findall(r"(\d+)\s+MiB", README.read_text(encoding="utf-8"))
    assert sizes and all(int(n) << 20 == _CHUNK_BYTES for n in sizes)
