"""Every demo prints the same bytes: the sha256 of its stdout, run in-process."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_channel_simulation.py": "3c1b89f2bcb32388b020868d541c28ca3d3d8582d3e1c14249b771c8cc88f531",
    "02_adaptive_quantization.py": "820d4293ecce1fb865cd1d7a8302b7781c9629936e67b8f1b30ff296c93a1759",
    "03_consistency_validation.py": "18aec5663c8855e7495b06ae29f03c69e27f59d9a5a4c0b2ef63698fa2ab3ffd",
    "04_weighted_recombination.py": "f74b070972c1bfb23daf1847ac21dcd7910c608fa79ee4fc00065d7962fcc54c",
    "05_overhead_comparison.py": "027765e8159f437f8e9f9666a579d91aa74c5f4dab6e0a6ad20c68c873816614",
    "06_key_randomness.py": "9cf8c94ee70eebfb9cac7f47882e657b90282a4bf15bc458ada4a54bcb5eed19",
    "07_eavesdropper_and_attack.py": "98e789f6827ee4cc12392c8de88833c9736ca1ba05b14100d47a994acb606f4c",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[name]
