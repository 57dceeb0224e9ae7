"""Import-surface contract of the numpy dependency.

``numpy>=1.24`` is a hard install dependency (pyproject.toml): the
vectorized engine tier imports it unconditionally, and there is no
numpy-free fallback path.
"""

from __future__ import annotations


def test_pyproject_pins_numpy_floor():
    from pathlib import Path

    text = Path(__file__).resolve().parent.parent.joinpath(
        "pyproject.toml"
    ).read_text(encoding="utf-8")
    assert 'numpy>=1.24' in text
