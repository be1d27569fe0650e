"""Shared benchmark configuration.

Benchmarks run at a scaled-down default so the whole suite finishes in a
few minutes; set ``REPRO_FULL=1`` for the paper-scale parameters
(4..256 streams, SF 0.01, 100 SkyServer queries).  Every figure bench
writes its rendered output to ``benchmarks/results/figN.txt``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def full_scale() -> bool:
    return FULL


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print("\n" + text)
