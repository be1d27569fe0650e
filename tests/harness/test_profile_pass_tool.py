"""``tools/profile_pass.py`` keeps telling the truth.

Its STRING share is measured by wrapping ``types.array_nbytes`` (and
the other per-element kernels) *by module attribute*: if the engine
sized STRING columns through any other name the tool would go on
printing a smaller share without failing.  So run it, small, and look.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def test_tool_sees_string_sizing_and_prints_the_batch_floor():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile_pass.py"),
         "--workload", "ts_append", "--mode", "spec", "--size", "0.04",
         "--top", "3"],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [line.split() for line in done.stdout.splitlines()]
    values = {words[0]: float(words[1]) for words in lines
              if len(words) == 2 and words[0] in (
                  "string_share", "next_calls", "batches_built",
                  "batches_per_op")}
    assert 0.0 < values["string_share"] < 1.0
    # the dashboard's ``status`` / ``site`` columns were sized per
    # batch through the wrapped name
    sizing = [words for words in lines
              if words[:2] == ["string", "array_nbytes(STRING)"]]
    assert sizing and int(sizing[0][-2]) > 0
    assert values["next_calls"] > 0 and values["batches_built"] > 0
    assert values["batches_per_op"] > 0.0
