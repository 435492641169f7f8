"""Static and live verdicts agree on the paired corpus.

The flow verifier (static) and the sanitizer (live) decide signature fit
and deadlock through the same functions in ``repro.analyze.commgraph``,
so a program must get the same verdict from both, with the static code
mapped to its live twin and one finding per mismatched pairing.
"""

import os
import re

import pytest

from repro.analyze.flow import analyze_flow_file
from repro.sanitize.cli import run_program

HERE = os.path.dirname(__file__)
FLOW_FIXTURES = os.path.join(HERE, os.pardir, "analyze", "fixtures", "flow")
LIVE_FIXTURES = os.path.join(HERE, "fixtures")

#: Static code -> the code the sanitizer reports for the same verdict.
LIVE = {"RPD500": "RPD440", "RPD510": "RPD410", "RPD511": "RPD411"}

#: (flow fixture, sanitize fixture) carrying the same bug.
PAIRS = [("ring_deadlock.py", "ring_deadlock.py"),
         ("signature_mismatch.py", "signature_mismatch.py"),
         ("truncation.py", "recv_truncation.py")]

#: Overflows that also break a type rule: still one finding per pairing.
OVERFLOWS = {
    "untyped_overflow": ("""
import numpy as np

from repro.core import BYTE

NPROCS = 2


def main(comm):
    if comm.rank == 0:
        comm.send(np.arange(16, dtype=np.float64), dest=1, tag=4)
    else:
        raw = np.zeros(64, dtype=np.uint8)
        comm.recv(raw, source=0, tag=4, datatype=BYTE, count=64)
""", "RPD511"),
    "scalar_mismatch_overflow": ("""
import numpy as np

NPROCS = 2


def main(comm):
    if comm.rank == 0:
        comm.send(np.arange(16, dtype=np.float64), dest=1, tag=5)
    else:
        comm.recv(np.zeros(8, dtype=np.int32), source=0, tag=5)
""", "RPD510"),
}


def verdicts(static_path, live_path):
    static = analyze_flow_file(static_path).findings
    live = run_program(live_path, timeout=30).diagnostics
    return static, live


def cycle_ranks(text):
    """Rank numbers of the first wait-for cycle named in ``text``."""
    return re.findall(r"(?:cycle: |-> )rank (\d+)", text)


@pytest.mark.parametrize("static_name, live_name", PAIRS,
                         ids=[p[0] for p in PAIRS])
def test_fixture_pair_gets_one_verdict(static_name, live_name):
    static, live = verdicts(os.path.join(FLOW_FIXTURES, static_name),
                            os.path.join(LIVE_FIXTURES, live_name))
    assert static
    assert sorted(LIVE[d.code] for d in static) == \
        sorted(d.code for d in live)


def test_ring_cycle_names_the_same_ranks_in_the_same_order():
    static, live = verdicts(
        os.path.join(FLOW_FIXTURES, "ring_deadlock.py"),
        os.path.join(LIVE_FIXTURES, "ring_deadlock.py"))
    (rpd500,) = static
    (rpd440,) = live
    cycle_line = next(line for line in rpd440.message.splitlines()
                      if "wait-for cycle:" in line)
    assert cycle_ranks(rpd500.message) == cycle_ranks(cycle_line) \
        == ["0", "1", "2", "0"]


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_overflow_gets_exactly_one_finding_on_both_sides(name, tmp_path):
    source, code = OVERFLOWS[name]
    program = tmp_path / f"{name}.py"
    program.write_text(source)
    static, live = verdicts(str(program), str(program))
    assert [d.code for d in static] == [code]
    assert [d.code for d in live] == [LIVE[code]]
