"""Fault machinery must be invisible when disabled.

The default fabric (no ``faults=``, no ``reliability=``) allocates no
injector, stamps no sequence numbers or CRCs, and must therefore leave
every figure/table output byte-identical to the pre-fault-injection
baselines pinned here (captured from the commit before ``repro.ucp.
faults`` existed).
"""

import hashlib
import json

import pytest

from repro.mpi import run

#: md5 of the canonical JSON rendering of fig1 (quick sizes).
FIG1_QUICK_MD5 = "10620e46975ea56cbfaaaf9c2bd30eba"
#: md5 of the formatted Table 1 text.
TABLE1_MD5 = "4c3867a1a5e7f0843ff5ddb41561efcb"
#: md5 of the same rendering of Figs. 2-10 (quick sizes where a figure has
#: them), recorded before the failure detector became a member of every
#: fabric: virtual time must not notice who watches the waits.
FIGURES_QUICK_MD5 = {
    "fig2": "a778f5d277a7b4dc6ddb5ee83fbabc33",
    "fig3": "af35c100a7df1cc7538b9b39839af2e9",
    "fig4": "3e8569ebd086f5cd8d630c3c1ca3cf9b",
    "fig5": "438abb10be7cabcdc8eabdc85785930a",
    "fig6": "2784c8ee85f37be56167404b53345af8",
    "fig7": "f803c9049d2d0cacd3bce10f52be460c",
    "fig8": "212b4da068f94468e69128034b85941f",
    "fig9": "40ce078f02f02746ac4a1ed8cc22eb73",
    "fig10": "e86067f31f794c683c2ed047134dd92a",
}


def _figure_md5(fs) -> str:
    doc = {"figure": fs.figure, "x": list(fs.x),
           "curves": {k: list(v) for k, v in fs.curves.items()}}
    return hashlib.md5(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_fig1_quick_byte_identical():
    from repro.bench import figures
    fs = figures.fig1_double_vec_latency(quick=True)
    assert _figure_md5(fs) == FIG1_QUICK_MD5


@pytest.mark.parametrize("name", FIGURES_QUICK_MD5)
def test_quick_figures_byte_identical(name):
    from repro.bench import figures
    fs = figures.fig10_ddtbench() if name == "fig10" \
        else figures.ALL_FIGURES[name](quick=True)
    assert _figure_md5(fs) == FIGURES_QUICK_MD5[name]


def test_table1_byte_identical():
    from repro.ddtbench.table import format_table1
    assert hashlib.md5(format_table1().encode()).hexdigest() == TABLE1_MD5


def test_default_run_has_no_fault_machinery():
    def fn(comm):
        import numpy as np
        if comm.rank == 0:
            comm.send(np.arange(16, dtype=np.int32), dest=1)
        else:
            comm.recv(np.zeros(16, np.int32), source=0)

    res = run(fn, nprocs=2)
    assert res.fabric.injector is None
    # No seq/CRC stamping on the wire without faults configured.
    assert res.reliability == [] and res.fault_trace == {}
