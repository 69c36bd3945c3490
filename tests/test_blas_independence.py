"""Reports do not depend on the BLAS library or on how cells are batched.

``certificate._cells`` contracts each cell's nine node values with
``np.einsum`` (numpy's own loop), not with a BLAS matrix product, whose
rounding follows the kernel the host picks and the number of rows it is
given.  So a cell reads the same bytes alone, in any batch, and under any
BLAS kernel, and certify and verify write the same reports.

What these tests cannot cover:
- ``OPENBLAS_CORETYPE`` selects the kernel only where numpy's BLAS is a
  DYNAMIC_ARCH OpenBLAS, as numpy's wheels ship it.  Under any other BLAS
  the variable has no effect, and the subprocess test compares the default
  kernel with itself.
- numpy's own SIMD dispatch is not varied.  It picks the loops of einsum and
  of the ufuncs from the CPU's features, and some of those loops round
  differently: with the AVX-512 group disabled under numpy 2.4
  (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``), np.exp,
  np.log and np.power change their last bits, and so do 22 of the 36
  preset reports, ``solution.npy`` among them.  The byte contract holds
  between hosts of one SIMD level only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from dynbc.certificate import PsiSpec, _cells

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# smooth, kinked, oscillating and power-law gauges: the kinked one halves cells
GAUGES = ("1", "1+p^2", "(1+p^2)^1.5", "1+abs(p-6)", "2+sin(p)", "exp(p/50)")


def _integrand(text: str, stacked: bool):
    psi = PsiSpec.from_text(text)
    budget, width = psi.budget_integrand(), psi.width_integrand()
    return (lambda rho: np.stack([width(rho), budget(rho)])) if stacked else budget


def _bytes(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GAUGES), st.booleans(), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.integers(0, 700), st.integers(0, 700))
def test_a_cell_reads_the_same_bytes_alone_and_in_any_batch(text, stacked, n, seed, before,
                                                           after):
    fn = _integrand(text, stacked)
    rng = np.random.default_rng(seed)

    def cells(count: int):
        lo = 10.0 ** rng.uniform(-3.0, 3.0, count)
        return lo, lo * (1.0 + 10.0 ** rng.uniform(-6.0, 1.0, count))

    lo, hi = cells(n)
    (lo_a, hi_a), (lo_b, hi_b) = cells(before), cells(after)
    with np.errstate(all="ignore"):
        together = _cells(fn, lo, hi)
        alone = np.concatenate([_cells(fn, lo[i:i + 1], hi[i:i + 1]) for i in range(n)], axis=-1)
        embedded = _cells(fn, np.concatenate([lo_a, lo, lo_b]), np.concatenate([hi_a, hi, hi_b]))
    assert _bytes(together) == _bytes(alone)
    assert _bytes(embedded[..., before:before + n]) == _bytes(together)


CHILD = """
import json, sys
from pathlib import Path
from test_golden import run_chain
out = Path(sys.argv[1])
print(json.dumps({name: run_chain(name, out / name) for name in sys.argv[2:]}))
"""


def _chains(out: Path, coretype: str | None) -> dict:
    """Exit codes and report digests of certify, solve and verify on three
    presets, run in a fresh interpreter under the BLAS kernel ``coretype``
    (the default one when None)."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "DYNBC_TOL")}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", CHILD, str(out),
                          "manufactured", "burgers", "blowup_270"],
                         env=env, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_certify_and_verify_write_the_same_bytes_under_a_pre_fma_blas_kernel(tmp_path):
    default = _chains(tmp_path / "default", None)
    sandybridge = _chains(tmp_path / "sandybridge", "Sandybridge")
    assert sandybridge == default
    assert {report for got in default.values() for report, digest in got["sha256"].items()
            if digest is not None} >= {"certificate.json", "h_table.csv", "verification.json"}
