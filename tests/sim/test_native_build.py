"""The native kernel's C source builds warning-free.

``-Wextra`` flags an unused parameter, so a kernel argument left over
from a deleted input array fails this build instead of lingering in the
signature.  Skipped where no C compiler is found (the simulator then
runs the scalar engine; ``test_backend_equivalence.py`` covers that).
"""

import subprocess

import pytest

from repro.sim import _native


def test_kernel_source_compiles_with_warnings_as_errors(tmp_path):
    cc = _native._compiler()
    if cc is None:
        pytest.skip("no C compiler")
    source = tmp_path / "simkernel.c"
    source.write_text(_native._SOURCE)
    built = subprocess.run(
        [cc, "-Wall", "-Wextra", "-Werror", "-ffp-contract=off", "-fsyntax-only", str(source)],
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
