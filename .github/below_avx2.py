"""Run pytest with NumPy's SIMD dispatch held at its build baseline, below AVX2 on x86-64.

    PYTHONPATH=src python .github/below_avx2.py -q tests/test_golden.py tests/test_radio.py

vehsim lets NumPy transcendentals only rank: every value that reaches an
output comes from ``math`` or from IEEE basic operations, so the pinned bytes
must not depend on the SIMD path NumPy dispatches to.  This script names each
dispatch target of the installed NumPy that the host supports in
``NPY_DISABLE_CPU_FEATURES`` (NumPy 2.4: X86_V3 X86_V4 AVX512_ICL AVX512_SPR;
older releases list AVX2, FMA3, AVX512F, ... one by one) and runs pytest in a
child process under it.  The child first asserts through ``__cpu_features__``
that every named feature reads False, so the run cannot pass with the
variable ignored or misspelt.
"""

import os
import subprocess
import sys


def _cpu() -> tuple[list[str], dict[str, bool]]:
    try:
        from numpy._core import _multiarray_umath as umath  # NumPy 2
    except ImportError:
        from numpy.core import _multiarray_umath as umath  # NumPy 1
    return umath.__cpu_dispatch__, umath.__cpu_features__


def main(args: list[str]) -> int:
    dispatch, features = _cpu()
    names = os.environ.get("NPY_DISABLE_CPU_FEATURES")
    if names is None:
        names = " ".join(name for name in dispatch if features.get(name))
        if not names:
            sys.exit(f"the host supports none of NumPy's dispatch targets {dispatch}: nothing to hold back")
        return subprocess.call([sys.executable, __file__, *args], env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=names))
    enabled = [name for name in names.split() if features.get(name, True)]
    if not names.split() or enabled:
        sys.exit(f"NPY_DISABLE_CPU_FEATURES={names!r} left {enabled} enabled")
    print(f"NumPy dispatch held back from: {names}", flush=True)
    import pytest

    return pytest.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
