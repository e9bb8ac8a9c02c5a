"""Cold-start checks, each in a new interpreter.

``scipy.linalg`` and ``mpmath`` are imported only inside the three functions
that call them (``numeric.svd``'s ``gesvd`` retry, ``engine.riesz_projection``
and ``ranges._floor_power_of`` past denominator 64), so ``import lomlab`` and
the shipped corpus load neither.  The test process usually has both loaded
already, so these paths are run by ``subprocess`` from a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from lomlab.ranges import power_family

SRC = Path(__file__).resolve().parents[1] / "src"

LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))))
"""


def run_fresh(code):
    """Run ``code`` in a new interpreter with lomlab's sources first on the path.

    Returns its stdout lines, the last of which is the sorted list of loaded
    ``scipy`` and ``mpmath`` modules.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + LOADED], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_corpus_runs_without_scipy_or_mpmath():
    out, loaded = run_fresh("""
import lomlab, lomlab.cli
from lomlab.cli import corpus_paths, load_instance, run_instance
for path in corpus_paths():
    run_instance(load_instance(path))
print(len(corpus_paths()))
""")
    assert int(out[0]) >= 18
    assert loaded == []


def test_riesz_projection_imports_scipy_when_called():
    out, loaded = run_fresh("""
import numpy as np
from lomlab.engine import riesz_projection
proj, residual = riesz_projection(np.diag([2.0, 1.0]), [2.0])
print(np.allclose(proj, np.diag([1.0, 0.0]), atol=1e-12), residual < 1e-9)
""")
    assert out == ["True True"]
    assert "scipy.linalg" in loaded


def test_svd_retry_imports_scipy_when_called():
    out, loaded = run_fresh("""
import numpy as np
from lomlab.numeric import svd
real_svd, calls = np.linalg.svd, []

def flaky(*args, **kwargs):
    calls.append(1)
    if len(calls) == 1:
        raise np.linalg.LinAlgError("SVD did not converge")
    return real_svd(*args, **kwargs)

a = np.random.default_rng(3).standard_normal((3, 6))
np.linalg.svd = flaky
s = svd(a, compute_uv=False)
print(len(calls), np.allclose(s, real_svd(a, compute_uv=False), atol=1e-12))
""")
    assert out == ["1 True"]  # one failed gesdd call, then scipy's gesvd
    assert "scipy.linalg" in loaded


def test_power_family_imports_mpmath_when_called():
    out, loaded = run_fresh("""
from lomlab.ranges import power_family
print(list(power_family(2.2, 50).dims[1:]))
""")
    assert json.loads(out[0]) == list(power_family(2.2, 50).dims[1:])
    assert "mpmath" in loaded and not any(m.startswith("scipy") for m in loaded)


def test_planted_quaternion_classify_runs_without_scipy():
    # the M_8(H) on R^32 of bench_layers.py (condition 100, default_rng(0)) at one BLAS
    # thread, as bench_layers.py is run: its obstruction witness once took
    # numeric.svd's gesvd retry in a least squares over the algebra's basis
    out, loaded = run_fresh(f"""
import os, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, {str(SRC.parent / "tests")!r})
from bench_layers import conjugated_generators
from lomlab.classify import classify
from lomlab.engine import generate_algebra
alg = generate_algebra(conjugated_generators("Quaternion", 32), include_identity=True)
print(classify(alg).density_degree)
""")
    assert out == ["4"]
    assert loaded == []
