"""Importing localtriplet sets numpy's OpenBLAS to one thread for the
process, so the image stage's pool is the one source of parallelism and a
run's bits do not depend on OPENBLAS_NUM_THREADS. Where numpy's BLAS has
no OpenBLAS thread setter, nothing is pinned and the pool keeps one
thread."""
import ctypes
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import localtriplet
from localtriplet import network

SRC = str(Path(localtriplet.__file__).resolve().parents[1])
MODULES = sorted(module.name for module in pkgutil.iter_modules(localtriplet.__path__))

# two epochs of a small conv net on 24 noisy 28x28 images of 3 classes:
# its epoch lines, a digest of its parameter bytes, and the pin's results
TRAIN = """
import hashlib, json
import numpy as np
from localtriplet import network
from localtriplet.data import Dataset
from localtriplet.network import EmbeddingNet, conv2d, dense, flatten, maxpool2
from localtriplet.training import TrainConfig, train

rng = np.random.default_rng(0)
labels = np.repeat(np.arange(3), 8)
samples = np.clip(rng.random((3, 784))[labels] + 0.2 * rng.standard_normal((24, 784)), 0, 1)
net = EmbeddingNet((28, 28, 1), [conv2d(8), maxpool2(), conv2d(16), maxpool2(), flatten(),
                                 dense(32)], seed=2)
config = TrainConfig(method="mm_hardmin", batch_size=8, e_max=2, convergence_eps=0.0,
                     lr=1e-3, seed=4)
net, reports, _ = train(net, config, Dataset(samples, labels, (28, 28, 1)))
print(json.dumps({"epochs": [r.to_json_line() for r in reports],
                  "params": hashlib.sha256(b"".join(p.tobytes() for p in net.params)).hexdigest(),
                  "blas_threads": network.BLAS_THREADS,
                  "stage_threads": network.STAGE_THREADS}))
"""

# the pin and the pool of a process whose numpy BLAS has no thread setter
NO_SETTER = """
import ctypes, json
import numpy
ctypes.CDLL = lambda *args, **kwargs: object()
from localtriplet import network
print(json.dumps([network.BLAS_THREADS, network.STAGE_THREADS]))
"""


# the thread count of numpy's OpenBLAS after a bare import of the package
BARE_IMPORT = """
import ctypes, json
import localtriplet
from numpy.linalg import _umath_linalg
get = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_num_threads64_
get.restype = ctypes.c_int
print(json.dumps(get()))
"""


def _python(code, **env):
    """The JSON that `code` prints, run in a new interpreter with env set."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, **env, "PYTHONPATH": path}, timeout=300)
    return json.loads(out.stdout)


@pytest.mark.skipif(network.BLAS_THREADS is None, reason="numpy's BLAS has no OpenBLAS thread setter")
def test_import_pins_openblas_to_one_thread_and_the_pool_to_the_cpus():
    from numpy.linalg import _umath_linalg
    get = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_num_threads64_
    get.restype = ctypes.c_int
    assert network.BLAS_THREADS == 1 and get() == 1
    assert network.STAGE_THREADS == network.CPUS


def test_without_the_setter_nothing_is_pinned_and_the_pool_is_one(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
    assert network._pin_blas() is None
    assert _python(NO_SETTER) == [None, 1]


@pytest.mark.skipif(network.BLAS_THREADS is None, reason="numpy's BLAS has no OpenBLAS thread setter")
def test_training_bits_do_not_depend_on_openblas_num_threads():
    one, two = (_python(TRAIN, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
                for threads in ("1", "2"))
    assert len(one["epochs"]) == 2
    assert (one["epochs"], one["params"]) == (two["epochs"], two["params"])
    for run in (one, two):
        assert run["blas_threads"] == 1 and run["stage_threads"] == network.CPUS


@pytest.mark.skipif(network.BLAS_THREADS is None, reason="numpy's BLAS has no OpenBLAS thread setter")
def test_bare_package_import_pins_openblas_to_one_thread():
    assert _python(BARE_IMPORT, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2") == 1


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # in a fresh interpreter each module starts its own import chain, so a
    # circular import among the modules fails here
    assert _python(f"import json, localtriplet.{module}; print(json.dumps(True))")
