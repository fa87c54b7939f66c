"""One measured job in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/child.py MODE CONFIG OUT_DIR LAUNCHED [SPANS]

MODE is ``plain`` (one untraced sweep, then the fixed reference job of
:func:`_reference_s`), ``traced`` (one sweep with every
public layer wrapped by :mod:`tracer`), ``setup`` (import and config load,
then the reference job) or ``golden`` (the config at ``threads=1`` and at ``threads=2``, into
``OUT_DIR/t1`` and ``OUT_DIR/t2``).  LAUNCHED is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
runs from process start to the loaded config.  The package is imported
from ``src/`` of the checkout that holds this file, never from an
installed copy.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None."""
    import ctypes
    import glob
    import os

    import numpy

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _reference_s():
    """Seconds for a fixed NumPy job that never touches gossipgd.

    It runs after each sweep in the same process, so the two see the
    machine at nearly the same speed; ``sweep_s / ref_s`` cancels the drift
    of a shared host.  It mixes the kinds of work the workloads do: a loop
    of small array operations, an einsum contraction, a BLAS matrix product
    and freshly faulted memory.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    P = rng.random((16, 16))
    P /= P.sum(axis=1, keepdims=True)
    cov, xy, w = rng.random((16, 16)), rng.random((16, 16)), np.zeros((16, 16))
    xs, ws = rng.standard_normal((32, 64, 64)), rng.standard_normal((32, 64))
    A, B = rng.standard_normal((1024, 1024)), rng.standard_normal((1024, 64))
    start = time.perf_counter()
    for _ in range(20000):
        w = P @ (w - 0.05 * (cov * w - xy))
        float(np.dot(w[0], w[0]))
    for _ in range(1000):
        np.einsum("nmd,nd->nm", xs, ws)
    for _ in range(20):
        A @ B
    for _ in range(4):
        buf = np.zeros((8192, 1024))
        buf[:, ::512] = 1.0
        del buf
    return time.perf_counter() - start


def _environment():
    import platform

    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def main(argv):
    if len(argv) not in (4, 5):
        raise SystemExit(__doc__)
    mode, config, out_dir, launched = argv[:4]
    launched = float(launched)

    src = ROOT / "src"
    if not (src / "gossipgd" / "__init__.py").is_file():
        raise SystemExit(f"no gossipgd package under {src}")
    sys.path.insert(0, str(src))
    import gossipgd
    from gossipgd import experiment

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(gossipgd)

    cfg = experiment.load_config(config)
    setup_s = time.monotonic() - launched
    out = {"setup_s": setup_s}

    if mode == "setup":
        out["ref_s"] = _reference_s()
    elif mode == "golden":
        out["paths"] = [
            str(experiment.run_experiment(cfg, f"{out_dir}/t{threads}", threads=threads))
            for threads in (1, 2)
        ]
        out["env"] = _environment()
    elif mode in ("plain", "traced"):
        start = time.perf_counter()
        path = experiment.run_experiment(cfg, out_dir, threads=1)
        out["sweep_s"] = time.perf_counter() - start
        out["path"] = str(path)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if mode == "plain":
            out["ref_s"] = _reference_s()
        if tracer is not None:
            layers = tracer.metrics()
            attributed = sum(
                v for k, v in tracer.self_s.items() if k != "experiment.load_config"
            )
            layers["trace.sweep_s"] = out["sweep_s"]
            layers["trace.self_sum_frac"] = attributed / out["sweep_s"]
            out["layers"] = layers
            out["traced_layers"] = sorted(tracer.present)
            if len(argv) == 5:
                tracer.write(argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
