"""The benchmark's per-layer tracer still reaches the sparse-term kernel.

``perfbench/tracing.py`` finds the functions it times by name with
``getattr`` (``Poly.__mul__``, ``TensorPoly.__mul__``, ...).  Methods that
a class inherits from the kernel must still resolve and be counted, and
uninstalling the tracer must leave every name bound as before.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from bpcalc.grading import Context

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer, bp):
    """Every name the tracer may patch: class attributes of its specs and
    every function bound in a traced module."""
    out = {}
    for spec in tracer.specs:
        if isinstance(spec.owner, type):
            for attr in spec.attrs:
                out[(spec.owner, attr)] = getattr(spec.owner, attr)
    for module in vars(bp).values():
        for attr, value in vars(module).items():
            if callable(value):
                out[(module, attr)] = value
    return out


def test_tracer_counts_kernel_products_and_uninstalls_cleanly(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    bp = SimpleNamespace(
        **{m: importlib.import_module(f"bpcalc.{m}") for m in tracing.LAYERS}
    )
    tracer = tracing.Tracer(bp)
    before = _bindings(tracer, bp)
    tracer.install()
    try:
        ctx = Context(5)
        diagonal = bp.hopf.psi_t(ctx, 1)
        diagonal * diagonal
        ctx.v(1) * ctx.v(2)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["hopf.TensorPoly.mul.calls"][0] > 0
    assert metrics["grading.Poly.mul.calls"][0] > 0
    after = _bindings(tracer, bp)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
