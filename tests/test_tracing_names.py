"""Every name the benchmark's tracer wraps keeps its name.

`bench/tracing.py` records spans by rebinding module attributes of the
package from outside, so a rename inside `src/` silently drops a benchmark
metric.  The tracer is loaded here by path and only read and exercised; no
file under `bench/` is changed.
"""

import importlib.util
import sys
from pathlib import Path

import cspgap
import cspgap.cli  # noqa: F401  (the tracer wraps cli.main)
from cspgap import rationals, search, witnesses

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("cspgap_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    """Every attribute of every loaded cspgap module, plus the kernel scorer's method."""
    bindings = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "cspgap" or name.startswith("cspgap."))
        for attr, value in vars(module).items()
    }
    bindings[("witnesses._KernelScorer", "score")] = vars(witnesses._KernelScorer)["score"]
    return bindings


def test_every_spanned_and_patched_name_resolves():
    tracing = load_tracing()
    for module, func in tracing.SPANNED:
        assert callable(getattr(getattr(cspgap, module), func)), f"{module}.{func}"
    assert callable(search.enumerate_instances)
    assert callable(witnesses._KernelScorer.score)
    assert hasattr(rationals, "RAT")


def test_install_then_restore_leaves_every_binding_identical():
    tracing = load_tracing()
    before = package_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cspgap.lp.solve is not before[("cspgap.lp", "solve")]
    finally:
        tracer.restore()
    after = package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
