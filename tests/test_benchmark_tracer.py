"""The benchmark's tracer patches names of the program by attribute: each
one it wraps must exist, and uninstalling must put every original back."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_attribute():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()  # AttributeError if a patched name is gone
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
        assert not hasattr(original, "__wrapped__"), (owner, attr)
