"""The benchmark's tracer (perfbench/tracing.py) wraps nlscrit functions by
module and name.  A rename it does not follow shows only in a traced
benchmark run, so this suite loads the tracer, read-only, and checks that
every traced name resolves."""

import importlib
import pathlib
import types

import nlscrit  # noqa: F401

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # compiled from its source, so no bytecode is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracing = _tracing()
    originals = {}
    for mod, fn in tracing.TRACED:
        value = getattr(importlib.import_module(f"nlscrit.{mod}"), fn, None)
        assert callable(value), f"nlscrit.{mod}.{fn} is not a callable"
        originals[mod, fn] = value
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, fn), original in originals.items():
            wrapper = getattr(importlib.import_module(f"nlscrit.{mod}"), fn)
            assert wrapper is not original and wrapper.__wrapped__ is original, f"{mod}.{fn}"
    finally:
        tracer.uninstall()
    for (mod, fn), original in originals.items():
        assert getattr(importlib.import_module(f"nlscrit.{mod}"), fn) is original
