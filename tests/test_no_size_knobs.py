"""Broadcast-or-join decisions have one cutover,
``stages/candidates.BROADCAST_MAX_ROWS`` / ``BROADCAST_MAX_BYTES``:
no public pipeline function may grow its own size knob again."""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import pkgutil

import clonehunter_ray.pipelines as pipelines

KNOB_PATTERNS = ("*broadcast_limit", "vocab_limit")


def test_no_pipeline_function_takes_a_size_knob():
    found = []
    for mod_info in pkgutil.iter_modules(pipelines.__path__):
        mod = importlib.import_module(f"{pipelines.__name__}.{mod_info.name}")
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != mod.__name__:
                continue
            for param in inspect.signature(fn).parameters:
                if any(fnmatch.fnmatch(param, p) for p in KNOB_PATTERNS):
                    found.append(f"{mod.__name__}.{name}({param})")
    assert not found, found
