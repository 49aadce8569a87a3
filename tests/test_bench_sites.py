"""The benchmark's traced run patches qamlink functions where the program looks
them up (perfbench/tracing.py PATCH_SITES); a rename or deletion there would
only surface in a traced benchmark run, so check every site resolves here."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patch_site_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [f"{mod}.{attr}" for mod, attr in tracing.PATCH_SITES
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
