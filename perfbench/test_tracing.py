"""Self-tests of the benchmark's tracing: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import sys
import threading
import time
import types

import pytest

from workloads import PAPER_CFG, ROOT

sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from qamlink import cli, simulate  # noqa: E402


def _traced_simulate(tmp_path, monkeypatch, threads: int, bits: int):
    monkeypatch.setenv("QAMLINK_THREADS", str(threads))
    with tracing.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(PAPER_CFG), "--bits", str(bits),
                         "--seed", "3", "--out", str(tmp_path)]) == 0
    return tracing.layer_metrics(tracer.spans, tracer.counts, bits,
                                 simulate.worker_count)


def test_every_site_is_restored(tmp_path, monkeypatch):
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a in tracing.PATCH_SITES}
    _traced_simulate(tmp_path, monkeypatch, 2, 65_536)
    with pytest.raises(RuntimeError), tracing.Tracer():
        assert tracing.wrapped_sites() == [f"{m}.{a}" for m, a in tracing.PATCH_SITES]
        raise RuntimeError("operation failed mid-trace")
    assert tracing.wrapped_sites() == []
    for (m, a), original in originals.items():
        assert getattr(importlib.import_module(m), a) is original


def test_exact_counts_repeat_at_one_and_two_workers(tmp_path, monkeypatch):
    bits = 2 * 32_768 * 8 + 8_000  # two full blocks and a short one
    one = _traced_simulate(tmp_path, monkeypatch, 1, bits)
    two = _traced_simulate(tmp_path, monkeypatch, 2, bits)
    assert {k: one[k] for k in run.EXACT_COUNTS} == {k: two[k] for k in run.EXACT_COUNTS}

    # paper.cfg draws 7 complex noise vectors per block (3 TX stages, the
    # channel, 3 RX stages) over the block's symbols plus guards on each side
    sps = 8
    guard = math.ceil(simulate.gaussian_taps(0.5, sps).size // 2 / sps) + 1
    block_symbols = [32_768, 32_768, 1_000]
    samples = sum((n + 2 * guard) * sps for n in block_symbols)
    assert one["simulate.blocks"] == 3
    assert one["channel.normal_draws"] == 7 * 2 * samples
    assert one["modem.symbols"] == sum(n + 2 * guard for n in block_symbols)
    assert one["simulate.psd_samples"] == sum(block_symbols) * sps


def test_self_time_subtracts_only_same_thread_children(monkeypatch):
    fake = types.ModuleType("fakelayer")

    def inner():
        time.sleep(0.03)

    def outer(in_thread):
        time.sleep(0.02)
        if in_thread:
            worker = threading.Thread(target=fake.inner)
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()
        else:
            fake.inner()

    fake.inner, fake.outer = inner, outer
    inner.__module__ = outer.__module__ = "fakelayer"
    monkeypatch.setitem(sys.modules, "fakelayer", fake)
    with tracing.Tracer((("fakelayer", "inner"), ("fakelayer", "outer"))) as tracer:
        fake.outer(False)
        fake.outer(True)
    same, other = [s for s in tracer.spans if s.name == "fakelayer.outer"]
    nested = [s for s in tracer.spans if s.name == "fakelayer.inner"]
    assert [s.parent for s in nested] == ["fakelayer.outer", None]
    assert same.self_s == pytest.approx(same.duration - nested[0].duration)
    assert other.self_s == other.duration
    assert fake.inner is inner and fake.outer is outer


def test_covered_merges_overlapping_spans():
    spans = [tracing.Span("b", start, end, 0.0, None)
             for start, end in ((0.0, 2.0), (1.0, 3.0), (5.0, 6.0))]
    assert tracing._covered(spans) == 4.0

