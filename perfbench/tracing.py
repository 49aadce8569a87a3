"""Span tracing for the benchmark's traced run, kept outside the package.

A Tracer replaces the module-level qamlink functions that the CLI and the
simulation engine call through with span-recording wrappers. Each name is
patched in the module where it is looked up at call time, so a function
imported into two modules (``estimate_spectrum`` in ``qamlink.cli`` and
``qamlink.simulate``) is patched in both. Spans are recorded per thread; a
span's self time is its duration minus the spans it directly encloses on the
same thread. Generators handed out by ``noise_generator`` are wrapped in a
proxy that counts every real N(0,1) sample drawn. Leaving the ``with`` block
restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# (module, attribute) lookup sites. The attribute names the function that the
# module's own code calls, so patching it here intercepts every call.
PATCH_SITES = (
    ("qamlink.cli", "cmd_budget"),
    ("qamlink.cli", "cmd_simulate"),
    ("qamlink.cli", "cmd_ber_sweep"),
    ("qamlink.cli", "cmd_spectrum"),
    ("qamlink.cli", "load_config"),
    ("qamlink.cli", "analyze"),
    ("qamlink.cli", "run_link_sim"),
    ("qamlink.cli", "transmit_waveform"),
    ("qamlink.cli", "estimate_spectrum"),
    ("qamlink.simulate", "estimate_spectrum"),
    ("qamlink.simulate", "_simulate_block"),
    ("qamlink.simulate", "_tx_block"),
    ("qamlink.simulate", "pulse_shape"),
    ("qamlink.simulate", "map_bits"),
    ("qamlink.simulate", "demap_hard"),
    ("qamlink.simulate", "chain_transfer"),
    ("qamlink.simulate", "noise_generator"),
    ("qamlink.simulate", "complex_noise"),
    ("qamlink.rfchain", "amplifier_transfer"),
)

_CLI_COMMANDS = ("cli.cmd_budget", "cli.cmd_simulate", "cli.cmd_ber_sweep",
                 "cli.cmd_spectrum")
_RUNS = ("simulate.run_link_sim", "simulate.transmit_waveform")

_MARK = "_perfbench_traced"


@dataclass(frozen=True)
class Span:
    name: str            # "<module>.<function>", module without the package prefix
    start: float
    end: float
    self_s: float        # duration minus directly enclosed spans on this thread
    parent: str | None   # name of the enclosing span on this thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class _CountingGenerator:
    """Forwards to a numpy Generator, counting the real N(0,1) samples drawn."""

    def __init__(self, rng, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self._tracer.count("channel.normal_draws", np.size(out))
        return out

    # counted too, so that a switch to normal() cannot hide draws
    def normal(self, *args, **kwargs):
        out = self._rng.normal(*args, **kwargs)
        self._tracer.count("channel.normal_draws", np.size(out))
        return out

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def _count_generator(tracer, args, kwargs, result):
    return _CountingGenerator(result, tracer)


def _count_symbols(tracer, args, kwargs, result):
    tracer.count("modem.symbols", np.size(result))
    return result


def _count_psd_samples(tracer, args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    tracer.count("simulate.psd_samples", np.size(samples))
    return result


_HOOKS = {
    "channel.noise_generator": _count_generator,
    "modem.map_bits": _count_symbols,
    "simulate.estimate_spectrum": _count_psd_samples,
}


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('qamlink.')}.{fn.__name__}"


def wrapped_sites() -> list[str]:
    """Lookup sites that still hold a tracing wrapper."""
    return [f"{mod}.{attr}" for mod, attr in PATCH_SITES
            if getattr(getattr(importlib.import_module(mod), attr), _MARK, False)]


class Tracer:
    """Context manager that patches PATCH_SITES and collects spans and counts."""

    def __init__(self, sites=PATCH_SITES):
        self._sites = sites
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()

    def __enter__(self) -> "Tracer":
        try:
            for mod_name, attr in self._sites:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def count(self, key: str, n) -> None:
        with self._lock:
            self.counts[key] += int(n)

    def _wrap(self, fn):
        name = span_name(fn)
        hook = _HOOKS.get(name)
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                span = Span(name, start, end, end - start - frame[1], parent)
                with tracer._lock:
                    tracer.spans.append(span)
            return hook(tracer, args, kwargs, result) if hook else result

        setattr(traced, _MARK, True)
        return traced


def _covered(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    end = float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > end:
            total += s.end - max(s.start, end)
            end = s.end
    return total


def layer_metrics(spans: list[Span], counts: Counter, bits: int,
                  workers_for) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans and counts.

    ``bits`` is the number of bits the operation simulates;
    ``workers_for(n_blocks)`` is the pool size run_link_sim uses for a run of
    n_blocks blocks. A block is a ``_simulate_block`` call, or a ``_tx_block``
    call made outside one (the TX-only blocks of transmit_waveform).
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by[name])

    def self_total(name):
        return sum(s.self_s for s in by[name])

    blocks = by["simulate._simulate_block"] + [
        s for s in by["simulate._tx_block"] if s.parent != "simulate._simulate_block"]
    busy = sum(b.duration for b in blocks)
    serial = idle = 0.0
    for run in by[_RUNS[0]] + by[_RUNS[1]]:
        inside = [b for b in blocks if run.start <= b.start <= run.end]
        workers = workers_for(len(inside)) if run.name == _RUNS[0] else 1
        serial += run.duration - _covered(inside)
        idle += workers * run.duration - sum(b.duration for b in inside)

    chains = by["rfchain.chain_transfer"]
    draws = counts["channel.normal_draws"]
    return {
        "simulate.runs": len(by[_RUNS[0]]) + len(by[_RUNS[1]]),
        "simulate.blocks": len(blocks),
        "simulate.block_busy_s": busy,
        "simulate.block_self_s": self_total("simulate._simulate_block"),
        "simulate.bits_s": self_total("simulate._tx_block"),
        "simulate.pulse_shape_s": total("simulate.pulse_shape"),
        "simulate.welch_s": total("simulate.estimate_spectrum"),
        "simulate.psd_samples": counts["simulate.psd_samples"],
        "simulate.serial_s": serial,
        "simulate.pool_idle_s": idle,
        "rfchain.tx_chain_s": sum(s.duration for s in chains
                                  if s.parent == "simulate._tx_block"),
        "rfchain.rx_chain_s": sum(s.duration for s in chains
                                  if s.parent != "simulate._tx_block"),
        "rfchain.stage_noise_s": self_total("rfchain.chain_transfer"),
        "rfchain.amplifier_s": total("rfchain.amplifier_transfer"),
        "rfchain.amplifier_calls": len(by["rfchain.amplifier_transfer"]),
        "channel.awgn_s": total("channel.complex_noise") + total("channel.noise_generator"),
        "channel.generators": len(by["channel.noise_generator"]),
        "channel.normal_draws": draws,
        "channel.normal_draws_per_bit": draws / bits,
        "modem.map_s": total("modem.map_bits"),
        "modem.demap_s": total("modem.demap_hard"),
        "modem.symbols": counts["modem.symbols"],
        "linkbudget.analyze_s": total("linkbudget.analyze"),
        "config.load_s": total("config.load_config"),
        "cli.write_s": sum(self_total(name) for name in _CLI_COMMANDS),
    }
