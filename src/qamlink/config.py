"""Flat ``key = value`` run-configuration files.

Unknown keys, malformed lines, and bad or non-finite values all raise
ConfigError with the offending file and line number. A parsed file is then
checked against every rule of the scenario, channel, chains and simulation
config, so a file either loads completely or not at all, for every command.
Missing keys fall back to the reference design shipped in ``paper.cfg``,
which sets every key (1 Gbps, 256-QAM, 5 GHz, 23.31 dBm). The two
published-figure overrides take ``none`` to select the derived value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from .channel import ChannelSpec
from .linkbudget import LinkScenario
from .rfchain import ChainSpec, StageSpec
from .simulate import SimConfig


class ConfigError(ValueError):
    """Unparsable or inconsistent run configuration."""


def default_tx_stages() -> list[StageSpec]:
    """Transmit chain of the reference design (baseband side first)."""
    return [
        # quadrature modulator; NF derived from its -160 dBm/Hz output floor
        StageSpec("ADL5375 modulator", gain_db=0.0, nf_db=14.2),
        StageSpec.passive("TX bandpass filter", loss_db=3.0),
        # power amplifier; datasheet is silent on NF, 5 dB is typical
        StageSpec("SE5003L1 PA", gain_db=32.0, nf_db=5.0, p1db_out_dbm=32.0),
    ]


def default_rx_stages() -> list[StageSpec]:
    """Receive chain of the reference design (antenna side first)."""
    return [
        StageSpec.passive("RX bandpass filter", loss_db=3.0),
        StageSpec("SKY65981 LNA", gain_db=13.0, nf_db=1.5, p1db_out_dbm=0.0),
        StageSpec("ADL5380 demodulator", gain_db=7.0, nf_db=10.9),
    ]


@dataclass(slots=True)
class RunConfig:
    """Union of scenario, chain, simulation, and output settings."""

    source: str = "<defaults>"
    bit_rate_bps: float = 1e9
    modulation_order: int = 256
    target_ber: float = 1e-5
    ebn0_override_db: float | None = 23.39
    rx_nf_override_db: float | None = 6.24
    tx_power_dbm: float = 23.31
    frequency_hz: float = 5e9
    distance_m: float = 1.79
    tx_antenna_gain_db: float = 0.0
    rx_antenna_gain_db: float = 0.0
    tx_stages: list[StageSpec] = field(default_factory=default_tx_stages)
    rx_stages: list[StageSpec] = field(default_factory=default_rx_stages)
    samples_per_symbol: int = 8
    pulse_shape: str = "gaussian"
    gaussian_bt: float = 0.5
    n_bits: int = 1_000_000
    seed: int = 1
    evm_threshold_pct: float = 2.0
    output_dir: str = "."

    def scenario(self) -> LinkScenario:
        try:
            return LinkScenario(
                bit_rate_bps=self.bit_rate_bps,
                modulation_order=self.modulation_order,
                target_ber=self.target_ber,
                tx_power_dbm=self.tx_power_dbm,
                channel=ChannelSpec(self.frequency_hz, self.distance_m,
                                    self.tx_antenna_gain_db, self.rx_antenna_gain_db),
                rx_chain=ChainSpec(tuple(self.rx_stages)),
                ebn0_override_db=self.ebn0_override_db,
                rx_nf_override_db=self.rx_nf_override_db,
            )
        except ValueError as exc:
            raise ConfigError(f"{self.source}: {exc}") from exc

    def sim_config(self, *, n_bits: int | None = None, seed: int | None = None,
                   calibration_ebn0_db: float | None = None,
                   noise_enabled: bool = True,
                   pa_linear: bool = False) -> SimConfig:
        scenario = self.scenario()  # raises ConfigError with its own source prefix
        try:
            return SimConfig(
                scenario=scenario,
                tx_chain=ChainSpec(tuple(self.tx_stages)),
                n_bits=self.n_bits if n_bits is None else n_bits,
                seed=self.seed if seed is None else seed,
                samples_per_symbol=self.samples_per_symbol,
                pulse_shape=self.pulse_shape,
                gaussian_bt=self.gaussian_bt,
                noise_enabled=noise_enabled,
                pa_linear=pa_linear,
                calibration_ebn0_db=calibration_ebn0_db,
                evm_threshold_pct=self.evm_threshold_pct,
            )
        except ValueError as exc:
            raise ConfigError(f"{self.source}: {exc}") from exc


_CHAIN_KEY = re.compile(r"^(tx|rx)_chain\.(\d+)\.(\w+)$")
_STAGE_FIELDS = tuple(f.name for f in fields(StageSpec))


def _parse_float(raw: str, where: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {key} must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, where: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        pass
    value = _parse_float(raw, where, key)
    if not value.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {raw!r}")
    return int(value)


def _parse_optional_float(raw: str, where: str, key: str) -> float | None:
    return None if raw == "none" else _parse_float(raw, where, key)


# every RunConfig field but the source and the stage lists is a key; its
# annotation picks the parser
_PARSERS = {"float": _parse_float, "float | None": _parse_optional_float,
            "int": _parse_int, "str": lambda raw, where, key: raw}
_KEYS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)
         if f.name not in ("source", "tx_stages", "rx_stages")}


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        if key in entries:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} "
                f"(first set on line {entries[key][1]})")
        entries[key] = (value, lineno)

    cfg = RunConfig(source=source)
    chain_fields: dict[str, dict[int, dict]] = {"tx": {}, "rx": {}}
    for key, (value, lineno) in entries.items():
        where = f"{source}:{lineno}"
        m = _CHAIN_KEY.match(key)
        if m:
            side, index, fieldname = m.group(1), int(m.group(2)), m.group(3)
            if fieldname not in _STAGE_FIELDS:
                raise ConfigError(
                    f"{where}: unknown stage field {fieldname!r}; "
                    f"expected one of {_STAGE_FIELDS}")
            chain_fields[side].setdefault(index, {})[fieldname] = (
                value if fieldname == "name" else _parse_float(value, where, key))
        elif key in _KEYS:
            setattr(cfg, key, _KEYS[key](value, where, key))
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")

    for side, per_index in chain_fields.items():
        if not per_index:
            continue  # keep the default chain
        stages = []
        for index in sorted(per_index):
            given = per_index[index]
            for required in ("gain_db", "nf_db"):
                if required not in given:
                    raise ConfigError(
                        f"{source}: {side}_chain.{index} is missing {required}")
            given.setdefault("name", f"{side}_stage_{index}")
            try:
                stages.append(StageSpec(**given))
                ChainSpec(tuple(stages))  # the chain's rules, up to this stage
            except ValueError as exc:
                raise ConfigError(f"{source}: {side}_chain.{index}: {exc}") from exc
        setattr(cfg, f"{side}_stages", stages)
    cfg.sim_config()  # every scenario, channel and simulation rule, checked once here
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc
    return parse_config_text(text, source=path)
