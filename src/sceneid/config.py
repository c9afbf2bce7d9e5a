"""Pipeline configuration with paper-default hyperparameters.

Configs round-trip through a plain `key = value` text format (one pair per
line, `#` comments); the pipeline reads and writes the files. The snapshot
writer is canonical: every field in declaration order, so identical configs
serialize to identical bytes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .audio import FrameConfig
from .errors import SceneidError
from .features import FeatureConfig, SdcConfig
from .noisefloor import SppParams


class ConfigError(SceneidError):
    pass


@dataclass
class PipelineConfig:
    # Each front-end default is read from the dataclass that owns it.
    sample_rate: int = FeatureConfig.sample_rate
    frame_ms: float = FrameConfig.frame_len_ms
    overlap: float = FrameConfig.overlap_fraction
    window: str = FrameConfig.window
    n_mels: int = FeatureConfig.n_mels
    n_ceps: int = FeatureConfig.n_ceps
    fmin_hz: float = FeatureConfig.fmin_hz
    fmax_hz: float | None = FeatureConfig.fmax_hz  # None = Nyquist
    sdc_m: int = SdcConfig.m
    sdc_k: int = SdcConfig.k
    sdc_n: int = SdcConfig.n
    sdc_p: int = SdcConfig.p
    use_sdc: bool = True
    noise_floor: bool = False
    spp_xi_h1_db: float = SppParams.xi_h1_db
    spp_prior_h1: float = SppParams.prior_h1
    spp_smooth: float = SppParams.spp_smooth
    psd_smooth: float = SppParams.psd_smooth
    spp_clamp: float = SppParams.spp_clamp
    psd_floor: float = SppParams.psd_floor
    nf_init_frames: int = SppParams.init_frames
    ubm_components: int = 256
    ubm_iters: int = 25
    kmeans_iters: int = 10
    tv_rank: int = 150
    tv_iters: int = 5
    alpha: float = 0.7
    seed: int = 12345

    def to_feature_config(self) -> FeatureConfig:
        sdc = SdcConfig(self.sdc_m, self.sdc_k, self.sdc_n, self.sdc_p)  # checked even if unused
        return FeatureConfig(
            sample_rate=self.sample_rate,
            frame=FrameConfig(self.frame_ms, self.overlap, self.window),
            n_mels=self.n_mels,
            n_ceps=self.n_ceps,
            fmin_hz=self.fmin_hz,
            fmax_hz=self.fmax_hz,
            sdc=sdc if self.use_sdc else None,
            noise_floor=self.to_spp_params() if self.noise_floor else None,
        )

    def to_spp_params(self) -> SppParams:
        return SppParams(
            xi_h1_db=self.spp_xi_h1_db,
            prior_h1=self.spp_prior_h1,
            spp_smooth=self.spp_smooth,
            psd_smooth=self.psd_smooth,
            spp_clamp=self.spp_clamp,
            psd_floor=self.psd_floor,
            init_frames=self.nf_init_frames,
        )

    def snapshot_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    def apply_overrides(self, pairs) -> "PipelineConfig":
        """Return a copy with `key=value` strings applied."""
        cfg = dataclasses.replace(self)
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} is not of the form key=value")
            key, value = pair.split("=", 1)
            _set_field(cfg, key.strip(), value.strip())
        return cfg._validated()

    @classmethod
    def from_bytes(cls, raw) -> "PipelineConfig":
        """Parse the `key = value` UTF-8 text of a config file (any bytes-like
        object)."""
        cfg = cls()
        for lineno, line in enumerate(str(raw, "utf-8").splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            try:
                _set_field(cfg, key.strip(), value.strip())
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        return cfg._validated()

    def _validated(self) -> "PipelineConfig":
        """Check model sizes, counts and the seed, and build the feature and
        tracker configs once, so a value they reject fails here as a
        ConfigError, before any audio is read."""
        for key in ("ubm_components", "tv_rank"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        for key in ("ubm_iters", "kmeans_iters", "tv_iters", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must not be negative, got {getattr(self, key)}")
        if self.seed > 2**64 - 1:  # `ubm.gmm` stores it as a u64
            raise ConfigError(f"seed must be at most 2**64 - 1, got {self.seed}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        try:
            self.to_feature_config()
            self.to_spp_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def finite_sbr(text) -> float:
    """An SBR in dB; also the argparse type of `mix --sbr`. `-0` reads as 0,
    so it shares the condition tag of `0`."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"SBR must be finite, got {text}")
    return value + 0.0


def parse_sbr_token(token: str):
    token = token.strip().lower()
    if token in ("clean", "nospeech", "no-speech"):
        return None
    try:
        return finite_sbr(token)
    except ValueError as exc:
        raise ConfigError(f"bad SBR token {token!r} (finite number or 'clean')") from exc


def _set_field(cfg: PipelineConfig, key: str, raw: str) -> None:
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    default = _FIELDS[key].default
    try:
        if key == "fmax_hz":
            value = None if raw.lower() in ("none", "nyquist") else float(raw)
        elif isinstance(default, bool):
            if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(raw)
            value = raw.lower() in ("true", "1", "yes")
        elif isinstance(default, int):
            value = int(raw)
        elif isinstance(default, float):
            value = float(raw)
        else:
            value = raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} for key {key!r}") from exc
    setattr(cfg, key, value)
