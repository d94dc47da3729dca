"""Engine configuration: encoder knobs, match tolerances, binarization.

Config files are simple ``key=value`` lines ('#' starts a comment).  The
recognized keys, one per tolerance:

    delta_d, l_min, e_res, dot_max          encoder
    delta_l, delta_alpha, delta_a, delta_b,
    delta_phi, delta_beta, delta_gamma,
    delta_pt (accepted, unused)             matching
    threshold                               binarization
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .encoder import EncoderConfig
from .matcher import MatchTolerances

__all__ = ["EngineConfig", "load_config", "parse_config"]


@dataclass(frozen=True)
class EngineConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    tolerances: MatchTolerances = field(default_factory=MatchTolerances)
    threshold: int = 128


# config-file (and codebook-file) key -> MatchTolerances field
TOLERANCE_KEYS = {
    "delta_l": "dl",
    "delta_alpha": "dalpha",
    "delta_a": "da",
    "delta_b": "db",
    "delta_phi": "dphi",
    "delta_beta": "dbeta",
    "delta_gamma": "dgamma",
    "delta_pt": "dpt",
}
# key -> (EngineConfig section, field, type); all must be finite and > 0
_POSITIVE_KEYS = {
    "delta_d": ("encoder", "dd", float),
    "l_min": ("encoder", "l_min", float),
    "e_res": ("encoder", "e_res", float),
    "dot_max": ("encoder", "dot_max", int),
    **{key: ("tolerances", attr, float) for key, attr in TOLERANCE_KEYS.items()},
}


def parse_config(text: str) -> EngineConfig:
    cfg = EngineConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _POSITIVE_KEYS:
            section, attr, conv = _POSITIVE_KEYS[key]
            val = conv(value)
            if not 0 < val < math.inf:
                raise ValueError(f"line {lineno}: {key} must be finite and positive")
            part = replace(getattr(cfg, section), **{attr: val})
            cfg = replace(cfg, **{section: part})
        elif key == "threshold":
            val = int(value)
            if not 0 <= val <= 255:
                raise ValueError(f"line {lineno}: threshold must be in [0, 255]")
            cfg = replace(cfg, threshold=val)
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    return cfg


def load_config(path) -> EngineConfig:
    with open(path) as fh:
        return parse_config(fh.read())
