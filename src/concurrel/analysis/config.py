"""Analysis configurations and the four named presets."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations


class ConfigError(ValueError):
    """An analysis configuration that cannot run: conflicting or unknown settings."""


# The values of ``AnalysisConfig``'s named fields; the CLI offers these choices.
DOMAINS = ("octagon", "eqconst", "interval")
MODES = ("base", "tids", "clusters")
PROTECTIONS = ("declared", "inferred")


@dataclass(frozen=True)
class ClusterConfig:
    mode: str = "monolithic"  # 'monolithic' | 'le_k' | 'all'
    k: int = 2

    def __post_init__(self):
        if self.mode not in ("monolithic", "le_k", "all"):
            raise ConfigError(f"unknown cluster mode {self.mode!r}")
        if self.k < 1:
            raise ConfigError(f"the cluster size must be >= 1, not {self.k}")

    def clusters_for(self, mutex: str, protected: frozenset[str]) -> tuple[frozenset[str], ...]:
        """The cluster family 𝒬_a for a mutex protecting ``protected``.

        At least one cluster is always returned (the empty cluster when the
        mutex protects nothing)."""
        if not protected:
            return (frozenset(),)
        names = sorted(protected)
        if self.mode == "monolithic":
            return (frozenset(names),)
        largest = min(self.k, len(names)) if self.mode == "le_k" else len(names)
        return tuple(frozenset(q) for size in range(1, largest + 1)
                     for q in combinations(names, size))


@dataclass(frozen=True)
class AnalysisConfig:
    domain: str = "octagon"  # one of DOMAINS
    mode: str = "base"  # one of MODES
    clusters: ClusterConfig = field(default_factory=ClusterConfig)
    lock_once: bool = False  # extra lock-once digest (base mode only)
    exclude_ancestor_writes: bool = False  # ancestor-write acc + uncollapsed keys
    protections: str = "declared"  # one of PROTECTIONS

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.protections not in PROTECTIONS:
            raise ConfigError(f"unknown protections {self.protections!r}")
        if self.lock_once and self.mode != "base":
            raise ConfigError("the lock-once digest is only supported in base mode")
        if self.exclude_ancestor_writes and self.mode == "base":
            raise ConfigError("--exclude-ancestor-writes needs thread ids (tids/clusters)")


PRESETS = {
    "interval": AnalysisConfig(domain="interval", mode="base"),
    "octagon": AnalysisConfig(domain="octagon", mode="base"),
    "tids": AnalysisConfig(domain="octagon", mode="tids"),
    "clusters": AnalysisConfig(domain="octagon", mode="clusters",
                               clusters=ClusterConfig(mode="le_k", k=2)),
}


def preset(name: str, **overrides) -> AnalysisConfig:
    return replace(PRESETS[name], **overrides)
