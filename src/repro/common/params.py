"""Configuration dataclasses and the paper's Table 6 presets.

Three core classes are modelled after the paper: Silvermont-class (SLM),
Nehalem-class (NHM) and Haswell-class (HSW).  The memory hierarchy and
network parameters are shared across classes (paper Table 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .types import CommitMode


@dataclass(frozen=True)
class CoreParams:
    """Sizing of one out-of-order core (paper Table 6, top block)."""

    name: str = "SLM"
    issue_width: int = 4
    commit_width: int = 4
    iq_entries: int = 16
    rob_entries: int = 32
    lq_entries: int = 10
    sq_entries: int = 16
    sb_entries: int = 16
    ldt_entries: int = 32
    #: Branch mispredict penalty (front-end refill), cycles.
    mispredict_penalty: int = 12

    def validate(self) -> None:
        for attr in (
            "issue_width",
            "commit_width",
            "iq_entries",
            "rob_entries",
            "lq_entries",
            "sq_entries",
            "sb_entries",
            "ldt_entries",
        ):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"CoreParams.{attr} must be positive")
        if self.lq_entries > self.rob_entries:
            raise ConfigError("LQ cannot be larger than the ROB")


@dataclass(frozen=True)
class CacheParams:
    """Private cache + shared LLC sizing (paper Table 6, middle block)."""

    line_bytes: int = 64
    # Private hierarchy: modelled as a two-level lookup (L1 + L2) with a
    # single coherence point (see DESIGN.md decision 2).
    l1_sets: int = 64  # 32KB, 8-way, 64B lines
    l1_ways: int = 8
    l1_hit_cycles: int = 4
    l2_sets: int = 256  # 128KB, 8-way
    l2_ways: int = 8
    l2_hit_cycles: int = 12
    # Shared LLC: 1MB per bank, 8-way.
    llc_sets_per_bank: int = 2048
    llc_ways: int = 8
    llc_hit_cycles: int = 35
    memory_cycles: int = 160
    mshr_entries: int = 16
    #: MSHRs reserved so an SoS load can always launch a read (paper §3.5.2).
    mshr_reserved_for_sos: int = 1
    #: Directory eviction buffer entries (paper §3.5.1 safe passage).
    dir_eviction_buffer: int = 8
    #: Evict shared lines silently (paper §3.8 baseline choice).
    silent_shared_evictions: bool = True
    #: Lease length (logical timestamp units) granted per shared read by
    #: the ``tardis`` backend; ignored by ``baseline``.
    tardis_lease: int = 10

    def validate(self) -> None:
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line_bytes must be a power of two")
        if self.tardis_lease <= 0:
            raise ConfigError("tardis_lease must be positive")
        if self.mshr_reserved_for_sos >= self.mshr_entries:
            raise ConfigError("SoS reservation must leave regular MSHRs")
        for attr in ("l1_sets", "l1_ways", "l2_sets", "l2_ways",
                     "llc_sets_per_bank", "llc_ways", "mshr_entries"):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"CacheParams.{attr} must be positive")

    # Frozen value object: a deep copy is the object itself (explorer
    # forks share it instead of copying it).
    def __deepcopy__(self, memo) -> "CacheParams":
        return self


@dataclass(frozen=True)
class NetworkParams:
    """2D mesh parameters (paper Table 6, bottom block)."""

    switch_cycles: int = 6  # switch-to-switch time
    #: When True, each link serializes one flit per cycle (adds queueing
    #: delay under load); when False the mesh is contention-free.
    model_contention: bool = True

    def validate(self) -> None:
        if self.switch_cycles <= 0:
            raise ConfigError("switch_cycles must be positive")

    # Frozen value object: a deep copy is the object itself.
    def __deepcopy__(self, memo) -> "NetworkParams":
        return self


@dataclass(frozen=True)
class SystemParams:
    """Full system: cores, memory, network, commit policy, protocol."""

    num_cores: int = 16
    core: CoreParams = field(default_factory=CoreParams)
    cache: CacheParams = field(default_factory=CacheParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    commit_mode: CommitMode = CommitMode.IN_ORDER
    #: Core model: "ooo" (the paper's evaluation vehicle),
    #: "inorder" (stall-on-use, loads serialize — the squash-incapable
    #: baseline of §1 option 3), or "inorder-ecl" (Early Commit of
    #: Loads, EV5-style; requires writers_block for TSO).
    core_type: str = "ooo"
    #: Enable the WritersBlock protocol extension at directory + cores.
    writers_block: bool = False
    #: Cycles without any commit before the watchdog declares deadlock.
    watchdog_cycles: int = 200_000
    #: Hard cap on simulated cycles (0 = unlimited).
    max_cycles: int = 0
    #: Record the execution for the TSO checker.
    record_execution: bool = True
    #: ABLATION ONLY: disable the §3.5.2 SoS-bypass rule (SoS loads stay
    #: piggybacked on blocked writes).  Demonstrates the MSHR deadlock
    #: of paper Figure 5.B — never enable outside tests/benchmarks.
    disable_sos_bypass: bool = False
    #: Coherence backend name (see ``repro.coherence.backend``).  Backend-
    #: specific constraints (e.g. tardis rejecting writers_block) are
    #: checked by ``CoherenceBackend.validate_params`` at system build
    #: time, keeping this module free of coherence imports.
    backend: str = "baseline"

    def validate(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("num_cores must be positive")
        # Any positive count folds onto a width x height mesh (square
        # counts keep the historical side x side layout); reject only
        # the degenerate chains a prime count > 4 would produce, since
        # an n x 1 "mesh" has none of the contention the model studies.
        width, height = mesh_dims(self.num_cores)
        if height == 1 and self.num_cores > 4:
            raise ConfigError(
                f"num_cores={self.num_cores} only factors as a "
                f"{width}x1 chain; pick a count with a 2D factorization"
            )
        if self.commit_mode is CommitMode.OOO_WB and not self.writers_block:
            raise ConfigError("OOO_WB commit requires writers_block=True")
        if self.core_type not in ("ooo", "inorder", "inorder-ecl"):
            raise ConfigError(f"unknown core_type {self.core_type!r}")
        if self.core_type == "inorder-ecl" and not self.writers_block:
            raise ConfigError(
                "inorder-ecl irrevocably binds reordered loads: it needs "
                "writers_block=True to preserve TSO"
            )
        self.core.validate()
        self.cache.validate()
        self.network.validate()

    def with_commit(self, mode: CommitMode) -> "SystemParams":
        """Return a copy configured for *mode* (enables WB when needed)."""
        return replace(self, commit_mode=mode,
                       writers_block=mode is CommitMode.OOO_WB or self.writers_block)


def system_params_from_dict(payload: dict) -> SystemParams:
    """Rebuild a :class:`SystemParams` from ``dataclasses.asdict`` output.

    Inverse of the serialization done by ``SimResult.to_dict`` (which
    stores ``commit_mode`` as its string value).  Unknown keys raise,
    so stale JSON surfaces loudly instead of silently dropping fields.
    """
    payload = dict(payload)
    mode = payload.pop("commit_mode")
    if not isinstance(mode, CommitMode):
        mode = CommitMode(mode)
    params = SystemParams(
        core=CoreParams(**payload.pop("core")),
        cache=CacheParams(**payload.pop("cache")),
        network=NetworkParams(**payload.pop("network")),
        commit_mode=mode,
        **payload,
    )
    params.validate()
    return params


def mesh_side(num_cores: int) -> int:
    """Side length of the square mesh that holds *num_cores* nodes.

    Historical helper from the square-only era; non-square counts are
    handled by :func:`mesh_dims`.
    """
    side = int(round(num_cores ** 0.5))
    return side


def mesh_dims(num_tiles: int) -> "tuple[int, int]":
    """Most nearly square ``(width, height)`` with ``width * height ==
    num_tiles`` and ``width >= height``.  Square counts return
    ``(side, side)``; primes degenerate to an ``(n, 1)`` chain."""
    if num_tiles <= 0:
        raise ConfigError(f"mesh requires a positive tile count, got {num_tiles}")
    height = 1
    for h in range(1, int(num_tiles ** 0.5) + 1):
        if num_tiles % h == 0:
            height = h
    return num_tiles // height, height


#: Paper Table 6 presets.  Issue/commit width 4 for all three classes.
SLM_CORE = CoreParams(name="SLM", iq_entries=16, rob_entries=32,
                      lq_entries=10, sq_entries=16, sb_entries=16)
NHM_CORE = CoreParams(name="NHM", iq_entries=32, rob_entries=128,
                      lq_entries=48, sq_entries=36, sb_entries=36)
HSW_CORE = CoreParams(name="HSW", iq_entries=60, rob_entries=192,
                      lq_entries=72, sq_entries=42, sb_entries=42)

CORE_CLASSES = {"SLM": SLM_CORE, "NHM": NHM_CORE, "HSW": HSW_CORE}


def table6_system(core_class: str = "SLM", *, num_cores: int = 16,
                  commit_mode: CommitMode = CommitMode.IN_ORDER,
                  writers_block: bool = False,
                  backend: str = "baseline") -> SystemParams:
    """Build a :class:`SystemParams` matching the paper's Table 6."""
    if core_class not in CORE_CLASSES:
        raise ConfigError(f"unknown core class {core_class!r}; "
                          f"choose from {sorted(CORE_CLASSES)}")
    params = SystemParams(
        num_cores=num_cores,
        core=CORE_CLASSES[core_class],
        commit_mode=commit_mode,
        writers_block=writers_block or commit_mode is CommitMode.OOO_WB,
        backend=backend,
    )
    params.validate()
    return params
