"""Multi-version binary container (the compiler↔runtime hand-off).

Orion's compiler emits one *fat binary* holding every candidate kernel
version plus the tuning metadata (direction, candidate order, occupancy
of each version); the runtime loads it and performs the Fig. 9 dynamic
selection.  The serialised format is a JSON manifest followed by the
per-version ORAS binaries, so a multi-version binary written by one
process is fully usable by another.  Parsing it reads only that
framing; each version decodes its ORAS module when it is first read,
so code that needs only the bytes never pays for decoding.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

from repro.compiler.realize import KernelVersion
from repro.compiler.tuning import TuningPlan
from repro.isa.encoding import CodecError, encode_module
from repro.regalloc.allocator import AllocationOutcome
from repro.regalloc.strategy import DEFAULT_STRATEGY_ID, STRATEGIES

_MAGIC = b"ORMV"
_LENGTH = struct.Struct("<I")

_VERSION_HASH_PREFIX = b"orion-version-v1\x00"


def version_content_hash(version: KernelVersion) -> str:
    """SHA-256 content address of one kernel version.

    Covers the encoded module bytes plus the register/shared-memory
    envelope (two versions of identical code differ in timing only
    through those, via occupancy).  The label is deliberately *not*
    hashed: a re-labelled identical version measures identically, and
    the measurement cache should treat it so.

    A non-default allocation strategy *is* hashed: a spill-free kernel
    compiles to identical bytes under every strategy, and the tag keeps
    the measurements and tuning results recorded for one strategy's
    version from being served to another's.  The reference
    ``local-spill`` contributes nothing, keeping its hashes (and warm
    measurement caches) identical to pre-strategy builds.
    """
    payload = version.binary or encode_module(version.module)
    digest = hashlib.sha256()
    digest.update(_VERSION_HASH_PREFIX)
    digest.update(payload)
    digest.update(
        f"\x00{version.regs_per_thread}\x00{version.smem_per_block}".encode()
    )
    if version.strategy != "local-spill":
        digest.update(f"\x00strategy={version.strategy}".encode())
    return digest.hexdigest()


@dataclass
class MultiVersionBinary:
    """Everything the runtime needs to tune one kernel."""

    kernel_name: str
    arch_name: str
    block_size: int
    direction: str
    can_tune: bool
    versions: list[KernelVersion] = field(default_factory=list)
    failsafe: list[KernelVersion] = field(default_factory=list)

    @classmethod
    def from_plan(
        cls,
        plan: TuningPlan,
        arch_name: str,
        block_size: int,
    ) -> "MultiVersionBinary":
        return cls(
            kernel_name=plan.kernel_name,
            arch_name=arch_name,
            block_size=block_size,
            direction=plan.direction,
            can_tune=plan.can_tune,
            versions=list(plan.versions),
            failsafe=list(plan.failsafe),
        )

    @property
    def original(self) -> KernelVersion:
        return self.versions[0]

    def version_count(self) -> int:
        return len(self.versions) + len(self.failsafe)

    def strategies(self) -> tuple[str, ...]:
        """Distinct allocation-strategy ids across all versions, sorted."""
        return tuple(
            sorted({v.strategy for v in (*self.versions, *self.failsafe)})
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        manifest = {
            "kernel_name": self.kernel_name,
            "arch_name": self.arch_name,
            "block_size": self.block_size,
            "direction": self.direction,
            "can_tune": self.can_tune,
            "versions": [_version_meta(v) for v in self.versions],
            "failsafe": [_version_meta(v) for v in self.failsafe],
        }
        blob = json.dumps(manifest).encode("utf-8")
        parts = [_MAGIC, struct.pack("<I", len(blob)), blob]
        for version in list(self.versions) + list(self.failsafe):
            parts.append(struct.pack("<I", len(version.binary)))
            parts.append(version.binary)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MultiVersionBinary":
        """Parse the container: the manifest and each version's bytes.

        No module is decoded here.  A version decodes its own on the
        first read of :attr:`KernelVersion.module`, so whatever reads
        only the bytes (tuning keys, fingerprints, measurement-cache
        keys, :meth:`to_bytes`) decodes nothing;
        :meth:`decode_modules` decodes them all at once.

        Versions whose bytes and resource fields are equal (the padded
        variants :func:`~repro.compiler.realize.repad_version` made of
        one allocation) share one :class:`AllocationOutcome`, as they
        did when compiled: their module is decoded once, and the
        simulator's per-module trace cache serves them all.

        Raises :class:`~repro.isa.encoding.CodecError` when the framing
        is malformed: bad magic, a section running past the end, an
        empty version, bytes after the last version, or a manifest that
        is not JSON, lacks a field or names an unregistered allocation
        strategy.
        """
        if data[:4] != _MAGIC:
            raise CodecError("not a multi-version binary")
        cursor = 4

        def section() -> bytes:
            nonlocal cursor
            start = cursor + 4
            if start > len(data):
                raise CodecError("truncated multi-version binary")
            (size,) = _LENGTH.unpack_from(data, cursor)
            cursor = start + size
            if cursor > len(data):
                raise CodecError("truncated multi-version binary")
            return data[start:cursor]

        outcomes: dict[tuple, AllocationOutcome] = {}

        def read_versions(metas: list[dict]) -> list[KernelVersion]:
            return [
                _version_from_meta(
                    meta, section(), manifest["kernel_name"], outcomes
                )
                for meta in metas
            ]

        try:
            manifest = json.loads(section())
            binary = cls(
                kernel_name=manifest["kernel_name"],
                arch_name=manifest["arch_name"],
                block_size=manifest["block_size"],
                direction=manifest["direction"],
                can_tune=manifest["can_tune"],
                versions=read_versions(manifest["versions"]),
                failsafe=read_versions(manifest["failsafe"]),
            )
        except CodecError:
            raise
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CodecError(
                f"malformed manifest: {type(exc).__name__}: {exc}"
            ) from None
        if cursor != len(data):
            raise CodecError("trailing bytes after the last version")
        return binary

    def decode_modules(self) -> None:
        """Decode every version's module now (each at most once).

        Raises :class:`~repro.isa.encoding.CodecError` on the first
        version whose bytes do not decode.
        """
        for version in (*self.versions, *self.failsafe):
            version.module  # the first read decodes


def _version_meta(v: KernelVersion) -> dict:
    meta = {
        "label": v.label,
        "target_warps": v.target_warps,
        "achieved_warps": v.achieved_warps,
        "occupancy": v.occupancy,
        "regs_per_thread": v.regs_per_thread,
        "smem_per_block": v.smem_per_block,
        "smem_padding": v.smem_padding,
        "local_bytes_per_thread": v.outcome.local_bytes_per_thread,
        "spilled_variables": v.outcome.spilled_variables,
        "stack_moves": v.outcome.stack_moves,
    }
    # Only serialized when non-default: fat binaries produced under the
    # reference strategy stay byte-identical to pre-strategy builds.
    if v.strategy != "local-spill":
        meta["strategy"] = v.strategy
        meta["smem_spill_slots"] = v.outcome.smem_spill_slots
    return meta


def _version_from_meta(
    meta: dict,
    binary: bytes,
    kernel_name: str,
    outcomes: dict[tuple, AllocationOutcome],
) -> KernelVersion:
    """One parsed version; ``outcomes`` holds the outcomes already made,
    keyed by bytes and resource fields, for the versions to share."""
    if not binary:
        raise CodecError(f"version {meta['label']!r} has no bytes")
    strategy = meta.get("strategy", DEFAULT_STRATEGY_ID)
    if strategy not in STRATEGIES:
        raise CodecError(
            f"version {meta['label']!r}: unknown allocation strategy "
            f"{strategy!r}"
        )
    fields = {
        "registers_per_thread": meta["regs_per_thread"],
        "shared_bytes_per_block": meta["smem_per_block"] - meta["smem_padding"],
        "local_bytes_per_thread": meta["local_bytes_per_thread"],
        "spilled_variables": meta["spilled_variables"],
        "stack_moves": meta["stack_moves"],
        "strategy": strategy,
        "smem_spill_slots": meta.get("smem_spill_slots", 0),
    }
    key = (binary, *fields.values())
    outcome = outcomes.get(key)
    if outcome is None:
        outcome = outcomes[key] = AllocationOutcome(
            module=None,  # decoded on the first read of KernelVersion.module
            kernel_name=kernel_name,
            **fields,
        )
    return KernelVersion(
        label=meta["label"],
        target_warps=meta["target_warps"],
        achieved_warps=meta["achieved_warps"],
        occupancy=meta["occupancy"],
        regs_per_thread=meta["regs_per_thread"],
        smem_per_block=meta["smem_per_block"],
        smem_padding=meta["smem_padding"],
        outcome=outcome,
        binary=binary,
        strategy=strategy,
    )
