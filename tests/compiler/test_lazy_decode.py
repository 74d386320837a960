"""A fat binary decodes its versions' modules on demand.

``MultiVersionBinary.from_bytes`` parses only the container (manifest
plus length-framed version bytes) and rejects any framing it cannot
account for; each version decodes its ORAS module on the first read of
``KernelVersion.module``, exactly once even when threads race.
"""

import os
import sys
import threading
from dataclasses import replace

import pytest

from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.pipeline import CompileOptions, compile_binary, verify_binary
from repro.harness.experiments import compiled
from repro.isa.encoding import CodecError, encode_module
from repro.perf.cache import CompileCache
from repro.service.fingerprint import kernel_fingerprint
from tests.helpers import (
    corrupt_version,
    count_decodes,
    payloads,
    straight_line_kernel,
)


@pytest.fixture(scope="module")
def data():
    """cfd on GTX680: six versions, the largest benchmark kernel."""
    return compiled(BENCHMARKS["cfd"], GTX680, strategy="local-spill").to_bytes()


def _versions(binary):
    return [*binary.versions, *binary.failsafe]


class TestDecodeOnFirstRead:
    def test_from_bytes_decodes_nothing(self, data, monkeypatch):
        decodes = count_decodes(monkeypatch)
        binary = MultiVersionBinary.from_bytes(data)
        kernel_fingerprint(binary)
        assert binary.to_bytes() == data
        assert decodes == []
        assert all(v.outcome.module is None for v in _versions(binary))

    def test_first_read_decodes_once(self, data, monkeypatch):
        decodes = count_decodes(monkeypatch)
        version = MultiVersionBinary.from_bytes(data).versions[0]
        module = version.module
        assert version.module is module
        assert version.outcome.module is module
        assert [payload for _, payload in decodes] == [version.binary]

    def test_decode_modules_decodes_each_version_once(self, data, monkeypatch):
        decodes = count_decodes(monkeypatch)
        binary = MultiVersionBinary.from_bytes(data)
        binary.decode_modules()
        binary.decode_modules()
        assert len(decodes) == len(payloads(binary))

    def test_verify_gate_reads_undecoded_versions(self, data):
        verify_binary(MultiVersionBinary.from_bytes(data))

    def test_racing_first_reads_share_one_decode(self, data, monkeypatch):
        """More threads than cores, switching as often as possible."""
        decodes = count_decodes(monkeypatch)
        binary = MultiVersionBinary.from_bytes(data)
        versions = _versions(binary)
        workers = 2 * (os.cpu_count() or 1) + 2
        barrier = threading.Barrier(workers, timeout=30)
        seen: list[list | None] = [None] * workers

        def read(slot: int) -> None:
            barrier.wait()
            order = versions if slot % 2 else versions[::-1]
            modules = {id(v): v.module for v in order}
            seen[slot] = [modules[id(v)] for v in versions]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(slot,), daemon=True)
                for slot in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "a reader hung"
        finally:
            sys.setswitchinterval(interval)
        assert all(modules is not None for modules in seen)
        for index, version in enumerate(versions):
            assert all(modules[index] is version.module for modules in seen)
        assert len(decodes) == len(payloads(binary))


class TestStrictFraming:
    def test_trailing_garbage_rejected(self, data):
        with pytest.raises(CodecError, match="trailing"):
            MultiVersionBinary.from_bytes(data + b"trailing-garbage")

    def test_truncated_version_section_rejected(self, data):
        with pytest.raises(CodecError, match="truncated"):
            MultiVersionBinary.from_bytes(data[:-1])

    def test_every_prefix_rejected(self):
        binary = compile_binary(
            encode_module(straight_line_kernel()),
            "k",
            CompileOptions(arch=GTX680, block_size=32),
            use_cache=False,
        )
        data = binary.to_bytes()
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                MultiVersionBinary.from_bytes(data[:cut])

    def test_empty_version_rejected(self, data):
        binary = MultiVersionBinary.from_bytes(data)
        binary.failsafe[0].binary = b""
        with pytest.raises(CodecError, match="no bytes"):
            MultiVersionBinary.from_bytes(binary.to_bytes())

    @pytest.mark.parametrize(
        "manifest", [b"not json", b"[]", b'{"kernel_name": "k"}']
    )
    def test_malformed_manifest_rejected(self, manifest):
        data = b"ORMV" + len(manifest).to_bytes(4, "little") + manifest
        with pytest.raises(CodecError, match="manifest"):
            MultiVersionBinary.from_bytes(data)

    def test_corrupt_version_fails_only_when_decoded(self, data):
        label = MultiVersionBinary.from_bytes(data).failsafe[0].label
        binary = MultiVersionBinary.from_bytes(corrupt_version(data, label))
        binary.versions[0].module  # an intact version still decodes
        with pytest.raises(CodecError, match="magic"):
            binary.decode_modules()


class TestCompileCacheHits:
    def test_corrupt_version_in_cache_entry_is_a_miss(self, tmp_path):
        """A well-framed entry whose module does not decode recompiles."""
        data = encode_module(straight_line_kernel())
        options = CompileOptions(arch=GTX680, block_size=32)
        good = compile_binary(data, "k", options, cache=CompileCache(tmp_path))
        [entry] = tmp_path.rglob("*.ormv")
        entry.write_bytes(
            corrupt_version(entry.read_bytes(), good.versions[0].label)
        )
        again = compile_binary(data, "k", options, cache=CompileCache(tmp_path))
        assert again.to_bytes() == good.to_bytes()
        assert all(v.outcome.module is not None for v in _versions(again))


class TestSharedModules:
    """Versions with equal bytes and resource fields share one module."""

    def test_equal_payloads_share_one_module(self, data):
        binary = MultiVersionBinary.from_bytes(data)
        binary.decode_modules()
        versions = _versions(binary)
        assert len({id(v.module) for v in versions}) == len(payloads(binary)) == 4
        for a in versions:
            for b in versions:
                assert (a.module is b.module) == (a.binary == b.binary)
                assert (a.outcome is b.outcome) == (a.binary == b.binary)

    def test_equal_bytes_with_other_resources_do_not_share(self, data):
        binary = MultiVersionBinary.from_bytes(data)
        first, second = _twins(binary)
        second.outcome = replace(
            second.outcome, stack_moves=second.outcome.stack_moves + 1
        )
        again = MultiVersionBinary.from_bytes(binary.to_bytes())
        first, second = [_labelled(again, v.label) for v in (first, second)]
        assert first.binary == second.binary
        assert first.module is not second.module
        assert second.outcome.stack_moves == first.outcome.stack_moves + 1

    def test_corrupt_shared_payload_fails_every_sharer(self, data):
        first, second = _twins(MultiVersionBinary.from_bytes(data))
        raw = corrupt_version(corrupt_version(data, first.label), second.label)
        broken = MultiVersionBinary.from_bytes(raw)
        sharers = [_labelled(broken, v.label) for v in (first, second)]
        assert sharers[0].outcome is sharers[1].outcome
        for version in (*sharers, *sharers):  # a failed decode is not kept
            with pytest.raises(CodecError, match="magic"):
                version.module
            assert version.outcome.module is None
        intact = [
            v for v in _versions(broken)
            if v.label not in (first.label, second.label)
        ]
        assert intact and all(v.module is not None for v in intact)


def _twins(binary):
    """The first two versions with equal bytes."""
    versions = _versions(binary)
    return next(
        (a, b)
        for i, a in enumerate(versions)
        for b in versions[i + 1:]
        if a.binary == b.binary
    )


def _labelled(binary, label):
    [version] = [v for v in _versions(binary) if v.label == label]
    return version
