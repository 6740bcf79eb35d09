import json
import struct

import pytest

import moemerge as mm
from moemerge import merge_core


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion covered by this test"
    )


_CRITERIA_RESULTS: dict[int, dict] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    marker_info = getattr(report, "_criterion", None)
    if marker_info is None:
        return
    num, title = marker_info
    slot = _CRITERIA_RESULTS.setdefault(num, {"title": title, "passed": 0, "failed": 0})
    if report.passed:
        slot["passed"] += 1
    else:
        slot["failed"] += 1


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        report._criterion = (marker.args[0], marker.args[1])


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA_RESULTS):
        slot = _CRITERIA_RESULTS[num]
        status = "PASS" if slot["failed"] == 0 and slot["passed"] > 0 else "FAIL"
        terminalreporter.write_line(f"criterion {num:>2}: {status}  {slot['title']}")


# ---------------------------------------------------------------------------
# safetensors byte-building helpers for format tests


def build_safetensors(entries, metadata=None, pad_to_8=True, data_override=None):
    """Assemble raw safetensors bytes from (name, dtype_str, shape, data) tuples."""
    header: dict = {}
    if metadata is not None:
        header["__metadata__"] = metadata
    blob = b""
    for name, dtype_str, shape, data in entries:
        header[name] = {
            "dtype": dtype_str,
            "shape": list(shape),
            "data_offsets": [len(blob), len(blob) + len(data)],
        }
        blob += data
    payload = json.dumps(header, separators=(",", ":")).encode()
    if pad_to_8:
        payload += b" " * ((8 - (8 + len(payload)) % 8) % 8)
    if data_override is not None:
        blob = data_override
    return struct.pack("<Q", len(payload)) + payload + blob


def build_raw(header_obj, blob=b""):
    """Assemble bytes from an arbitrary header object (for malformed cases)."""
    payload = json.dumps(header_obj, separators=(",", ":")).encode()
    return struct.pack("<Q", len(payload)) + payload + blob


def read_values(index, name):
    """One tensor decoded to a flat float64 array."""
    return mm.decode(mm.read_tensor_raw(index, name), index.tensors[name].dtype)


def tree_bytes(root):
    """Every entry under ``root``: file bytes, or None for a directory."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


def hidden_siblings(out):
    """Hidden entries beside ``out``, such as a write's leftover stage."""
    return sorted(p.name for p in out.parent.iterdir() if p.name.startswith("."))


def fail_encode_after(monkeypatch, calls):
    """Make the merge pass raise OSError on its encode call number ``calls + 1``."""
    real, seen = merge_core.encode, []

    def encode(*args):
        seen.append(None)
        if len(seen) > calls:
            raise OSError("disk full")
        return real(*args)

    monkeypatch.setattr(merge_core, "encode", encode)


# ---------------------------------------------------------------------------
# shared fixture specs


TINY_SPEC = mm.FixtureSpec(
    layers=3,
    dense_layers=1,
    experts=2,
    shared_experts=1,
    vocab=64,
    hidden=16,
    intermediate=24,
    moe_intermediate=8,
    q_lora_rank=8,
    kv_lora_rank=8,
    attn_inner=16,
    seed=11,
    max_shard_bytes=24 * 1024,
)


@pytest.fixture(scope="session")
def tiny_pair(tmp_path_factory):
    """A small base checkpoint plus a variant with planted diffs."""
    root = tmp_path_factory.mktemp("tiny_pair")
    base_idx, manifest = mm.generate_base(TINY_SPEC, root / "base")
    perts = (
        mm.PerturbationSpec("routed_expert_mlp", "shift", 0.01),
        mm.PerturbationSpec("attention", "shift", 0.02),
    )
    var_idx, expected = mm.generate_variant(TINY_SPEC, perts, root / "variant")
    return {
        "root": root,
        "spec": TINY_SPEC,
        "base": base_idx,
        "variant": var_idx,
        "manifest": manifest,
        "expected": expected,
    }


@pytest.fixture()
def tiny_base(tmp_path):
    idx, manifest = mm.generate_base(TINY_SPEC, tmp_path / "base")
    return idx, manifest


@pytest.fixture(scope="session")
def tiny_trio(tiny_pair, tmp_path_factory):
    """tiny_pair's base and variant plus a second variant, for three-parent merges."""
    root = tmp_path_factory.mktemp("tiny_trio")
    perts = (
        mm.PerturbationSpec("shared_expert_mlp", "gaussian", 0.003),
        mm.PerturbationSpec("attention", "shift", 0.001),
    )
    var2, _ = mm.generate_variant(TINY_SPEC, perts, root / "variant2")
    return {"models": [tiny_pair["base"], tiny_pair["variant"], var2]}
