"""Peak memory of a diff and of fixture generation does not grow with tensor size.

Each step runs in a fresh interpreter, which reads its own ``VmHWM`` (the
peak resident set) from ``/proc/self/status`` before and after the step.
``ru_maxrss`` would not do: a child forked from pytest starts with
pytest's own high-water mark.
"""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moemerge as mm

SRC = str(Path(mm.__file__).resolve().parent.parent)
MiB = 1 << 20
TENSOR_BYTES = 64 * MiB

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)

# Prints the VmHWM rise in bytes of each step, as one JSON list.
STEPS = """
import json, sys
import moemerge as mm
from moemerge import fixtures, merge_core, tensor_math  # loaded before the first reading

def hwm():
    with open("/proc/self/status") as f:
        line = next(line for line in f if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024

parents = [mm.open_checkpoint(p) for p in sys.argv[1:3]]
spec = mm.FixtureSpec(**json.loads(sys.argv[3]))
rises = [hwm()]
mm.compute_diffs(parents, workers=2)
rises.append(hwm())
mm.generate_base(spec, sys.argv[4])
rises.append(hwm())
print(json.dumps([b - a for a, b in zip(rises, rises[1:])]))
"""


def write_bf16_parent(path, seed):
    """A one-tensor BF16 checkpoint of TENSOR_BYTES, written 1 MiB at a time."""
    n = TENSOR_BYTES // 2
    header = json.dumps({"x": {"dtype": "BF16", "shape": [n], "data_offsets": [0, TENSOR_BYTES]}})
    header += " " * (-len(header) % 8)
    rng = np.random.default_rng(seed)
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(header)) + header.encode())
        for _ in range(TENSOR_BYTES // MiB):
            values = rng.standard_normal(MiB // 2, dtype=np.float32)
            f.write((values.view(np.uint32) >> 16).astype("<u2").tobytes())


def test_a_diff_and_a_fixture_of_64_mib_tensors_stay_within_a_constant(tmp_path):
    parents = [tmp_path / f"p{i}.safetensors" for i in range(2)]
    for seed, path in enumerate(parents):
        write_bf16_parent(path, seed)
    # An F32 embedding and head of 64 MiB each, with one norm between them.
    spec = {"layers": 0, "dense_layers": 0, "vocab": TENSOR_BYTES // 4 // 512, "hidden": 512,
            "max_shard_bytes": TENSOR_BYTES}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", STEPS, *map(str, parents), json.dumps(spec), str(tmp_path / "f")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    diff, fixture = json.loads(done.stdout)
    # A diff holds a few blocks per worker, whatever the tensor size.
    assert diff < 32 * MiB, f"the diff raised peak RSS by {diff / MiB:.1f} MiB"
    # Generation holds each in-flight tensor's encoded bytes, and a few
    # chunks per worker besides: here both tensors and a constant.
    assert fixture < 2 * TENSOR_BYTES + 32 * MiB, (
        f"generation raised peak RSS by {fixture / MiB:.1f} MiB"
    )
