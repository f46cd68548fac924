"""Byte identity of the pinned CLI outputs.

The runs below, each experiment but `verify-all` at `--E 2 --F 1 --lambda 0.5
--tau 1 --beta 1`, are regenerated in one process and each rendered table is
compared with its committed SHA-256 digest.  A change that means to move bytes updates `RUNS`
in the same commit and says in CHANGES.md which rows moved, and by how much.

The last digits depend on the CPU paths numpy and OpenBLAS choose: numpy's
AVX-512 exp, log and power round differently from its other paths, and
OpenBLAS's kernels sum in their own order.  So the runs go in a subprocess
pinned to one path on every x86-64 machine: numpy with each dispatched SIMD
target switched off, so that its exp, log and power round as the C library
does, and OpenBLAS on its generic x86-64 (Prescott) kernels and one thread.
A platform whose pinned bytes differ (another architecture, or a numpy or
OpenBLAS release that changes them) fails here and prints the digests it made,
with its machine and numpy version.
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

import starkwalk

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:     # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__

PARAMS = "--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1"
# each run's arguments, and the SHA-256 of its CSV as `starkwalk ... --out -` writes it
# under the pins of `pinned_environment`; verify-all reads no physics flag
RUNS = {
    "verify-all": ("verify-all",
                   "e20cf52b6461a4ca14d1f10f986ebcb5affbe8a6b8a22e4e5be27d20a9a86236"),
    "walk": (f"{PARAMS} walk --n 10000 --trials 100000 --seed 3",
             "a6df9177681e682a0c0672d44124f2c9e7c3aaa3ae1314de263530dc66547c85"),
    "rate": (f"{PARAMS} rate --n 400",
             "40cd2fe2d1d15589b34a3627fd19eb484367d07b4424ac5617cd34832e2ece07"),
    "fcs-position": (f"{PARAMS} fcs-position --n 20000",
                     "3e1c6a9c64ef6c1dc0cfb882834516e7b54cf19cf855e36e223b5a6533e44518"),
    "fcs-energy": (f"{PARAMS} fcs-energy --n 50",
                   "f34fe97d9bbc84697cde782f4a5b337d35b6e9bbc867d6ddd41967f68db682fa"),
    "single-atom": (f"{PARAMS} single-atom --n 5",
                    "58571acff90a36b4e04535d26acf3df58ac5cbec37a2ef499649d2b222728709"),
    "channel-evolve": (f"{PARAMS} channel-evolve --n 20",
                       "25fa3f002844a9595f74025b38aa3d37b8071096e08323c8245446ecc4894804"),
    "spectrum": (f"{PARAMS} spectrum",
                 "c572008a619ee72e015df83cd326ab79f597ced524b3187d547b8787f5e2e900"),
    # the law experiments at a large n, where the law is nonzero on 33k of its 2M sites
    "walk-1e6": (f"{PARAMS} walk --n 1000000 --trials 1000 --seed 3",
                 "497df679f553ae1f4a790d4f64b54d53c1f4dc1fbc7baa0b3234f2110f276e27"),
    "fcs-energy-1e6": (f"{PARAMS} fcs-energy --n 1000000",
                       "fd1d24a63ac07d2f51ed259dbb1554861956d97a7c2a98ead45a25221c8eea4a"),
    "fcs-position-1e6": (f"{PARAMS} fcs-position --n 1000000",
                         "13151b407495c322aa24a0055857c3c132aefe06d12a9818cf9376b9e0adc175"),
}

_REGENERATE = """
import hashlib, json, sys
from starkwalk.cli import parse_config, render, run_experiment
digests = {}
for name, argv in json.loads(sys.argv[1]).items():
    cfg = parse_config(argv)
    digests[name] = hashlib.sha256(render(run_experiment(cfg), cfg.fmt).encode()).hexdigest()
print(json.dumps(digests))
"""


def pinned_environment() -> dict:
    """This process's environment with numpy's dispatch and OpenBLAS's kernels pinned.

    Every target in numpy's dispatch list is switched off, whatever the CPU
    has (numpy only warns about a target the CPU lacks), and whatever
    NPY_DISABLE_CPU_FEATURES or NPY_ENABLE_CPU_FEATURES the caller set.
    """
    env = {key: value for key, value in os.environ.items() if key != "NPY_ENABLE_CPU_FEATURES"}
    env.update(NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
               OPENBLAS_CORETYPE="Prescott", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(starkwalk.__file__).parents[1]))
    return env


def test_pinned_outputs_keep_their_bytes():
    runs = {name: args.split() for name, (args, _) in RUNS.items()}
    run = subprocess.run([sys.executable, "-c", _REGENERATE, json.dumps(runs)],
                         env=pinned_environment(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    moved = sorted(name for name, (_, digest) in RUNS.items() if got[name] != digest)
    assert not moved, (f"outputs {moved} moved on {platform.machine()} with numpy "
                       f"{np.__version__}; digests made: {json.dumps(got, indent=1)}")
