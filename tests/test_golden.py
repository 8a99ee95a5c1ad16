"""Same-seed training bytes, pinned as digests.

Short desk-copy runs of every mode are trained in a fresh interpreter
with one BLAS thread, and the sha256 of their ``curves.csv`` (less the
``wallclock_ms`` column), ``val.csv`` and ``final.ckpt`` must equal the
digests below.  The bits depend on the BLAS library, its thread count,
numpy and Python, so the digests sit beside the ``trainer._environment()``
block they were recorded under, and the test skips only when that block
differs.  A change that accepts ulp drift re-records them and says so in
``CHANGES.md``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import profforce

# 12 steps of desk-copy at seed 3; the pf run opens the generator's gate on
# steps 6, 7, 8, 10 and 11.
COMMON = ["--preset", "desk-copy", "--seed", "3", "--steps", "12",
          "--set", "lr=1e-3", "--set", "val_every=6"]
RUNS = {
    "tf": ["--mode", "tf"],
    "ss": ["--mode", "ss", "--set", "ss_end=0.5"],
    "pf": ["--set", "use_ct=true", "--set", "include_outputs_in_behavior=true"],
}

RECORDED_UNDER = {"blas": "scipy-openblas 0.3.31.188.0", "blas_threads": "1",
                  "numpy": "2.4.6", "python": "3.11.7"}
DIGESTS = {
    "tf": {"curves.csv": "a1c64a5538c69eaf4593d1636c30bf7d1486f0873e0e78364eea76792092fee1",
           "val.csv": "6266306dc8387d6bdde686aef66a493b8a6ff1328baca753e7f843a4a385710d",
           "final.ckpt": "2394677f4697d6fa299ee68f322a1d4f94fc2369f2ab576d8d1d9b11778ba597"},
    "ss": {"curves.csv": "81f92a2a7a91886c4c5b1c9e4b5f6ccd8b73e93e8aa3df65ab819d079255a35d",
           "val.csv": "4889f5aa53ddb49c31b5254e2f2340ecf160624e952a3e31e7b24653e0dd78c6",
           "final.ckpt": "40021e5672bcaab2a34b6f9c43de1e2a29a6129a70264b5b1d34d5750fed4e0d"},
    "pf": {"curves.csv": "a5bfb6d85ba3519d1f3a4cf23a6ce3729eafcd7c145dae8672b9b4a888b6b702",
           "val.csv": "ba43a5701773e77cf0e11e209811006c482d7bc935c68d204a9db59abd688df8",
           "final.ckpt": "d978cade79f9fc2d960fbb7a6401f739739231cb01f0a040de2244fc65da807d"},
}

SCRIPT = """
import hashlib, json, sys
from pathlib import Path
from profforce.cli import main
from profforce.trainer import _environment

out, common, runs = Path(sys.argv[1]), json.loads(sys.argv[2]), json.loads(sys.argv[3])
digests = {}
for name, extra in runs.items():
    assert main(["train", *common, *extra, "--out", str(out / name)]) == 0
    curves = "\\n".join(line.rsplit(",", 1)[0] for line in
                        (out / name / "curves.csv").read_text().splitlines())
    digests[name] = {"curves.csv": hashlib.sha256(curves.encode()).hexdigest(),
                     **{f: hashlib.sha256((out / name / f).read_bytes()).hexdigest()
                        for f in ("val.csv", "final.ckpt")}}
print(json.dumps({"environment": _environment(), "digests": digests}))
"""


def test_desk_runs_keep_their_bytes(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PF_LOG_LEVEL="warning",
               PYTHONPATH=str(Path(profforce.__file__).parents[1]))
    env.pop("OMP_NUM_THREADS", None)
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(COMMON),
                          json.dumps(RUNS)], env=env, capture_output=True, text=True,
                         check=True)
    got = json.loads(out.stdout.splitlines()[-1])
    if got["environment"] != RECORDED_UNDER:
        pytest.skip(f"digests recorded under {RECORDED_UNDER}, not {got['environment']}")
    assert got["digests"] == DIGESTS
