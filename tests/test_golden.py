"""Same-seed training and sampling bytes, pinned as digests.

Short desk-copy runs of every mode are trained in a fresh interpreter
with one BLAS thread, and the sha256 of their ``curves.csv`` (less the
``wallclock_ms`` column), ``val.csv`` and ``final.ckpt`` must equal the
digests below, as must that of ``profforce sample`` output from the tf
run's ``final.ckpt``: the tf bytes do not depend on the sampler, so that
digest pins the sampler alone.  The bits depend on the BLAS library, its
thread count, numpy and Python, so the digests sit beside the
``trainer._environment()`` block they were recorded under, and the test
skips only when that block differs.  A change that accepts ulp drift
re-records them and says so in ``CHANGES.md``; running this file as a
script prints the digests in the ``DIGESTS`` layout, with the environment
they were taken in.
"""

import json
import os
import subprocess
import sys
import tempfile
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
SAMPLE = ["--count", "4", "--length", "200", "--seed", "5"]   # from the tf run's final.ckpt

RECORDED_UNDER = {"blas": "scipy-openblas 0.3.31.188.0", "blas_threads": "1",
                  "numpy": "2.4.6", "python": "3.11.7"}
DIGESTS = {
    "tf": {"curves.csv": "a1c64a5538c69eaf4593d1636c30bf7d1486f0873e0e78364eea76792092fee1",
           "val.csv": "6266306dc8387d6bdde686aef66a493b8a6ff1328baca753e7f843a4a385710d",
           "final.ckpt": "12b33d428af08f3bd209b26cda8dc8d90dba5310a82be9e2bb83145cab34a4d3"},
    "ss": {"curves.csv": "95a2558f3d801b08d8324cf471596a0cc650f42238db005ebe8fabbc416220f0",
           "val.csv": "df225503a8fbcbdc59e61fd83e0b4cf19a48e6dda288de271ee274337b0030c9",
           "final.ckpt": "fb180701b23ebebc70410c66cffacdddd0b977ca42672326df6297e557edd6ed"},
    "pf": {"curves.csv": "3f09cafeb94abfc9b87fe893a2d6e2606e281a94a2be674de1ef868d64469913",
           "val.csv": "f217f2a8f4d0688b418e5a122d01c7d9a3e58a53f552c44410b6e777e26c5930",
           "final.ckpt": "7bc83e03f1b62d24d5fc1ece513f84b77f1d9b16218d23c42ef598701bd6bc38"},
    "sample": {"sample.txt": "3c8ab6c88adec7a2a6b551ff9785e7455c9a1c29ca04de3fc915102eca999646"},
}

SCRIPT = """
import hashlib, json, sys
from pathlib import Path
from profforce.cli import main
from profforce.trainer import _environment

out, common, runs, sample = Path(sys.argv[1]), *map(json.loads, sys.argv[2:5])
digests = {}
for name, extra in runs.items():
    assert main(["train", *common, *extra, "--out", str(out / name)]) == 0
    curves = "\\n".join(line.rsplit(",", 1)[0] for line in
                        (out / name / "curves.csv").read_text().splitlines())
    digests[name] = {"curves.csv": hashlib.sha256(curves.encode()).hexdigest(),
                     **{f: hashlib.sha256((out / name / f).read_bytes()).hexdigest()
                        for f in ("val.csv", "final.ckpt")}}
text = out / "sample.txt"
assert main(["sample", str(out / "tf" / "final.ckpt"), *sample, "--out", str(text)]) == 0
digests["sample"] = {"sample.txt": hashlib.sha256(text.read_bytes()).hexdigest()}
print(json.dumps({"environment": _environment(), "digests": digests}))
"""


def _run(out_dir) -> dict:
    """The environment block and the digests of a fresh run into ``out_dir``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PF_LOG_LEVEL="warning",
               PYTHONPATH=str(Path(profforce.__file__).parents[1]))
    env.pop("OMP_NUM_THREADS", None)
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(out_dir),
                          *map(json.dumps, (COMMON, RUNS, SAMPLE))], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_desk_runs_keep_their_bytes(tmp_path):
    got = _run(tmp_path)
    if got["environment"] != RECORDED_UNDER:
        pytest.skip(f"digests recorded under {RECORDED_UNDER}, not {got['environment']}")
    assert got["digests"] == DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = _run(tmp)
    print(f"RECORDED_UNDER = {json.dumps(got['environment'])}\nDIGESTS = {{")
    for name, files in got["digests"].items():
        rows = f",\n{' ' * (len(name) + 9)}".join(f'"{f}": "{d}"' for f, d in files.items())
        print(f'    "{name}": {{{rows}}},')
    print("}")
