"""Outputs do not depend on the number of BLAS threads."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _demo_snapshot(out, threads):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_demo.py"), str(out)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    snapshot = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    shutil.rmtree(out)
    return snapshot


def test_demo_outputs_identical_across_blas_thread_counts(tmp_path):
    # Same output directory for both runs: run_config.json echoes its paths.
    out = tmp_path / "demo"
    one = _demo_snapshot(out, 1)
    two = _demo_snapshot(out, 2)
    assert one.keys() == two.keys() and len(one) > 0
    differing = sorted(k for k in one if one[k] != two[k])
    assert not differing, f"outputs differ between 1 and 2 BLAS threads: {differing}"


# Scores a dataset of 3 blocks of GRAM_CHUNK_ROWS rows plus 7, so the
# blocked product meets full blocks and a short last one, and prints the
# SHA-256 of the scores and decisions.
BLOCK_EDGE_SCORES = """
import hashlib
import sys
sys.path.insert(0, sys.argv[1])
from conftest import make_generator, simulate_from
import fairmimic as fm
from fairmimic.model import GRAM_CHUNK_ROWS
gen = make_generator()
data, _ = simulate_from(gen, n=3 * GRAM_CHUNK_ROWS + 7, seed=5)
scores = fm.score_dataset(gen, data)
digest = hashlib.sha256()
for array in (scores.fair, scores.naive, scores.decision):
    digest.update(array.tobytes())
print(digest.hexdigest())
"""


def _block_edge_digest(threads):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_EDGE_SCORES, str(REPO / "tests")],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_block_edge_scores_identical_across_blas_thread_counts():
    one = _block_edge_digest(1)
    assert len(one) == 64
    assert _block_edge_digest(2) == one
