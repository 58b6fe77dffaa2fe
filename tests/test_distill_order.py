"""The distill stage's row order is reproducible across processes: a
document's triples come out sorted, not in the order of the kernel's
set (which follows ``hash(None)``, an address, even under a fixed
``PYTHONHASHSEED``)."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# distill one embedded-Turtle turn and print the digest of the stage's
# whole output table, row order included
SCRIPT = """
import hashlib, sys
sys.path.insert(0, %r)
import pyarrow as pa
from rdfa_ray.sources.transcripts import _turtle_doc
from rdfa_ray.stages.distill import RdfaDistiller

batch = pa.table({"conv_id": ["c7"], "turn_idx": pa.array([3], pa.int32()),
                  "text": [_turtle_doc("c7", 3)]})
out = RdfaDistiller()(batch)
print(out.num_rows, hashlib.sha256(repr(out.to_pylist()).encode()).hexdigest())
""" % ROOT


def test_distill_table_is_identical_across_processes():
    env = dict(os.environ, PYTHONHASHSEED="0")
    runs = [
        subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                       text=True, timeout=120, check=True).stdout.split()
        for _ in range(4)
    ]
    assert int(runs[0][0]) >= 2  # the document has several triples to order
    assert len({digest for _n, digest in runs}) == 1, runs
