"""A one-shot query does not depend on encodings the process dropped.

Terms are interned weakly: a dropped encoding frees its terms, and the
next encoding numbers its own terms in the same relative order whatever
the process built and dropped before.  Term ids order the children of every
conjunction and disjunction, so they fix the CNF's clauses and, through
them, the SAT search.  With a table that kept every term, cloud 40's
query below took 20 conflicts alone, 24 after cloud 51 had been
verified in the same process and 26 after cloud 3.

Each case runs in its own interpreter, so the history is exactly the
one named.
"""

import json
import os
import subprocess
import sys

import repro

_QUERY = """
import json
import sys

from repro import Verifier
from repro.core import properties as P
from repro.gen import build_cloud_network


def verify(index):
    cloud = build_cloud_network(index)
    prop = P.Reachability(
        sources="all", dest_prefix_text=cloud.management_prefixes[0]
    )
    verifier = Verifier(cloud.network, preflight=False)
    return verifier.verify(prop, max_failures=1)


for index in sys.argv[1:]:
    verify(int(index))
result = verify(40)
print(json.dumps([result.holds, result.num_variables, result.num_clauses,
                  result.conflicts]))
"""


def run_after(*history):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _QUERY, *map(str, history)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(done.stdout)


def test_query_is_the_same_after_other_encodings():
    alone = run_after()
    assert alone[0] is True
    assert run_after(51) == alone
    assert run_after(3) == alone
