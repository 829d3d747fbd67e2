"""Every enumerative path stops at its cap instead of running out of memory.

Each over-cap call runs in a child process whose address space is limited
to 512 MB with ``RLIMIT_AS`` (numpy and hornsafe import in far less), with
one OpenBLAS thread so the import reserves no per-thread arenas.  The child
prints the ``needed`` and ``cap`` of the EnumerationLimitError it caught;
any other outcome (no error, MemoryError, a kill) fails the test, and so
does passing the timeout.
"""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from hornsafe.core import NEIGHBORHOOD_CAP, _ball_size
from hornsafe.exterior import SUBSET_CAP
from hornsafe.interior import EXPANSION_CAP

resource = pytest.importorskip("resource")
if not hasattr(resource, "RLIMIT_AS"):
    pytest.skip("no RLIMIT_AS on this platform", allow_module_level=True)

LIMIT = 512 << 20
TIMEOUT_S = 120
SRC = Path(__file__).resolve().parent.parent / "src"

_CHILD = """\
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
import numpy as np
from hornsafe import *
from hornsafe import engine
{setup}
try:
    {call}
except EnumerationLimitError as err:
    print(json.dumps([err.needed, err.cap]))
    sys.exit(0)
sys.exit("no EnumerationLimitError")
"""

#: A consistent theory over 64 variables: x1 and a chain x_i -> x_{i+1}.
CHAIN = "t = HornTheory(64, (Clause(pos={1}),) + tuple(Clause(pos={i + 1}, neg={i}) for i in range(1, 64)))"
#: 1,100 random members over 64 variables.
RANDOM64 = "cs = ModelSet.from_bits(64, np.random.default_rng(5).integers(0, 2**63, 1100, dtype=np.uint64))"
NEG40 = "c = Clause(neg=set(range(1, 41)))"

#: (name, setup, call, (needed, cap)); needed None where only needed > cap is known.
CASES = [
    ("neighborhood", "", "neighborhood(Model(64, 0), 40)",
     (_ball_size(64, 40), NEIGHBORHOOD_CAP)),
    ("interior_models", "ms = ModelSet.from_bits(24, [0, 1, 2**24 - 1])", "interior_models(ms, 12)",
     (_ball_size(24, 12), NEIGHBORHOOD_CAP)),
    ("clause_interior", NEG40, "clause_interior(c, 20)",
     (comb(40, 20), EXPANSION_CAP)),
    ("interior_cnf", "t = HornTheory(40, (Clause(neg=set(range(1, 41))), Clause(pos={1}, neg=set(range(2, 41)))))",
     "interior_cnf(t, 20)", (comb(40, 20) + comb(40, 20), EXPANSION_CAP)),
    ("interior-charset", RANDOM64, "deduce_interior_charset(cs, Clause(neg={1}), 5)",
     (_ball_size(64, 5), NEIGHBORHOOD_CAP)),
    ("exterior-formula-neg", f"{CHAIN}\n{NEG40}", "deduce_exterior_formula(t, c, 10)",
     (_ball_size(40, 10), SUBSET_CAP)),
    ("exterior-charset-neg", f"{RANDOM64}\n{NEG40}", "deduce_exterior_charset(cs, c, 10, method='neg')",
     (_ball_size(40, 10), SUBSET_CAP)),
    ("exterior-charset-pos", RANDOM64, "deduce_exterior_charset(cs, Clause(pos=set(range(1, 21))), 0, method='pos')",
     (None, SUBSET_CAP)),
    ("envelope-formula-step-1", f"{CHAIN}\n{NEG40}", "deduce_envelope_formula(t, c, 10)",
     (comb(40, 31), SUBSET_CAP)),
    # Step 2 is reached only when every step-1 probe is unsatisfiable: an
    # inconsistent theory, and 1,449 step-1 probes against C(1449, 2) in step 2.
    ("envelope-formula-step-2", "t = HornTheory(1449, (Clause(pos={1}), Clause(neg={1})))",
     "deduce_envelope_formula(t, Clause(neg=set(range(1, 1450))), 2)",
     (comb(1449, 2), SUBSET_CAP)),
    # The generators "all-ones minus bit i" AND to the whole 2^30 cube.
    ("intersection_closure",
     "engine.CLOSURE_CAP = 4096\nms = ModelSet.from_bits(30, [(2**30 - 1) & ~(1 << i) for i in range(30)])",
     "intersection_closure(ms)", (None, 4096)),
]


@pytest.mark.parametrize("setup, call, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_over_cap_call_raises_under_address_limit(setup, call, expected):
    script = _CHILD.format(limit=LIMIT, setup=setup, call=call)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr[-2000:]
    needed, cap = json.loads(proc.stdout)
    assert cap == expected[1]
    assert needed > cap
    if expected[0] is not None:
        assert needed == expected[0]
