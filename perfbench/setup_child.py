"""One set-up sample, run in a fresh interpreter.

Usage: python3 setup_child.py SRC_DIR POLYNOMIAL...

Times importing polyadic (numpy included) and its CLI module, parsing each
polynomial, and building its Diagram and default Ordering, then prints the
seconds and the imported package's file as one JSON line.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import polyadic  # noqa: E402
import polyadic.cli  # noqa: E402,F401

for text in sys.argv[2:]:
    polyadic.Ordering(polyadic.Diagram(polyadic.parse_polynomial(text)))
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "package": polyadic.__file__}))
