"""Set-up cost of one kiss3 CLI call, measured in a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR

Imports `kiss3.cli` from SRC_DIR and builds the certificate, which every
`kiss3` invocation pays before it does any work, and prints one JSON object
with the two times in seconds.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

t0 = time.perf_counter()
import kiss3.cli  # noqa: E402,F401
from kiss3.certificate import build_certificate  # noqa: E402

t1 = time.perf_counter()
build_certificate()
t2 = time.perf_counter()

print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "file": kiss3.cli.__file__}))
