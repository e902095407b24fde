"""Time the fixed cost every `holant` invocation pays, in a fresh interpreter.

The clock starts just before `import holant.cli` and stops after the
first `holant.fkt._load_library()`, which parses and verifies the
matchgate library.  Interpreter start-up is left out on purpose: it
includes site-level imports that have nothing to do with the program.
Prints {"setup_s": seconds, "module": path of the imported package}.
"""

import time

start = time.perf_counter()
import holant.cli  # noqa: E402,F401
import holant.fkt  # noqa: E402

holant.fkt._load_library()
elapsed = time.perf_counter() - start

import json  # noqa: E402

print(json.dumps({"setup_s": elapsed, "module": holant.cli.__file__}))
