"""One fresh run process: import the CLI, optionally trace it, run one command.

    python3 perfbench/child.py RESULT.json --plain|--trace -- analyze --corpus ...

Writes RESULT.json with the import time (``setup_s``), the command's time
from the call into ``fairjudge.cli.main`` to its return (``wall_s``), its
exit code and the process CPU it used. With ``--trace`` the result also
holds every recorded span and the peak RSS right after reading predictions.
The parent takes this process's peak RSS from its own ``wait4``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    result_path = sys.argv[1]
    mode = sys.argv[2]

    t0 = time.perf_counter()
    import fairjudge.cli

    setup_s = time.perf_counter() - t0
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if mode == "--trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    cpu0 = _cpu_s()
    start = time.perf_counter()
    if tracer is not None:
        code = tracer.run_root("cli.main", fairjudge.cli.main, argv)
    else:
        code = fairjudge.cli.main(argv)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0

    result = {"setup_s": setup_s, "wall_s": wall_s, "exit_code": code, "cpu_s": cpu_s}
    if tracer is not None:
        result["trace"] = tracer.export()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
