"""One benchmark child process: import biharmlab, optionally install the
tracer, run `cli.main(argv)` once and write a JSON result file.

    python3 perfbench/child.py RESULT.json [--spans SPANS.json] [-- CLI ARGS]

With no CLI arguments the child only imports the package (a set-up probe)
and records the numpy, scipy and BLAS versions.
The result holds the CLOCK_MONOTONIC time at which `import biharmlab.cli`
completed, the package path, the wall time of `cli.main` and its return
code.  The process exits with that return code, or 70 if `cli.main` raised.
"""

import sys
import time


def main() -> int:
    import biharmlab.cli as cli
    imported = time.monotonic()

    import json
    import traceback

    args = sys.argv[1:]
    cli_argv = args[args.index("--") + 1:] if "--" in args else []
    opts = args[:args.index("--")] if "--" in args else args
    result_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    result = {"imported": imported, "package": cli.__file__, "rc": 0,
              "wall_s": None}
    if not cli_argv:
        import numpy
        import scipy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["versions"] = {"numpy": numpy.__version__,
                              "scipy": scipy.__version__,
                              "blas": f"{blas['name']} {blas['version']}"}
    else:
        tracer = None
        if spans_path:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install_biharmlab(tracer)
        t0 = time.perf_counter()
        try:
            result["rc"] = cli.main(cli_argv)
        except Exception:
            traceback.print_exc()
            result["rc"] = 70
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
