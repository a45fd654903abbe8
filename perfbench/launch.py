"""Start one dialign CLI invocation for the benchmark.

usage: launch.py READY_FILE TRACE_FILE|- RUN_ID CLI_ARG...

Does what the ``dialign`` console script does, and writes the CPU time
the process has used (``time.process_time()``) to READY_FILE as soon as
``dialign.cli`` is imported: the set-up cost. With a TRACE_FILE the run is
traced (see tracer.py); with ``-`` it is not.
"""

import sys
import time


def main() -> int:
    ready_file, trace_file, run_id, cli_args = (
        sys.argv[1],
        sys.argv[2],
        sys.argv[3],
        sys.argv[4:],
    )
    import dialign.cli

    ready = time.process_time()
    with open(ready_file, "w", encoding="utf-8") as f:
        f.write(repr(ready))
    if trace_file == "-":
        return dialign.cli.main(cli_args)
    import tracer

    return tracer.run_traced(cli_args, trace_file, run_id)


if __name__ == "__main__":
    sys.exit(main())
