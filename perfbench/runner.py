"""The process that runs the program: `asibench.cli.main` in-process, one step at a time.

    python3 runner.py SRC_DIR [TRACE_FILE]

It reads one JSON request per line on stdin and answers one JSON line on the
stdout it was started with. Requests:

- {"op": "pass", "steps": [...]}: run the steps in order. A step is
  {"cli": [args]} or {"concat": [inputs], "out": path}, the latter joining
  accuracy tables as a user would before `score`. Each step's answer holds its
  exit code, start and end (perf_counter seconds), stdout and stderr. With a
  trace file, the answer also holds the span totals of the pass.
- {"op": "finish"}: answer the peak RSS of this process (and with a trace
  file, the adapter-call percentiles), write the spans, and exit.

It reports its own peak RSS, so the benchmark's input generation and checks,
made in the parent, and the subprocess adapter's child are not in it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

EXIT_TRACEBACK = 70


def run_cli(main, args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="asibench")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a traceback is an operation that failed; the run goes on
            code = EXIT_TRACEBACK
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def concat_tables(inputs: list[str], out: str) -> None:
    with open(out, "w", encoding="utf-8", newline="") as dst:
        for i, path in enumerate(inputs):
            with open(path, encoding="utf-8", newline="") as src:
                lines = src.readlines()
            dst.writelines(lines if i == 0 else lines[1:])


def run_steps(main, steps: list[dict], tracer) -> list[dict]:
    results = []
    for step in steps:
        t0 = time.perf_counter()
        if "concat" in step:
            try:  # a table is missing when its evaluate failed
                concat_tables(step["concat"], step["out"])
                code, err = 0, ""
            except OSError as exc:
                code, err = 2, str(exc)
            out = ""
        elif tracer is None:
            code, out, err = run_cli(main, step["cli"])
        else:
            tracer.command = step["cli"][0]
            span = tracer.open(f"cli.{tracer.command}")
            try:
                code, out, err = run_cli(main, step["cli"])
            finally:
                tracer.close(span)
                tracer.command = ""
        results.append({"code": code, "t0": t0, "t1": time.perf_counter(),
                        "out": out, "err": err})
    return results


def main() -> None:
    src = sys.argv[1]
    trace_file = Path(sys.argv[2]) if len(sys.argv) > 2 and sys.argv[2] else None
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)  # stray writes to fd 1 go to stderr, never into the channel
    sys.path.insert(0, src)
    from asibench import cli

    tracer = None
    if trace_file is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "pass":
            if tracer is not None:
                tracer.start_pass()
            reply = {"results": run_steps(cli.main, request["steps"], tracer)}
            if tracer is not None:
                reply["layers"] = tracer.pass_summary()
        else:
            reply = {"peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                reply["predict_us"] = tracer.predict_percentiles_us()
                tracer.write(trace_file)
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
        if request["op"] == "finish":
            break


if __name__ == "__main__":
    main()
