"""Starts the CLI calls of the cli_session workload, one at a time, from a
small process of its own.

The peak RSS the kernel reports for a child process includes the pages of
the process that started it, as they stood before the child's exec. Calls
started from the benchmark harness would all report the harness's own peak.
Started from here, a call's reported peak is its own or this process's,
whichever is larger. This process runs without ``site`` (``python -S``) and
imports little, so it stays smaller than any call it starts: about 12 MB,
against about 14 MB for a bare ``python -c pass`` and 15 MB for a CLI call,
on the machine the benchmark was defined on.

Protocol: each input line is one JSON argv list; for each, one output line
``[exit code, stdout, stderr]``. At the end of input, one last line
``{"children_maxrss_kb": n}``, and the process exits.
"""

import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        proc = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=120)
        print(json.dumps([proc.returncode, proc.stdout, proc.stderr]), flush=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"children_maxrss_kb": peak}), flush=True)


if __name__ == "__main__":
    main()
