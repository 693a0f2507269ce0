"""Starts the benchmark's child processes on behalf of run.py.

A child's max-RSS starts from the high-water mark of the process that
spawned it, so children are spawned from this small, long-lived process
rather than from run.py, whose footprint grows with the outputs it checks.

Protocol over the SOCK_SEQPACKET socket whose fd is argv[1]: each request
is a JSON argv with two fds attached (stdout and stderr for the child,
whose stdin is /dev/null); the reply is ``{"pid": n}`` once started and ``{"rc": n, "maxrss_kb": m}``
once it has exited, or ``{"error": text}`` when it cannot start.  An empty
message or EOF ends the launcher.
"""

import json
import os
import socket
import subprocess
import sys


def main() -> None:
    sock = socket.socket(fileno=int(sys.argv[1]))
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 2)
        if not msg:
            break
        stdout, stderr = fds
        try:
            proc = subprocess.Popen(json.loads(msg), stdin=subprocess.DEVNULL, stdout=stdout,
                                    stderr=stderr, start_new_session=True)
        except OSError as exc:
            sock.send(json.dumps({"error": str(exc)}).encode())
            continue
        finally:
            for fd in fds:
                os.close(fd)
        sock.send(json.dumps({"pid": proc.pid}).encode())
        _, status, usage = os.wait4(proc.pid, 0)  # usage covers the grandchildren it waited for
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({"rc": proc.returncode, "maxrss_kb": usage.ru_maxrss}).encode())


if __name__ == "__main__":
    main()
