#!/usr/bin/env python3
"""Proves the benchmark's output check can fail.

Run from the root of the repository:

    python3 perfbench/selftest.py

Builds the benchmark like run.py, then runs a short TxCache phase of each loopback workload
twice: once as is, which must report zero failed operations, and once with
--stale-transport, a transport decorator that answers hits with the first value ever stored
under the key and a widened validity interval, which must report failures. Exits nonzero if
either expectation does not hold.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def failed_ops(binary, workload, stale):
    cmd = [binary, "--workload", workload, "--phase", "txcache", "--seed", "7", "--seconds", "1"]
    if stale:
        cmd.append("--stale-transport")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])["failed"]


def main():
    binary = run.build(run.build_dir())
    if binary is None:
        return 1
    ok = True
    for workload in ("rubis_loopback", "wiki_evict"):
        clean = failed_ops(binary, workload, stale=False)
        stale = failed_ops(binary, workload, stale=True)
        good = clean == 0 and stale is not None and stale > 0
        ok = ok and good
        print(f"{workload}: failed={clean} as is, failed={stale} with the stale transport: "
              f"{'ok' if good else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
