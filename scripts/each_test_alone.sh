#!/usr/bin/env bash
# Order-dependence gate: runs every test of the workspace alone, each in a
# process of its own, so a test that only passes after (or alongside)
# another one fails here. Test binaries list their tests with
# `--list --format terse` and run each one with `--exact`; doc tests go
# through `cargo test --doc` the same way. Exits 1 if any test fails.
#
# Usage: scripts/each_test_alone.sh [cargo package selection, e.g. -p edge-faults]
set -euo pipefail

if [ "$#" -eq 0 ]; then
    set -- --workspace
fi
cargo test --no-run --message-format=json "$@" > target/each_test_alone.jsonl

python3 - <<'EOF'
import json
import os
import subprocess
import sys

binaries, libs = set(), set()
for line in open("target/each_test_alone.jsonl"):
    msg = json.loads(line)
    if msg.get("reason") != "compiler-artifact" or not msg["profile"]["test"]:
        continue
    pkg_dir = os.path.dirname(msg["manifest_path"])
    binaries.add((pkg_dir, msg["executable"]))
    if "lib" in msg["target"]["kind"]:
        libs.add(pkg_dir)


def listed(cmd, cwd):
    out = subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True).stdout
    return [l[: -len(": test")] for l in out.splitlines() if l.endswith(": test")]


runs = []
for pkg_dir, exe in sorted(binaries):
    for name in listed([exe, "--list", "--format", "terse"], pkg_dir):
        runs.append((pkg_dir, [exe, "--exact", name, "-q"], name))
for pkg_dir in sorted(libs):
    doc = ["cargo", "test", "-q", "--doc", "--manifest-path", f"{pkg_dir}/Cargo.toml", "--"]
    for name in listed(doc + ["--list", "--format", "terse"], pkg_dir):
        runs.append((pkg_dir, doc + ["--exact", name], name))

failed = []
for pkg_dir, cmd, name in runs:
    done = subprocess.run(cmd, cwd=pkg_dir, capture_output=True, text=True)
    if done.returncode != 0:
        failed.append(name)
        print(f"FAILED alone: {name}\n{done.stdout}{done.stderr}", flush=True)
print(f"{len(runs) - len(failed)}/{len(runs)} tests pass alone")
sys.exit(1 if failed else 0)
EOF
