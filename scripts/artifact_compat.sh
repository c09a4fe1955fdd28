#!/usr/bin/env bash
# Artifact compatibility gate for models saved in the legacy JSON envelope
# (the committed fixture crates/core/tests/fixtures/legacy_v2_smoke.edge,
# written by the legacy-envelope writer of older releases from the corpus below):
# serving refuses it and names the upgrade, `fsck` still reads it, and
# `fsck --upgrade` migrates it in place to exactly the bytes `train` writes
# for the same corpus today, which then serves.
#
# Usage: scripts/artifact_compat.sh
set -euo pipefail

WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== build =="
cargo build --release -p edge-cli
BIN=target/release/edge-cli
cp crates/core/tests/fixtures/legacy_v2_smoke.edge "$WORKDIR/model.edge"

echo "== serving refuses the legacy envelope and names the upgrade =="
if $BIN serve --model "$WORKDIR/model.edge" --addr 127.0.0.1:7982 2> "$WORKDIR/refused.txt"; then
    echo "serve must refuse a legacy envelope"; exit 1
fi
grep -q "fsck --upgrade" "$WORKDIR/refused.txt" || {
    echo "the refusal must name fsck --upgrade:"; cat "$WORKDIR/refused.txt"; exit 1; }

echo "== fsck still reads the legacy envelope =="
$BIN fsck "$WORKDIR/model.edge" | tee "$WORKDIR/fsck_legacy.txt"
if grep -Eq "^  meta .* OK$" "$WORKDIR/fsck_legacy.txt"; then
    echo "a legacy envelope has no section table"; exit 1
fi

serve_and_capture() {
    # serve_and_capture <model-path> <out-prefix>
    local addr=127.0.0.1:7982
    $BIN serve --model "$1" --addr "$addr" &
    SERVER_PID=$!
    for _ in $(seq 1 50); do
        if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
        kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died"; exit 1; }
        sleep 0.2
    done
    python3 - "$WORKDIR/corpus.json" "$addr" "$2" <<'EOF'
import json, subprocess, sys

corpus = json.load(open(sys.argv[1]))
addr, prefix = sys.argv[2], sys.argv[3]
answered = 0
with open(prefix + ".responses", "wb") as sink:
    for t in corpus["tweets"][:120]:
        body = subprocess.run(
            ["curl", "-s", f"http://{addr}/predict",
             "-H", "Content-Type: application/json",
             "-d", json.dumps({"text": t["text"]})],
            check=True, capture_output=True).stdout
        sink.write(body + b"\n")
        if b'"point"' in body:
            answered += 1
assert answered > 0, "no covered tweets answered"
print(f"captured 120 responses ({answered} covered)")
EOF
    kill "$SERVER_PID"
    for _ in $(seq 1 50); do
        kill -0 "$SERVER_PID" 2>/dev/null || { SERVER_PID=""; break; }
        sleep 0.2
    done
    [ -z "$SERVER_PID" ] || { echo "server did not drain"; exit 1; }
}

echo "== fsck --upgrade writes exactly what train writes for the same corpus =="
$BIN generate --preset nyma --size smoke --seed 11 --out "$WORKDIR/corpus.json"
$BIN train --data "$WORKDIR/corpus.json" --profile smoke --epochs 2 \
    --out "$WORKDIR/trained.edge"
$BIN fsck "$WORKDIR/model.edge" --upgrade | tee "$WORKDIR/fsck_upgraded.txt"
grep -Eq "^  meta .* OK$" "$WORKDIR/fsck_upgraded.txt" || {
    echo "upgraded artifact must carry a checked section table"; exit 1; }
cmp "$WORKDIR/model.edge" "$WORKDIR/trained.edge" || {
    echo "upgraded fixture differs from a fresh train of its corpus"; exit 1; }

echo "== serve the upgraded artifact =="
serve_and_capture "$WORKDIR/model.edge" "$WORKDIR/upgraded"

echo "== a quantizing upgrade to a separate path still serves =="
$BIN fsck "$WORKDIR/model.edge" --upgrade --quantize f16 \
    --out "$WORKDIR/model_f16.edgemap"
# (buffered before grep: -q quitting early would EPIPE the fsck binary)
$BIN fsck "$WORKDIR/model_f16.edgemap" > "$WORKDIR/fsck_f16.txt"
grep -Eq "quant +f16$" "$WORKDIR/fsck_f16.txt" || {
    echo "quantizing upgrade must record its mode"; exit 1; }
serve_and_capture "$WORKDIR/model_f16.edgemap" "$WORKDIR/f16"
grep -q '"point"' "$WORKDIR/f16.responses" || {
    echo "f16 artifact answered no covered tweets"; exit 1; }

echo "artifact compat OK: upgraded fixture == fresh train, byte for byte"
