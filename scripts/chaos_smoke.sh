#!/usr/bin/env bash
# Chaos smoke gate: two layers of fault-matrix coverage.
#
# 1. The in-process chaos harness (`edge-bench --bin chaos`): torn
#    frames, slow-loris, stalled readers, event-loop stalls, queue bursts,
#    corrupt-reload storms, and a forced brownout ladder against one
#    live server, exiting non-zero on any invariant violation.
# 2. The real `edge-cli serve` binary as a separate process: raw-socket
#    fault traffic from outside (garbage frames, truncated bodies,
#    oversized bodies, a slow-loris drip), then SIGTERM mid-load — the
#    process must drain and exit cleanly while faults are in flight.
#
# Usage: scripts/chaos_smoke.sh
set -euo pipefail

WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== build =="
cargo build --release -p edge-cli -p edge-bench

echo "== in-process chaos harness =="
cargo run --release -p edge-bench --bin chaos -- --size smoke
python3 - <<'EOF'
import json
out = json.load(open("results/BENCH_chaos.json"))
legs = {l["leg"]: l for l in out["legs"]}
expected = {"baseline", "torn-frames", "slow-loris", "stalled-reader",
            "worker-stall", "queue-burst", "reload-storm",
            "brownout-ladder", "wedge-check", "global"}
assert set(legs) == expected, set(legs)
assert out["total_violations"] == 0, \
    [v for l in out["legs"] for v in l["violations"]]
assert out["recovery_secs"] < 10.0, out["recovery_secs"]
assert out["p99_ok_us"] < out["deadline_us"], out["p99_ok_us"]
print(f"chaos harness OK: {sum(l['events'] for l in out['legs'])} events, "
      f"recovery {out['recovery_secs']:.2f}s, "
      f"p99 {out['p99_ok_us']:.0f}us")
EOF

BIN=target/release/edge-cli
echo "== train a tiny model =="
$BIN generate --preset nyma --size smoke --seed 7 --out "$WORKDIR/corpus.json"
$BIN train --data "$WORKDIR/corpus.json" --profile smoke --epochs 2 \
    --out "$WORKDIR/model.json"

ADDR=127.0.0.1:7981
echo "== start the real server on $ADDR (tight read budget) =="
$BIN serve --model "$WORKDIR/model.json" --addr "$ADDR" \
    --default-deadline-us 2000000 --max-body-bytes 65536 &
SERVER_PID=$!
for _ in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died"; exit 1; }
    sleep 0.2
done

echo "== external fault traffic against the live process =="
python3 - "$ADDR" "$WORKDIR/corpus.json" <<'EOF'
import json, socket, sys, time

host, port = sys.argv[1].rsplit(":", 1)
port = int(port)
corpus = json.load(open(sys.argv[2]))
text = corpus["tweets"][0]["text"]

def raw(payload, half_close=False, wait=3.0):
    s = socket.create_connection((host, port), timeout=wait)
    s.sendall(payload)
    if half_close:
        s.shutdown(socket.SHUT_WR)
    s.settimeout(wait)
    chunks = []
    try:
        while True:
            b = s.recv(4096)
            if not b:
                break
            chunks.append(b)
    except socket.timeout:
        pass
    s.close()
    return b"".join(chunks).decode(errors="replace")

def status(rawtext):
    try:
        return int(rawtext.split(" ", 2)[1])
    except (IndexError, ValueError):
        return None

# Garbage request line: a typed error or a clean close, never a hang.
# ("NOT HTTP AT ALL" frames as method "NOT" + path "HTTP", so it routes
# to a typed 404 rather than a parse-level 400 — both are fine.)
r = raw(b"NOT HTTP AT ALL\r\n\r\n")
assert r == "" or status(r) in (400, 404), r[:200]

# Truncated body: the server must just close on EOF.
r = raw(b"POST /predict HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"tex",
        half_close=True)
assert r == "" or status(r) is not None, r[:200]

# Declared body over --max-body-bytes: typed 413 before reading it.
r = raw(b"POST /predict HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n")
assert status(r) == 413 and "payload_too_large" in r, r[:200]

# Malformed X-Deadline-Us: typed 400.
body = json.dumps({"text": text}).encode()
req = (b"POST /predict HTTP/1.1\r\nX-Deadline-Us: soonish\r\n"
       b"Content-Length: %d\r\n\r\n" % len(body)) + body
assert status(raw(req)) == 400

# Slow-loris: drip one byte at a time; the read budget must cut us off
# well before the request completes.
s = socket.create_connection((host, port), timeout=10)
s.settimeout(10)
t0 = time.time()
cut = False
try:
    for b in b"POST /predict HTTP/1.1\r\n" * 8:
        s.sendall(bytes([b]))
        time.sleep(0.05)
except (BrokenPipeError, ConnectionResetError, socket.timeout):
    cut = True
s.close()
assert cut or time.time() - t0 < 8.0, "slow-loris was never cut off"

# The server took all of that and still answers normally.
req = (b"POST /predict HTTP/1.1\r\nContent-Type: application/json\r\n"
       b"Content-Length: %d\r\n\r\n" % len(body)) + body
assert status(raw(req)) == 200
print("external fault traffic OK")
EOF

echo "== /metrics exposes the robustness counters =="
curl -sf "http://$ADDR/metrics" > "$WORKDIR/metrics.txt"
grep -q 'serve_mode' "$WORKDIR/metrics.txt" || {
    echo "metrics dump is missing the brownout mode gauge"; exit 1; }

echo "== SIGTERM mid-load drains cleanly =="
# Keep real traffic in flight while the signal lands.
( for _ in $(seq 1 50); do
    curl -s -o /dev/null -d '{"text":"load"}' "http://$ADDR/predict" || true
  done ) &
LOAD_PID=$!
sleep 0.2
kill "$SERVER_PID"
for _ in $(seq 1 50); do
    kill -0 "$SERVER_PID" 2>/dev/null || { SERVER_PID=""; break; }
    sleep 0.2
done
[ -z "$SERVER_PID" ] || { echo "server did not drain on SIGTERM"; exit 1; }
wait "$LOAD_PID" 2>/dev/null || true

echo "chaos smoke OK"
