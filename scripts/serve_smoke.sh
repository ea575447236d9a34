#!/usr/bin/env bash
# Serve-layer smoke: start the default server (a supervisor and one
# worker process), fire a mixed concurrent batch, kill both -9 mid-flow,
# resume from an on-disk checkpoint with a fresh server, and assert the
# resumed result is bit-identical to an uninterrupted run.  Exercises,
# end to end: the NDJSON protocol, the scheduler, checkpoint
# save/load/resume, crash robustness (atomic checkpoint writes), and
# graceful SIGTERM drain.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-_build/default/bin/rotary_cli.exe}
LOADGEN=${LOADGEN:-_build/default/bench/loadgen.exe}
DIR=$(mktemp -d)
SOCK="$DIR/serve.sock"
CKDIR="$DIR/ck"
trap 'kill -9 $SERVER_PID 2>/dev/null || true; rm -rf "$DIR"' EXIT

# one-request NDJSON client: send a line, print the response line
request_on() {
  python3 - "$1" "$2" <<'EOF'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall((sys.argv[2] + "\n").encode())
f = s.makefile("r")
print(f.readline().strip())
EOF
}

request() { request_on "$SOCK" "$1"; }

digest_of() {
  python3 -c 'import json,sys; r = json.loads(sys.argv[1]); assert r["ok"], r; print(r["result"]["digest"])' "$1"
}

echo "== reference: uninterrupted run via the CLI"
REF=$("$BIN" flow -b tiny --digest | sed -n 's/^digest: //p')
echo "   digest $REF"

echo "== server A up (supervisor + 1 worker process)"
"$BIN" serve --socket "$SOCK" --workers 2 &
SERVER_PID=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "server socket never appeared"; exit 1; }

echo "== mixed concurrent batch (loadgen fails on any dropped response)"
"$LOADGEN" --socket "$SOCK" -n 4 --requests 12 --out "$DIR/BENCH_loadgen.json"

echo "== checkpointed flow through the server"
RESP=$(request "{\"id\":1,\"op\":\"flow\",\"bench\":\"tiny\",\"checkpoint_every\":1,\"checkpoint_dir\":\"$CKDIR\"}")
D0=$(digest_of "$RESP")
[ "$D0" = "$REF" ] || { echo "server flow digest $D0 != CLI digest $REF"; exit 1; }
CKPT="$CKDIR/tiny-netflow.iter-1.ckpt"
[ -f "$CKPT" ] || { echo "expected checkpoint $CKPT missing"; exit 1; }

echo "== kill -9 mid-flow"
# start a flow and kill the server while it runs; the checkpoints
# already on disk must be unharmed (atomic writes).  The worker goes
# first (its parent must still be there for pkill -P to find it): it is
# the process writing checkpoints mid-flow, and a worker that outlived
# its supervisor would finish the flow instead of dying in it
python3 - "$SOCK" <<'EOF' &
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(b'{"id":2,"op":"flow","bench":"tiny"}\n')
try:
    s.makefile("r").readline()
except OSError:
    pass
EOF
sleep 0.3
pkill -9 -P "$SERVER_PID" || { echo "server A has no worker process"; exit 1; }
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
# the kill left A's socket file behind; B replaces it, and the wait
# below must see B's
rm -f "$SOCK"

echo "== server B resumes from the mid-flow checkpoint"
"$BIN" serve --socket "$SOCK" --workers 2 &
SERVER_PID=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
RESP=$(request "{\"id\":3,\"op\":\"flow\",\"resume_from\":\"$CKPT\"}")
D1=$(digest_of "$RESP")
[ "$D1" = "$REF" ] || { echo "resumed digest $D1 != uninterrupted digest $REF"; exit 1; }
echo "   resumed bit-identically: $D1"

echo "== graceful SIGTERM drain"
WORKER_PIDS=$(pgrep -P "$SERVER_PID" || true)
[ -n "$WORKER_PIDS" ] || { echo "server B has no worker process"; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
[ ! -S "$SOCK" ] || { echo "socket not removed on drain"; exit 1; }
[ ! -f "$SOCK.shm" ] || { echo "shm segment not removed on drain"; exit 1; }
for W in $WORKER_PIDS; do
  ! kill -0 "$W" 2>/dev/null || { echo "worker $W survived the drain"; exit 1; }
done

# ---------------------------------------------------------------------------
# Supervisor tier: prefork workers behind a TCP front door, chaos drill,
# ECO sessions across a worker kill, live shm counters via `top`,
# rolling restart under load, injected-checkpoint cleanup, then a
# light-mix batch against a clean supervisor for the BENCH artifact.
# ---------------------------------------------------------------------------

supervisor_drill() {
  local SUPSOCK="$DIR/sup.sock"
  local SHM="$SUPSOCK.shm"
  local SUPCK="$DIR/sup-ck"

  echo "== supervisor up (2 worker processes, TCP front door)"
  "$BIN" serve --socket "$SUPSOCK" --workers-proc 2 --tcp 127.0.0.1:0 \
    --drain-restart --checkpoint-dir "$SUPCK" &
  SERVER_PID=$!
  for _ in $(seq 100); do [ -S "$SUPSOCK" ] && [ -f "$SHM" ] && break; sleep 0.1; done
  [ -S "$SUPSOCK" ] || { echo "supervisor socket never appeared"; exit 1; }

  # the supervisor publishes its ephemeral TCP port in the shm header
  PORT=$("$BIN" top --shm "$SHM" --once --json \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["tcp_port"])')
  echo "   tcp port $PORT"

  echo "== chaos drill: 600-request TCP batch, kill -9 one worker mid-batch"
  # light mix = 1-in-5 flows; every flow response's digest must equal the
  # uninterrupted reference, including the flows resumed after the kill
  "$LOADGEN" --tcp "127.0.0.1:$PORT" --conns 32 --requests 600 --mix light \
    --bench tiny --chaos-kill 50 --shm "$SHM" --expect-digest "$REF" \
    --key service_chaos --out "$DIR/BENCH_chaos.json"

  echo "== ECO act: flow + edit-session traffic, kill -9 mid-edit-sequence"
  # a background flow batch and held-open edit sessions in flight
  # together; the chaos kill lands while edits stream; afterwards
  # --verify-replay replays every session's exact batches onto fresh
  # sessions and requires the final digests to be bit-identical
  "$LOADGEN" --socket "$SUPSOCK" --conns 2 --requests 6 --mix light --bench tiny \
    --expect-digest "$REF" --key service_eco_bg --out "$DIR/BENCH_eco_bg.json" &
  MIXED_PID=$!
  "$LOADGEN" --socket "$SUPSOCK" --mix eco --bench tiny --sessions 3 --edits 5 \
    --verify-replay --chaos-kill 8 --shm "$SHM" \
    --key service_eco --out "$DIR/BENCH_eco.json"
  wait "$MIXED_PID"
  python3 - "$DIR/BENCH_eco.json" <<'EOF'
import json, sys
eco = json.load(open(sys.argv[1]))["service_eco"]["eco"]
assert eco["errors"] == 0, eco
assert eco["replayed"] == eco["sessions"], eco
assert eco["edit_latency"]["p99_s"] > 0, eco
print("   eco: %d sessions x %d edits, p50 %.4f s p99 %.4f s, replays digest-identical"
      % (eco["sessions"], eco["edits_per_session"],
         eco["edit_latency"]["p50_s"], eco["edit_latency"]["p99_s"]))
EOF
  # the per-worker session-store line (resident/opens/evictions/...) is
  # live in `top`'s text view
  "$BIN" top --shm "$SHM" --once | grep -q "sess" \
    || { echo "top missing session-store line"; exit 1; }

  echo "== top reads live per-worker counters from shm"
  TOP=$("$BIN" top --shm "$SHM" --once --json)
  python3 - "$TOP" <<'EOF'
import json, sys
doc = json.loads(sys.argv[1])
assert doc["layout_version"] == 5, doc
# the counters-only segment carries no transport state
assert set(doc) == {"path", "layout_version", "supervisor_pid", "created_unix_s",
                    "tcp_port", "workers"}, sorted(doc)
workers = doc["workers"]
assert len(workers) == 2, workers
for w in workers:
    assert w["consistent"], w
    assert w["pid"] > 0, w
    assert w["control"]["state"] == "up", w
    assert "rings" not in w and "shm" not in w and "core" not in w, w
# the chaos kills above must be visible as completed respawns
assert sum(w["control"]["restarts"] for w in workers) >= 1, workers
# the batch's flows ran on the workers, and the replayed sessions'
# escrows were written as checkpoint files
assert sum(w["jobs"]["completed"] for w in workers) > 0, workers
assert sum(w["checkpoints"]["saves"] for w in workers) > 0, workers
print("   top: %d workers up, %d restarts, %d jobs completed, %d checkpoint files"
      % (len(workers),
         sum(w["control"]["restarts"] for w in workers),
         sum(w["jobs"]["completed"] for w in workers),
         sum(w["checkpoints"]["saves"] for w in workers)))
EOF

  echo "== rolling restart under load (zero dropped requests)"
  "$LOADGEN" --socket "$SUPSOCK" --conns 4 --requests 20 --mix light --bench tiny \
    --expect-digest "$REF" --key service_roll --out "$DIR/BENCH_roll.json" &
  LOADGEN_PID=$!
  sleep 0.2
  ROLL=$(request_on "$SUPSOCK" '{"id":9,"op":"restart"}')
  python3 -c 'import json,sys; r = json.loads(sys.argv[1]); assert r["ok"], r' "$ROLL"
  wait "$LOADGEN_PID"

  echo "== checkpoint leak check: no injected per-request directory outlives its response"
  # the supervisor deletes a request's sid<N> directory before it writes
  # the response, so once every response above is in, none may be left
  LEFT=$(find "$SUPCK" -mindepth 1 -maxdepth 1 -name 'sid*')
  [ -z "$LEFT" ] || { echo "injected checkpoint directories left behind:"; echo "$LEFT"; exit 1; }
  echo "   $SUPCK holds no sid<N> directory"

  echo "== supervisor status aggregates the worker tier"
  STATUS=$(request_on "$SUPSOCK" '{"id":10,"op":"status"}')
  python3 - "$STATUS" <<'EOF'
import json, sys
r = json.loads(sys.argv[1])
assert r["ok"], r
sup = r["result"]["supervisor"]
assert sup["workers"] == 2, sup
assert "transport" not in sup, sup
assert len(sup["per_worker"]) == 2, sup
print("   status: supervisor pid %d, %d workers" % (sup["pid"], sup["workers"]))
EOF

  echo "== graceful supervisor shutdown"
  SHUT=$(request_on "$SUPSOCK" '{"id":11,"op":"shutdown"}')
  python3 -c 'import json,sys; r = json.loads(sys.argv[1]); assert r["ok"], r' "$SHUT"
  wait "$SERVER_PID"
  [ ! -S "$SUPSOCK" ] || { echo "supervisor socket not removed on drain"; exit 1; }
  [ ! -f "$SHM" ] || { echo "shm segment not removed on drain"; exit 1; }
}

supervisor_drill

# ---------------------------------------------------------------------------
# BENCH artifact: the same light-mix batch against a clean supervisor,
# merged under BENCH service, plus ECO edit latency under service.eco.
# ---------------------------------------------------------------------------

BENCH_CONNS=${SMOKE_BENCH_CONNS:-64}
BENCH_REQUESTS=${SMOKE_BENCH_REQUESTS:-600}

bench_pass() {
  local SUPSOCK="$DIR/bench.sock"
  local SHM="$SUPSOCK.shm"
  echo "== light-mix throughput: $BENCH_REQUESTS requests over $BENCH_CONNS conns"
  "$BIN" serve --socket "$SUPSOCK" --workers-proc 2 --tcp 127.0.0.1:0 &
  SERVER_PID=$!
  for _ in $(seq 100); do [ -S "$SUPSOCK" ] && [ -f "$SHM" ] && break; sleep 0.1; done
  [ -S "$SUPSOCK" ] || { echo "supervisor socket never appeared"; exit 1; }
  PORT=$("$BIN" top --shm "$SHM" --once --json \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["tcp_port"])')
  "$LOADGEN" --tcp "127.0.0.1:$PORT" --conns "$BENCH_CONNS" --requests "$BENCH_REQUESTS" \
    --mix light --bench tiny --expect-digest "$REF" --key service --out BENCH_results.json
  # edit-latency percentiles for the artifact, merged as service.eco
  # next to the flow numbers
  "$LOADGEN" --tcp "127.0.0.1:$PORT" --mix eco --bench tiny --sessions 2 --edits 4 \
    --verify-replay --key service --out BENCH_results.json
  SHUT=$(request_on "$SUPSOCK" '{"id":11,"op":"shutdown"}')
  python3 -c 'import json,sys; r = json.loads(sys.argv[1]); assert r["ok"], r' "$SHUT"
  wait "$SERVER_PID"
}

bench_pass

echo "serve smoke: OK (digest $REF reproduced across server crash, worker kill -9, rolling restart, and ECO edit sessions)"
