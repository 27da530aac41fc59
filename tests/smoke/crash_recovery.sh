#!/usr/bin/env bash
# Crash-recovery smoke: the durability contract on a real SIGKILL'd process.
# A durable server (serve --listen --data-dir) takes acked update traffic
# (--wal-sync always: every acknowledged batch is fsync'd before its
# response), is SIGKILL'd mid-query-stream, restarts from the data dir alone
# (no --users/--facilities: the checkpoint is self-contained), and must come
# back bit-identical:
#   1. the same query stream's answers byte-diff equal as %a hex-float dumps
#      (every bit of every double significant);
#   2. the status scrape shows a real recovery: durable + recovered flags, a
#      committed checkpoint, at least one WAL batch replayed, and the
#      pre-crash snapshot version and user count restored exactly.
#
# Usage: crash_recovery.sh PATH/TO/tqcover_cli
# Runs in $SMOKE_WORK_DIR when set (kept afterwards, for inspection), else
# in a fresh temporary directory removed on exit. Servers bind ephemeral
# ports and are killed by saved PID; every client runs under `timeout`.
# ctest runs it as `smoke_crash_recovery` (label `smoke`).
set -euo pipefail

CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
test -x "$CLI"
if [ -n "${SMOKE_WORK_DIR:-}" ]; then
  WORK=$SMOKE_WORK_DIR
  rm -rf "$WORK"
  mkdir -p "$WORK"
  KEEP=1
else
  WORK=$(mktemp -d)
  KEEP=0
fi
cd "$WORK"

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  cd /
  if [ "$KEEP" = 0 ]; then rm -rf "$WORK"; fi
}
trap cleanup EXIT

port_of() {  # port_of LOGFILE -> the ephemeral port it bound
  for _ in $(seq 1 100); do
    grep -q "listening on" "$1" && break
    sleep 0.2
  done
  sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$1"
}

timeout 60 "$CLI" generate --preset nyf --n 2000 --out cr_users.bin
timeout 60 "$CLI" generate --preset nybus --n 32 --stops 24 \
  --out cr_routes.bin

"$CLI" serve --users cr_users.bin --facilities cr_routes.bin --shards 4 \
  --threads 2 --listen 0 --duration 600 --data-dir cr_data \
  --wal-sync always > serve_pre.log 2>&1 &
SERVE_PID=$!
PIDS+=("$SERVE_PID")
PORT=$(port_of serve_pre.log)
test -n "$PORT"
# Acked durable writes: 6 update batches (inserts + removes of real initial
# users, so answers actually change), then the pre-crash answer dump and
# status scrape.
timeout 60 "$CLI" query "127.0.0.1:$PORT" --sums 20 \
  --updates 6 --update-size 4 --update-removes 2
timeout 120 "$CLI" query "127.0.0.1:$PORT" \
  --sums 200 --topks 20 --k 8 --facility-range 32 --dump pre_crash.dump
timeout 60 "$CLI" status "127.0.0.1:$PORT" | tee status_pre.txt
grep '^# json: ' status_pre.txt | sed 's/^# json: //' > status_pre.json
# SIGKILL while a query stream is in flight: the crash the WAL exists for.
( timeout 60 "$CLI" query "127.0.0.1:$PORT" \
    --sums 2000 --topks 20 --k 8 --facility-range 32 \
    > /dev/null 2>&1 || true ) &
TRAFFIC_PID=$!
PIDS+=("$TRAFFIC_PID")
sleep 0.3
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
wait "$TRAFFIC_PID" || true

# Restart from the data dir alone: geometry, facilities, users and indexes
# all come from the checkpoint; the WAL tail replays.
"$CLI" serve --shards 4 --threads 2 --listen 0 --duration 600 \
  --data-dir cr_data --wal-sync always > serve_post.log 2>&1 &
SERVE2_PID=$!
PIDS+=("$SERVE2_PID")
PORT2=$(port_of serve_post.log)
test -n "$PORT2"
grep -q "recovered from" serve_post.log
timeout 120 "$CLI" query "127.0.0.1:$PORT2" \
  --sums 200 --topks 20 --k 8 --facility-range 32 --dump post_restart.dump
timeout 60 "$CLI" status "127.0.0.1:$PORT2" | tee status_post.txt
grep '^# json: ' status_post.txt | sed 's/^# json: //' > status_post.json
kill "$SERVE2_PID" 2>/dev/null || true
wait "$SERVE2_PID" || true

# Gate 1: bit-identity across the crash.
diff pre_crash.dump post_restart.dump
echo "bit-identity gate OK: $(wc -l < post_restart.dump) answers"
# Gate 2: the recovery was real and complete.
python3 - <<'EOF'
import json
pre = json.load(open("status_pre.json"))
post = json.load(open("status_post.json"))
dpre, dpost = pre["durability"], post["durability"]
assert dpre["durable"] and not dpre["recovered"], dpre
assert dpost["durable"] and dpost["recovered"], dpost
assert dpost["checkpoint_lsn"] >= 1, dpost
assert dpost["replayed_batches"] >= 1, (
    "recovery replayed no WAL batches despite acked updates: "
    f"{dpost}")
assert dpost["last_lsn"] == dpre["last_lsn"], (
    f"snapshot version diverged across the crash: pre "
    f"{dpre['last_lsn']}, post {dpost['last_lsn']}")
assert post["self"]["users_total"] == pre["self"]["users_total"]
assert post["self"]["num_shards"] == pre["self"]["num_shards"]
print(f"recovery gate OK: checkpoint lsn "
      f"{dpost['checkpoint_lsn']}, {dpost['replayed_batches']} "
      f"WAL batches replayed, snapshot v{dpost['last_lsn']} and "
      f"{post['self']['users_total']} users restored in "
      f"{dpost['recovery_ms']:.1f} ms")
EOF
