#!/bin/sh
# Chaos/soak harness for the supervised compile service (docs/ROBUSTNESS.md).
#
# Five phases, CHAOS_ITERS iterations overall (default 200):
#
#   1. Supervised crash soak: a daemon under `--inject daemon-kill` crashes
#      its serve loop on a deterministic fraction of accepts; a stream of
#      `mompc --daemon` compiles rides through the restarts and every one
#      must exit 0 with bytes identical to a one-shot reference (the client
#      retries through restarts; if a run exhausts its budget it degrades
#      in-process, which is byte-identical by construction).  Afterwards
#      `mompd health` must report restarts > 0 with the breaker closed,
#      and a shutdown must still exit 0.
#
#   2. External kill -9 soak: repeatedly SIGKILL the daemon mid-request,
#      restart it on the same socket and state dir, and assert the client
#      still exits 0 byte-identical every time.  The journal's recovery
#      scan runs on each reboot; the final health document must carry it.
#
#   3. Malformed-frame fuzz: wrong-version requests, non-request JSON
#      documents and interleaved valid stats through `mompd request` —
#      every line gets exactly one response, every bad one a structured
#      bad-request rejection, and the daemon stays up.  When python3 is
#      available, raw garbage bytes, a torn frame and an oversized
#      (> max_frame_bytes) line are also thrown at the socket directly.
#
#   4. Fleet kill -9 soak: `mompd route` fronts three subprocess shards;
#      a stream of compiles rides through the router while one shard is
#      SIGKILLed mid-traffic.  Every client must still exit 0 with bytes
#      identical to the one-shot reference (the router strikes the dead
#      shard and fails over along the ring), the monitor must respawn
#      the corpse, and the fleet document must show all shards back up
#      with a respawn on the books (docs/FLEET.md).
#
#   5. Storage-governance soak: a fleet under `--inject disk-full` (half
#      of all disk-cache stores fail as ENOSPC) and a tiny
#      `--cache-max-bytes` quota, fed a rotating set of distinct sources
#      so the caches churn.  Every reply must stay byte-identical to its
#      one-shot reference (a full disk costs warm hits, never a reply),
#      the shared cache directory must stay bounded by the per-shard
#      quotas, and the router stats must surface the storage rollup.
#
# Zero non-taxonomy exits allowed anywhere: clients exit 0, the daemon
# exits 0 on shutdown, and nothing ever dies on an unhandled exception.

set -e

MOMPC=${MOMPC:-_build/default/bin/mompc.exe}
MOMPD=${MOMPD:-_build/default/bin/mompd.exe}
CHAOS_ITERS=${CHAOS_ITERS:-200}

# iteration budget: half crash soak, a tenth kill -9 cycles (each costs a
# daemon boot), a tenth fleet compiles around a shard SIGKILL, a tenth
# storage-governance compiles under disk-full injection, the rest
# protocol fuzz lines
P1=$((CHAOS_ITERS / 2))
P2=$((CHAOS_ITERS / 10))
P4=$((CHAOS_ITERS / 10))
[ "$P4" -ge 4 ] || P4=4
P5=$((CHAOS_ITERS / 10))
[ "$P5" -ge 6 ] || P5=6
P3=$((CHAOS_ITERS - P1 - P2 - P4 - P5))
[ "$P3" -ge 5 ] || P3=5

WORK=$(mktemp -d)
# keep the socket paths short: Unix sockets cap at ~108 bytes
SOCK=$(mktemp -u /tmp/mompd-chaos-XXXXXX.sock)
RSOCK=$(mktemp -u /tmp/mompd-chaos-r-XXXXXX.sock)
DPID=
RPID=
# the router owns its shard subprocesses: TERM it first so it can stop
# them, and only then fall back to SIGKILL
trap 'rm -rf "$WORK"; rm -f "$SOCK" "$RSOCK";
      [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null;
      [ -n "$RPID" ] && { kill "$RPID" 2>/dev/null; sleep 1; kill -9 "$RPID" 2>/dev/null; };
      true' EXIT

fail() { echo "chaos-soak: FAIL: $*" >&2; exit 1; }

[ -x "$MOMPC" ] || fail "mompc binary not found at $MOMPC (run: dune build bin)"
[ -x "$MOMPD" ] || fail "mompd binary not found at $MOMPD (run: dune build bin)"

cat > "$WORK/input.c" <<'EOF'
long A[8];
static void bump(long* p) { p[0] = p[0] + 1; }
int main() {
  #pragma omp target teams distribute num_teams(2) thread_limit(8)
  for (int i = 0; i < 16; i++) {
    long s = (long)i;
    bump(&s);
    A[i % 8] = s;
  }
  return 0;
}
EOF

# one-shot reference: every daemon-path compile below must match these bytes
"$MOMPC" -O --run "$WORK/input.c" > "$WORK/ref.out" 2> "$WORK/ref.err" \
  || fail "one-shot reference compile failed"

# wait until `mompd health` answers (also exercises the health verb); the
# serve loop may be mid-restart, so connection failures here are expected
wait_healthy() {
  i=0
  while ! "$MOMPD" health --socket "$SOCK" > /dev/null 2>&1; do
    i=$((i+1))
    [ "$i" -gt 100 ] && fail "daemon did not become healthy (see $WORK/daemon.log)"
    kill -0 "$DPID" 2>/dev/null || fail "daemon died: $(tail -5 "$WORK/daemon.log")"
    sleep 0.1
  done
}

# a control verb may land on an accept that the injector crashes; retry it
retry_verb() {
  i=0
  until "$MOMPD" "$@" --socket "$SOCK" 2>/dev/null; do
    i=$((i+1))
    [ "$i" -gt 25 ] && fail "mompd $1 kept failing against $SOCK"
    sleep 0.1
  done
}

# --- phase 1: supervised crash soak ----------------------------------------

echo "chaos-soak: phase 1: $P1 compiles over daemon-kill injection" >&2

"$MOMPD" serve --socket "$SOCK" -j 2 --capacity 8 \
  --state-dir "$WORK/state1" \
  --inject daemon-kill:0.3:1 --max-restarts 100000 --restart-window 5 \
  2> "$WORK/daemon.log" &
DPID=$!
wait_healthy

n=0
while [ "$n" -lt "$P1" ]; do
  "$MOMPC" -O --run --daemon "$SOCK" "$WORK/input.c" \
    > "$WORK/p1.out" 2> "$WORK/p1.err" \
    || fail "phase 1 iter $n: client exited $? (non-taxonomy path)"
  cmp -s "$WORK/ref.out" "$WORK/p1.out" || fail "phase 1 iter $n: stdout differs"
  cmp -s "$WORK/ref.err" "$WORK/p1.err" || fail "phase 1 iter $n: stderr differs"
  n=$((n+1))
done

retry_verb health > "$WORK/health1.json"
grep -q '"breaker": "closed"' "$WORK/health1.json" \
  || fail "phase 1: breaker not closed: $(cat "$WORK/health1.json")"
grep -q '"restarts": 0,' "$WORK/health1.json" \
  && fail "phase 1: supervisor never restarted under daemon-kill injection"
grep -q '"ev":"restart"' "$WORK/state1/journal.ndjson" \
  || fail "phase 1: journal has no restart events"

retry_verb shutdown
wait "$DPID" || fail "phase 1: daemon exited nonzero after shutdown"
DPID=
[ ! -e "$SOCK" ] || fail "phase 1: daemon left its socket file behind"

# --- phase 2: external kill -9 soak ----------------------------------------

echo "chaos-soak: phase 2: $P2 kill -9 / restart cycles" >&2

start_daemon2() {
  "$MOMPD" serve --socket "$SOCK" -j 2 --capacity 8 \
    --state-dir "$WORK/state2" 2>> "$WORK/daemon.log" &
  DPID=$!
  wait_healthy
}

start_daemon2
n=0
while [ "$n" -lt "$P2" ]; do
  "$MOMPC" -O --run --daemon "$SOCK" "$WORK/input.c" \
    > "$WORK/p2.out" 2> "$WORK/p2.err" &
  CPID=$!
  # land the SIGKILL anywhere from connect to mid-compile
  sleep 0.0$((n % 5))
  kill -9 "$DPID" 2>/dev/null || true
  wait "$DPID" 2>/dev/null || true
  wait "$CPID" || fail "phase 2 iter $n: client exited $? after daemon SIGKILL"
  cmp -s "$WORK/ref.out" "$WORK/p2.out" || fail "phase 2 iter $n: stdout differs"
  cmp -s "$WORK/ref.err" "$WORK/p2.err" || fail "phase 2 iter $n: stderr differs"
  start_daemon2
  n=$((n+1))
done

# the last reboot replayed a journal that a SIGKILL cut short: the health
# document must carry the recovery scan's counters
retry_verb health > "$WORK/health2.json"
grep -q '"journal": {' "$WORK/health2.json" \
  || fail "phase 2: health carries no journal recovery counters"
grep -q '"interrupted":' "$WORK/health2.json" \
  || fail "phase 2: recovery scan reports no interrupted counter"

# --- phase 3: malformed-frame fuzz -----------------------------------------

echo "chaos-soak: phase 3: $P3 fuzz lines through mompd request" >&2

REQ="$WORK/fuzz.jsonl"
: > "$REQ"
bad=0
good=0
n=0
while [ "$n" -lt "$P3" ]; do
  case $((n % 5)) in
    0) printf '{"v":99,"id":"f%d","op":"stats"}\n' "$n" >> "$REQ"; bad=$((bad+1)) ;;
    1) printf '"hello-%d"\n' "$n" >> "$REQ"; bad=$((bad+1)) ;;
    2) printf '{"op":"nope","junk":%d}\n' "$n" >> "$REQ"; bad=$((bad+1)) ;;
    3) printf '[%d,2,3]\n' "$n" >> "$REQ"; bad=$((bad+1)) ;;
    4) printf '{"v":3,"id":"ok%d","op":"stats"}\n' "$n" >> "$REQ"; good=$((good+1)) ;;
  esac
  n=$((n+1))
done

RESP="$WORK/fuzz-resp.jsonl"
"$MOMPD" request --socket "$SOCK" < "$REQ" > "$RESP" \
  || fail "phase 3: mompd request exited nonzero"
[ "$(wc -l < "$RESP")" -eq "$P3" ] \
  || fail "phase 3: expected $P3 response lines, got $(wc -l < "$RESP")"
[ "$(grep -c '"kind":"bad-request"' "$RESP")" -eq "$bad" ] \
  || fail "phase 3: expected $bad bad-request rejections, got $(grep -c '"kind":"bad-request"' "$RESP")"
[ "$(grep -c '"ok":true' "$RESP")" -eq "$good" ] \
  || fail "phase 3: expected $good ok responses, got $(grep -c '"ok":true' "$RESP")"

# raw bytes the line-oriented `mompd request` cannot send: garbage, a torn
# frame, and an oversized (> 8 MiB) line straight onto the socket
if command -v python3 > /dev/null 2>&1; then
  python3 - "$SOCK" <<'PYEOF' || fail "phase 3: raw-socket fuzz failed"
import socket, sys
path = sys.argv[1]

def conn():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(10)
    s.connect(path)
    return s

# garbage bytes: one structured rejection, connection stays usable
s = conn()
s.sendall(b"\x00\xff{{{ not json\n")
r = s.makefile("rb").readline()
assert b"bad-request" in r, r
s.sendall(b'{"v":3,"id":"after","op":"stats"}\n')
r = s.makefile("rb").readline()
assert b'"ok":true' in r, r
s.close()

# torn frame: half a request then EOF -- rejection, clean close
s = conn()
s.sendall(b'{"v":3,"id":"torn","op":"sta')
s.shutdown(socket.SHUT_WR)
r = s.makefile("rb").readline()
assert b"bad-request" in r, r
s.close()

# oversized line: the daemon answers one rejection then severs the
# connection; depending on how much was still in flight the sender may
# see the severance as a reset instead of the rejection line -- either
# way it must never wedge, and the daemon must survive (checked below)
s = conn()
try:
    s.sendall(b"a" * (9 * 1024 * 1024) + b"\n")
    r = s.makefile("rb").readline()
    assert r == b"" or b"bad-request" in r, r
except (BrokenPipeError, ConnectionResetError):
    pass
s.close()
PYEOF
  # the daemon must have survived all of it
  retry_verb stats > /dev/null
else
  echo "chaos-soak: note: python3 not found, skipping raw-socket fuzz" >&2
fi

# --- clean shutdown of the single daemon ------------------------------------

retry_verb shutdown
wait "$DPID" || fail "daemon exited nonzero after shutdown"
DPID=
[ ! -e "$SOCK" ] || fail "daemon left its socket file behind"

# --- phase 4: fleet kill -9 soak --------------------------------------------

echo "chaos-soak: phase 4: $P4 compiles through the router around a shard kill -9" >&2

"$MOMPD" route --socket "$RSOCK" --shards 3 -j 2 \
  --fleet-dir "$WORK/fleet" --cache-dir "$WORK/fleet-cache" \
  --probe-interval 0.05 \
  2> "$WORK/router.log" &
RPID=$!

# all three shards probed up before any traffic (or a kill) is aimed at them
fleet_doc() { "$MOMPD" fleet --socket "$RSOCK" 2>/dev/null; }
wait_fleet_up() { # $1 = expected shard count, $2 = router log
  i=0
  while [ "$(fleet_doc | grep -c '"state": "up"')" -ne "$1" ]; do
    i=$((i+1))
    [ "$i" -gt 200 ] && fail "fleet did not come up (see $2)"
    kill -0 "$RPID" 2>/dev/null || fail "router died: $(tail -5 "$2")"
    sleep 0.1
  done
}
wait_fleet_up 3 "$WORK/router.log"

n=0
while [ "$n" -lt "$P4" ]; do
  if [ "$n" -eq $((P4 / 2)) ]; then
    # SIGKILL one shard mid-traffic: pick its pid out of the fleet
    # document, index varied by the iteration count
    KPID=$(fleet_doc | grep -o '"pid": [0-9]*' | grep -o '[0-9]*$' \
           | sed -n "$(( (n % 3) + 1 ))p")
    [ -n "$KPID" ] || fail "phase 4: no shard pid in the fleet document"
    kill -9 "$KPID" 2>/dev/null || fail "phase 4: could not SIGKILL shard pid $KPID"
  fi
  "$MOMPC" -O --run --daemon "$RSOCK" "$WORK/input.c" \
    > "$WORK/p4.out" 2> "$WORK/p4.err" \
    || fail "phase 4 iter $n: client exited $? through the router"
  cmp -s "$WORK/ref.out" "$WORK/p4.out" || fail "phase 4 iter $n: stdout differs"
  cmp -s "$WORK/ref.err" "$WORK/p4.err" || fail "phase 4 iter $n: stderr differs"
  n=$((n+1))
done

# The monitor must have respawned the corpse and probed it back up.  Both
# conditions poll together: right after the kill the fleet document can
# still show three stale "up" states from probes that predate the SIGKILL,
# so requiring 3-up alone would pass before the monitor has even noticed
# the death (and the respawn counter would then read 0).
i=0
until fleet_doc > "$WORK/fleet.json" \
      && [ "$(grep -c '"state": "up"' "$WORK/fleet.json")" -eq 3 ] \
      && grep -q '"respawns": [1-9]' "$WORK/fleet.json"; do
  i=$((i+1))
  [ "$i" -gt 100 ] && fail "phase 4: killed shard never respawned and came back up: $(cat "$WORK/fleet.json")"
  sleep 0.1
done
"$MOMPD" health --socket "$RSOCK" | grep -q '"shards_up": 3' \
  || fail "phase 4: router health does not report 3 shards up"

"$MOMPD" shutdown --socket "$RSOCK" || fail "phase 4: router shutdown failed"
wait "$RPID" || fail "phase 4: router exited nonzero after shutdown"
RPID=
[ ! -e "$RSOCK" ] || fail "phase 4: router left its socket file behind"

# --- phase 5: storage governance under disk-full injection -------------------

echo "chaos-soak: phase 5: $P5 compiles under disk-full injection and a tiny cache quota" >&2

# a rotating set of distinct sources, so the byte-capped caches actually
# churn (one source would be a single key: no eviction pressure at all)
NVAR=6
v=0
while [ "$v" -lt "$NVAR" ]; do
  sed "s/num_teams(2)/num_teams($((v + 2)))/" "$WORK/input.c" > "$WORK/v$v.c"
  "$MOMPC" -O --run "$WORK/v$v.c" > "$WORK/ref$v.out" 2> "$WORK/ref$v.err" \
    || fail "phase 5: one-shot reference compile of variant $v failed"
  v=$((v+1))
done

QUOTA=4096
P5SHARDS=2
"$MOMPD" route --socket "$RSOCK" --shards "$P5SHARDS" -j 2 \
  --fleet-dir "$WORK/fleet5" --cache-dir "$WORK/p5-cache" \
  --cache-max-bytes "$QUOTA" --inject disk-full:0.5:9 \
  --probe-interval 0.05 \
  2> "$WORK/router5.log" &
RPID=$!
wait_fleet_up "$P5SHARDS" "$WORK/router5.log"

n=0
while [ "$n" -lt "$P5" ]; do
  v=$((n % NVAR))
  "$MOMPC" -O --run --daemon "$RSOCK" "$WORK/v$v.c" \
    > "$WORK/p5.out" 2> "$WORK/p5.err" \
    || fail "phase 5 iter $n: client exited $? under disk-full injection"
  cmp -s "$WORK/ref$v.out" "$WORK/p5.out" || fail "phase 5 iter $n: stdout differs"
  cmp -s "$WORK/ref$v.err" "$WORK/p5.err" || fail "phase 5 iter $n: stderr differs"
  n=$((n+1))
done

# the shared directory is bounded: each shard enforces its own quota over
# its own ledger, so the worst case is shards x quota plus one in-flight
# temp file's worth of slack
DU=$(du -sb "$WORK/p5-cache" 2>/dev/null | cut -f1)
[ -n "$DU" ] || DU=$(( $(du -sk "$WORK/p5-cache" | cut -f1) * 1024 ))
LIMIT=$((P5SHARDS * QUOTA + QUOTA))
[ "$DU" -le "$LIMIT" ] \
  || fail "phase 5: cache dir grew past the quota: ${DU}B on disk, limit ${LIMIT}B"

# the router's stats document must roll the shards' storage sections up
"$MOMPD" stats --socket "$RSOCK" > "$WORK/stats5.json" \
  || fail "phase 5: router stats failed"
grep -q '"storage"' "$WORK/stats5.json" \
  || fail "phase 5: router stats carry no storage rollup"
grep -q '"shards_reporting": '"$P5SHARDS" "$WORK/stats5.json" \
  || fail "phase 5: storage rollup missing shards: $(cat "$WORK/stats5.json")"

"$MOMPD" shutdown --socket "$RSOCK" || fail "phase 5: router shutdown failed"
wait "$RPID" || fail "phase 5: router exited nonzero after shutdown"
RPID=
[ ! -e "$RSOCK" ] || fail "phase 5: router left its socket file behind"

echo "chaos-soak: OK ($P1 compiles over crash injection, $P2 kill -9 cycles, $P3 fuzz lines, $P4 fleet compiles around a shard kill -9, $P5 compiles under disk-full injection; zero non-taxonomy exits)"
