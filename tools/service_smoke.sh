#!/bin/sh
# Smoke test of the persistent compile service (docs/API.md).
#
# Boots a real mompd, then:
#   1. asserts `mompc --daemon` output is byte-identical to one-shot mompc;
#   2. drives 51 mixed protocol v3 requests through `mompd request` —
#      compiles and runs (one with an injected pass-crash), repeated
#      identical requests, stats, a wrong-version request, a request using
#      the retired v2 "optimize" member and a non-request JSON line —
#      asserting every request gets exactly one stable JSON response line
#      and structured rejections stay structured;
#   3. shuts the daemon down cleanly and checks it exits 0 and removes
#      its socket;
#   4. sends the same request file through a one-shard `mompd route`:
#      every reply line but the two `stats` answers (the router's own
#      document, by design) must be byte-identical to the lone daemon's,
#      and the router must exit 0 with its and its shard's sockets gone.
#
# Exit codes matched here are API (lib/fault/ompgpu_error.ml): 14
# pass-crash, 40 overload, 42 bad-request (41 is the supervisor's
# crash-loop circuit breaker, exercised by tools/chaos_soak.sh).

set -e

MOMPC=${MOMPC:-_build/default/bin/mompc.exe}
MOMPD=${MOMPD:-_build/default/bin/mompd.exe}
WORK=$(mktemp -d)
# keep the socket path short: Unix sockets cap at ~108 bytes
SOCK=$(mktemp -u /tmp/mompd-smoke-XXXXXX.sock)
RSOCK=$(mktemp -u /tmp/mompd-smoke-r-XXXXXX.sock)
DPID=
RPID=
trap 'rm -rf "$WORK"; rm -f "$SOCK" "$RSOCK";
      [ -n "$DPID" ] && kill "$DPID" 2>/dev/null;
      [ -n "$RPID" ] && kill "$RPID" 2>/dev/null;
      true' EXIT

fail() { echo "service-smoke: FAIL: $*" >&2; exit 1; }

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

"$MOMPD" serve --socket "$SOCK" -j 2 --capacity 8 2> "$WORK/daemon.log" &
DPID=$!
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i+1))
  [ "$i" -gt 100 ] && fail "daemon did not come up (see $WORK/daemon.log)"
  kill -0 "$DPID" 2>/dev/null || fail "daemon died on startup: $(cat "$WORK/daemon.log")"
  sleep 0.1
done

# --- 1. mompc --daemon is byte-identical to one-shot mompc -----------------

"$MOMPC" -O --run "$WORK/input.c" > "$WORK/ref.out" 2> "$WORK/ref.err" \
  || fail "one-shot compile failed"
"$MOMPC" -O --run --daemon "$SOCK" "$WORK/input.c" > "$WORK/d.out" 2> "$WORK/d.err" \
  || fail "daemon compile failed"
cmp -s "$WORK/ref.out" "$WORK/d.out" || fail "daemon stdout differs from one-shot"
cmp -s "$WORK/ref.err" "$WORK/d.err" || fail "daemon stderr differs from one-shot"

# --- 2. 51 mixed raw protocol requests -------------------------------------

# the source as a JSON string body (it contains no quotes or backslashes)
SRC=$(awk '{printf "%s\\n", $0}' "$WORK/input.c")

REQ="$WORK/requests.jsonl"
: > "$REQ"
n=0
while [ "$n" -lt 43 ]; do
  if [ $((n % 2)) -eq 0 ]; then op=compile; else op=run; fi
  printf '{"v":3,"id":"c%d","op":"%s","file":"input.c","source":"%s","config":{"pipeline":"full"}}\n' \
    "$n" "$op" "$SRC" >> "$REQ"
  n=$((n+1))
done
# two byte-identical requests: their responses must be byte-identical too
printf '{"v":3,"id":"dup","op":"run","file":"input.c","source":"%s","config":{"pipeline":"full"}}\n' "$SRC" >> "$REQ"
printf '{"v":3,"id":"dup","op":"run","file":"input.c","source":"%s","config":{"pipeline":"full"}}\n' "$SRC" >> "$REQ"
# one injected fault: fails structurally (pass-crash, exit 14), daemon survives
printf '{"v":3,"id":"crash","op":"compile","file":"input.c","source":"%s","config":{"pipeline":"full","inject":["pass-crash:1.0"]}}\n' "$SRC" >> "$REQ"
printf '{"v":3,"id":"s1","op":"stats"}\n' >> "$REQ"
# structured rejections: wrong protocol version, the retired v2 "optimize"
# member (never silently compiled at O0), then a non-request document
printf '{"v":99,"id":"bad","op":"stats"}\n' >> "$REQ"
printf '{"v":3,"id":"retired","op":"compile","file":"input.c","source":"%s","config":{"optimize":true}}\n' "$SRC" >> "$REQ"
printf '"hello"\n' >> "$REQ"
printf '{"v":3,"id":"s2","op":"stats"}\n' >> "$REQ"
# the 52nd line drains the daemon
printf '{"v":3,"id":"q","op":"shutdown"}\n' >> "$REQ"

RESP="$WORK/responses.jsonl"
"$MOMPD" request --socket "$SOCK" < "$REQ" > "$RESP" \
  || fail "mompd request exited nonzero"

[ "$(wc -l < "$RESP")" -eq 52 ] \
  || fail "expected 52 response lines, got $(wc -l < "$RESP")"
[ "$(grep -c '"ok":true' "$RESP")" -eq 48 ] \
  || fail "expected 48 ok responses, got $(grep -c '"ok":true' "$RESP")"
[ "$(grep '"id":"dup"' "$RESP" | sort -u | wc -l)" -eq 1 ] \
  || fail "identical requests produced different response bytes"
grep -q '"id":"crash".*"exit_code":14' "$RESP" \
  || fail "injected pass-crash did not answer exit 14"
grep -q '"id":"bad".*"kind":"bad-request"' "$RESP" \
  || fail "wrong-version request was not rejected as bad-request"
grep '"id":"retired"' "$RESP" | grep -q '"exit_code":42' \
  || fail "retired \"optimize\" member was not rejected with exit 42"
grep '"id":"retired"' "$RESP" | grep -q 'pipeline' \
  || fail "retired \"optimize\" rejection does not name \"pipeline\""
[ "$(grep -c '"kind":"bad-request"' "$RESP")" -eq 3 ] \
  || fail "expected 3 bad-request rejections"
[ "$(grep -c '"op":"stats".*"schema":2' "$RESP")" -eq 2 ] \
  || fail "stats responses are not schema-stamped"
grep -q '{"v":3,"id":"q","op":"shutdown","ok":true}' "$RESP" \
  || fail "missing shutdown acknowledgement"

# --- 3. clean shutdown ------------------------------------------------------

wait "$DPID" || fail "daemon exited nonzero after shutdown"
DPID=
[ ! -e "$SOCK" ] || fail "daemon left its socket file behind"

# --- 4. the same requests through a one-shard fleet router ------------------

"$MOMPD" route --socket "$RSOCK" --shards 1 --fleet-dir "$WORK/fleet" \
  2> "$WORK/router.log" &
RPID=$!
i=0
until "$MOMPD" health --socket "$RSOCK" 2>/dev/null | grep -q '"shards_up": 1'; do
  i=$((i+1))
  [ "$i" -gt 100 ] && fail "router did not come up (see $WORK/router.log)"
  kill -0 "$RPID" 2>/dev/null || fail "router died on startup: $(cat "$WORK/router.log")"
  sleep 0.1
done

RRESP="$WORK/router-responses.jsonl"
"$MOMPD" request --socket "$RSOCK" < "$REQ" > "$RRESP" \
  || fail "mompd request through the router exited nonzero"
[ "$(wc -l < "$RRESP")" -eq 52 ] \
  || fail "expected 52 router response lines, got $(wc -l < "$RRESP")"
[ "$(grep -c '"op":"stats".*"role":"router"' "$RRESP")" -eq 2 ] \
  || fail "the router's stats answers are not its own document"
# the stats answers differ by design; every other line must not
not_stats() { grep -v -e '^{"v":3,"id":"s1",' -e '^{"v":3,"id":"s2",' "$1"; }
not_stats "$RESP" > "$WORK/daemon-rest.jsonl"
not_stats "$RRESP" > "$WORK/router-rest.jsonl"
[ "$(wc -l < "$WORK/router-rest.jsonl")" -eq 50 ] \
  || fail "expected 50 non-stats router response lines"
cmp -s "$WORK/daemon-rest.jsonl" "$WORK/router-rest.jsonl" \
  || fail "router replies differ from the lone daemon's"

wait "$RPID" || fail "router exited nonzero after shutdown"
RPID=
[ ! -e "$RSOCK" ] || fail "router left its socket file behind"
[ ! -e "$WORK/fleet/shard-0.sock" ] || fail "router left its shard's socket behind"

echo "service-smoke: OK (52 responses, byte-identical daemon compiles, clean shutdown; router replies byte-identical, clean fleet shutdown)"
