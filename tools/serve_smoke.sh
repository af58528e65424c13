#!/usr/bin/env bash
# CI smoke test for `roccc serve`: drive a scripted session — a compile,
# a cache-warm repeat, a health probe, a malformed line, a deadline miss
# and a request that hits an injected fault — and assert every line got a
# structured response and the server drained cleanly. Then drive the
# Unix-socket transport: concurrent duplicate compiles on two
# connections, and a protocol shutdown.
set -euo pipefail

ROCCC=${ROCCC:-_build/default/bin/roccc.exe}
WORK=$(mktemp -d)
SRV=
trap '[ -n "$SRV" ] && kill "$SRV" 2> /dev/null; rm -rf "$WORK"' EXIT

KERNEL='void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) { B[i] = A[i] * 3 + 1; } }'

cat > "$WORK/session.jsonl" <<EOF
{"id":"c1","source":"$KERNEL","entry":"k"}
{"id":"c2","source":"$KERNEL","entry":"k"}
{"id":"bad","source":"void k(int A[4]) { A[0] = }","entry":"k"}
{this is not json
{"id":"dl","source":"$KERNEL","entry":"k","deadline_ms":0.0001}
{"id":"h","type":"health","drain":true}
EOF

# scheduler_claim at rate 1.0 fires on every worker claim: every compile
# comes back as a structured injected_fault error, never a crash.
"$ROCCC" serve --jobs 2 --cache --cache-dir "$WORK/cache" \
  --inject-fault scheduler_claim \
  < "$WORK/session.jsonl" > "$WORK/faulted.jsonl" 2> "$WORK/faulted.log"

# and the same session healthy end-to-end
"$ROCCC" serve --jobs 2 --cache --cache-dir "$WORK/cache" \
  < "$WORK/session.jsonl" > "$WORK/clean.jsonl" 2> "$WORK/clean.log"

fail() { echo "serve_smoke: FAIL: $1" >&2; cat "$WORK"/*.jsonl >&2; exit 1; }

for out in faulted clean; do
  n=$(wc -l < "$WORK/$out.jsonl")
  [ "$n" -eq 6 ] || fail "$out: expected 6 responses, got $n"
  grep -q '"kind":"bad_request".*malformed JSON' "$WORK/$out.jsonl" \
    || fail "$out: malformed line not answered"
  grep -q '"id":"h","status":"ok","health"' "$WORK/$out.jsonl" \
    || fail "$out: no health snapshot"
  grep -q 'drained after' "$WORK/$out.log" || fail "$out: no clean drain"
done

# rate-1.0 claim faults hit every worker-handled request — all four come
# back as structured injected_fault errors, and the health snapshot
# records the firings
for id in c1 c2 bad dl; do
  grep -q "\"id\":\"$id\",\"status\":\"error\",\"kind\":\"injected_fault\"" \
    "$WORK/faulted.jsonl" || fail "$id: injected fault not structured"
done
grep -q '"scheduler_claim":{"calls":4,"fired":4}' "$WORK/faulted.jsonl" \
  || fail "health snapshot missing fault counts"
grep -q '"id":"bad".*"kind":"compile"' "$WORK/clean.jsonl" \
  || fail "no structured compile error"
grep -q '"id":"dl","status":"deadline_exceeded"' "$WORK/clean.jsonl" \
  || fail "deadline miss not structured"
grep -q '"id":"c1","status":"ok"' "$WORK/clean.jsonl" || fail "c1 did not compile"
grep -q '"id":"c2","status":"ok"' "$WORK/clean.jsonl" || fail "c2 did not compile"
# c2 is byte-identical to c1 and two workers claim them at once, so
# whichever runs second is served from the cache or coalesced into the
# other's compile: exactly one of the pair is cold
cold=$(grep -c '"id":"c[12]","status":"ok".*"origin":"cold"' "$WORK/clean.jsonl")
[ "$cold" -eq 1 ] || fail "repeat compile missed the cache"

# invalid resource flags are friendly usage errors (exit 2)
set +e
"$ROCCC" serve --jobs=-1 < /dev/null 2> "$WORK/usage.log"; rc=$?
set -e
[ "$rc" -eq 2 ] || fail "--jobs=-1 exited $rc, want 2"
grep -q 'positive integer' "$WORK/usage.log" || fail "--jobs=-1 message unhelpful"

# --jobs 0 means auto: the session runs, and health reports both the
# configured count (0) and the effective one the pool resolved it to
printf '{"id":"h","type":"health"}\n' \
  | "$ROCCC" serve --jobs 0 > "$WORK/auto.jsonl" 2> "$WORK/auto.log"
grep -q '"workers":{"configured":0,"effective":[1-9]' "$WORK/auto.jsonl" \
  || fail "--jobs 0 did not resolve to an effective worker count"

# the socket transport of the real binary: two simultaneous connections
# send duplicate compiles; every reply is ok and the replies are
# byte-identical request-for-request across the connections once
# id/elapsed_ms/origin are stripped
SOCK="$WORK/serve.sock"
"$ROCCC" serve --socket "$SOCK" --jobs 2 --cache --cache-dir "$WORK/sock-cache" \
  2> "$WORK/sock.log" &
SRV=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || fail "serve socket never appeared"

python3 - "$SOCK" <<'EOF' || fail "concurrent duplicate compiles"
import json, socket, sys, threading

path = sys.argv[1]
KERNEL = "void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) { B[i] = A[i] * %d + 1; } }"

def client(tag, out):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(path)
    f = s.makefile("rw")
    for i in range(6):
        req = {"id": "%s%d" % (tag, i), "source": KERNEL % (i % 3), "entry": "k"}
        f.write(json.dumps(req) + "\n"); f.flush()
        out.append(json.loads(f.readline()))
    s.close()

a, b = [], []
ta = threading.Thread(target=client, args=("a", a))
tb = threading.Thread(target=client, args=("b", b))
ta.start(); tb.start(); ta.join(); tb.join()

def canon(resps):
    return [{k: v for k, v in r.items() if k not in ("id", "elapsed_ms", "origin")} for r in resps]

assert len(a) == len(b) == 6, "missing responses"
assert all(r["status"] == "ok" for r in a + b), "non-ok response"
assert canon(a) == canon(b), "responses differ across connections"
EOF

# a protocol shutdown drains the server: exit 0, socket file removed
python3 - "$SOCK" <<'EOF' || fail "protocol shutdown not acknowledged"
import json, socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
f = s.makefile("rw")
f.write(json.dumps({"id": "s", "type": "shutdown"}) + "\n"); f.flush()
assert json.loads(f.readline())["status"] == "ok"
s.close()
EOF
for _ in $(seq 1 100); do kill -0 "$SRV" 2> /dev/null || break; sleep 0.1; done
kill -0 "$SRV" 2> /dev/null && { kill "$SRV"; fail "server did not exit after shutdown"; }
rc=0
wait "$SRV" || rc=$?
SRV=
[ "$rc" -eq 0 ] || fail "socket server exited $rc, want 0"
[ ! -e "$SOCK" ] || fail "socket file left behind"

echo "serve_smoke: OK"
