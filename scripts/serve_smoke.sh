#!/bin/sh
# End-to-end smoke of the pac_serve subsystem with the real binaries:
#
#   1. generate a dataset and fit a classification (pautoclass_cli
#      --checkpoint writes a pac-search-result file);
#   2. require pac_serve to reject a flag it does not know (the deleted
#      --max-delay-ms) with exit code 2, naming the flag;
#   3. start pac_serve on an ephemeral port with the checkpoint watcher on;
#   4. drive it with 8 concurrent pac_client --bench-predict streams;
#   5. rewrite the checkpoint mid-run and force a hot reload, verifying the
#      served generation bumps while the streams keep flowing;
#   6. shut the server down with SIGTERM and require a clean exit.
#
# Usage: scripts/serve_smoke.sh [--build-dir DIR]
# Exit code 0 = every step held; anything else is a failure.
set -e
cd "$(dirname "$0")/.."

BUILD_DIR=build
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) shift; BUILD_DIR="$1" ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

CLI="$BUILD_DIR/examples/pautoclass_cli"
SERVE="$BUILD_DIR/tools/pac_serve"
CLIENT="$BUILD_DIR/tools/pac_client"
for bin in "$CLI" "$SERVE" "$CLIENT"; do
  if [ ! -x "$bin" ]; then
    echo "serve_smoke: missing binary $bin (build first)" >&2
    exit 2
  fi
done

TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== serve_smoke: generate + fit =="
"$CLI" --generate "$TMP/d" --items 600 >/dev/null
"$CLI" --header "$TMP/d.hd2" --data "$TMP/d.db2" \
  --jlist 3 --tries 1 --max-cycles 5 --checkpoint "$TMP/ckpt" >/dev/null

echo "== serve_smoke: unknown flag is rejected =="
# Without the check this would start a server: the timeout turns that into
# a failure (exit 124) instead of a hang.
status=0
timeout 10 "$SERVE" --header "$TMP/d.hd2" --data "$TMP/d.db2" \
  --checkpoint "$TMP/ckpt" --listen 127.0.0.1:0 --max-delay-ms 1 \
  >"$TMP/unknown.log" 2>&1 || status=$?
if [ "$status" -ne 2 ] || ! grep -q -- '--max-delay-ms' "$TMP/unknown.log"; then
  echo "serve_smoke: pac_serve --max-delay-ms 1 exited $status;" \
    "expected 2 with the flag named" >&2
  cat "$TMP/unknown.log" >&2
  exit 1
fi

echo "== serve_smoke: start pac_serve (watcher on) =="
"$SERVE" --header "$TMP/d.hd2" --data "$TMP/d.db2" \
  --checkpoint "$TMP/ckpt" --listen 127.0.0.1:0 \
  --watch --watch-interval 0.1 --address-out "$TMP/addr" \
  >"$TMP/serve.log" 2>&1 &
SERVER_PID=$!

# Wait for the server to publish its bound address.
tries=0
while [ ! -s "$TMP/addr" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "serve_smoke: server never wrote $TMP/addr" >&2
    cat "$TMP/serve.log" >&2
    exit 1
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve_smoke: server exited during startup" >&2
    cat "$TMP/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
ADDR=$(cat "$TMP/addr")
echo "   bound at $ADDR"

echo "== serve_smoke: 8 concurrent bench-predict streams =="
client_pids=""
for i in 1 2 3 4 5 6 7 8; do
  "$CLIENT" --connect "$ADDR" --header "$TMP/d.hd2" \
    --bench-predict "$TMP/d.db2" --repeat 20 \
    >"$TMP/client$i.log" 2>&1 &
  client_pids="$client_pids $!"
done

# Mid-stream: refit to a different checkpoint content and hot-reload.
"$CLI" --header "$TMP/d.hd2" --data "$TMP/d.db2" \
  --jlist 2 --tries 1 --max-cycles 5 --checkpoint "$TMP/ckpt.new" >/dev/null
mv "$TMP/ckpt.new" "$TMP/ckpt"
"$CLIENT" --connect "$ADDR" --reload >/dev/null

client_failures=0
for pid in $client_pids; do
  if ! wait "$pid"; then
    client_failures=$((client_failures + 1))
  fi
done
if [ "$client_failures" -gt 0 ]; then
  echo "serve_smoke: $client_failures client stream(s) failed" >&2
  cat "$TMP"/client*.log >&2
  exit 1
fi

echo "== serve_smoke: generation bumped after reload =="
"$CLIENT" --connect "$ADDR" --info | tee "$TMP/info.txt"
if ! grep -q 'generation [2-9]' "$TMP/info.txt"; then
  echo "serve_smoke: served generation did not advance past 1" >&2
  exit 1
fi

echo "== serve_smoke: clean SIGTERM shutdown =="
kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "serve_smoke: server exited nonzero on SIGTERM" >&2
  cat "$TMP/serve.log" >&2
  exit 1
fi
SERVER_PID=""
echo "serve_smoke: ok"
