#!/usr/bin/env bash
# End-to-end serving smoke: persist an index, serve it over TCP in the
# background, drive it with the real client (queries including the
# auto strategy, a metrics scrape, one deliberately malformed frame),
# then shut down gracefully. Fails on any nonzero client exit, a
# nonzero server exit, or a leaked server process.
set -euo pipefail
cd "$(dirname "$0")/.."

xtwig=target/release/xtwig
[ -x "$xtwig" ] || { echo "build first: cargo build --release" >&2; exit 1; }

tmp="$(mktemp -d)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

mkdir -p "$tmp/idx"
"$xtwig" build --out "$tmp/idx/demo.xtwig"

addr_file="$tmp/addr"
"$xtwig" serve --index-dir "$tmp/idx" --addr 127.0.0.1:0 --addr-file "$addr_file" &
server_pid=$!

# The server writes its bound (ephemeral) address once it is listening.
for _ in $(seq 1 100); do
  [ -s "$addr_file" ] && break
  kill -0 "$server_pid" 2>/dev/null || { echo "server died during startup" >&2; exit 1; }
  sleep 0.1
done
[ -s "$addr_file" ] || { echo "server never wrote $addr_file" >&2; exit 1; }
addr="$(cat "$addr_file")"
echo "serving on $addr (pid $server_pid)"

"$xtwig" client "$addr" ping
"$xtwig" client "$addr" catalog
"$xtwig" client "$addr" query demo "//person/name"                     # default: auto
"$xtwig" client "$addr" query demo "//person/name" --strategy DP
"$xtwig" client "$addr" query demo "/site//item[quantity = '2']/location" --strategy auto
"$xtwig" client "$addr" explain demo "//person/name"
# No `grep -q`: it closes the pipe at first match and the client would
# die on SIGPIPE mid-exposition; plain grep drains the whole stream.
"$xtwig" client "$addr" metrics demo | grep xtwig_queries_submitted_total
"$xtwig" client "$addr" stats demo | grep admission_limit
# Both renderings walk one family table, so the exposition carries the
# admission bound and the stats JSON the per-pool page reads.
"$xtwig" client "$addr" metrics demo | grep xtwig_admission_limit
"$xtwig" client "$addr" stats demo | grep '"page_reads"'

# Request-scoped observability: a sampled query must print its request
# id, the captured span tree must be retrievable by that id, the event
# journal must be streaming over the wire, and one-shot `top` must
# render a snapshot.
sampled="$("$xtwig" client "$addr" query demo "//person/name" --sample)"
echo "$sampled"
request_id="$(echo "$sampled" | sed -n 's/^sampled request id: \([0-9]*\).*/\1/p')"
[ -n "$request_id" ] || { echo "sampled query printed no request id" >&2; exit 1; }
"$xtwig" client "$addr" trace demo "$request_id" | grep "request $request_id"
"$xtwig" client "$addr" events | grep conn-open
"$xtwig" top "$addr" --once | grep "xtwig top"

# A malformed frame must produce a typed error response — not a hang,
# not a crash (the client subcommand exits 0 only on the typed error).
"$xtwig" client "$addr" badframe

# The server must still be healthy after eating garbage.
"$xtwig" client "$addr" ping

"$xtwig" client "$addr" shutdown

# Graceful exit: the process must be gone shortly after the ack, with
# a zero exit status. A single fixed sleep races shutdown's
# drain-and-join, so poll.
for _ in $(seq 1 100); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
  echo "server leaked: still running 10s after shutdown ack" >&2
  exit 1
fi
rc=0
wait "$server_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "server exited nonzero: $rc" >&2; exit 1; }
server_pid=""
echo "net smoke OK"
