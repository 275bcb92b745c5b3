#!/bin/sh
# Serves the same replay twice on ephemeral ports: once single-process,
# once sharded over two workers behind a coordinator. Fails unless the
# coordinator's merged /composition is byte-identical to the
# single-process one and every worker link reports sent == acked.
#
# usage: serve_topology.sh <appclass_cli> <work-dir>
set -eu
cli=${1:?usage: serve_topology.sh <appclass_cli> <work-dir>}
dir=${2:?usage: serve_topology.sh <appclass_cli> <work-dir>}
cycles=8
pids=""

stop_all() {
  for pid in $pids; do kill -TERM "$pid" 2>/dev/null || true; done
  for pid in $pids; do wait "$pid" 2>/dev/null || true; done
  pids=""
}
trap stop_all EXIT

rm -rf "$dir"
mkdir -p "$dir"
"$cli" train "$dir/model.txt" >/dev/null

# start <name> <serve flags...>: runs serve in the background, its output
# in <work-dir>/<name>.out.
start() {
  name=$1
  shift
  "$cli" serve "$dir/model.txt" "$@" >"$dir/$name.out" 2>&1 &
  pids="$pids $!"
}

# port_of <name> <line prefix>: waits for "<prefix> 127.0.0.1:<port>" in
# the output of <name> and prints the port.
port_of() {
  for _ in $(seq 1 300); do
    port=$(sed -n "s/^$2 127\\.0\\.0\\.1:\\([0-9]*\\).*/\\1/p" "$dir/$1.out")
    if [ -n "$port" ]; then
      echo "$port"
      return 0
    fi
    sleep 0.1
  done
  echo "$1 never printed '$2 127.0.0.1:<port>':" >&2
  cat "$dir/$1.out" >&2
  return 1
}

# fetch_complete <port> <path> <file>: waits until /replay reports
# complete, then saves <path> to <file>.
fetch_complete() {
  for _ in $(seq 1 300); do
    if curl -sf "http://127.0.0.1:$1/replay" | grep -q '"complete":true'
    then
      curl -sf "http://127.0.0.1:$1$2" >"$3"
      return 0
    fi
    sleep 0.1
  done
  echo "replay on port $1 never completed" >&2
  return 1
}

start single --port=0 --cycles=$cycles
single=$(port_of single "serving on")
fetch_complete "$single" /composition "$dir/single.txt"
stop_all

start worker0 --mode=worker --port=0 --ingest-port=0
start worker1 --mode=worker --port=0 --ingest-port=0
workers=""
for w in worker0 worker1; do
  scrape=$(port_of $w "serving on")
  ingest=$(port_of $w "worker ingest on")
  workers="$workers,$scrape:$ingest"
done
start coordinator --mode=coordinator --port=0 --cycles=$cycles \
  "--workers=${workers#,}"
coordinator=$(port_of coordinator "coordinating 2 workers on")
fetch_complete "$coordinator" /composition "$dir/merged.txt"
curl -sf "http://127.0.0.1:$coordinator/workers" >"$dir/workers.json"
stop_all

if ! cmp "$dir/single.txt" "$dir/merged.txt"; then
  echo "merged /composition differs from single-process serve"
  exit 1
fi
pairs=$(grep -o '"sent":[0-9]*,"acked":[0-9]*' "$dir/workers.json")
if [ "$(echo "$pairs" | wc -l)" -ne 2 ] ||
   echo "$pairs" | grep -qv '"sent":\([1-9][0-9]*\),"acked":\1$'; then
  echo "a worker link has sent != acked or sent nothing:"
  cat "$dir/workers.json"
  exit 1
fi
echo "ok: merged /composition byte-identical over 2 workers; $pairs" |
  tr '\n' ' '
echo
