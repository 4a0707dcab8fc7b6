#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the serving mode: boot tracond
# on a random port, fire a traconload burst at it, assert non-zero
# completions, then SIGTERM the daemon and require a clean drain (exit 0).
# Then boot five more daemons from the library the first one saved and
# SIGTERM each the moment its portfile appears: the signal handler must
# already be installed, so each must still exit 0 with "drained cleanly".
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
daemon_pid=""

cleanup() {
    if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -KILL "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/tracond" ./cmd/tracond
go build -o "$workdir/traconload" ./cmd/traconload

"$workdir/tracond" \
    -addr 127.0.0.1:0 \
    -portfile "$workdir/port" \
    -machines 4 \
    -model NLM \
    -policy mios \
    -seed 1 \
    -save-models "$workdir/models.json" \
    >"$workdir/tracond.log" 2>&1 &
daemon_pid=$!

# Wait for the port file (training takes under a second; allow thirty).
for _ in $(seq 300); do
    [[ -s "$workdir/port" ]] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "serve-smoke: tracond died during startup" >&2
        cat "$workdir/tracond.log" >&2
        exit 1
    fi
    sleep 0.1
done
[[ -s "$workdir/port" ]] || { echo "serve-smoke: no port file after 30s" >&2; exit 1; }
addr="$(tr -d '\n' <"$workdir/port")"

"$workdir/traconload" \
    -addr "$addr" \
    -tasks 200 \
    -concurrency 8 \
    -seed 1 \
    -json >"$workdir/load.json"

completed="$(sed -n 's/^ *"completed": \([0-9]*\),*/\1/p' "$workdir/load.json")"
if [[ -z "$completed" || "$completed" -eq 0 ]]; then
    echo "serve-smoke: zero completions" >&2
    cat "$workdir/load.json" >&2
    exit 1
fi

# Graceful drain: SIGTERM must produce exit code 0.
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "serve-smoke: tracond did not drain cleanly" >&2
    cat "$workdir/tracond.log" >&2
    exit 1
fi
daemon_pid=""

# SIGTERM at the earliest observable moment: as soon as the portfile is
# written. Busy-wait rather than sleep so the signal lands inside the
# window between the portfile write and the start of serving.
for round in 1 2 3 4 5; do
    rm -f "$workdir/port"
    "$workdir/tracond" \
        -addr 127.0.0.1:0 \
        -portfile "$workdir/port" \
        -machines 4 \
        -models "$workdir/models.json" \
        >"$workdir/early.log" 2>&1 &
    daemon_pid=$!
    deadline=$((SECONDS + 30))
    while [[ ! -s "$workdir/port" ]]; do
        if ! kill -0 "$daemon_pid" 2>/dev/null || ((SECONDS > deadline)); then
            echo "serve-smoke: early-signal round $round: no port file" >&2
            cat "$workdir/early.log" >&2
            exit 1
        fi
    done
    kill -TERM "$daemon_pid"
    if ! wait "$daemon_pid"; then
        echo "serve-smoke: early-signal round $round: tracond exited non-zero" >&2
        cat "$workdir/early.log" >&2
        exit 1
    fi
    daemon_pid=""
    if ! grep -q "drained cleanly" "$workdir/early.log"; then
        echo "serve-smoke: early-signal round $round: no \"drained cleanly\" line" >&2
        cat "$workdir/early.log" >&2
        exit 1
    fi
done

echo "serve-smoke: OK ($completed tasks completed, clean drain; 5 early-signal drains)"
