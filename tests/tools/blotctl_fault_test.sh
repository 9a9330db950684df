#!/usr/bin/env bash
# Fault-path contract of the blotctl CLI: distinct exit codes per error
# class (2 = invalid argument, 3 = corrupt data, 4 = query failed, 1 =
# other), one-line stderr diagnostics, and the --inject-faults flag.
# Usage: blotctl_fault_test.sh <path-to-blotctl>
set -u
BLOTCTL="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $1" >&2; exit 1; }

# expect_exit <code> <label> -- <cmd...>: the command must exit with
# exactly <code>; its stderr is kept in err.txt for message checks.
expect_exit() {
  local want="$1" label="$2"
  shift 3
  "$@" >out.txt 2>err.txt
  local got=$?
  [ "$got" -eq "$want" ] \
    || fail "$label: expected exit $want, got $got (stderr: $(cat err.txt))"
}

"$BLOTCTL" generate --out fleet.bin --taxis 10 --samples 150 \
    || fail "generate"
"$BLOTCTL" build --data fleet.bin --out rep_a --scheme KD4xT4/ROW-SNAPPY \
    || fail "build"
"$BLOTCTL" store-build --data fleet.bin --out duostore \
    --schemes "KD4xT4/ROW-SNAPPY;KD16xT8/COL-GZIP" || fail "store-build duo"
"$BLOTCTL" store-build --data fleet.bin --out solostore \
    --schemes "KD4xT4/ROW-SNAPPY" || fail "store-build solo"
RANGE="120,122,30,32,1193875200,1196294400"

# --- exit 2: caller errors ---------------------------------------------
expect_exit 2 "bad range" -- "$BLOTCTL" query --dir rep_a --range bad
grep -q "^invalid argument:" err.txt || fail "bad range diagnostic"
expect_exit 2 "missing dir" -- "$BLOTCTL" info --dir missing_dir
expect_exit 2 "bad fault spec" -- "$BLOTCTL" query --dir rep_a \
    --range "$RANGE" --inject-faults "bogus=1"
grep -q "^invalid argument:.*ParseFaultSpec" err.txt \
    || fail "bad fault spec diagnostic"
expect_exit 2 "usage" -- "$BLOTCTL" help

# --- exit 3: corruption detected at the read path ----------------------
# A single-replica query command has nowhere to fail over: an injected
# fault surfaces as CorruptData.
expect_exit 3 "query corrupt" -- "$BLOTCTL" query --dir rep_a \
    --range "$RANGE" --inject-faults "seed=7;p=1;kinds=bitflip;fires=0"
grep -q "^corrupt data:.*checksum mismatch" err.txt \
    || fail "query corrupt diagnostic"

# Persisted-store corruption is caught by Load's checksums. XOR-free
# overwrite with 0xFF bytes: real record payload is never 16 bytes of
# 0xFF, so the dataset definitely changed.
cp -r duostore corruptstore
printf '\377%.0s' $(seq 16) | dd of=corruptstore/dataset.bin bs=1 \
    count=16 seek=64 conv=notrunc 2>/dev/null || fail "dd"
expect_exit 3 "corrupt store" -- "$BLOTCTL" store-query --dir corruptstore \
    --range "$RANGE"
grep -q "^corrupt data:" err.txt || fail "corrupt store diagnostic"

# --- exit 4: query unservable (every copy of a partition gone) ---------
expect_exit 4 "total loss" -- "$BLOTCTL" store-query --dir solostore \
    --range "$RANGE" --inject-faults "seed=7;p=1;kinds=bitflip;fires=0"
grep -q "^query failed:.*partition" err.txt || fail "total loss diagnostic"

# --- failover: faults in one replica must not lose the query -----------
VICTIM="KD4xT4/ROW-SNAPPY"
"$BLOTCTL" store-query --dir duostore --range "$RANGE" \
    --inject-faults "seed=7;p=1;kinds=bitflip;replica=$VICTIM;fires=0" \
    >degraded.txt 2>faults.txt || fail "failover query"
grep -q "degraded: served by" degraded.txt || fail "degraded line"
grep -q "1500 records" degraded.txt || fail "failover record count"
grep -q "^faults: " faults.txt || fail "fault summary line"

# Healthy run for comparison: same records, no degradation.
"$BLOTCTL" store-query --dir duostore --range "$RANGE" >healthy.txt \
    || fail "healthy query"
grep -q "1500 records" healthy.txt || fail "healthy record count"
grep -q "degraded" healthy.txt && fail "healthy run claims degraded?"

# Latency faults delay but never corrupt.
"$BLOTCTL" query --dir rep_a --range "$RANGE" --limit 1 \
    --inject-faults "kinds=latency;latency=1" >out.txt 2>/dev/null \
    || fail "latency query"
grep -q "1500 records" out.txt || fail "latency record count"

# Exit 5: every read stalls past the deadline, so the answer is partial.
# Its time measures the deadline, so --profile prints no cost error.
expect_exit 5 "partial" -- "$BLOTCTL" store-query --dir solostore \
    --range "$RANGE" --deadline-ms 5 --allow-partial --profile \
    --inject-faults "seed=7;p=1;kinds=latency;latency=20;fires=0"
grep -q "error=n/a (partial)" out.txt || fail "partial profile error"

# stats accepts the flag and still emits a snapshot (failover metrics
# included once faults fired).
"$BLOTCTL" stats --dir duostore --queries 4 \
    --inject-faults "seed=3;p=1;kinds=bitflip;replica=$VICTIM" \
    >stats.json 2>/dev/null || fail "stats with faults"
grep -q '"failover.attempts_total"' stats.json \
    || fail "stats failover metrics"

echo "blotctl fault paths: PASS"
