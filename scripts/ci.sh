#!/usr/bin/env bash
# Tier-1 verification plus the observability battery smoke:
#   - dune build && dune runtest
#   - export scan: every val in lib/**/*.mli has a caller outside its
#     own module, and every optional parameter of such a val a caller
#     outside its module and test/ that passes it, or is listed in
#     scripts/exports.allow
#   - microbenchmark smoke: bench/main.exe runs B1-B17 (and the
#     asserts inside them) and prints every row, numeric, in B order
#   - battery run with --report/--trace, schema validation of both
#   - telemetry must not perturb battery stdout
#   - fault battery smoke: E28 is deterministic per fault seed and
#     differs across seeds, and its shape holds at fault seeds 11 and
#     38, where every drop of one plan is a blackhole's
#   - watchdog: a hung experiment becomes FAILED (timeout), exit 1
#   - chaos smoke: a fixed-seed sweep over the extended fault grammar
#     (gray loss, unidirectional, flap, blackhole included) is clean
#     and byte-identical across --domains 1/2/4; the committed corpus
#     (including the covert-fault reproducers) replays clean
#   - flight recorder off (the default): battery stdout byte-identical
#     across --domains 1/2/4
#   - tussle explain: every committed corpus reproducer yields a
#     deterministic causal narrative (byte-identical across
#     --domains 1/2/4) plus a flow-trace artifact, byte-identical
#     across --domains 1/2, that tussle report validates
#   - sweep smoke: tussle sweep at a small N passes every statistical
#     verdict, the tussle.sweep-report/1 artifact passes tussle report
#     (every artifact check) and is byte-identical across --domains
#     1/2/4 and across repeats
#   - search smoke: tussle search (mutate + exhaust backends) is clean
#     on the real scenarios, with stdout and the
#     tussle.search-report/1 artifact byte-identical across
#     --domains 1/2/4
#   - one table of bad inputs and their exit codes: garbage flag values
#     on every subcommand, missing/unreadable files for report,
#     explain and policy, unsweepable or unknown sweep ids, an integer
#     literal past max_int in a policy, an unwritable --trace path, a
#     file as search --corpus (either backend) — each exits 2; the
#     battery, sweep and search smoke artifacts edited with sed (an
#     int past max_int, a string in the pool's task counts, a metric
#     of unknown type, a mean outside its CI, a budget below the runs,
#     a shrinking frontier) — report exits 2, since it runs every
#     artifact check sweep and search run; a corpus plan naming a link
#     or node its scenario lacks, or a flap of 10 million periods —
#     explain exits 2, chaos --replay 1; a corpus plan naming an
#     unknown scenario — chaos --replay 1
#   - one domain budget: two plain --seq battery reports agree on every
#     experiment's allocated_bytes and events_executed
# Scratch files go to $TMPDIR (default /tmp); the working tree is left
# as it was.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== unit tests =="
dune runtest

echo "== export scan (scripts/exports.allow) =="
python3 scripts/exports.py

BENCH=_build/default/bench/main.exe
CLI=_build/default/bin/tussle_cli.exe
TMP="${TMPDIR:-/tmp}"
report="$TMP/tussle-report.json"
trace="$TMP/tussle-trace.json"

echo "== microbenchmark smoke (B1-B17, numeric, in B order) =="
"$BENCH" > "$TMP/tussle-bench.out"
want="B1 B2 B2b B2c B3 B4 B5 B6a B6b B7 B8 B9 B10 B11 B12 B13 B14 B14b B15 B16 B17"
got=$(awk '/^tussle B/ && $NF ~ /^[0-9]+\.[0-9]+$/ { print $2 }' \
  "$TMP/tussle-bench.out" | xargs)
if [ "$got" != "$want" ]; then
  echo "FAIL: microbenchmark rows with a numeric ns/run: '$got'" >&2
  exit 1
fi
echo "all 21 microbenchmarks ran and printed a numeric ns/run"

echo "== battery smoke (report + trace) =="
"$CLI" experiments --seq --report "$report" --trace "$trace" \
  > "$TMP/tussle-battery-obs.out"
"$CLI" report "$report"
# structural JSON validation of the trace is covered by test_obs; here
# just check the file materialized with the expected envelope
grep -q '"traceEvents"' "$trace"
echo "trace written: $(wc -c < "$trace") bytes"

echo "== telemetry does not perturb stdout =="
"$CLI" experiments --seq > "$TMP/tussle-battery-plain.out"
"$CLI" experiments --seq --trace "$trace" > "$TMP/tussle-battery-traced.out"
cmp "$TMP/tussle-battery-plain.out" "$TMP/tussle-battery-traced.out"
echo "battery stdout byte-identical with tracing enabled"
# without --trace: spans allocate, so only a plain run's counters compare
"$CLI" experiments --seq --report "$TMP/tussle-report-plain.json" > /dev/null

echo "== fault battery smoke (E28, seeded) =="
"$CLI" experiments -e E28 --fault-seed 7 > "$TMP/tussle-e28-seed7a.out"
"$CLI" experiments -e E28 --fault-seed 7 > "$TMP/tussle-e28-seed7b.out"
"$CLI" experiments -e E28 --fault-seed 8 > "$TMP/tussle-e28-seed8.out"
cmp "$TMP/tussle-e28-seed7a.out" "$TMP/tussle-e28-seed7b.out"
if cmp -s "$TMP/tussle-e28-seed7a.out" "$TMP/tussle-e28-seed8.out"; then
  echo "FAIL: E28 output identical across different fault seeds" >&2
  exit 1
fi
echo "E28 deterministic per fault seed, differs across seeds"
for seed in 11 38; do
  "$CLI" experiments -e E28 --fault-seed "$seed" > "$TMP/tussle-e28-seed$seed.out"
  grep -q 'shape check: HOLDS' "$TMP/tussle-e28-seed$seed.out"
done
echo "E28 shape holds at fault seeds 11 and 38 (blackhole drops counted)"

echo "== watchdog converts a hung experiment into FAILED (timeout) =="
set +e
timeout 30 "$CLI" experiments -e E99 --timeout-s 1 > "$TMP/tussle-e99.out" 2>&1
code=$?
set -e
if [ "$code" -ne 1 ]; then
  echo "FAIL: hung E99 under --timeout-s exited $code, expected 1" >&2
  exit 1
fi
grep -q 'FAILED (timeout' "$TMP/tussle-e99.out"
echo "hung experiment reported as FAILED (timeout) without hanging the run"

echo "== chaos smoke (fixed seed, domain-invariant, zero violations) =="
"$CLI" chaos --chaos-seed 42 --chaos-runs 60 --domains 1 > "$TMP/tussle-chaos-d1.out"
"$CLI" chaos --chaos-seed 42 --chaos-runs 60 --domains 2 > "$TMP/tussle-chaos-d2.out"
"$CLI" chaos --chaos-seed 42 --chaos-runs 60 --domains 4 > "$TMP/tussle-chaos-d4.out"
cmp "$TMP/tussle-chaos-d1.out" "$TMP/tussle-chaos-d2.out"
cmp "$TMP/tussle-chaos-d1.out" "$TMP/tussle-chaos-d4.out"
grep -q '60/60 runs clean, 0 violation' "$TMP/tussle-chaos-d1.out"
echo "chaos sweep clean and byte-identical across --domains 1/2/4"

echo "== chaos corpus replay =="
"$CLI" chaos --replay chaos/corpus
echo "committed reproducers all replay clean"

echo "== flight recorder off: battery byte-identical across domains =="
"$CLI" experiments --domains 1 > "$TMP/tussle-battery-dom1.out"
"$CLI" experiments --domains 2 > "$TMP/tussle-battery-dom2.out"
"$CLI" experiments --domains 4 > "$TMP/tussle-battery-dom4.out"
cmp "$TMP/tussle-battery-dom1.out" "$TMP/tussle-battery-dom2.out"
cmp "$TMP/tussle-battery-dom1.out" "$TMP/tussle-battery-dom4.out"
echo "battery stdout byte-identical with the recorder disabled"

echo "== tussle explain on every committed reproducer =="
for plan in chaos/corpus/*.plan; do
  "$CLI" explain "$plan" --domains 1 > "$TMP/tussle-explain-d1.out"
  "$CLI" explain "$plan" --domains 2 > "$TMP/tussle-explain-d2.out"
  "$CLI" explain "$plan" --domains 4 > "$TMP/tussle-explain-d4.out"
  cmp "$TMP/tussle-explain-d1.out" "$TMP/tussle-explain-d2.out"
  cmp "$TMP/tussle-explain-d1.out" "$TMP/tussle-explain-d4.out"
  grep -q 'DROPPED at\|flows of interest: none' "$TMP/tussle-explain-d1.out"
  "$CLI" explain "$plan" --domains 1 --json "$TMP/tussle-flowtrace.json" > /dev/null
  "$CLI" explain "$plan" --domains 2 --json "$TMP/tussle-flowtrace-d2.json" > /dev/null
  cmp "$TMP/tussle-flowtrace.json" "$TMP/tussle-flowtrace-d2.json"
  "$CLI" report "$TMP/tussle-flowtrace.json" | grep -q 'valid tussle.flow-trace/2'
  echo "explain ok: $(basename "$plan")"
done
echo "== sweep smoke (statistical verdicts, domain-invariant) =="
sweep_report="$TMP/tussle-sweep-report.json"
"$CLI" sweep --sweep-seed 42 --sweep-runs 12 --domains 1 \
  --report "$sweep_report" > "$TMP/tussle-sweep-d1.out"
"$CLI" sweep --sweep-seed 42 --sweep-runs 12 --domains 2 \
  --report "$sweep_report.d2" > "$TMP/tussle-sweep-d2.out"
"$CLI" sweep --sweep-seed 42 --sweep-runs 12 --domains 4 \
  --report "$sweep_report.d4" > "$TMP/tussle-sweep-d4.out"
cmp "$sweep_report" "$sweep_report.d2"
cmp "$sweep_report" "$sweep_report.d4"
# repeat at the same seed and the same --report path (the path is
# echoed on stdout): summary and artifact must be byte-identical
"$CLI" sweep --sweep-seed 42 --sweep-runs 12 --domains 4 \
  --report "$sweep_report.d4" > "$TMP/tussle-sweep-again.out"
cmp "$sweep_report" "$sweep_report.d4"
cmp "$TMP/tussle-sweep-d4.out" "$TMP/tussle-sweep-again.out"
grep -q 'PASS availability(heal) > availability(static)' "$TMP/tussle-sweep-d1.out"
grep -q 'PASS availability(verified) > availability(hello-only)' "$TMP/tussle-sweep-d1.out"
grep -q 'PASS covert drops shrink under verification' "$TMP/tussle-sweep-d1.out"
grep -q 'PASS markup(pb6) > markup(portable)' "$TMP/tussle-sweep-d1.out"
grep -q 'PASS price(duo) > price(open8)' "$TMP/tussle-sweep-d1.out"
if grep -q ' FAIL ' "$TMP/tussle-sweep-d1.out"; then
  echo "FAIL: sweep smoke has failing verdicts" >&2
  exit 1
fi
"$CLI" report "$sweep_report" | grep -q 'valid tussle.sweep-report/1'
echo "sweep verdicts pass; artifact schema-valid and byte-identical across --domains 1/2/4"

echo "== search smoke (both backends, domain-invariant) =="
# the corpus replay step above already re-runs every committed
# reproducer, including any the adversarial search persisted; here the
# search itself must be clean on the real scenarios and byte-identical
# (stdout AND artifact) across --domains 1/2/4 and across repeats
search_report="$TMP/tussle-search-report.json"
for backend in mutate exhaust; do
  "$CLI" search --backend "$backend" --budget 48 --sweep-seed 42 \
    --domains 1 --report "$search_report" > "$TMP/tussle-search-d1.out"
  cp "$search_report" "$search_report.d1"
  for d in 2 4; do
    "$CLI" search --backend "$backend" --budget 48 --sweep-seed 42 \
      --domains "$d" --report "$search_report" > "$TMP/tussle-search-d$d.out"
    cmp "$TMP/tussle-search-d1.out" "$TMP/tussle-search-d$d.out"
    cmp "$search_report.d1" "$search_report"
  done
  if grep -q 'VIOLATION' "$TMP/tussle-search-d1.out"; then
    echo "FAIL: $backend search found violations in the real scenarios" >&2
    exit 1
  fi
  # the exhaustive box must enumerate the extended grammar (gray loss,
  # unidirectional, flap, blackhole) — pin the space size so a grammar
  # regression is caught here, not in a missed bug later
  if [ "$backend" = exhaust ]; then
    grep -q 'box: 85710 plans' "$TMP/tussle-search-d1.out"
  fi
  "$CLI" report "$search_report" | grep -q 'valid tussle.search-report/1'
  echo "search[$backend] clean; artifact schema-valid and byte-identical across --domains 1/2/4"
done

echo "== bad input: one table of expected exit codes =="
# corpus plans naming a link and a node line-transfer lacks, and a
# flap whose window holds more periods than a plan may
bad_corpus="$TMP/tussle-bad-corpus"
rm -rf "$bad_corpus"
mkdir -p "$bad_corpus"
printf 'scenario: line-transfer\nseed: 5\nlink 0-99 down [1, 2)\n' \
  > "$bad_corpus/link.plan"
printf 'scenario: line-transfer\nseed: 5\nnode 99 blackhole [1, 2)\n' \
  > "$bad_corpus/node.plan"
printf 'scenario: ring-selfheal\nseed: 5\nlink 0-1 flap period=1e-7s duty=0.5 [0, 1)\n' \
  > "$bad_corpus/flap.plan"
# a corpus plan naming a scenario there is none of
unknown_corpus="$TMP/tussle-unknown-corpus"
rm -rf "$unknown_corpus"
mkdir -p "$unknown_corpus"
printf 'scenario: no-such-scenario\nseed: 5\nlink 0-1 down [1, 2)\n' \
  > "$unknown_corpus/unknown.plan"
printf 'root says allow a b on c where x == 99999999999999999999999.\n' \
  > "$TMP/tussle-big-int.policy"
# the battery, sweep and search smoke artifacts made invalid: an
# integral float past max_int, a string as the pool's first task
# count, a metric of unknown type, a metric's mean outside its CI, a
# budget below the runs, a coverage frontier that shrinks
sed '0,/"events_executed": [0-9]*/s//"events_executed": 1e19/' "$report" \
  > "$TMP/tussle-bad-int.json"
sed '/"tasks": \[/{n;s/[0-9][0-9]*/"x"/}' "$report" \
  > "$TMP/tussle-bad-tasks.json"
sed '0,/"type": "counter"/s//"type": "bogus"/' "$report" \
  > "$TMP/tussle-bad-metric.json"
sed '0,/"mean": [^,]*/s//"mean": 1e300/' "$sweep_report" \
  > "$TMP/tussle-bad-mean.json"
sed 's/"budget": [0-9]*/"budget": 1/' "$search_report" \
  > "$TMP/tussle-bad-budget.json"
sed -z 's/"frontier": \[/"frontier": [\n    999,/' "$search_report" \
  > "$TMP/tussle-bad-frontier.json"
# the last explain smoke's flow trace made invalid: the node column
# one element short, the first kind index past the kinds table
sed '/"node": \[/{n;d}' "$TMP/tussle-flowtrace.json" \
  > "$TMP/tussle-bad-column.json"
sed '/"kind": \[/{n;s/[0-9][0-9]*/999999/}' "$TMP/tussle-flowtrace.json" \
  > "$TMP/tussle-bad-kind.json"
# Rows: expected code, command, arguments.  Flag values use the
# --flag=X form: cmdliner would otherwise read a bare "-3" as an
# unknown option.
while read -r want cmd args; do
  set +e
  # shellcheck disable=SC2086
  $cmd $args >/dev/null 2>&1 < /dev/null
  code=$?
  set -e
  if [ "$code" -ne "$want" ]; then
    echo "FAIL: '$cmd $args' exited $code, expected $want" >&2
    exit 1
  fi
done <<ROWS
2 $CLI experiments --domains=nope
2 $CLI experiments --domains=0
2 $CLI experiments --domains=-3
2 $CLI experiments --timeout-s=nope
2 $CLI experiments --timeout-s=0
2 $CLI experiments --timeout-s=-1
2 $CLI experiments --fault-seed=nope
2 $CLI experiments --fault-seed=1.5
2 $CLI experiments -e E4 --trace $TMP/definitely-missing-dir/trace.json
2 $CLI report $TMP/definitely-missing-report.json
2 $CLI report /
2 $CLI report $TMP/tussle-bad-int.json
2 $CLI report $TMP/tussle-bad-tasks.json
2 $CLI report $TMP/tussle-bad-metric.json
2 $CLI report $TMP/tussle-bad-mean.json
2 $CLI report $TMP/tussle-bad-budget.json
2 $CLI report $TMP/tussle-bad-frontier.json
2 $CLI report $TMP/tussle-bad-column.json
2 $CLI report $TMP/tussle-bad-kind.json
2 $CLI explain $TMP/definitely-missing.plan
2 $CLI explain README.md
2 $CLI explain chaos/corpus --domains=0
2 $CLI explain $bad_corpus/link.plan
2 $CLI explain $bad_corpus/node.plan
2 $CLI explain $bad_corpus/flap.plan
1 $CLI chaos --replay $bad_corpus
1 $CLI chaos --replay $unknown_corpus
2 $CLI chaos --replay $TMP/definitely-missing-dir
2 $CLI chaos --replay README.md
2 $CLI chaos --chaos-seed=nope
2 $CLI chaos --chaos-seed=1.5
2 $CLI chaos --chaos-runs=nope
2 $CLI chaos --chaos-runs=0
2 $CLI chaos --chaos-runs=-3
2 $CLI sweep --sweep-seed=nope
2 $CLI sweep --sweep-seed=1.5
2 $CLI sweep --sweep-runs=nope
2 $CLI sweep --sweep-runs=1
2 $CLI sweep --sweep-runs=-3
2 $CLI sweep --alpha=nope
2 $CLI sweep --alpha=0
2 $CLI sweep --alpha=1
2 $CLI sweep --alpha=2
2 $CLI sweep -e E2
2 $CLI sweep -e EZZ
2 $CLI search --backend=bogus
2 $CLI search --budget=nope
2 $CLI search --budget=0
2 $CLI search --budget=-3
2 $CLI search --sweep-seed=nope
2 $CLI search --sweep-seed=1.5
2 $CLI search --domains=0
2 $CLI search --corpus README.md --budget=4
2 $CLI search --backend=exhaust --corpus README.md --budget=4
2 $CLI market --providers=0
2 $CLI market --providers=-3
2 $CLI market --switching-cost=nan
2 $CLI market --switching-cost=-1
2 $CLI market --seed=nope
2 $CLI scenario --rounds=0
2 $CLI scenario --rounds=-5
2 $CLI scenario --rounds=nope
2 $CLI policy $TMP/definitely-missing.policy a:b:c
2 $CLI policy / a:b:c
2 $CLI policy $TMP/tussle-big-int.policy a:b:c
ROWS
echo "every bad-input row exits with its expected code"
"$CLI" chaos --replay "$unknown_corpus" > "$TMP/tussle-unknown-replay.out" || true
grep -q 'unknown.plan: LOAD ERROR unknown scenario "no-such-scenario"$' \
  "$TMP/tussle-unknown-replay.out"
echo "an unknown scenario is one LOAD ERROR line"

echo "== --seq battery counters repeat exactly =="
# under --seq every experiment, nested Pool.maps included, runs on one
# domain, so its domain-local counters see all of its work
"$CLI" experiments --seq --report "$TMP/tussle-report-plain2.json" > /dev/null
counters() { grep -E '^ *"(id|events_executed|allocated_bytes)":' "$1"; }
counters "$TMP/tussle-report-plain.json" > "$TMP/tussle-counters-a"
counters "$TMP/tussle-report-plain2.json" > "$TMP/tussle-counters-b"
if [ "$(grep -c '"id"' "$TMP/tussle-counters-a")" -ne 30 ]; then
  echo "FAIL: expected 30 experiments in the plain --seq report" >&2
  exit 1
fi
cmp "$TMP/tussle-counters-a" "$TMP/tussle-counters-b"
echo "allocated_bytes and events_executed equal for all 30 ids across two runs"

echo "CI OK"
