#!/bin/sh
# Tier-1 gate: build, tests, formatting.  Run from the repo root.
set -eu

echo "== dune build"
dune build @all

# The full suite (including the Slow fault-oracle tests) must fit a
# fixed wall-clock budget so the gate stays runnable on every change.
# Override with PEAK_RUNTEST_BUDGET=seconds when profiling slow boxes.
echo "== dune runtest"
RUNTEST_BUDGET=${PEAK_RUNTEST_BUDGET:-600}
t0=$(date +%s)
dune runtest
t1=$(date +%s)
elapsed=$((t1 - t0))
echo "   runtest took ${elapsed}s (budget ${RUNTEST_BUDGET}s)"
if [ "$elapsed" -gt "$RUNTEST_BUDGET" ]; then
  echo "   test suite exceeded its ${RUNTEST_BUDGET}s wall-clock budget" >&2
  exit 1
fi

# Formatting: @fmt covers dune files always and OCaml sources when
# ocamlformat is installed.  Without ocamlformat the OCaml rules cannot
# run at all, so the gate is skipped rather than failed — the dune-file
# part alone cannot be separated from the broken alias.
echo "== formatting"
if command -v ocamlformat >/dev/null 2>&1; then
  if dune build @fmt >/dev/null 2>&1; then
    echo "   formatting clean"
  else
    echo "   formatting diffs found; run: dune fmt" >&2
    exit 1
  fi
else
  echo "   ocamlformat not installed; skipping the formatting gate"
fi

# Documentation: @doc needs odoc; same skip-with-notice policy as the
# formatting gate when the tool is absent.
echo "== odoc"
if command -v odoc >/dev/null 2>&1; then
  if dune build @doc >/dev/null 2>&1; then
    echo "   odoc clean"
  else
    echo "   odoc errors found; run: dune build @doc" >&2
    exit 1
  fi
else
  echo "   odoc not installed; skipping the documentation gate"
fi

# Allocation budget: the bench `alloc` experiment measures bytes per
# invocation on the rating hot paths and exits nonzero when a meter
# exceeds ci/alloc_budget.json (PEAK_ALLOC_GATE=off downgrades the
# failure to a notice).  Same skip-with-notice policy as the tool gates
# when the bench binary is absent.
echo "== allocation budget"
ALLOC_BIN=_build/default/bench/main.exe
if [ -x "$ALLOC_BIN" ]; then
  if "$ALLOC_BIN" alloc > /dev/null; then
    echo "   hot-path allocation within budget"
  else
    echo "   allocation budget exceeded; run: dune exec bench/main.exe -- alloc" >&2
    exit 1
  fi
else
  echo "   bench binary not built; skipping the allocation gate"
fi

# Adaptive drift gate: the bench `adaptive` experiment sweeps the
# (benchmark x drift pattern) matrix with per-cell SLOs (total cycles
# vs the drift-aware oracle, bounded time-to-readapt) and writes
# BENCH_adaptive.json; PEAK_ADAPTIVE_GATE=off downgrades a breach.
# The smoke runs the 3-cell mini-matrix twice on the pinned seed (the
# SLO table must pass and the rerun must be byte-identical), then the
# full >= 1M-invocation matrix.  Same skip-with-notice policy as the
# other gates when the bench binary is absent.
echo "== adaptive drift smoke"
ADAPTIVE_BIN=_build/default/bench/main.exe
if [ -x "$ADAPTIVE_BIN" ]; then
  ADAPT_TMP=$(mktemp -d)
  if PEAK_ADAPTIVE_CELLS=mini PEAK_ADAPTIVE_REPORT="$ADAPT_TMP/mini1.json" \
     "$ADAPTIVE_BIN" adaptive > /dev/null; then
    echo "   mini-matrix SLO table passes"
  else
    echo "   adaptive mini-matrix breached an SLO; run: PEAK_ADAPTIVE_CELLS=mini dune exec bench/main.exe -- adaptive" >&2
    rm -rf "$ADAPT_TMP"
    exit 1
  fi
  PEAK_ADAPTIVE_CELLS=mini PEAK_ADAPTIVE_REPORT="$ADAPT_TMP/mini2.json" \
    "$ADAPTIVE_BIN" adaptive > /dev/null
  if diff "$ADAPT_TMP/mini1.json" "$ADAPT_TMP/mini2.json" > /dev/null; then
    echo "   mini-matrix rerun byte-identical"
  else
    echo "   adaptive mini-matrix rerun DIFFERS from the first run" >&2
    rm -rf "$ADAPT_TMP"
    exit 1
  fi
  if PEAK_ADAPTIVE_REPORT="$ADAPT_TMP/full.json" "$ADAPTIVE_BIN" adaptive > /dev/null; then
    echo "   full drift matrix within SLOs"
  else
    echo "   adaptive drift matrix breached an SLO; run: dune exec bench/main.exe -- adaptive" >&2
    rm -rf "$ADAPT_TMP"
    exit 1
  fi
  rm -rf "$ADAPT_TMP"
else
  echo "   bench binary not built; skipping the adaptive drift gate"
fi

# CLI error contract: an unknown rating method must die with a one-line
# error naming the valid methods, exit status 1.
echo "== unknown method rejection"
BIN=_build/default/bin/peak_tune.exe
SMOKE_ERR_TMP=$(mktemp)
if "$BIN" tune ART -m pentium4 -r bogus >/dev/null 2>"$SMOKE_ERR_TMP"; then
  echo "   bogus method accepted (expected exit 1)" >&2
  exit 1
fi
if [ "$(wc -l < "$SMOKE_ERR_TMP")" -eq 1 ] && grep -q "cbr" "$SMOKE_ERR_TMP"; then
  echo "   one-line error listing valid methods"
else
  echo "   unexpected error output for a bogus method:" >&2
  cat "$SMOKE_ERR_TMP" >&2
  rm -f "$SMOKE_ERR_TMP"
  exit 1
fi
rm -f "$SMOKE_ERR_TMP"

# Store resume smoke: kill a store-backed tuning session mid-flight,
# resume it, and require the final result to be byte-identical to an
# uninterrupted run of the same session.
echo "== store resume smoke"
BIN=_build/default/bin/peak_tune.exe
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

"$BIN" tune ART -m pentium4 -r rbr --search ie --store "$SMOKE/ref" \
  | tail -5 > "$SMOKE/ref.out"

"$BIN" tune ART -m pentium4 -r rbr --search ie --store "$SMOKE/crash" \
  > /dev/null 2>&1 &
tune_pid=$!
sleep 2
kill -9 "$tune_pid" 2>/dev/null || true
wait "$tune_pid" 2>/dev/null || true

id=$("$BIN" session list --store "$SMOKE/crash" -q)
if [ -n "$id" ]; then
  "$BIN" session resume --store "$SMOKE/crash" "$id" | tail -5 > "$SMOKE/resumed.out"
else
  # the kill landed before the session directory existed; fall back to a
  # fresh run, which still must match the reference
  "$BIN" tune ART -m pentium4 -r rbr --search ie --store "$SMOKE/crash" \
    | tail -5 > "$SMOKE/resumed.out"
fi

if diff "$SMOKE/ref.out" "$SMOKE/resumed.out"; then
  echo "   resumed result identical to uninterrupted run"
else
  echo "   resumed result DIFFERS from uninterrupted run" >&2
  exit 1
fi
"$BIN" session gc --store "$SMOKE/crash" > /dev/null

# One rating path: a plain session and a store-backed one rate through
# the same scheme, so they must print the same winner, search and
# tuning-time ledger.
echo "== store/no-store identity smoke"
"$BIN" tune SWIM -m pentium4 \
  | grep -E '^(Best configuration|Search|Tuning time):' > "$SMOKE/swim-plain.out"
"$BIN" tune SWIM -m pentium4 --store "$SMOKE/swim" \
  | grep -E '^(Best configuration|Search|Tuning time):' > "$SMOKE/swim-store.out"
if [ "$(wc -l < "$SMOKE/swim-plain.out")" -eq 3 ] \
   && diff "$SMOKE/swim-plain.out" "$SMOKE/swim-store.out"; then
  echo "   store-backed result identical to the plain run"
else
  echo "   store-backed result DIFFERS from the plain run" >&2
  exit 1
fi

# Fallback resume smoke: a rating cap below the convergence window makes
# every absolute probe fail, so an auto session walks the fallback chain
# down to RBR.  Kill it mid-flight and the resume must replay the probe
# verdicts from the journal and produce the identical result.
echo "== fallback resume smoke"
"$BIN" tune MGRID -m sparc2 --rating-cap 30 --search be --store "$SMOKE/fbref" \
  | tail -6 > "$SMOKE/fbref.out"
if ! grep -q "Fallback chain:" "$SMOKE/fbref.out"; then
  echo "   rating cap did not force a fallback:" >&2
  cat "$SMOKE/fbref.out" >&2
  exit 1
fi

"$BIN" tune MGRID -m sparc2 --rating-cap 30 --search be --store "$SMOKE/fbcrash" \
  > /dev/null 2>&1 &
tune_pid=$!
sleep 2
kill -9 "$tune_pid" 2>/dev/null || true
wait "$tune_pid" 2>/dev/null || true

id=$("$BIN" session list --store "$SMOKE/fbcrash" -q)
if [ -n "$id" ]; then
  "$BIN" session resume --store "$SMOKE/fbcrash" "$id" | tail -6 > "$SMOKE/fbresumed.out"
else
  "$BIN" tune MGRID -m sparc2 --rating-cap 30 --search be --store "$SMOKE/fbcrash" \
    | tail -6 > "$SMOKE/fbresumed.out"
fi

if diff "$SMOKE/fbref.out" "$SMOKE/fbresumed.out"; then
  echo "   resumed fallback result identical to uninterrupted run"
else
  echo "   resumed fallback result DIFFERS from uninterrupted run" >&2
  exit 1
fi
"$BIN" session gc --store "$SMOKE/fbcrash" > /dev/null

# Strategy smoke: the search-strategy registry must reject unknown
# names with a one-line error naming the valid strategies, list
# `staged` in its table, and survive a mid-flight kill of a staged
# session with a byte-identical resume.  Finally, with a BE-warmed
# store corpus behind it, staged must spend strictly fewer ratings
# than exhaustive CE on the same workload.
echo "== strategy smoke"
SMOKE_ERR_TMP=$(mktemp)
if "$BIN" tune ART -m pentium4 -s bogus >/dev/null 2>"$SMOKE_ERR_TMP"; then
  echo "   bogus strategy accepted (expected exit 1)" >&2
  exit 1
fi
if [ "$(wc -l < "$SMOKE_ERR_TMP")" -eq 1 ] && grep -q "staged" "$SMOKE_ERR_TMP"; then
  echo "   one-line error listing valid strategies"
else
  echo "   unexpected error output for a bogus strategy:" >&2
  cat "$SMOKE_ERR_TMP" >&2
  rm -f "$SMOKE_ERR_TMP"
  exit 1
fi
rm -f "$SMOKE_ERR_TMP"

if "$BIN" strategies | grep -q "staged"; then
  echo "   strategies table lists staged"
else
  echo "   strategies table is missing staged:" >&2
  "$BIN" strategies >&2
  exit 1
fi

# warm a store with a BE sweep (one clean single-flag row per flag),
# compact it into the index, and clone it so the reference and crash
# runs screen against the identical corpus
"$BIN" tune ART -m pentium4 -r rbr -s be --store "$SMOKE/stg" > /dev/null
"$BIN" session gc --store "$SMOKE/stg" > /dev/null
cp -r "$SMOKE/stg" "$SMOKE/stg-crash"

"$BIN" tune ART -m pentium4 -r rbr -s staged --store "$SMOKE/stg" \
  | tail -5 > "$SMOKE/stg-ref.out"

"$BIN" tune ART -m pentium4 -r rbr -s staged --store "$SMOKE/stg-crash" \
  > /dev/null 2>&1 &
tune_pid=$!
sleep 1
kill -9 "$tune_pid" 2>/dev/null || true
wait "$tune_pid" 2>/dev/null || true

id=$("$BIN" session list --store "$SMOKE/stg-crash" -q | grep staged || true)
if [ -n "$id" ]; then
  "$BIN" session resume --store "$SMOKE/stg-crash" "$id" \
    | tail -5 > "$SMOKE/stg-resumed.out"
else
  # the kill landed before the session directory existed; a fresh run
  # against the same corpus still must match the reference
  "$BIN" tune ART -m pentium4 -r rbr -s staged --store "$SMOKE/stg-crash" \
    | tail -5 > "$SMOKE/stg-resumed.out"
fi

if diff "$SMOKE/stg-ref.out" "$SMOKE/stg-resumed.out"; then
  echo "   resumed staged result identical to uninterrupted run"
else
  echo "   resumed staged result DIFFERS from uninterrupted run" >&2
  exit 1
fi

# ratings budget: the journal-trained screen exists to spend less than
# the exhaustive sweep, so hold it to that on the warmed store
staged_ratings=$(sed -n 's/^Search: \([0-9][0-9]*\) ratings.*/\1/p' "$SMOKE/stg-ref.out")
"$BIN" tune ART -m pentium4 -r rbr -s ce --store "$SMOKE/stg" \
  | tail -5 > "$SMOKE/stg-ce.out"
ce_ratings=$(sed -n 's/^Search: \([0-9][0-9]*\) ratings.*/\1/p' "$SMOKE/stg-ce.out")
if [ -n "$staged_ratings" ] && [ -n "$ce_ratings" ] \
   && [ "$staged_ratings" -lt "$ce_ratings" ]; then
  echo "   staged spends fewer ratings than CE ($staged_ratings vs $ce_ratings)"
else
  echo "   staged did not beat CE's rating budget (staged=$staged_ratings ce=$ce_ratings)" >&2
  exit 1
fi

# Fault smoke: the differential fault oracles (quarantine ground truth,
# -j independence, auto == forced, kill/resume identity) must hold for
# three pinned seeds.  PEAK_FAULT_SEED collapses each test's seed list
# to the single given seed, so the three runs cover the default set.
echo "== fault smoke"
TESTS=_build/default/test/test_main.exe
for s in 3 7 23; do
  if PEAK_FAULT_SEED=$s "$TESTS" test faults > /dev/null 2>&1; then
    echo "   fault oracles hold under seed $s"
  else
    echo "   fault oracles FAILED under seed $s; run: PEAK_FAULT_SEED=$s $TESTS test faults" >&2
    exit 1
  fi
done

# Tracer smoke: the same tune with --trace must print the same result
# (tracing never perturbs tuning), stay within a modest wall-clock
# envelope, and write a trace.json that `trace summarize` validates.
echo "== tracer overhead smoke"
t0=$(date +%s%N)
"$BIN" tune SWIM -m pentium4 -r rbr --search be | tail -5 > "$SMOKE/plain.out"
t1=$(date +%s%N)
"$BIN" tune SWIM -m pentium4 -r rbr --search be --trace "$SMOKE/trace.json" \
  | grep -v '^Trace written' | tail -5 > "$SMOKE/traced.out"
t2=$(date +%s%N)

if diff "$SMOKE/plain.out" "$SMOKE/traced.out"; then
  echo "   traced result identical to untraced run"
else
  echo "   traced result DIFFERS from untraced run" >&2
  exit 1
fi

plain_ms=$(( (t1 - t0) / 1000000 ))
traced_ms=$(( (t2 - t1) / 1000000 ))
# within 10% of the untraced wall clock, plus 1s of absolute slack for
# scheduler jitter on short runs
limit_ms=$(( plain_ms + plain_ms / 10 + 1000 ))
if [ "$traced_ms" -le "$limit_ms" ]; then
  echo "   tracer overhead within budget (${plain_ms}ms untraced, ${traced_ms}ms traced)"
else
  echo "   tracer overhead too high: ${plain_ms}ms untraced vs ${traced_ms}ms traced" >&2
  exit 1
fi

if [ ! -s "$SMOKE/trace.json" ]; then
  echo "   --trace wrote no trace file" >&2
  exit 1
fi
if "$BIN" trace summarize "$SMOKE/trace.json" > "$SMOKE/trace-summary.out"; then
  echo "   trace.json parses and validates"
else
  echo "   trace summarize rejected the written trace:" >&2
  cat "$SMOKE/trace-summary.out" >&2
  exit 1
fi
if grep -q "Spans by category" "$SMOKE/trace-summary.out"; then
  echo "   summary reports span categories"
else
  echo "   unexpected trace summary output:" >&2
  cat "$SMOKE/trace-summary.out" >&2
  exit 1
fi

# Serve smoke: a real daemon on a temp socket must serve concurrent
# clients bit-identically to the batch CLI, tolerate `session list` on
# a held store, drain on SIGTERM with a resumable journal, and resume
# the interrupted session to the exact uninterrupted result.
echo "== serve smoke"
TUNED=_build/default/bin/peak_tuned.exe
SOCK="unix:$SMOKE/serve/peak-tuned.sock"

wait_for_sock() {
  i=0
  while [ ! -S "$SMOKE/serve/peak-tuned.sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "   daemon never bound its socket" >&2
      exit 1
    fi
    sleep 0.1
  done
}

"$TUNED" --store "$SMOKE/serve" -j 2 --trace "$SMOKE/serve-trace.json" \
  > "$SMOKE/daemon1.log" 2>&1 &
tuned_pid=$!
wait_for_sock

# two concurrent tenants; tails must match the batch CLI's results below
"$BIN" client submit ART --daemon "$SOCK" -m pentium4 -r rbr --search be \
  | tail -4 > "$SMOKE/serve-art.out" &
client1=$!
"$BIN" client submit SWIM --daemon "$SOCK" -m pentium4 -r rbr --search be \
  | tail -4 > "$SMOKE/serve-swim.out" &
client2=$!
wait "$client1" "$client2"

# the daemon holds the store; listing it must still work (live label)
if "$BIN" session list --store "$SMOKE/serve" > /dev/null; then
  echo "   session list works on a daemon-held store"
else
  echo "   session list failed on a daemon-held store" >&2
  exit 1
fi

# the stored results must be byte-identical to the batch CLI's
for b in ART SWIM; do
  out=$(echo "$b" | tr 'A-Z' 'a-z')
  "$BIN" tune "$b" -m pentium4 -r rbr --search be --store "$SMOKE/serve-batch" \
    > /dev/null
  id=$("$BIN" session list --store "$SMOKE/serve-batch" -q | grep "^$out-")
  if diff "$SMOKE/serve/sessions/$id/result.json" \
          "$SMOKE/serve-batch/sessions/$id/result.json"; then
    echo "   $b via daemon identical to batch CLI"
  else
    echo "   $b daemon result DIFFERS from batch CLI" >&2
    exit 1
  fi
done

# a third, longer session: detach, kill the daemon mid-flight
"$BIN" client submit SWIM --daemon "$SOCK" -m pentium4 --search random2000 \
  --rating-cap 100 --seed 5 --detach > /dev/null
sleep 0.7
kill -TERM "$tuned_pid"
wait "$tuned_pid" || { echo "   daemon exited nonzero after SIGTERM" >&2; exit 1; }
if ! grep -q "drained" "$SMOKE/daemon1.log"; then
  echo "   daemon did not drain cleanly:" >&2
  cat "$SMOKE/daemon1.log" >&2
  exit 1
fi

# the daemon's own trace must parse and summarize
if "$BIN" trace summarize "$SMOKE/serve-trace.json" > /dev/null; then
  echo "   server trace parses and validates"
else
  echo "   trace summarize rejected the server trace" >&2
  exit 1
fi

# restart and resume the interrupted session: bit-identical to an
# uninterrupted client run of the same spec on a fresh daemon
"$TUNED" --store "$SMOKE/serve" -j 2 > "$SMOKE/daemon2.log" 2>&1 &
tuned_pid=$!
wait_for_sock
rid=$("$BIN" session list --store "$SMOKE/serve" -q | grep random2000)
"$BIN" client resume --daemon "$SOCK" "$rid" | tail -4 > "$SMOKE/serve-resumed.out"
kill -TERM "$tuned_pid"
wait "$tuned_pid" || true

"$TUNED" --store "$SMOKE/serve-ref" -j 2 > "$SMOKE/daemon3.log" 2>&1 &
tuned_pid=$!
SOCK="unix:$SMOKE/serve-ref/peak-tuned.sock"
i=0
while [ ! -S "$SMOKE/serve-ref/peak-tuned.sock" ]; do
  i=$((i + 1)); [ "$i" -gt 100 ] && exit 1
  sleep 0.1
done
"$BIN" client submit SWIM --daemon "$SOCK" -m pentium4 --search random2000 \
  --rating-cap 100 --seed 5 | tail -4 > "$SMOKE/serve-uninterrupted.out"
kill -TERM "$tuned_pid"
wait "$tuned_pid" || true

if diff "$SMOKE/serve-resumed.out" "$SMOKE/serve-uninterrupted.out"; then
  echo "   resumed daemon session identical to uninterrupted run"
else
  echo "   resumed daemon session DIFFERS from uninterrupted run" >&2
  exit 1
fi

# KB smoke: build a knowledge base from the strategy smoke's warmed
# store, recommend a start for a held-out benchmark (exit 0, non-empty
# ranked list), require the build to be byte-identical when repeated,
# and hold the kb command group to the one-line unknown-subcommand
# contract the method/strategy errors follow.
echo "== kb smoke"
"$BIN" kb build --store "$SMOKE/stg" -o "$SMOKE/kb.json" > "$SMOKE/kb-build.out"
if grep -q "rows over" "$SMOKE/kb-build.out"; then
  echo "   kb built from the warmed store"
else
  echo "   unexpected kb build output:" >&2
  cat "$SMOKE/kb-build.out" >&2
  exit 1
fi
if "$BIN" kb recommend "$SMOKE/kb.json" MGRID -m pentium4 > "$SMOKE/kb-rec.out" \
   && grep -q "^| 1 " "$SMOKE/kb-rec.out"; then
  echo "   held-out benchmark gets a ranked recommendation"
else
  echo "   kb recommend produced no ranked list:" >&2
  cat "$SMOKE/kb-rec.out" >&2
  exit 1
fi
"$BIN" kb build --store "$SMOKE/stg" -o "$SMOKE/kb-again.json" > /dev/null
if diff "$SMOKE/kb.json" "$SMOKE/kb-again.json" > /dev/null; then
  echo "   rebuild is byte-identical"
else
  echo "   kb build is not deterministic:" >&2
  diff "$SMOKE/kb.json" "$SMOKE/kb-again.json" >&2 || true
  exit 1
fi
SMOKE_ERR_TMP=$(mktemp)
if "$BIN" kb bogus >/dev/null 2>"$SMOKE_ERR_TMP"; then
  echo "   bogus kb subcommand accepted (expected exit 1)" >&2
  rm -f "$SMOKE_ERR_TMP"
  exit 1
fi
if [ "$(wc -l < "$SMOKE_ERR_TMP")" -eq 1 ] && grep -q "build" "$SMOKE_ERR_TMP"; then
  echo "   one-line error listing valid kb commands"
else
  echo "   unexpected error output for a bogus kb subcommand:" >&2
  cat "$SMOKE_ERR_TMP" >&2
  rm -f "$SMOKE_ERR_TMP"
  exit 1
fi
rm -f "$SMOKE_ERR_TMP"

# KB corpus-growth gate: the bench `kb` experiment tunes a held-out
# benchmark against nearest-first corpus prefixes and requires the
# rating spend to shrink monotonically, strictly below cold at the full
# corpus (BENCH_kb.json; PEAK_KB_GATE=off downgrades a breach).
KB_BIN=_build/default/bench/main.exe
if [ -x "$KB_BIN" ]; then
  if "$KB_BIN" kb > /dev/null; then
    echo "   kb corpus-growth curve within its gate"
  else
    echo "   kb corpus-growth gate breached; run: dune exec bench/main.exe -- kb" >&2
    exit 1
  fi
else
  echo "   bench binary not built; skipping the kb corpus-growth gate"
fi

echo "== OK"
