#!/bin/sh
# Tier-1 gate: build, tests, tool gates, bench gates and the CLI/daemon
# smokes.  Run from the repo root.  Each section is a helper and a table
# of cases; the first failing case stops the run with exit 1.
set -eu

BIN=_build/default/bin/peak_tune.exe
TUNED=_build/default/bin/peak_tuned.exe
BENCH=$PWD/_build/default/bench/main.exe
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

fail() {
  echo "   $*" >&2
  exit 1
}

echo "== dune build"
dune build @all

# The full suite (including the Slow fault-oracle tests, which sweep
# fault seeds 3, 7 and 23) must fit a fixed wall-clock budget so the
# gate stays runnable on every change.  Override with
# PEAK_RUNTEST_BUDGET=seconds when profiling slow boxes.
echo "== dune runtest"
RUNTEST_BUDGET=${PEAK_RUNTEST_BUDGET:-600}
t0=$(date +%s)
dune runtest
elapsed=$(($(date +%s) - t0))
echo "   runtest took ${elapsed}s (budget ${RUNTEST_BUDGET}s)"
[ "$elapsed" -le "$RUNTEST_BUDGET" ] \
  || fail "test suite exceeded its ${RUNTEST_BUDGET}s wall-clock budget"

# tool_gate TOOL ALIAS: @fmt covers OCaml sources only with ocamlformat,
# and @doc needs odoc.  Without the tool the alias cannot run at all, so
# the gate is skipped with a notice rather than failed.
tool_gate() {
  echo "== $2"
  if ! command -v "$1" > /dev/null 2>&1; then
    echo "   $1 not installed; skipping"
  elif dune build "$2" > /dev/null 2>&1; then
    echo "   clean"
  else
    fail "$2 reports errors; run: dune build $2"
  fi
}
tool_gate ocamlformat @fmt
tool_gate odoc @doc

# Bench gates: alloc (bytes per call within ci/alloc_budget.json),
# adaptive (per-cell SLOs over the >= 1M-invocation drift matrix) and kb
# (rating spend shrinks as the donor corpus grows).  bench/main.exe
# exits 1 after the run when any check failed.  It runs in a scratch
# directory so the committed reports stay as they are, and the
# deterministic ones must regenerate byte-identical.
echo "== bench gates"
mkdir -p "$SMOKE/bench/ci"
cp ci/alloc_budget.json "$SMOKE/bench/ci/"
(cd "$SMOKE/bench" && "$BENCH" alloc adaptive kb > /dev/null) \
  || fail "a bench gate failed; run: dune exec bench/main.exe -- alloc adaptive kb"
echo "   alloc, adaptive and kb within their gates"
for report in BENCH_adaptive.json BENCH_kb.json; do
  cmp "$report" "$SMOKE/bench/$report" || fail "$report does not regenerate byte-identical"
  echo "   $report regenerates byte-identical"
done

# one_line_error LABEL PATTERN COMMAND...: an expected failure exits 1
# with exactly one `peak-tune:` line matching PATTERN, never an uncaught
# exception.
one_line_error() {
  label=$1 pattern=$2
  shift 2
  status=0
  "$@" > /dev/null 2> "$SMOKE/err" || status=$?
  if [ "$status" -ne 1 ] || [ "$(wc -l < "$SMOKE/err")" -ne 1 ] \
    || ! grep -q '^peak-tune: ' "$SMOKE/err" || ! grep -q "$pattern" "$SMOKE/err" \
    || grep -q uncaught "$SMOKE/err"; then
    cat "$SMOKE/err" >&2
    fail "$label: expected exit 1 and one peak-tune line matching '$pattern' (exit $status)"
  fi
  echo "   $label: one-line error, exit 1"
}
echo "== one-line errors"
one_line_error "bogus method" cbr "$BIN" tune ART -m pentium4 -r bogus
one_line_error "forced CBR on BZIP2" "target context" \
  "$BIN" tune BZIP2 -m sparc2 -r cbr --search be
one_line_error "bogus strategy" staged "$BIN" tune ART -m pentium4 -s bogus
one_line_error "bogus kb subcommand" build "$BIN" kb bogus
for cmd in analyze show consistency instrument; do
  one_line_error "$cmd of an unknown benchmark" "unknown benchmark NOPE" "$BIN" $cmd NOPE
done
one_line_error "unknown machine" "unknown machine vax" "$BIN" tune ART -m vax
one_line_error "unknown dataset" "unknown dataset big" "$BIN" tune ART -d big

# interrupt SESSION_DIR COMMAND...: run COMMAND (a signal to the
# process tuning the session, or a cancel) once the session's journal
# holds 64 lines (it flushes every 32 appends).  SESSION_DIR may be a
# glob; it is matched while waiting.
interrupt() {
  dir=$1
  shift
  i=0
  until [ "$(cat $dir/journal.jsonl 2> /dev/null | wc -l)" -ge 64 ]; do
    i=$((i + 1))
    [ "$i" -le 500 ] || fail "$dir never journaled 64 lines"
    sleep 0.01
  done
  "$@" > /dev/null || fail "$*: failed"
}

# unfinished SESSION_DIR: an interrupted session, once it has ended, has
# not written result.json.
unfinished() {
  ! ls $1/result.json > /dev/null 2>&1 || fail "the interruption landed after $1 wrote result.json"
}

# the lines of a tuning result, as `tune` and `session resume` print them
result_lines() {
  grep -E '^(Rating method|Fallback chain|Best configuration|Search|Tuning time|Whole-program)'
}

# kill_resume LABEL TUNE_ARGS...: SIGKILL a store-backed `tune`
# mid-flight, resume it, and require the result of an uninterrupted run
# in a fresh store.
kill_resume() {
  label=$1
  shift
  "$BIN" tune "$@" --store "$SMOKE/$label-ref" | result_lines > "$SMOKE/$label-ref.out"
  "$BIN" tune "$@" --store "$SMOKE/$label" > /dev/null 2>&1 &
  interrupt "$SMOKE/$label/sessions/*" kill -KILL $!
  wait $! 2> /dev/null || true
  unfinished "$SMOKE/$label/sessions/*"
  id=$("$BIN" session list --store "$SMOKE/$label" -q)
  "$BIN" session resume --store "$SMOKE/$label" "$id" | result_lines > "$SMOKE/$label.out"
  diff "$SMOKE/$label-ref.out" "$SMOKE/$label.out" \
    || fail "$label: resumed result differs from the uninterrupted run"
  "$BIN" session gc --store "$SMOKE/$label" > /dev/null
  echo "   $label: killed mid-flight, resumed identical"
}
echo "== kill/resume"
# a rating cap below the convergence window walks auto's fallback chain,
# and the resume rebuilds the capped rating params from the stored
# signature
kill_resume auto-fallback MGRID -m sparc2 --rating-cap 30 --search random2000
grep -q '^Fallback chain:' "$SMOKE/auto-fallback-ref.out" \
  || fail "auto-fallback: the rating cap did not force a fallback"
kill_resume forced-rbr ART -m pentium4 -r rbr --search random2000

# same_result LABEL EXTRA TUNE_ARGS...: `tune TUNE_ARGS` and `tune
# TUNE_ARGS EXTRA` (word-split) print the same result; the two wall
# times land in $plain_ms and $extra_ms.
same_result() {
  label=$1 extra=$2
  shift 2
  t0=$(date +%s%N)
  "$BIN" tune "$@" | result_lines > "$SMOKE/$label-plain.out"
  t1=$(date +%s%N)
  "$BIN" tune "$@" $extra | result_lines > "$SMOKE/$label.out"
  t2=$(date +%s%N)
  plain_ms=$(((t1 - t0) / 1000000)) extra_ms=$(((t2 - t1) / 1000000))
  grep -q '^Best configuration:' "$SMOKE/$label.out" || fail "$label: no result printed"
  diff "$SMOKE/$label-plain.out" "$SMOKE/$label.out" \
    || fail "$label: result differs from the plain run"
  echo "   $label: result identical to the plain run"
}
echo "== one rating path"
same_result store "--store $SMOKE/swim" SWIM -m pentium4
same_result traced "--trace $SMOKE/trace.json" SWIM -m pentium4 -r rbr --search be
# within 10% of the untraced wall clock, plus 1s of absolute slack for
# scheduler jitter on short runs
[ "$extra_ms" -le $((plain_ms + plain_ms / 10 + 1000)) ] \
  || fail "tracer overhead too high: ${plain_ms}ms untraced vs ${extra_ms}ms traced"
echo "   tracer overhead within budget (${plain_ms}ms untraced, ${extra_ms}ms traced)"
"$BIN" trace summarize "$SMOKE/trace.json" > "$SMOKE/trace-summary.out" \
  || fail "trace summarize rejected the written trace"
grep -q "Spans by category" "$SMOKE/trace-summary.out" \
  || fail "the trace summary reports no span categories"
echo "   trace.json validates and reports span categories"

# Staged search: the strategies table lists it, and on a BE-warmed,
# gc-compacted store its journal-trained screen spends fewer ratings
# than exhaustive CE.  A staged session is too short for a shell to
# interrupt; its kill/resume is the store.resume case in dune runtest.
echo "== staged search"
"$BIN" strategies | grep -q staged || fail "the strategies table is missing staged"
echo "   strategies table lists staged"
"$BIN" tune ART -m pentium4 -r rbr -s be --store "$SMOKE/stg" > /dev/null
"$BIN" session gc --store "$SMOKE/stg" > /dev/null
ratings() { sed -n 's/^Search: \([0-9][0-9]*\) ratings.*/\1/p'; }
staged=$("$BIN" tune ART -m pentium4 -r rbr -s staged --store "$SMOKE/stg" | ratings)
ce=$("$BIN" tune ART -m pentium4 -r rbr -s ce --store "$SMOKE/stg" | ratings)
[ -n "$staged" ] && [ -n "$ce" ] && [ "$staged" -lt "$ce" ] \
  || fail "staged did not beat CE's rating budget (staged=$staged ce=$ce)"
echo "   staged spends fewer ratings than CE ($staged vs $ce)"

# Knowledge base: built from the warmed store, it recommends a ranked
# start for a held-out benchmark, and a rebuild is byte-identical.
echo "== kb"
"$BIN" kb build --store "$SMOKE/stg" -o "$SMOKE/kb.json" > "$SMOKE/kb-build.out"
grep -q "rows over" "$SMOKE/kb-build.out" || fail "unexpected kb build output"
"$BIN" kb recommend "$SMOKE/kb.json" MGRID -m pentium4 > "$SMOKE/kb-rec.out"
grep -q "^| 1 " "$SMOKE/kb-rec.out" || fail "kb recommend printed no ranked list"
echo "   held-out benchmark gets a ranked recommendation"
"$BIN" kb build --store "$SMOKE/stg" -o "$SMOKE/kb-again.json" > /dev/null
cmp "$SMOKE/kb.json" "$SMOKE/kb-again.json" || fail "kb build is not deterministic"
echo "   rebuild is byte-identical"

# start_tuned STORE LOG [ARGS...]: start a daemon on STORE's socket and
# wait until it is bound; sets $tuned_pid and $SOCK.
start_tuned() {
  store=$1 log=$2
  shift 2
  "$TUNED" --store "$store" -j 2 "$@" > "$log" 2>&1 &
  tuned_pid=$!
  SOCK="unix:$store/peak-tuned.sock"
  i=0
  until [ -S "$store/peak-tuned.sock" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "the daemon on $store never bound its socket"
    sleep 0.1
  done
}

# Daemon: concurrent clients get results byte-identical to the batch
# CLI, `session list` works on the held store, SIGTERM mid-session
# drains to a resumable journal, and the resume equals an uninterrupted
# run on a fresh daemon.
echo "== daemon"
start_tuned "$SMOKE/serve" "$SMOKE/daemon1.log" --trace "$SMOKE/serve-trace.json"
"$BIN" client submit ART --daemon "$SOCK" -m pentium4 -r rbr --search be > /dev/null &
art=$!
"$BIN" client submit SWIM --daemon "$SOCK" -m pentium4 -r rbr --search be > /dev/null &
wait "$art" $!
"$BIN" session list --store "$SMOKE/serve" > /dev/null \
  || fail "session list failed on a daemon-held store"
echo "   session list works on a daemon-held store"
for b in ART SWIM; do
  "$BIN" tune "$b" -m pentium4 -r rbr --search be --store "$SMOKE/serve-batch" > /dev/null
  id=$("$BIN" session list --store "$SMOKE/serve-batch" -q | grep -i "^$b-")
  cmp "$SMOKE/serve/sessions/$id/result.json" "$SMOKE/serve-batch/sessions/$id/result.json" \
    || fail "$b daemon result differs from the batch CLI"
  echo "   $b via daemon identical to the batch CLI"
done
"$BIN" client submit SWIM --daemon "$SOCK" -m pentium4 --search random2000 \
  --rating-cap 100 --seed 5 --detach > /dev/null
interrupt "$SMOKE/serve/sessions/*random2000*" kill -TERM "$tuned_pid"
status=0
wait "$tuned_pid" || status=$?
[ "$status" -eq 0 ] || fail "the daemon exited $status after SIGTERM"
unfinished "$SMOKE/serve/sessions/*random2000*"
grep -q drained "$SMOKE/daemon1.log" || fail "the daemon did not drain cleanly"
echo "   SIGTERM drained the daemon mid-session"
"$BIN" trace summarize "$SMOKE/serve-trace.json" > /dev/null \
  || fail "trace summarize rejected the server trace"
echo "   server trace validates"
start_tuned "$SMOKE/serve" "$SMOKE/daemon2.log"
rid=$("$BIN" session list --store "$SMOKE/serve" -q | grep random2000)
"$BIN" client resume --daemon "$SOCK" "$rid" | tail -4 > "$SMOKE/serve-resumed.out"
kill -TERM "$tuned_pid"
wait "$tuned_pid" || true
start_tuned "$SMOKE/serve-ref" "$SMOKE/daemon3.log"
"$BIN" client submit SWIM --daemon "$SOCK" -m pentium4 --search random2000 \
  --rating-cap 100 --seed 5 | tail -4 > "$SMOKE/serve-uninterrupted.out"
kill -TERM "$tuned_pid"
wait "$tuned_pid" || true
diff "$SMOKE/serve-resumed.out" "$SMOKE/serve-uninterrupted.out" \
  || fail "the resumed daemon session differs from the uninterrupted run"
echo "   resumed daemon session identical to the uninterrupted run"
# A cancel mid-session ends the session and keeps its journal: its
# status reads idle, and `client resume` finishes it identical to the
# batch CLI.
start_tuned "$SMOKE/serve-cancel" "$SMOKE/daemon5.log"
cid=$("$BIN" client submit SWIM --daemon "$SOCK" -m pentium4 --search random2000 \
  --rating-cap 100 --seed 6 --detach | sed -n 's/^session: //p')
interrupt "$SMOKE/serve-cancel/sessions/$cid" "$BIN" client cancel --daemon "$SOCK" "$cid"
i=0
until "$BIN" client status --daemon "$SOCK" "$cid" | grep -q '^state: idle$'; do
  i=$((i + 1))
  [ "$i" -le 300 ] || { kill -TERM "$tuned_pid"; fail "the cancelled $cid never read idle in 30 s"; }
  sleep 0.1
done
unfinished "$SMOKE/serve-cancel/sessions/$cid"
echo "   a cancelled session reads idle"
"$BIN" client resume --daemon "$SOCK" "$cid" > /dev/null
kill -TERM "$tuned_pid"
wait "$tuned_pid" || true
"$BIN" tune SWIM -m pentium4 --search random2000 --rating-cap 100 --seed 6 \
  --store "$SMOKE/cancel-batch" > /dev/null
cmp "$SMOKE/serve-cancel/sessions/$cid/result.json" \
  "$SMOKE/cancel-batch/sessions/$cid/result.json" \
  || fail "the session resumed after its cancel differs from the batch CLI"
echo "   resumed after the cancel, identical to the batch CLI"
# A session over its fair share gives its domain back: of three sessions
# admitted to a two-domain daemon with a quantum of 2 fresh ratings, one
# waits for a domain and holds the minimum at zero, so the two running
# sessions park.  Were a parked session to keep its domain, none would
# finish; all three must finish and match the batch CLI.
start_tuned "$SMOKE/serve-fair" "$SMOKE/daemon4.log" --max-sessions 3 --quantum 2
pids=
for s in 1 2 3; do
  timeout 60 "$BIN" client submit SWIM --daemon "$SOCK" -s ie --seed "$s" > /dev/null &
  pids="$pids $!"
done
for p in $pids; do
  wait "$p" || { kill -TERM "$tuned_pid"; fail "a fair-share session did not finish in 60 s"; }
done
kill -TERM "$tuned_pid"
wait "$tuned_pid" || true
for s in 1 2 3; do
  "$BIN" tune SWIM -s ie --seed "$s" --store "$SMOKE/fair-batch" > /dev/null
done
for id in $("$BIN" session list --store "$SMOKE/fair-batch" -q); do
  cmp "$SMOKE/serve-fair/sessions/$id/result.json" "$SMOKE/fair-batch/sessions/$id/result.json" \
    || fail "fair-share session $id differs from the batch CLI"
done
echo "   three sessions past a quantum of 2 finish, identical to the batch CLI"

echo "== OK"
