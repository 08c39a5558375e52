#!/bin/sh
# Repo check: full build, test suite, audited test suite, encoding
# lint, and (when ocamlformat is available) a formatting gate.  Run
# from the repo root; exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== dune runtest (GRC_AUDIT=1) =="
GRC_AUDIT=1 dune runtest --force

# The qcheck suites honor QCHECK_SEED; the differential suite compares
# the attack, the relaxed certifier, full refinement, and two exact
# engines on the same random nets, so distinct seeds buy distinct nets.
echo "== differential suite under three fixed seeds =="
for seed in 1 42 20260806; do
  QCHECK_SEED="$seed" dune exec test/test_main.exe -- test differential
done

echo "== grc lint (small auto-mpg encoding) =="
dune exec -- grc lint --family auto-mpg --id lint-ci --size 4,4 \
  --artifacts _build/lint-artifacts

echo "== grc lint --seed-fault must fail =="
if dune exec -- grc lint --family auto-mpg --id lint-ci --size 4,4 \
    --artifacts _build/lint-artifacts --seed-fault nan-coeff \
    >/dev/null 2>&1; then
  echo "seeded fault was not reported" >&2
  exit 1
fi

echo "== audited certification sweep (GRC_AUDIT=1 grc certify) =="
GRC_AUDIT=1 dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001

echo "== audited parallel certification sweep (--domains 4) =="
GRC_AUDIT=1 dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --domains 4

echo "== sparse-LU vs dense-inverse certify parity =="
sparse_eps=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 | grep '^output')
dense_eps=$(GRC_LP_BASIS=dense dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 | grep '^output')
if [ "$sparse_eps" != "$dense_eps" ]; then
  echo "basis representation changed certified bounds:" >&2
  echo "  sparse: $sparse_eps" >&2
  echo "  dense:  $dense_eps" >&2
  exit 1
fi

echo "== symbolic=back certify parity (sequential and --domains 4) =="
plain_eps=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --symbolic=off \
  | grep '^output')
back_eps=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --symbolic=back \
  | grep '^output')
back_par_eps=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --symbolic=back \
  --domains 4 | grep '^output')
if [ "$plain_eps" != "$back_eps" ] || [ "$plain_eps" != "$back_par_eps" ]; then
  echo "backward-symbolic pre-analysis changed certified bounds:" >&2
  echo "  off:           $plain_eps" >&2
  echo "  back:          $back_eps" >&2
  echo "  back/domains4: $back_par_eps" >&2
  exit 1
fi

echo "== branch-strategy certify parity (sequential and --domains 4) =="
# Every branch & bound strategy must certify the identical epsilon —
# only the tree shape (node counts) may differ — sequentially and
# under domain parallelism.
ref_eps=""
for strategy in most-fractional dual-guided; do
  seq_eps=$(dune exec -- grc certify \
    --net _build/lint-artifacts/lint-ci.net --delta 0.001 \
    --branch "$strategy" | grep '^output')
  par_eps=$(dune exec -- grc certify \
    --net _build/lint-artifacts/lint-ci.net --delta 0.001 \
    --branch "$strategy" --domains 4 | grep '^output')
  if [ -z "$ref_eps" ]; then
    ref_eps="$seq_eps"
  fi
  if [ "$seq_eps" != "$ref_eps" ] || [ "$par_eps" != "$ref_eps" ]; then
    echo "branch strategy $strategy changed certified bounds:" >&2
    echo "  reference:  $ref_eps" >&2
    echo "  sequential: $seq_eps" >&2
    echo "  domains4:   $par_eps" >&2
    exit 1
  fi
done
# a removed rule name is a command-line usage error, not a silent default
if dune exec -- grc certify --net _build/lint-artifacts/lint-ci.net \
    --delta 0.001 --branch dy-partition >/dev/null 2>_build/branch-ci.err; then
  echo "grc certify accepted the removed --branch dy-partition" >&2
  exit 1
fi
if ! grep -q "invalid value 'dy-partition'" _build/branch-ci.err; then
  echo "--branch dy-partition did not fail with a usage error:" >&2
  cat _build/branch-ci.err >&2
  exit 1
fi

echo "== certification with dedup disabled matches =="
with_dedup=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 | grep '^output')
without_dedup=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --no-dedup \
  | grep '^output')
if [ "$with_dedup" != "$without_dedup" ]; then
  echo "dedup changed certified bounds:" >&2
  echo "  with:    $with_dedup" >&2
  echo "  without: $without_dedup" >&2
  exit 1
fi

echo "== traced certification sweep (grc trace-check) =="
dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 \
  --trace _build/trace-ci.json
dune exec -- grc trace-check _build/trace-ci.json \
  --require certify --require plan.values --require executor.run \
  --require engine.query --require simplex.solve
dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --domains 4 \
  --trace _build/trace-par-ci.json
dune exec -- grc trace-check _build/trace-par-ci.json \
  --require certify --require executor.worker --require simplex.solve

echo "== obs-bench (disabled-tracing overhead gate; writes BENCH_obs.json) =="
dune exec bench/main.exe -- obs-bench
test -s BENCH_obs.json

# lp-bench carries its own gates: dense-vs-sparse objective agreement
# within 1e-9 on every swept case, zero dense fallbacks, >= 5x
# aggregate speedup of the sparse LU basis over the dense inverse on
# the dnn3/dnn4/dnn5-scale sweeps, and the backward-symbolic gates
# (>= 30% fewer LP solves on dnn3/dnn4 at bitwise-identical certified
# eps, plus exact-engine stability hints that pin splits without
# moving the optimum).  The branch-strategy gates ride along: certified
# eps bitwise identical across both strategies on the certifier,
# exact-BTNE and reluplex cases, and dual-guided exploring >= 20% fewer
# B&B nodes than most-fractional on the exact-BTNE dnn3 tree.  It
# exits nonzero if any gate fails.
echo "== lp-bench (dense-vs-sparse solver gates; writes BENCH_lp.json) =="
dune exec bench/main.exe -- lp-bench
test -s BENCH_lp.json

echo "== certification daemon smoke test =="
# Everything is already built; run the binary directly.  A backgrounded
# `dune exec` and a foreground one race for the dune lock, and the loser
# silently falls back to PATH resolution and dies.
grc=_build/default/bin/grc.exe
sock="_build/grc-ci.sock"
cachef="_build/grc-ci-cache.txt"
rm -f "$sock" "$cachef"
"$grc" serve --socket "$sock" --cache "$cachef" --workers 1 &
serve_pid=$!
cleanup_serve() {
  kill "$serve_pid" 2>/dev/null || true
}
trap cleanup_serve EXIT
i=0
until "$grc" submit --socket "$sock" --ping >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "daemon did not come up" >&2
    exit 1
  fi
  sleep 0.2
done
first=$("$grc" submit --socket "$sock" \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001)
echo "$first" | grep -q 'cached: false' || {
  echo "first submission unexpectedly cached" >&2
  exit 1
}
second=$("$grc" submit --socket "$sock" \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001)
echo "$second" | grep -q 'cached: true' || {
  echo "second submission missed the result cache" >&2
  exit 1
}
oneshot=$("$grc" certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 | grep '^output')
if [ "$(echo "$first" | grep '^output')" != "$oneshot" ] \
  || [ "$(echo "$second" | grep '^output')" != "$oneshot" ]; then
  echo "daemon answers differ from one-shot certify:" >&2
  echo "  daemon:   $(echo "$first" | grep '^output')" >&2
  echo "  one-shot: $oneshot" >&2
  exit 1
fi
"$grc" submit --socket "$sock" --stats | grep -q '"hit_rate"' || {
  echo "stats payload missing cache hit rate" >&2
  exit 1
}
"$grc" submit --socket "$sock" --shutdown
wait "$serve_pid"
trap - EXIT
if [ -S "$sock" ]; then
  echo "daemon left its socket behind" >&2
  exit 1
fi

echo "== 2-shard router: parity sweep, failover, SIGTERM drain =="
s0="_build/grc-shard0.sock"
s1="_build/grc-shard1.sock"
front="_build/grc-front.sock"
shcache="_build/grc-shard-cache.txt"
rm -f "$s0" "$s1" "$front" "$shcache"
# two daemons sharing one cache file, kept honest by per-shard namespaces
"$grc" serve --socket "$s0" --workers 1 --cache "$shcache" --cache-ns shard0 &
d0_pid=$!
"$grc" serve --socket "$s1" --workers 1 --cache "$shcache" --cache-ns shard1 &
d1_pid=$!
router_pid=""
cleanup_shards() {
  kill "$d0_pid" "$d1_pid" 2>/dev/null || true
  [ -n "$router_pid" ] && kill "$router_pid" 2>/dev/null || true
}
trap cleanup_shards EXIT
for sock_i in "$s0" "$s1"; do
  i=0
  until "$grc" submit --socket "$sock_i" --ping >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
      echo "shard daemon $sock_i did not come up" >&2
      exit 1
    fi
    sleep 0.2
  done
done
"$grc" shard --socket "$front" --backend "$s0" --backend "$s1" &
router_pid=$!
i=0
until "$grc" submit --socket "$front" --ping >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "shard router did not come up" >&2
    exit 1
  fi
  sleep 0.2
done
# a sweep through the router must be bitwise one-shot certify, cell by cell
"$grc" sweep --socket "$front" --timeout-s 120 \
  --net _build/lint-artifacts/lint-ci.net \
  --deltas 0.001,0.002 --regions 0:0.5,0:1 \
  --json _build/sweep-ci.json >_build/sweep-ci.tsv
while IFS="$(printf '\t')" read -r delta lo hi shard degraded cached eps; do
  case "$delta" in \#*) continue ;; esac
  want=$("$grc" certify --net _build/lint-artifacts/lint-ci.net \
    --delta "$delta" --lo "$lo" --hi "$hi" \
    | sed -n 's/^output [0-9]*: eps <= //p' | tr '\n' ',' | sed 's/,$//')
  if [ "$eps" != "$want" ]; then
    echo "sweep cell (delta=$delta lo=$lo hi=$hi) drifted from one-shot:" >&2
    echo "  sweep:    $eps" >&2
    echo "  one-shot: $want" >&2
    exit 1
  fi
done <_build/sweep-ci.tsv
grep -qv '^#' _build/sweep-ci.tsv || {
  echo "sweep produced no cells" >&2
  exit 1
}
# both shards must have taken cells (column 4 of the data rows)
shards_used=$(awk -F'\t' '!/^#/ { print $4 }' _build/sweep-ci.tsv \
  | sort -u | tr '\n' ' ')
if [ "$shards_used" != "0 1 " ]; then
  echo "sweep did not spread across both shards (used: $shards_used)" >&2
  exit 1
fi
# failover: freeze shard1 so its cells stay in flight, then kill it
# mid-sweep; every cell must still answer (retried on shard0) and the
# sweep must report degradation.  The sweep reuses the digest from the
# parity run rather than --net: a load would fan out to the frozen
# shard and block the client before any certify item is in flight.
sweep_digest=$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' _build/sweep-ci.json)
if [ -z "$sweep_digest" ]; then
  echo "could not extract digest from _build/sweep-ci.json" >&2
  exit 1
fi
kill -STOP "$d1_pid"
"$grc" sweep --socket "$front" --timeout-s 120 \
  --digest "$sweep_digest" \
  --deltas 0.001,0.002 --regions 0:0.5,0:1 \
  --json _build/sweep-failover.json >_build/sweep-failover.tsv &
sweep_pid=$!
sleep 1
kill -KILL "$d1_pid" 2>/dev/null || true
if ! wait "$sweep_pid"; then
  echo "failover sweep lost cells" >&2
  exit 1
fi
grep -q '"degraded":true' _build/sweep-failover.json || {
  echo "failover sweep did not report degradation" >&2
  exit 1
}
# answers must be identical to the healthy sweep despite the retries
healthy=$(awk -F'\t' '!/^#/ { print $1, $2, $3, $7 }' _build/sweep-ci.tsv)
failover=$(awk -F'\t' '!/^#/ { print $1, $2, $3, $7 }' _build/sweep-failover.tsv)
if [ "$healthy" != "$failover" ]; then
  echo "failover sweep drifted from the healthy sweep:" >&2
  echo "  healthy:  $healthy" >&2
  echo "  failover: $failover" >&2
  exit 1
fi
# the router drains cleanly on SIGTERM and removes its socket
kill -TERM "$router_pid"
wait "$router_pid" || {
  echo "router did not drain cleanly on SIGTERM" >&2
  exit 1
}
router_pid=""
if [ -S "$front" ]; then
  echo "router left its socket behind" >&2
  exit 1
fi
"$grc" submit --socket "$s0" --shutdown >/dev/null
wait "$d0_pid"
trap - EXIT

echo "== serve-bench (daemon vs one-shot + shard scaling; writes BENCH_serve.json) =="
dune exec bench/main.exe -- serve-bench
test -s BENCH_serve.json

echo "== train-robust smoke (tiny net, 3 epochs, certifier in the loop) =="
# Three robust epochs on a tiny auto-mpg net through the in-process
# certification daemon: the final certified eps must not exceed the
# initial one, and the unchanged-net re-check after training must be
# answered from the result cache.
tr_out=$("$grc" train-robust --family auto-mpg --id lint-ci --size 4,4 \
  --artifacts _build/lint-artifacts --epochs 3 --batch-size 16 \
  --lambda 0.01 --delta 0.05 --json _build/train-robust-ci.json)
echo "$tr_out"
eps0=$(echo "$tr_out" | sed -n 's/^initial eps //p')
eps1=$(echo "$tr_out" | sed -n 's/^final eps //p')
if [ -z "$eps0" ] || [ -z "$eps1" ]; then
  echo "train-robust did not report initial/final eps" >&2
  exit 1
fi
if ! awk -v a="$eps1" -v b="$eps0" 'BEGIN { exit !(a <= b) }'; then
  echo "robust training increased certified eps: $eps0 -> $eps1" >&2
  exit 1
fi
hits=$(echo "$tr_out" | sed -n 's|^recheck cache hits \([0-9]*\)/.*|\1|p')
cells=$(echo "$tr_out" | sed -n 's|^recheck cache hits [0-9]*/||p')
if [ -z "$hits" ] || [ "$hits" -eq 0 ] || [ "$hits" != "$cells" ]; then
  echo "unchanged-net re-check missed the cache ($hits/$cells hits)" >&2
  exit 1
fi
test -s _build/train-robust-ci.json

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt check =="
  dune build @fmt
else
  echo "== dune fmt check skipped (ocamlformat not installed) =="
fi

echo "All checks passed."
