#!/bin/sh
# Local CI: every gate a change must pass, in order, fail-fast.
# Mirrors what reviewers run by hand; see README "Build, test, reproduce".
set -eu

cd "$(dirname "$0")"

run() {
  echo "==> $*"
  "$@"
}

run dune build @check
run dune build           # dev profile, full build
run dune runtest
run dune build @fmt      # dune-file formatting
run dune build @fault    # fault-injection corpus
run dune build @analysis # static-analyzer suite
run dune build @workload # sweep-runner suite
run dune build --profile release  # warnings are errors here

# Certify gate: the shipped feasible solution must prove (exit 0) and
# the deliberately infeasible one must refute with exactly exit 8.
CLI=_build/default/bin/spv_cli.exe
run "$CLI" certify -s examples/solutions/pipe3_t700.solution
echo "==> $CLI certify -s examples/solutions/pipe3_t520_infeasible.solution (expect exit 8)"
rc=0
"$CLI" certify -s examples/solutions/pipe3_t520_infeasible.solution || rc=$?
if [ "$rc" -ne 8 ]; then
  echo "ci.sh: infeasible certificate was not refuted (exit $rc, want 8)" >&2
  exit 1
fi

# Experiment gates: `spv_cli experiment` is the one way to reproduce
# the paper, so a known id must run and an unknown one must fail with
# exactly the Domain exit code 6.
run "$CLI" experiment fig5
echo "==> $CLI experiment nosuch (expect exit 6)"
rc=0
"$CLI" experiment nosuch 2>/dev/null || rc=$?
if [ "$rc" -ne 6 ]; then
  echo "ci.sh: unknown experiment id did not exit 6 (exit $rc)" >&2
  exit 1
fi

# Docs gate: the single-shot bench studies and their BENCH_*.json files
# are gone, and so are the importance-proposal option (there is one
# proposal), the replace/append estimate-check pair (one keyed setter),
# serve's private scenario expansion (Grid.groups is the one), the
# sizing-certificate and sensitivity-debug opt-outs, the global sizer's
# yield-model choice, the message-scanning refutation test (a typed
# exception replaced it), the gate-level prune masks, the RC wire
# model, the clock-skew and corner extensions, the library-side
# equivalence guard (a test helper now), the Topo helpers only
# tests called, the private load fold of Sta (the netlist owns its
# loads), the output-load option (one constant, Netlist.output_load),
# the test-only Sta.path_delay (\b keeps Hold.short_path_delay) and
# the record-based sampling path the gate-level kernel retired
# (Spv_process.Sample, Spatial's field sampler, Variation's shift
# samplers and algebra, Ssta's per-trial factor fill), and the
# test-only library code: the fault corpus (now test/inject.ml), the
# stage-count partitioner, the correlation-matrix repair chain with its
# eigensolver, the result-returning statistics twins and the Checked
# wrappers only the corpus called, and the greedy sizer's move pruner
# with its counters and counter line; no document or source may cite
# any of them.
# CHANGES.md and ROADMAP.md are history and stay exempt.
echo "==> no citations of BENCH_*.json, bench/main.exe <id>, a proposal option or a retired API"
if grep -rEn \
  'BENCH_|bench/main\.exe( --)? +[a-z0-9-]|--proposal|Cone_guided|~proposal:|register_estimate_check|add_estimate_check|groups_of_grid|SPV_CERTIFY_SIZING|SPV_DEBUG_SENSITIVITY|set_debug_cross_check|yield_model|Clark_gaussian|is_refutation|~certify:|with_prune|without_prune|prune_masks|prune_ctx|masks_for_ctx|Spv_circuit\.Wire|Wire\.model|Spv_core\.Skew|Spv_process\.Corners|Spv_circuit\.Equivalence|longest_path_lengths|nodes_at_level|transitive_fanin_count|\?active:|Sta\.loads|\?output_load|~output_load|Ctx\.output_load|pe_output_load|\bpath_delay|Spv_process\.Sample|\bSample\.|sample_field|field_sampler|make_sampler|sample_inter|sample_rand|sample_sys_scaled|add_shift|zero_shift|fill_factors|ff_overhead_sample|\bs_factors|Spv_robust\.Inject|Spv_core\.Partition|repair_correlation|psd_report|sym_eig|pipeline_of_matrix|of_samples_checked|against_gaussian_checked|ks_against_gaussian|engine_ctx_of_pipeline|register_move_prune|prune_moves|prune_env|moves_evaluated|moves_pruned|sensitivity pruning:' \
  README.md DESIGN.md EXPERIMENTS.md .claude examples lib bin test; then
  echo "ci.sh: stale citation of a retired bench study, proposal option or API (above)" >&2
  exit 1
fi

# Library gate: every lib/ module must be named by some other source
# under lib/, bin/ or bench/suite/.  A module only tests reach belongs
# under test/, not in the library.
echo "==> every lib/ module is named outside itself in lib/, bin/ or bench/suite/"
orphans=""
for f in $(find lib -name '*.ml' | sort); do
  base=$(basename "$f" .ml)
  first=$(printf '%s' "$base" | cut -c1 | tr '[:lower:]' '[:upper:]')
  mod="$first$(printf '%s' "$base" | cut -c2-)"
  if ! grep -rlw --include='*.ml' "$mod" lib bin bench/suite |
    grep -qv "^$f\$"; then
    orphans="$orphans $f"
  fi
done
if [ -n "$orphans" ]; then
  echo "ci.sh: test-only library modules (no lib/, bin/ or bench/suite/ user):$orphans" >&2
  exit 1
fi

# Domain gate: Par's pool is the one budget for domains in the process
# (Serve's workers and the engine's jobs share it), so no other code
# may spawn one.
echo "==> Domain.spawn only in lib/engine/par.ml"
if grep -rn 'Domain\.spawn' lib bin bench test |
  grep -v '^lib/engine/par\.ml:'; then
  echo "ci.sh: Domain.spawn outside Par's pool (above)" >&2
  exit 1
fi

# Non-finite gate: a huge but finite target saturates the closed forms
# instead of overflowing to NaN, and a NaN or negative requirement (or
# an FMAX quantile of a non-positive delay) is a Domain error (exactly
# exit 6) with nothing printed on stdout, never a printed "nan" or a
# partial report.
run "$CLI" mc --mu 100 --sigma 5 -t 1e300 -m clark
for args in "hold -c chain10 --hold nan" "hold -c chain10 --hold=-1" \
  "vth -c chain10 --slack nan" "fmax --mu 5 --sigma 10"; do
  echo "==> $CLI $args (expect exit 6, empty stdout)"
  rc=0
  # shellcheck disable=SC2086
  out=$("$CLI" $args 2>/dev/null) || rc=$?
  if [ "$rc" -ne 6 ]; then
    echo "ci.sh: $args did not exit 6 (exit $rc)" >&2
    exit 1
  fi
  if [ -n "$out" ]; then
    echo "ci.sh: $args printed partial stdout before failing:" >&2
    echo "$out" >&2
    exit 1
  fi
done

# Sweep gate: the built-in smoke grid must produce schema-valid JSONL
# that is bit-identical across --jobs 1/2/4 (the sweep binary checks
# both and exits nonzero on any mismatch).
run "$CLI" sweep --smoke

# Sampling gate: the checked-in 8- and 64-stage grid through mc,
# adaptive and importance must reproduce the pinned JSONL digest at
# --jobs 1 and 2.  The digest was computed before the adaptive sweep
# shared one sampling pass over its targets and the importance
# proposal read the Cholesky factor in place; both keep every byte.
SAMPLING_MD5=2ea4c57704c4dca14287a30bd2f8d056
for jobs in 1 2; do
  echo "==> $CLI sweep -g examples/grids/sampling_sweep.grid --jobs $jobs (md5 $SAMPLING_MD5)"
  sum=$("$CLI" sweep -g examples/grids/sampling_sweep.grid --jobs "$jobs" |
    md5sum | cut -d' ' -f1)
  if [ "$sum" != "$SAMPLING_MD5" ]; then
    echo "ci.sh: sampling grid digest $sum at --jobs $jobs, want $SAMPLING_MD5" >&2
    exit 1
  fi
done

# Sizing gate: Tables II/III, Fig. 7 and the c432 sizing run with both
# sizers must reproduce their pinned stdout digests.  The digests were
# computed before the Fig. 9 loop computed each stage's fastest delay
# and area-delay model once per call and the Lagrangian sizer timed
# each sizing once; both keep every byte.  The two `size` digests are
# of the stdout from before the greedy move pruner was deleted, less
# its `sensitivity pruning:` counter line; the greedy one pins the
# sizer's 48 moves.
for entry in "experiment table2:dbbec64f297967f0fb83eddd5215cf11" \
  "experiment table3:879df10afcc1d4ccccb99a339661088d" \
  "experiment fig7:745728bfd51aa60755c14187ebc40559" \
  "size -c c432 -t 560 --sizer lagrangian:942b9dadb261c5b6b5fbb05f067461d1" \
  "size -c c432 -t 560 --sizer greedy:782ffe8c224a4de2b44775440d70bf8d"; do
  args=${entry%%:*}
  want=${entry##*:}
  echo "==> $CLI $args (md5 $want)"
  # shellcheck disable=SC2086
  sum=$("$CLI" $args | md5sum | cut -d' ' -f1)
  if [ "$sum" != "$want" ]; then
    echo "ci.sh: $args stdout digest $sum, want $want" >&2
    exit 1
  fi
done

# Hierarchical gates: the macro-layer test suite, then the smoke grid
# re-run in hierarchical mode — the binary additionally runs the flat
# smoke sweep and asserts every hierarchical row agrees with its flat
# counterpart within the row's reported error bound.
run dune build @hier     # hierarchical-SSTA suite
run "$CLI" sweep --smoke --hier

# Serve gate: the evaluation daemon replays a golden transcript through
# two fresh daemons and asserts byte-identical responses, served rows
# independent of --jobs/workers and byte-equal to the one-shot sweep of
# the same grid and seed, honest LRU cache counters (cold misses, warm
# hits) and a structured parse-error row for a truncated request.
run "$CLI" serve --smoke

# Analyzer gate: the JSON report must carry the current schema version
# plus the failure-cone and sensitivity passes on both a gate-level
# and a moments-only context.
echo "==> $CLI analyze --format json: schema_version 4 + cones + sensitivity"
for args in "-c c432 -t 900" "--mu 100 --mu 95 --sigma 5 --sigma 4 -t 130"; do
  # shellcheck disable=SC2086
  out=$("$CLI" analyze $args --format json)
  echo "$out" | grep -q '"schema_version": 4' || {
    echo "ci.sh: analyze $args JSON missing schema_version 4" >&2
    exit 1
  }
  echo "$out" | grep -q '"pass": "cones"' || {
    echo "ci.sh: analyze $args JSON missing the cones pass" >&2
    exit 1
  }
  echo "$out" | grep -q '"pass": "sensitivity"' || {
    echo "ci.sh: analyze $args JSON missing the sensitivity pass" >&2
    exit 1
  }
done

# Proposal gate: on the smoke fixture the *default* importance run must
# pick the cone proposal (there is no option to request it) and agree
# with adaptive MC (the binary exits 5 on disagreement or when the
# estimate reports any other proposal).
run "$CLI" mc --smoke

# Fuzz gates: the budgeted smoke campaign must find nothing (exit 0,
# bit-identical across two runs — the binary checks that itself), and
# a deliberately zeroed tolerance must surface as a counterexample
# with exactly the oracle-violation exit code 9.
run dune build @fuzz     # fuzzer test suite
run "$CLI" fuzz --smoke
echo "==> $CLI fuzz --trials 2 --seed 42 --clark-tol 0 --agree-z 0 (expect exit 9)"
rc=0
"$CLI" fuzz --trials 2 --seed 42 --clark-tol 0 --agree-z 0 >/dev/null || rc=$?
if [ "$rc" -ne 9 ]; then
  echo "ci.sh: zeroed-tolerance fuzz run did not report a counterexample (exit $rc, want 9)" >&2
  exit 1
fi

echo "ci.sh: all gates passed"
