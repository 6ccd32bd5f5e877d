#!/usr/bin/env bash
# End-to-end smoke checks of the release CLI and bench binaries: the
# same script the CI workflow runs, so an offline checkout can run
# exactly what CI runs.
#
# Usage: scripts/ci-smoke.sh    (from anywhere; exits nonzero on the
# first failing check). Scratch files go to $RUNNER_TEMP when set,
# otherwise to a fresh temporary directory removed on exit.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ -n "${RUNNER_TEMP:-}" ]]; then
  TMP="$RUNNER_TEMP"
else
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
fi

step() { printf '\n>>> %s\n' "$*"; }

# Counter value from a --cache-stats block ("  name: value").
counter() { sed -n "s/^  $1: \([0-9][0-9]*\)$/\1/p" "$2"; }

cargo build --release -q -p tricheck-cli
tricheck() { "${CARGO_TARGET_DIR:-target}/release/tricheck" "$@"; }

step "Dependency isolation (the shipped CLI holds the pipeline only)"
# The oracles, the operational machines and the sieve workload are
# reached only by tests, examples and benches: the CLI's tree must list
# none of them.
cargo tree -e normal -p tricheck-cli > "$TMP/cli-tree.txt"
grep -q "tricheck-core" "$TMP/cli-tree.txt"
if grep -E "tricheck-(oracle|opsim|sieve)" "$TMP/cli-tree.txt"; then
  echo "a test-only crate is a normal dependency of tricheck-cli" >&2; exit 1
fi

step "Rustdoc (no warnings, no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

step "CLI power-sweep smoke"
tricheck sweep wrc --stack power --threads 2 --cache-stats | tee "$TMP/power.txt"
# The fused-kernel path must be active: one kernel per sweep, judging the
# matrix's distinct µarch models at once (the Power matrix has 2 mappings
# × the same 2 models).
grep -E "^  compiled_kernels: 1$" "$TMP/power.txt"

step "CLI sharded power-sweep smoke (the job names the registry entry)"
tricheck sweep wrc --stack power --shards 2 --cache-stats | tee "$TMP/power-sharded.txt"
# Two worker processes rebuild the `power` entry by name: the table is
# byte-identical to the in-process one, and each worker fuses one
# kernel for its sweep (the merged counter sums them: 2 workers × 1).
sed '/^cache stats:/,$d' "$TMP/power.txt" > "$TMP/power-table.txt"
sed '/^cache stats:/,$d' "$TMP/power-sharded.txt" > "$TMP/power-sharded-table.txt"
diff "$TMP/power-table.txt" "$TMP/power-sharded-table.txt"
grep -E "^  compiled_kernels: 2$" "$TMP/power-sharded.txt"
# An unknown stack name fails, listing the registered names.
if tricheck sweep wrc --stack nosuch 2> "$TMP/nosuch.txt"; then
  echo "unknown stack name was accepted" >&2; exit 1
fi
grep "unknown stack 'nosuch'" "$TMP/nosuch.txt"
grep "riscv, power, x86-tso" "$TMP/nosuch.txt"

step "CLI riscv-sweep compiled-path smoke"
tricheck sweep wrc --threads 2 --cache-stats | tee "$TMP/riscv.txt"
# One fused kernel across the full Figure 15 matrix (the 14 distinct
# models of 4 mappings × 7 models), and every distinct compiled program
# enumerated exactly once.
grep -E "^  compiled_kernels: 1$" "$TMP/riscv.txt"
programs="$(counter distinct_programs "$TMP/riscv.txt")"
enumerations="$(counter space_enumerations "$TMP/riscv.txt")"
if [[ -z "$programs" || "$programs" -eq 0 || "$enumerations" != "$programs" ]]; then
  echo "expected space_enumerations == distinct_programs > 0," \
    "got $enumerations and $programs" >&2
  exit 1
fi

step "Streamed vs materialized judging (store-less vs a fresh --cache-dir)"
# Without a store, each candidate is judged as the enumerator yields it;
# with one, each program's space is materialized first. Both print the
# same chart, and enumerate and prune the same, in either mode.
for mode in target outcomes; do
  flags=(--threads 1 --cache-stats)
  if [[ "$mode" == outcomes ]]; then flags+=(--outcomes); fi
  rm -rf "$TMP/judging-$mode-cache"
  tricheck sweep wrc "${flags[@]}" > "$TMP/streamed-$mode.txt"
  tricheck sweep wrc "${flags[@]}" --cache-dir "$TMP/judging-$mode-cache" \
    > "$TMP/materialized-$mode.txt"
  for run in streamed materialized; do
    sed '/^cache stats:/,$d' "$TMP/$run-$mode.txt" > "$TMP/$run-$mode-chart.txt"
  done
  diff "$TMP/streamed-$mode-chart.txt" "$TMP/materialized-$mode-chart.txt"
  for name in space_enumerations candidates_pruned; do
    streamed="$(counter "$name" "$TMP/streamed-$mode.txt")"
    materialized="$(counter "$name" "$TMP/materialized-$mode.txt")"
    if [[ -z "$streamed" || "$streamed" != "$materialized" ]]; then
      echo "$mode mode: $name reads '$streamed' streamed," \
        "'$materialized' materialized" >&2
      exit 1
    fi
  done
done

step "Litmus files (tricheck file output pinned under both specs)"
# Every committed .litmus file, parsed and verified under riscv-curr
# and riscv-ours, must print exactly the committed fixture. The
# enumerator resolves constant addresses and values from the program
# text; dep_fig13's register-computed address is the read it still
# resolves per rf choice, so this is that path's CLI pin. Regenerate
# the fixture with this loop only for an intended output change.
for f in litmus/*.litmus; do
  for spec in curr ours; do
    echo "== $f --spec $spec"
    tricheck file "$f" --spec "$spec"
  done
done > "$TMP/litmus-files.txt"
diff tests/fixtures/litmus_files.txt "$TMP/litmus-files.txt"

step "CLI built-in stack files smoke (each built-in matrix is its committed file)"
# The riscv and power built-ins are compiled in from models/riscv.stack
# and models/power.stack: loaded from disk, each prints the same table.
for stack in riscv power; do
  tricheck sweep wrc --stack "$stack" --threads 2 > "$TMP/$stack-builtin.txt"
  tricheck sweep wrc --stack "models/$stack.stack" --threads 2 > "$TMP/$stack-file.txt"
  diff "$TMP/$stack-builtin.txt" "$TMP/$stack-file.txt"
done
# The riscv table's ISA column keeps every Base row apart from its
# Base+A twin.
sed '1,2d' "$TMP/riscv-builtin.txt" | sort | uniq -d > "$TMP/riscv-dups.txt"
if [[ -s "$TMP/riscv-dups.txt" ]]; then
  echo "indistinguishable riscv table rows:" >&2; cat "$TMP/riscv-dups.txt" >&2; exit 1
fi

step "CLI model-file sweep smoke (a built-in model, loaded from its file)"
tricheck sweep wrc --model models/riscv-curr/nMM.cat --threads 2 | tee "$TMP/nmm-file.txt"
# The file's own column (Base/riscv-curr) must equal the built-in nMM
# row of the default sweep above.
file_row="$(grep -E '^Base +riscv-curr +nMM ' "$TMP/nmm-file.txt" || true)"
builtin_row="$(grep -E '^Base +riscv-curr +nMM ' "$TMP/riscv.txt" || true)"
if [[ -z "$file_row" || "$file_row" != "$builtin_row" ]]; then
  echo "models/riscv-curr/nMM.cat row '$file_row' differs from the" \
    "built-in '$builtin_row'" >&2
  exit 1
fi

step "model_eval bench smoke (quick mode)"
TRICHECK_BENCH_QUICK=1 cargo bench -q -p tricheck-bench --bench model_eval

step "CLI x86-sweep smoke"
tricheck sweep sb --stack x86-tso --threads 2 --cache-stats | tee "$TMP/x86.txt"
# The IR-defined TSO stack's headline: the unfenced mapping exhibits
# store buffering, the SC-atomics mapping is clean.
grep -E "^sc-atomics +x86-TSO +0 " "$TMP/x86.txt"
grep -E "^relaxed +x86-TSO +1 " "$TMP/x86.txt"

step "CLI model listing smoke"
tricheck sweep --list-models | tee "$TMP/models.txt"
grep "x86-TSO" "$TMP/models.txt"
grep "ScPerLocation" "$TMP/models.txt"

step "CLI closed-stdout smoke (a reader that stops early is not a crash)"
# `head -1` closes the pipe after one line; with pipefail the pipeline
# fails unless tricheck itself exits 0, and it must not panic.
tricheck list 2> "$TMP/list-stderr.txt" | head -1
if grep -q "panicked" "$TMP/list-stderr.txt"; then
  echo "tricheck list panicked on a closed stdout:" >&2
  cat "$TMP/list-stderr.txt" >&2; exit 1
fi

step "CLI stack-file smoke"
# The committed whole-stack definition file, loaded from disk, must
# reproduce the built-in x86 study's headline counts (the built-in *is*
# this file, compiled in).
tricheck sweep sb --stack models/x86-tso.stack --threads 2 | tee "$TMP/stack.txt"
grep -E "^sc-atomics +x86-TSO +0 " "$TMP/stack.txt"
grep -E "^relaxed +x86-TSO +1 " "$TMP/stack.txt"
# And the loaded stack shows up in the model catalog.
tricheck sweep --list-models --stack models/x86-tso.stack | tee "$TMP/stack-list.txt"
grep "x86-tso (loaded from models/x86-tso.stack)" "$TMP/stack-list.txt"

step "CLI stack-file error-path smoke"
# A malformed stack file must fail with a spanned, origin-tagged error —
# and a nonzero exit.
printf 'stack broken\nisa x86\nmapping m\nld rlx = frobnicate\nmodel broken\n  A: acyclic(po)\n' \
  > "$TMP/bad.stack"
if tricheck sweep sb --stack "$TMP/bad.stack" 2> "$TMP/bad.txt"; then
  echo "malformed stack file was accepted" >&2; exit 1
fi
grep "bad.stack:4" "$TMP/bad.txt"
# Unknown flags are rejected with the flag named.
if tricheck sweep sb --frobnicate 2> "$TMP/flag.txt"; then
  echo "unknown flag was accepted" >&2; exit 1
fi
grep "unknown option '--frobnicate'" "$TMP/flag.txt"

step "Sharded sweep smoke (cold, then warm)"
rm -rf "$TMP/tricheck-cache"
tricheck sweep wrc --shards 2 --cache-dir "$TMP/tricheck-cache" --cache-stats \
  | tee "$TMP/cold.txt"
tricheck sweep wrc --shards 2 --cache-dir "$TMP/tricheck-cache" --cache-stats \
  | tee "$TMP/warm.txt"
# The chart (everything before the stats block) must be byte-identical
# between the cold and warm runs.
sed '/^cache stats:/,$d' "$TMP/cold.txt" > "$TMP/cold-chart.txt"
sed '/^cache stats:/,$d' "$TMP/warm.txt" > "$TMP/warm-chart.txt"
diff "$TMP/cold-chart.txt" "$TMP/warm-chart.txt"
# The warm run must be served from the store: nonzero space hits, zero
# enumerations and zero C11 recomputations across all shards (the cold
# shards' concurrent verdict flushes must not have lost entries).
grep -E "^  store_space_hits: [1-9][0-9]*$" "$TMP/warm.txt"
grep -E "^  store_space_misses: 0$" "$TMP/warm.txt"
grep -E "^  space_enumerations: 0$" "$TMP/warm.txt"
grep -E "^  c11_evaluations: 0$" "$TMP/warm.txt"
grep -E "^  store_c11_misses: 0$" "$TMP/warm.txt"

step "Cached stack-file and model-file sweeps (a file sweeps like a built-in)"
# A stack file and a model file take the same store as the built-ins:
# a warm rerun enumerates nothing, evaluates no C11 test, and prints
# the table a storeless run prints.
check_warm_rerun() {  # name, then the sweep's matrix arguments
  local name="$1"; shift
  rm -rf "$TMP/$name"
  tricheck sweep sb "$@" > "$TMP/$name-storeless.txt"
  for run in cold warm; do
    tricheck sweep sb "$@" --cache-dir "$TMP/$name" --cache-stats | tee "$TMP/$name-$run.txt"
    sed '/^cache stats:/,$d' "$TMP/$name-$run.txt" | sed '$d' > "$TMP/$name-$run-table.txt"
    diff "$TMP/$name-storeless.txt" "$TMP/$name-$run-table.txt"
  done
  grep -E "^  space_enumerations: 0$" "$TMP/$name-warm.txt"
  grep -E "^  c11_evaluations: 0$" "$TMP/$name-warm.txt"
}
check_warm_rerun x86-stack --stack models/x86-tso.stack
check_warm_rerun x86-model --model models/x86-tso.cat
# Workers rebuild the matrix by registry name, so a loaded file takes
# one shard only: more is refused before any worker spawns.
if tricheck sweep sb --stack models/x86-tso.stack --shards 2 2> "$TMP/file-shards.txt"; then
  echo "a stack file was swept with --shards 2" >&2; exit 1
fi
grep -e "--shards N>1 cannot be combined" "$TMP/file-shards.txt"

step "Metrics report smoke (riscv + power matrices)"
# --metrics-json on both built-in matrices: the document must parse,
# carry the pinned schema tag, and contain every required top-level key
# with sane values.
tricheck sweep wrc --threads 2 --metrics-json "$TMP/metrics-riscv.json"
tricheck sweep wrc --stack power --threads 2 --metrics-json "$TMP/metrics-power.json"
for f in "$TMP/metrics-riscv.json" "$TMP/metrics-power.json"; do
  python3 - "$f" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "tricheck-metrics/v1", d["schema"]
for key in ["config", "wall_ns", "busy_ns", "phases", "counters", "stacks", "workers"]:
    assert key in d, f"missing {key}"
assert sorted(d["config"]) == ["nproc", "outcome_mode", "suite_size", "threads"], d["config"]
assert d["config"]["threads"] == 2 and d["config"]["nproc"] >= 1, d["config"]
assert d["config"]["outcome_mode"] == "Target", d["config"]
assert d["config"]["suite_size"] == 243, d["config"]
assert d["wall_ns"] > 0
assert any(p["name"] == "cell" for p in d["phases"])
for p in d["phases"]:
    for field in ["name", "total_ns", "count", "p50_ns", "p95_ns", "max_ns"]:
        assert field in p, f"phase missing {field}"
assert d["counters"]["space_enumerations"] > 0
print(sys.argv[1], "ok:", len(d["phases"]), "phases,", len(d["counters"]), "counters")
PY
done
# Sharded run: the merged report must carry a per-worker breakdown.
tricheck sweep wrc --shards 2 --metrics-json "$TMP/metrics-sharded.json"
python3 - "$TMP/metrics-sharded.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert len(d["workers"]) == 2, d["workers"]
merged = d["counters"]["space_enumerations"]
summed = sum(w["counters"]["space_enumerations"] for w in d["workers"])
assert merged == summed, (merged, summed)
print("sharded ok: per-worker breakdown merges to", merged)
PY

step "Lint smoke (committed files clean, bad file caught, JSON schema)"
# Every committed model and stack file must stay clean even under
# --deny-warnings.
shopt -s globstar
for f in models/**/*.cat models/*.stack; do
  tricheck lint "$f" --deny-warnings
done
# The known-bad fixture must exit nonzero with the rule code and
# position on stderr.
if tricheck lint tests/fixtures/lint/e001.cat 2> "$TMP/lint-bad.txt"; then
  echo "statically-empty relation was accepted" >&2; exit 1
fi
grep -E "e001.cat:2:3: error\[E001\]" "$TMP/lint-bad.txt"
# Sweeping a file with error-level findings is refused, and
# --allow-lint-errors overrides.
if tricheck sweep sb --model tests/fixtures/lint/e001.cat 2> "$TMP/lint-gate.txt"; then
  echo "sweep accepted a model with lint errors" >&2; exit 1
fi
grep "lint error" "$TMP/lint-gate.txt"
tricheck sweep sb --model tests/fixtures/lint/e001.cat --threads 2 --allow-lint-errors \
  2> /dev/null
# The --json document must parse and carry the pinned schema.
tricheck lint tests/fixtures/lint/w004.stack --json > "$TMP/lint.json" || true
python3 - "$TMP/lint.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "tricheck-lint/v1", d["schema"]
for key in ["file", "rules_checked", "errors", "warnings", "diagnostics"]:
    assert key in d, f"missing {key}"
assert d["errors"] == 0 and d["warnings"] == 3, (d["errors"], d["warnings"])
for diag in d["diagnostics"]:
    for field in ["code", "severity", "line", "column", "message"]:
        assert field in diag, f"diagnostic missing {field}"
assert all(diag["code"] == "W004" for diag in d["diagnostics"])
print(sys.argv[1], "ok:", len(d["diagnostics"]), "diagnostics")
PY

step "Diagnose smoke (file model with its own axiom names)"
# Rejections are counted by the compiled kernel under the loaded model's
# own axiom names, so renamed axioms must not crash the explanation path.
tricheck diagnose wrc+sc+sc+sc+sc+sc --model tests/fixtures/models/renamed-axioms.cat \
  | tee "$TMP/diagnose.txt"
grep -E "^  Obs: [1-9][0-9]*$" "$TMP/diagnose.txt"
tricheck dot sb+rlx+rlx+rlx+rlx --model tests/fixtures/models/renamed-axioms.cat \
  > "$TMP/witness.dot"
grep "^digraph" "$TMP/witness.dot"

step "Teardown perf guard (quick Figure 15)"
# Each work item drops its program's space as soon as it is judged, so
# the end-of-sweep deallocation burst stays marginal; fail if its share
# of busy time creeps back toward the pre-arena ~25%.
cargo run --release -q -p tricheck-bench --bin fig15 -- --quick --json "$TMP/fig15-quick.json"
python3 - "$TMP/fig15-quick.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "tricheck-metrics/v1", d["schema"]
busy = d["busy_ns"]
teardown = sum(p["total_ns"] for p in d["phases"] if p["name"] == "teardown")
share = teardown / busy
print(f"teardown {teardown} ns / busy {busy} ns = {share:.2%}")
assert share < 0.05, f"teardown share regressed: {share:.2%} >= 5%"
PY

step "Trace overhead bench (quick mode)"
TRICHECK_BENCH_QUICK=1 cargo bench -q -p tricheck-bench --bench trace_overhead

step "Allocation pins (warm enumeration and judging allocate nothing)"
cargo test --release -q --test allocations

step "all smoke checks passed"
