#!/usr/bin/env bash
# Offline CI gate for the bddmin workspace, organized as named stages.
#
# Stages (in order):
#   build        tier-1 release build
#   test         tier-1 cargo test -q (includes the corpus replay and
#                mutation-gate suites via the verify crate)
#   lint         zero-warning clippy pass over the whole workspace +
#                zero-warning rustdoc (cargo doc --workspace --no-deps
#                with RUSTDOCFLAGS="-D warnings": no broken or private
#                intra-doc links)
#   fmt          cargo fmt --all --check: the workspace stays rustfmt-clean
#   invariance   cache-size invariance suites (bdd + core) + table3
#                on the benchmark's 14 machines diffed against
#                perfbench/expected/paper_table3.txt + `suite list`
#                (reachable states and BFS depth of all 15 machines,
#                from Reachability) diffed against
#                scripts/golden/suite_list.txt
#   determinism  parallel evaluator vs sequential + table3 --quick jobs
#                1 vs 4 diff over the whole quick suite
#   fuzz-smoke   time-boxed differential fuzz (seeds 1..4) plus one
#                mutation run per oracle proving each oracle fires
#   degradation  budget-oracle fuzz gate + tiny-budget smoke suite
#                (every heuristic at a 1-step budget still covers) +
#                step-limited cbp.32.4 table3 run (level passes stay
#                bounded and every result is still a valid cover) +
#                two budgeted table3 renders diffed against
#                scripts/golden (a step limit and a node limit, so a
#                change that moves kernel call counts shows up)
#   reorder      reorder-invariance oracle fuzz + break-reorder mutant
#                gate + reorder-off and sifted-run determinism diffs
#   image        image-equivalence oracle fuzz + break-and-exists mutant
#                gate + mono-vs-range stdout diff over the whole
#                table3 --quick suite at --jobs 2 (product machines that
#                keep the early relation ∃in.T and ones that fall back
#                to T)
#   serve        service-layer gate: the 50-job and 300-job demo streams
#                through 1, 2 and 4 shards must be byte-identical (workers
#                recycle their managers across jobs), malformed and
#                non-injective jobs must come back as structured error
#                lines with exit 0, and the result cache must score
#                nonzero hits; the golden stream
#                (crates/serve/tests/golden) must give its recorded
#                results at 1, 2 and 4 shards
#   perf         the perfbench test suite (explicit checker, percentiles,
#                compare verdicts, traced-replay drift) + the
#                ci_timings.json wall-clock artifact check
#
# Opt-in stages (valid for --stage, excluded from the default run):
#   fuzz-deep    sustained structured fuzz: 60 s budget, bandit over all
#                seven generator arms, all nine oracles, instance floors
#                (>= 1000 instances, >= 16/s); shrunk reproducers land in
#                fuzz-scratch/deep with a loud diff against tests/corpus
#
# After every completed stage the per-stage wall clock is rewritten to
# ci_timings.json ([{"stage": ..., "status": ..., "ms": ...}, ...]); the
# perf stage validates that artifact with the check_timings binary.
#
# Everything works with no network access: the workspace has no external
# dependencies (the randomized suites run on the in-tree xorshift
# generator).
#
# Usage: scripts/ci.sh [--stage <name>]... [--list-stages]
#   With no arguments every default stage runs in order. Each --stage
#   selects one stage; repeat the flag to run several. --list-stages
#   prints every valid stage name and exits. A per-stage wall-clock
#   summary is printed at the end either way.
#

set -euo pipefail
cd "$(dirname "$0")/.."

# ---------------------------------------------------------------- staging
ALL_STAGES=(build test lint fmt invariance determinism fuzz-smoke degradation reorder image serve perf)
# Valid for --stage but never part of the default sweep.
EXTRA_STAGES=(fuzz-deep)
SELECTED=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --stage)
            [[ $# -ge 2 ]] || { echo "ci.sh: --stage requires a name" >&2; exit 2; }
            SELECTED+=("$2")
            shift 2
            ;;
        --list-stages)
            for stage in "${ALL_STAGES[@]}"; do
                echo "$stage"
            done
            for stage in "${EXTRA_STAGES[@]}"; do
                echo "$stage (opt-in)"
            done
            exit 0
            ;;
        -h|--help)
            # The comment header, up to the first line that is not one.
            sed -n '2,${/^#/!q;p}' "$0" | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        *)
            echo "ci.sh: unknown argument: $1" >&2
            exit 2
            ;;
    esac
done
if [[ ${#SELECTED[@]} -eq 0 ]]; then
    SELECTED=("${ALL_STAGES[@]}")
fi
for stage in "${SELECTED[@]}"; do
    ok=0
    for known in "${ALL_STAGES[@]}" "${EXTRA_STAGES[@]}"; do
        [[ "$stage" == "$known" ]] && ok=1
    done
    [[ $ok -eq 1 ]] || {
        echo "ci.sh: unknown stage '$stage' (known: ${ALL_STAGES[*]} ${EXTRA_STAGES[*]})" >&2
        exit 2
    }
done

STAGE_NAMES=()
STAGE_STATUS=()
STAGE_TIMES_MS=()
TIMINGS_FILE="ci_timings.json"
CURRENT_STAGE=""
CURRENT_T0=0
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

# Rewrites the machine-readable wall-clock artifact from the stage
# arrays. Called after every completed stage (and from the EXIT trap on
# a mid-stage failure) so the artifact is always current and valid.
write_timings() {
    {
        echo "["
        local i last=$(( ${#STAGE_NAMES[@]} - 1 ))
        for i in "${!STAGE_NAMES[@]}"; do
            local comma=","
            [[ $i -eq $last ]] && comma=""
            printf '  {"stage": "%s", "status": "%s", "ms": %d}%s\n' \
                "${STAGE_NAMES[$i]}" "${STAGE_STATUS[$i]}" "${STAGE_TIMES_MS[$i]}" "$comma"
        done
        echo "]"
    } >"$TIMINGS_FILE"
}

# A stage aborting under `set -e` still gets a timings entry, marked
# failed, so the artifact tells the whole story of the run.
on_exit() {
    local code=$?
    if [[ $code -ne 0 && -n "$CURRENT_STAGE" ]]; then
        STAGE_NAMES+=("$CURRENT_STAGE")
        STAGE_STATUS+=(fail)
        STAGE_TIMES_MS+=($(( $(now_ms) - CURRENT_T0 )))
        write_timings
    fi
}
trap on_exit EXIT

run_stage() {
    local name="$1"
    for want in "${SELECTED[@]}"; do
        if [[ "$want" == "$name" ]]; then
            echo "==> stage: $name"
            CURRENT_STAGE="$name"
            CURRENT_T0=$(now_ms)
            "stage_${name//-/_}"
            local t1
            t1=$(now_ms)
            STAGE_NAMES+=("$name")
            STAGE_STATUS+=(ok)
            STAGE_TIMES_MS+=($(( t1 - CURRENT_T0 )))
            CURRENT_STAGE=""
            write_timings
            return
        fi
    done
}

# ---------------------------------------------------------------- stages
stage_build() {
    cargo build --release
}

stage_test() {
    cargo test -q
}

stage_lint() {
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

stage_fmt() {
    # perfbench/ is a workspace of its own and is not checked here.
    cargo fmt --all --check
}

stage_invariance() {
    cargo test -q -p bddmin-bdd --test cache_invariance
    cargo test -q -p bddmin-core --test cache_invariance
    # The tables of the benchmark's paper_table3 workload, whose traversal
    # manager shrinks and regrows its caches at every flush.
    cargo build --release -q -p bddmin-eval --bin table3 --bin suite
    local tmpdir
    tmpdir="$(mktemp -d)"
    ./target/release/table3 --no-times \
        --only s344,s386,s510,s641,s820,s953,s1238,s1488,scf,styr,tbk,mult16b,minmax5,tlc \
        >"$tmpdir/table3.txt"
    diff -u perfbench/expected/paper_table3.txt "$tmpdir/table3.txt"
    rm -rf "$tmpdir"
    echo "    table3 on the 14 benchmark machines matches perfbench/expected/paper_table3.txt"
    # Reachability's reached sets and depths, which no table pins.
    ./target/release/suite list | diff -u scripts/golden/suite_list.txt -
    echo "    suite list (states and BFS depth) matches scripts/golden/suite_list.txt"
}

stage_determinism() {
    cargo test -q -p bddmin-eval --test parallel_determinism
    local tmpdir
    tmpdir="$(mktemp -d)"
    ./target/release/table3 --quick --no-times --jobs 1 >"$tmpdir/j1.txt"
    ./target/release/table3 --quick --no-times --jobs 4 >"$tmpdir/j4.txt"
    diff -u "$tmpdir/j1.txt" "$tmpdir/j4.txt"
    rm -rf "$tmpdir"
    echo "    table3 --quick byte-identical at jobs 1 and 4"
}

stage_fuzz_smoke() {
    # The release binary exists when the build stage ran; build it
    # quietly otherwise (e.g. `--stage fuzz-smoke` alone).
    cargo build --release -q -p bddmin-verify
    echo "    differential fuzz, seeds 1..4, 30 s budget, all nine oracles"
    ./target/release/verify --seed 1..4 --budget-ms 30000 --no-write
    echo "    mutation gates: every oracle must catch + shrink its injected bug"
    for mutant in break-cover break-cube-optimal break-osm-level \
                  break-lower-bound break-agreement break-invariance \
                  break-degradation break-reorder break-and-exists; do
        echo "    -- $mutant"
        ./target/release/verify --seed 1..3 --iters 2000 --budget-ms 20000 \
            --mutant "$mutant" --max-failures 1 --no-write --expect-failure \
            >/dev/null
    done
    echo "    all nine oracles fired and shrank their mutants"
    echo "    structured fuzz: bandit over all seven arms, every input surface"
    ./target/release/verify --structured --corpus-seed tests/corpus \
        --seed 1..2 --budget-ms 10000 --no-write
    echo "    structured rotation green across instances, BLIF, expr, and CLI args"
}

stage_fuzz_deep() {
    cargo build --release -q -p bddmin-verify
    local scratch="fuzz-scratch/deep"
    rm -rf "$scratch"
    mkdir -p "$scratch"
    echo "    sustained structured fuzz: 60 s budget, all nine oracles,"
    echo "    floors: >= 1000 instances and >= 16 instances/s"
    if ! ./target/release/verify --structured --corpus-seed tests/corpus \
        --seed 17..20 --budget-ms 60000 --corpus-dir "$scratch" \
        --min-instances 1000 --min-rate 16; then
        echo "ci.sh: fuzz-deep FAILED; shrunk reproducers in $scratch/" >&2
        echo "ci.sh: ---- diff against the committed corpus ----------------" >&2
        diff -ru tests/corpus "$scratch" >&2 || true
        echo "ci.sh: ---------------------------------------------------------" >&2
        echo "ci.sh: triage the reproducers above; real bugs get a fix plus a" >&2
        echo "ci.sh: committed tests/corpus/ entry replayed by corpus_replay" >&2
        exit 1
    fi
    echo "    fuzz-deep sustained the floors with zero failures"
}

stage_degradation() {
    cargo build --release -q -p bddmin-verify
    echo "    budget-oracle fuzz gate, seeds 5..8, 20 s budget"
    ./target/release/verify --seed 5..8 --budget-ms 20000 --oracle budget \
        --no-write
    echo "    tiny-budget smoke: every heuristic at starvation budgets"
    cargo test -q -p bddmin-core --test degradation
    echo "    degradation ladder holds: every blown budget still covered"
    cargo build --release -q -p bddmin-eval
    echo "    step-limited level passes: cbp.32.4 at --step-limit 200"
    local out
    out="$(./target/release/table3 --quick --no-times --only cbp.32.4 --step-limit 200)"
    grep -q "all results remain valid covers" <<<"$out"
    echo "    cbp.32.4 under a 200-step limit: every result a valid cover"
    # Which steps a budget cuts depends on every kernel call the
    # heuristics make, so these renders pin the call sequence.
    ./target/release/table3 --quick --no-times --only tlc,s386,scf \
        --step-limit 500 2>/dev/null | diff -u scripts/golden/table3_step_limit_500.txt -
    ./target/release/table3 --quick --no-times --only tlc,s386,scf,s820 \
        --node-limit 3000 2>/dev/null | diff -u scripts/golden/table3_node_limit_3000.txt -
    echo "    step- and node-limited table3 renders match scripts/golden"
}

stage_reorder() {
    cargo build --release -q -p bddmin-verify -p bddmin-eval
    echo "    reorder-invariance oracle fuzz gate, seeds 9..12, 20 s budget"
    ./target/release/verify --seed 9..12 --budget-ms 20000 \
        --oracle reorder-invariance --no-write
    echo "    break-reorder mutant gate: the oracle must catch + shrink it"
    ./target/release/verify --seed 1..3 --iters 2000 --budget-ms 20000 \
        --mutant break-reorder --max-failures 1 --no-write --expect-failure \
        >/dev/null
    echo "    reorder-off determinism: --reorder none is byte-identical to default"
    local tmpdir
    tmpdir="$(mktemp -d)"
    ./target/release/table3 --quick --only tlc --no-times >"$tmpdir/plain.txt"
    ./target/release/table3 --quick --only tlc --no-times --reorder none \
        >"$tmpdir/off.txt"
    diff -u "$tmpdir/plain.txt" "$tmpdir/off.txt"
    echo "    sifted-run determinism: --reorder sift byte-identical at jobs 1 and 4"
    ./target/release/table3 --quick --only tlc --no-times --reorder sift \
        --jobs 1 >"$tmpdir/sift_j1.txt"
    ./target/release/table3 --quick --only tlc --no-times --reorder sift \
        --jobs 4 >"$tmpdir/sift_j4.txt"
    diff -u "$tmpdir/sift_j1.txt" "$tmpdir/sift_j4.txt"
    rm -rf "$tmpdir"
}

stage_image() {
    cargo build --release -q -p bddmin-verify -p bddmin-eval
    echo "    image-equivalence oracle fuzz gate, seeds 17..20, 20 s budget"
    ./target/release/verify --seed 17..20 --budget-ms 20000 \
        --oracle image-equivalence --no-write
    echo "    break-and-exists mutant gate: the oracle must catch + shrink it"
    ./target/release/verify --seed 1..3 --iters 2000 --budget-ms 20000 \
        --mutant break-and-exists --max-failures 1 --no-write --expect-failure \
        >/dev/null
    echo "    image determinism: --image range stdout is byte-identical to mono"
    # The quick suite's product machines cover both mono paths: cbp.32.4,
    # mult16b and tlc image through ∃in.T, s386 and minmax5 through T.
    local tmpdir
    tmpdir="$(mktemp -d)"
    ./target/release/table3 --quick --no-times --jobs 2 --image mono \
        >"$tmpdir/mono.txt"
    ./target/release/table3 --quick --no-times --jobs 2 --image range \
        >"$tmpdir/range.txt"
    diff -u "$tmpdir/mono.txt" "$tmpdir/range.txt"
    rm -rf "$tmpdir"
}

stage_serve() {
    cargo build --release -q -p bddmin-serve
    echo "    shard invariance: 50- and 300-job demo streams through 1, 2 and 4 shards"
    local tmpdir n shards
    tmpdir="$(mktemp -d)"
    # Every worker keeps its managers across jobs of different widths, so
    # a shard count that moves a job to another worker must not change
    # its line. `set -e` makes the exit-0 requirement an assertion: any
    # nonzero status here (a panic escaping a worker, an I/O failure)
    # kills the stage. Per-job failures must stay in-band as error lines.
    for n in 50 300; do
        ./target/release/bddmin-job --demo "$n" >"$tmpdir/jobs$n.jsonl"
        for shards in 1 2 4; do
            ./target/release/bddmin-serve --shards "$shards" <"$tmpdir/jobs$n.jsonl" \
                >"$tmpdir/d$n-s$shards.jsonl" 2>"$tmpdir/d$n-s$shards.summary"
        done
        for shards in 2 4; do
            diff -u "$tmpdir/d$n-s1.jsonl" "$tmpdir/d$n-s$shards.jsonl"
        done
        echo "    $n-job result stream byte-identical at shards 1, 2 and 4"
    done
    local golden=crates/serve/tests/golden
    for shards in 1 2 4; do
        ./target/release/bddmin-serve --shards "$shards" <"$golden/stream.jsonl" \
            2>/dev/null | diff -u "$golden/expected.jsonl" -
    done
    echo "    golden stream gives its recorded results at shards 1, 2 and 4"
    for needle in 'malformed job' 'not injective' '"status":"error"' \
                  '"degraded":true' '"cache":"hit"'; do
        grep -q -- "$needle" "$tmpdir/d50-s1.jsonl" || {
            echo "demo stream lost its '$needle' result" >&2
            exit 1
        }
    done
    echo "    malformed + non-injective jobs answered as structured errors"
    grep -Eq '[1-9][0-9]* cache hits' "$tmpdir/d50-s1.summary" || {
        echo "expected nonzero result-cache hits in the summary:" >&2
        cat "$tmpdir/d50-s1.summary" >&2
        exit 1
    }
    sed 's/^/    /' "$tmpdir/d50-s1.summary"
    rm -rf "$tmpdir"
}

stage_perf() {
    echo "    perfbench suite, including the traced-replay drift test"
    cargo test --offline -q --manifest-path perfbench/Cargo.toml
    # Validate the wall-clock artifact accumulated so far this run (an
    # empty array when perf is the first selected stage — still valid).
    cargo build --release -q -p bddmin-eval --bin check_timings
    write_timings
    ./target/release/check_timings "$TIMINGS_FILE"
}

# ---------------------------------------------------------------- driver
for stage in "${ALL_STAGES[@]}" "${EXTRA_STAGES[@]}"; do
    run_stage "$stage"
done

echo "==> ci.sh: stage timing summary (also written to $TIMINGS_FILE)"
total=0
for i in "${!STAGE_NAMES[@]}"; do
    printf '    %-12s %-5s %8d ms\n' "${STAGE_NAMES[$i]}" "${STAGE_STATUS[$i]}" \
        "${STAGE_TIMES_MS[$i]}"
    total=$(( total + STAGE_TIMES_MS[i] ))
done
printf '    %-12s %-5s %8d ms\n' total "" "$total"
echo "==> ci.sh: all selected stages passed"
