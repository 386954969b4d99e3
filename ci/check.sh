#!/usr/bin/env bash
# Every check of the CI workflow, in the workflow's order. Run it from any
# directory as `bash ci/check.sh`; it exits nonzero at the first step that
# fails, a benchmark run whose verdict is not "correct": true included.
# With --mutants it then runs the mutant catalog, ci/mutants.py, which takes
# a tier-1 run per row.
set -euo pipefail
mutants=0
case "${1:-}" in
    "") ;;
    --mutants) mutants=1 ;;
    *) echo "usage: bash ci/check.sh [--mutants]" >&2; exit 2 ;;
esac
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# The console script when it is installed, the module otherwise.
if command -v loamsim >/dev/null 2>&1; then
    loamsim=(loamsim)
else
    loamsim=(python -m loamsim)
fi

step() { echo "== $*"; }

step "console script (${loamsim[*]}), with the ray oracle at M = 2 and M = 8"
"${loamsim[@]}" --version
"${loamsim[@]}" verify --order 2 --scenarios 5
"${loamsim[@]}" verify --order 8 --scenarios 3

# The demo configs are the end-to-end sweep set; each runs in about a second.
step "demo sweeps"
for cfg in demos/configs/*.json; do
    "${loamsim[@]}" sweep "$cfg" --out /dev/null
done

step "tier-1 tests"
python -m pytest -q --continue-on-collection-errors

# The sweep hashes and kernels hold at numpy's baseline SIMD level (no AVX2),
# unlike the design and verify hashes. The variable acts on this process only.
step "sweep engine at numpy's baseline SIMD level"
NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" python -m pytest -q \
    tests/test_byte_identity.py::test_sweep_artifacts_unchanged tests/test_simulate.py

step "benchmark self-test"
python -m pytest bench/test_bench.py

# bench/run.py exits 0 even when a check fails, so read the verdict on its
# last line. The traced runs call loamsim through the span hooks, from the
# sweep's pool threads too.
step "traced benchmark smoke"
for w in fixed_weak_m4 rayleigh_m64 oracle_verify design_scalar; do
    last=$(python3 bench/run.py --workload "$w" --seed 1 --seconds 2 --trace 1 | tail -n 1)
    echo "$w: ${last:0:80}"
    case "$last" in
        *'"correct": true'*) ;;
        *) echo "$w: traced run did not report correct outputs" >&2; exit 1 ;;
    esac
done

# The gallery writes its JSON documents to the git-ignored demos/output/.
step "demos"
python demos/design_verification.py
python demos/constellation_gallery.py
python demos/ser_vs_snr.py
python demos/gain_gap_study.py

if [ "$mutants" = 1 ]; then
    step "mutant catalog"
    python ci/mutants.py
fi

step "all checks passed"
