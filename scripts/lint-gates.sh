#!/usr/bin/env bash
# Lint gates: each determinism/precision invariant that clippy enforces
# must still fail the build when it is broken in real, in-scope code.
#
# For every class this appends one known-bad item to a first-party
# source file, runs `cargo clippy -p <crate> --lib -- -D warnings`, and
# requires both a failing exit status and the expected lint's name in
# the output (the exit status alone is not enough: `missing_docs` and
# `dead_code` deny under `-D warnings` too). The same command must pass
# on the untouched crate first, so that a lint name can only come from
# the probe (an unfulfilled `expect` in a dependency names its lint
# too). The file is restored afterwards, also on failure or interrupt.
#
# Usage, from anywhere in the repository:
#
#     scripts/lint-gates.sh
#
# Exit 0 when every class is caught, 1 otherwise.

set -euo pipefail
cd "$(dirname "$0")/.."

failures=0
declare -A baseline_ok=()
backup=""
target=""

restore() {
    if [ -n "$backup" ]; then
        cp "$backup" "$target"
        rm -f "$backup"
        backup=""
    fi
}
trap restore EXIT
trap 'restore; exit 130' INT TERM

# gate <crate> <file> <lint>... — the known-bad item is read from stdin.
gate() {
    local crate=$1 file=$2
    shift 2
    if [ -z "${baseline_ok[$crate]:-}" ]; then
        if ! cargo clippy -q -p "$crate" --lib -- -D warnings; then
            echo "FAIL $crate: not clippy-clean before any probe"
            failures=$((failures + 1))
            return
        fi
        baseline_ok[$crate]=1
    fi
    target=$file
    backup=$(mktemp)
    cp "$file" "$backup"
    cat >>"$file"
    local out status=0
    out=$(CARGO_TERM_COLOR=never cargo clippy -q -p "$crate" --lib -- -D warnings 2>&1) || status=$?
    restore
    local missing=()
    for lint in "$@"; do
        grep -q "$lint" <<<"$out" || missing+=("$lint")
    done
    if [ "$status" -eq 0 ] || [ "${#missing[@]}" -gt 0 ]; then
        echo "FAIL $file: exit $status, missing lint(s): ${missing[*]:-none}"
        echo "$out" | sed 's/^/    | /'
        failures=$((failures + 1))
    else
        echo "ok   $file: $*"
    fi
}

gate compstat-hmm crates/hmm/src/forward.rs disallowed_methods <<'EOF'
/// Lint-gate probe: a wall-clock read in a kernel.
pub fn lint_gate_probe() -> std::time::Instant {
    std::time::Instant::now()
}
EOF

gate compstat-core crates/core/src/report.rs disallowed_types <<'EOF'
/// Lint-gate probe: a hash-ordered map in a report path.
pub type LintGateProbe = std::collections::HashMap<String, f64>;
EOF

gate compstat-core crates/core/src/stats.rs disallowed_methods <<'EOF'
/// Lint-gate probe: pow(2, x) spelled with powf.
pub fn lint_gate_probe(x: f64) -> f64 {
    2f64.powf(x)
}
EOF

gate compstat-pbd crates/pbd/src/pmf.rs cast_possible_truncation <<'EOF'
/// Lint-gate probe: a silent float -> int cast in a kernel.
pub fn lint_gate_probe(x: f64) -> usize {
    x as usize
}
EOF

gate compstat-posit crates/posit/src/encode.rs cast_possible_truncation <<'EOF'
/// Lint-gate probe: a silent u128 -> u64 cast in a posit kernel.
pub fn lint_gate_probe(x: u128) -> u64 {
    x as u64
}
EOF

gate compstat-serve crates/serve/src/proto.rs unwrap_used disallowed_macros <<'EOF'
/// Lint-gate probe: panics reachable from the request path.
pub fn lint_gate_probe(v: Option<u32>) -> u32 {
    assert!(v.is_some(), "hostile input");
    v.unwrap()
}
EOF

gate compstat-fpga crates/fpga/src/lib.rs allow_attributes_without_reason <<'EOF'
#[expect(dead_code)]
fn lint_gate_probe() {}
EOF

if [ "$failures" -gt 0 ]; then
    echo "lint gates: $failures class(es) not caught"
    exit 1
fi
echo "lint gates: every class caught"
