#!/usr/bin/env bash
# Determinism lint for the simulation crates.
#
# The cycle-level engine must be a pure function of its inputs: identical
# configs and seeds produce bit-identical cycle counts on every machine,
# which is what the golden pins and the static-verifier agreement
# contract rely on. This lint denies the usual nondeterminism vectors in
# the simulation crates:
#
#   * wall-clock reads (std::time::{Instant, SystemTime}),
#   * thread identity (std::thread::current, ThreadId),
#   * hash-ordered containers (HashMap/HashSet — iteration order is
#     randomized per process; use BTreeMap/BTreeSet when order can reach
#     an output).
#
# Justified uses (keyed lookups that never iterate, test-only helpers)
# live in scripts/determinism_allowlist.txt as `path|pattern|reason`
# lines; stale entries fail the lint so the allowlist cannot rot.
set -euo pipefail
cd "$(dirname "$0")/.."

# The second line holds the crates feeding the simulators: embedding draws
# the cluster router's rows and the replay traces, isa/exec/analysis build
# and check the plans the NMP core runs, models/core supply the workloads.
CRATES="crates/dram/src crates/nmp/src crates/serving/src crates/system/src crates/faults/src crates/cluster/src crates/interconnect/src crates/cache/src
        crates/embedding/src crates/isa/src crates/exec/src crates/models/src crates/core/src crates/analysis/src"
PATTERNS='std::time|Instant::now|SystemTime|thread::current|ThreadId|HashMap|HashSet'
ALLOW=scripts/determinism_allowlist.txt

fail=0

hits=$(grep -rnE "$PATTERNS" $CRATES || true)
while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    file=${hit%%:*}
    allowed=0
    while IFS='|' read -r apath apattern areason; do
        case "$apath" in ''|'#'*) continue ;; esac
        if [ "$file" = "$apath" ] && printf '%s' "$hit" | grep -qF "$apattern"; then
            allowed=1
            break
        fi
    done < "$ALLOW"
    if [ "$allowed" -eq 0 ]; then
        echo "determinism lint: disallowed pattern in simulation crate:" >&2
        echo "  $hit" >&2
        echo "  (deterministic alternative: BTreeMap/BTreeSet, explicit cycle counters," >&2
        echo "   seeded RNG — or add a justified 'path|pattern|reason' line to $ALLOW)" >&2
        fail=1
    fi
done <<< "$hits"

# An allowlist entry whose pattern no longer occurs in its file is rot:
# it would silently re-admit the pattern later. Fail so it gets pruned.
while IFS='|' read -r apath apattern areason; do
    case "$apath" in ''|'#'*) continue ;; esac
    if [ -z "$areason" ]; then
        echo "determinism lint: allowlist entry missing a reason: $apath|$apattern" >&2
        fail=1
        continue
    fi
    if ! grep -qF "$apattern" "$apath" 2>/dev/null; then
        echo "determinism lint: stale allowlist entry (pattern gone): $apath|$apattern" >&2
        fail=1
    fi
done < "$ALLOW"

[ "$fail" -eq 0 ] || exit 1
echo "determinism lint: OK ($(printf '%s\n' "$hits" | grep -c . || true) hits, all allowlisted)"
