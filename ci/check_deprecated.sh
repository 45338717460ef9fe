#!/usr/bin/env bash
# Fails if any in-repo code mentions the removed 0.2-era identification
# entry points (identify_all / identify_light / identify_light_with_cycle
# / try_identify). Their deprecation window closed in 0.3: the functions
# were deleted, so any call site — or a reintroduced definition — is an
# error. Code must use the Identifier facade (see docs/api.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Only docs describing the removal (and this script) may mention the
# names; no source-file allowlist remains because the names no longer
# exist in code.
ALLOW='^docs/api\.md:|^docs/serving\.md:|^README\.md:|^CHANGES\.md:|^ISSUE\.md:|^ci/check_deprecated\.sh:'

# Call sites look like `identify_all(` / `.try_identify(`; the _impl
# internals are distinct names and don't match.
PATTERN='\b(identify_all|identify_light|identify_light_with_cycle|try_identify)\('

hits=$(grep -rEn "$PATTERN" \
    --include='*.rs' --include='*.md' \
    src crates examples tests benches 2>/dev/null \
    | grep -Ev "$ALLOW" || true)

if [[ -n "$hits" ]]; then
    echo "error: the 0.2-era identification entry points were removed in 0.3:" >&2
    echo "$hits" >&2
    echo >&2
    echo "Use the Identifier facade instead (docs/api.md)." >&2
    exit 1
fi
echo "ok: no mentions of the removed identification entry points"

# The chained RealtimeIdentifier::with_* constructors were deprecated in
# 0.3 in favour of the validating builder (RealtimeIdentifier::builder,
# see docs/api.md) and have since been removed, so any call site — or a
# reintroduced definition — is an error, as for the 0.2-era names above.
BUILDER_ALLOW='^docs/api\.md:|^docs/serving\.md:|^CHANGES\.md:|^ISSUE\.md:|^ci/check_deprecated\.sh:'

BUILDER_PATTERN='\b(with_reorder_grace|with_exec_mode)\('

builder_hits=$(grep -rEn "$BUILDER_PATTERN" \
    --include='*.rs' --include='*.md' \
    src crates examples tests benches 2>/dev/null \
    | grep -Ev "$BUILDER_ALLOW" || true)

if [[ -n "$builder_hits" ]]; then
    echo "error: the with_* realtime constructors were removed; found:" >&2
    echo "$builder_hits" >&2
    echo >&2
    echo "Use RealtimeIdentifier::builder(net)...build() (docs/api.md)." >&2
    exit 1
fi
echo "ok: no mentions of the removed with_* realtime constructors"
