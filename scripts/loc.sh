#!/usr/bin/env bash
# Size of the non-test code: non-blank, non-comment lines of
# crates/*/src/**/*.rs, each file counted up to its first `#[cfg(test)]`.
# Prints one number on stdout — the total — and the same figure per crate on
# stderr, so a change's bill is attributable to a crate. `scripts/loc.sh
# <checkout>` counts another checkout, so a change's net figure is this run at
# the parent and at the change.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        tests || /^[[:space:]]*($|\/\/)/ { next }
        { lines++ }
        END { print lines + 0 }'
}
for crate in crates/*; do
    printf '%7d %s\n' "$(count "$crate/src")" "$crate" >&2
done
count crates/*/src
