#!/usr/bin/env bash
# Public items with no caller outside their own crate.
#
# Lists every `pub fn`, `pub struct` and `pub enum` declared under
# `crates/*/src` (the vendored `crates/shims` excluded) that no Rust file
# outside its crate mentions by name, as a word. The search covers
# `crates/`, `src/`, `tests/`, `examples/` and `benchmark/`. A struct or
# enum also counts as used when the signature of one of its crate's used
# `pub fn`s names it: a caller can hold the value that function returns
# without ever writing the type. One line per item, `<file> <kind>
# <name>`, sorted, with no line numbers, so unrelated edits do not move
# the list.
#
# The match is by name, so it is conservative: a dead item whose name
# another crate happens to use (`new`, `len`) is missed, but an item that
# another crate uses is not listed.
#
# Usage:
#   scripts/pub_inventory.sh           print the inventory
#   scripts/pub_inventory.sh --check   fail if the inventory has a line
#                                      that scripts/pub_inventory.baseline lacks
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=scripts/pub_inventory.baseline
ident='[A-Za-z_][A-Za-z0-9_]*'

# `<name> <signature>` for every `pub fn` under $1, the signature joined
# from the `pub fn` line up to the line that opens the body.
signatures() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        /^[[:space:]]*pub (const |unsafe )?fn [A-Za-z_]/ {
            match($0, /fn [A-Za-z_][A-Za-z0-9_]*/)
            name = substr($0, RSTART + 3, RLENGTH - 3)
            sig = ""
            open = 1
        }
        open {
            sig = sig " " $0
            if ($0 ~ /[{;][[:space:]]*$/) { print name, sig; open = 0 }
        }'
}

inventory() {
    local crate words reached
    words=$(mktemp)
    reached=$(mktemp)
    trap 'rm -f "$words" "$reached"' RETURN
    for crate in crates/*/; do
        crate=${crate%/}
        [ "$crate" = crates/shims ] && continue
        [ -d "$crate/src" ] || continue
        find crates src tests examples benchmark -name '*.rs' \
            -not -path "$crate/*" -not -path '*/target/*' -print0 |
            xargs -0 grep -ohE "$ident" | sort -u >"$words"
        signatures "$crate/src" |
            while read -r name sig; do
                if grep -qxF "$name" "$words"; then echo "$sig"; fi
            done | { grep -ohE "$ident" || true; } | sort -u >"$reached"
        grep -rE "^\s*pub (const |unsafe )?(fn|struct|enum) [A-Za-z_]" --include='*.rs' "$crate/src" |
            sed -E "s/^([^:]*):\s*pub (const |unsafe )?(fn|struct|enum) ($ident).*/\1 \3 \4/" |
            while read -r file kind name; do
                grep -qxF "$name" "$words" && continue
                [ "$kind" != fn ] && grep -qxF "$name" "$reached" && continue
                echo "$file $kind $name"
            done
    done | LC_ALL=C sort -u
}

case "${1:-}" in
    "")
        inventory
        ;;
    --check)
        current=$(inventory)
        new=$(LC_ALL=C comm -23 <(echo "$current") <(LC_ALL=C sort -u "$baseline"))
        if [ -n "$new" ]; then
            echo "public items with no caller outside their crate, missing from $baseline:" >&2
            echo "$new" >&2
            echo "delete them, make them pub(crate), or add them to the baseline" >&2
            exit 1
        fi
        echo "pub inventory: $(echo "$current" | grep -c .) item(s), none missing from $baseline"
        ;;
    *)
        echo "usage: $0 [--check]" >&2
        exit 2
        ;;
esac
