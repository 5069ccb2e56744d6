#!/bin/sh
# The "gate measure" of a source file: lines above the first `#[cfg(test)]`
# that are neither blank nor start with `//` — code, not tests or comments.
# Usage: tools/gate-lines.sh <files or directories…>   (directories: every *.rs below)
# Prints one `lines  path` row per file and a total.  Informational: always exits 0.
[ "$#" -gt 0 ] || { echo "usage: $0 <files or directories…>" >&2; exit 0; }
find "$@" -type f -name '*.rs' 2>/dev/null | LC_ALL=C sort | while read -r file; do
    awk -v file="$file" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { printf "%6d  %s\n", n, file }' "$file"
done | awk '{ total += $1; print } END { printf "%6d  total\n", total }'
