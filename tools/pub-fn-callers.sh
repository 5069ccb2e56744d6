#!/bin/sh
# Lists every `pub fn` of the libraries (`crates/*/src`, `src`) that nothing
# outside its own file calls: its name, matched as a whole word, appears in
# the code of no other file of `crates/*/src`, `src`, `perf/src`, `examples`
# or `crates/*/benches`.  Only code counts: a file is read up to its first
# `#[cfg(test)]`, and comment lines are skipped, so a test or a doc link is
# not a caller.  A function that stays public without such a caller is listed
# in tools/pub-fn-allowlist.txt as `path name  # reason`.
# An allowlist line naming no `pub fn` of its file is printed too.
# Run from the repository root; prints `path name` per uncalled function.
# Usage: tools/pub-fn-callers.sh
allowlist=tools/pub-fn-allowlist.txt
find crates/*/src src perf/src examples crates/*/benches -type f -name '*.rs' 2>/dev/null |
    LC_ALL=C sort | xargs awk -v allowlist="$allowlist" '
    BEGIN {
        while ((getline line < allowlist) > 0) {
            sub(/#.*/, "", line)
            if (split(line, f) >= 2) allowed[f[1] " " f[2]] = 1
        }
    }
    FNR == 1 { intest = 0; lib = (FILENAME ~ /^(crates\/[^\/]+\/src|src)\//) }
    intest { next }
    /^[[:space:]]*#\[cfg\(test\)\]/ { intest = 1; next }
    /^[[:space:]]*\/\// { next }
    {
        line = $0
        sub(/[[:space:]]\/\/ .*/, "", line)
        if (lib && match(line, /(^|[^[:alnum:]_])pub fn [[:alnum:]_]+/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.*pub fn /, "", name)
            defs[FILENAME " " name] = name
        }
        while (match(line, /[[:alpha:]_][[:alnum:]_]*/)) {
            word = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (!(word in first)) first[word] = FILENAME
            else if (first[word] != FILENAME) shared[word] = 1
        }
    }
    END {
        for (def in defs) {
            name = defs[def]
            split(def, parts, " ")
            if (name in shared || first[name] != parts[1]) continue
            if (def in allowed) continue
            print def
        }
        for (def in allowed) if (!(def in defs)) print def "  (allowlisted, no such pub fn)"
    }' | LC_ALL=C sort
