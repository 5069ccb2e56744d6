#!/bin/sh
# Lists every `pub fn` of the libraries (`crates/*/src`, `src`, above a
# file's first `#[cfg(test)]`) that no code outside its own file calls, as
# the type checker resolves the call.  It copies the tracked tree (and any
# file not yet added that git does not ignore) to a temporary directory,
# tags each such function there with
# `#[deprecated(note = "@path:line@")]`, builds the workspace with
# `--all-targets` and the harness (`perf/`), and reads every "use of
# deprecated" warning as use site -> definition.  A use site counts when it
# is code in another file: `crates/*/src`, `crates/*/benches`, `src`,
# `perf/src` or `examples`, above that file's first `#[cfg(test)]` and
# outside a `use` item — a test, a doc example or a re-export is not a
# caller.  A function is named `Type::name` when it is a method (the type
# of the `impl` block it sits in, generics and path dropped) and `name`
# when it is free.  A function that stays public without such a caller is
# listed in tools/pub-fn-allowlist.txt as `path Type::name  # the file that
# reads it` (or `path name` for a free function), so a line covers one
# function; an allowlist line naming no uncalled `pub fn` of its file is
# printed too.  Both builds run cold (about a minute on two
# cores) and write nothing in the repository; either failing exits 2.
# Run from the repository root; prints `path Type::name` (or `path name`)
# per uncalled function.
# Usage: tools/pub-fn-callers.sh
allowlist=$(pwd)/tools/pub-fn-allowlist.txt
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
trap 'exit 2' INT TERM
mkdir "$tmp/tree"
git ls-files --cached --others --exclude-standard | while IFS= read -r f; do
    [ -f "$f" ] && printf '%s\n' "$f"
done | tar -cf - -T - | tar -xf - -C "$tmp/tree" || exit 2
cd "$tmp/tree" || exit 2

# Tag in place (same line, so every line number stays the original's) and
# note each definition, each file's first `#[cfg(test)]` line and the lines
# of its `use` items (a re-export names a function; it does not call it).
# A method's type is that of the `impl` line last seen one indentation
# level (four spaces) out: every other code line at that level, its closing
# brace included, ends the block.
find crates/*/src crates/*/benches src perf/src examples -type f -name '*.rs' 2>/dev/null |
    LC_ALL=C sort > "$tmp/files"
while IFS= read -r f; do
    awk -v path="$f" -v defs="$tmp/defs" -v tests="$tmp/tests" -v uses="$tmp/uses" '
        function impl_type(s,    depth, i, c) {
            sub(/^[[:space:]]*(unsafe[[:space:]]+)?impl/, "", s)
            if (substr(s, 1, 1) == "<") {
                for (i = 1; i <= length(s); i++) {
                    c = substr(s, i, 1)
                    if (c == "<") depth++
                    if (c == ">" && --depth == 0) break
                }
                s = substr(s, i + 1)
            }
            if (match(s, / for /)) s = substr(s, RSTART + 5)
            sub(/^[[:space:]]+/, "", s); sub(/[<[:space:]{].*/, "", s); sub(/.*::/, "", s)
            return s
        }
        !intest && /^[[:space:]]*#\[cfg\(test\)\]/ { intest = 1; print path, FNR >> tests }
        /^[[:space:]]*(pub(\([[:alnum:]_:]+\))? )?use / { inuse = 1 }
        inuse { print path ":" FNR >> uses; if (/;/) inuse = 0 }
        /^[[:space:]]*[^[:space:]\/#]/ {
            indent = match($0, /[^ ]/) - 1
            impl[indent] = /^[[:space:]]*(unsafe[[:space:]]+)?impl[[:space:]<]/ ? impl_type($0) : ""
        }
        !intest && path ~ /^(crates\/[^\/]+\/src|src)\// && /^[[:space:]]*pub fn [[:alnum:]_]+/ {
            name = $0; sub(/^[[:space:]]*pub fn /, "", name); sub(/[^[:alnum:]_].*/, "", name)
            owner = indent >= 4 ? impl[indent - 4] : ""
            print path ":" FNR, (owner == "" ? "" : owner "::") name >> defs
            sub(/pub fn /, "#[deprecated(note = \"@" path ":" FNR "@\")] pub fn ")
        }
        { print }' "$f" > "$tmp/tagged" && cat "$tmp/tagged" > "$f"
done < "$tmp/files"

export CARGO_TARGET_DIR="$tmp/target" RUSTFLAGS="--cap-lints warn"
cargo build --offline --quiet --workspace --all-targets --message-format=short 2> "$tmp/workspace.log" ||
    { cat "$tmp/workspace.log" >&2; echo "pub-fn-callers: the workspace build failed" >&2; exit 2; }
cargo build --offline --quiet --manifest-path perf/Cargo.toml --message-format=short 2> "$tmp/perf.log" ||
    { cat "$tmp/perf.log" >&2; echo "pub-fn-callers: the harness build failed" >&2; exit 2; }

# The harness re-emits its dependencies' warnings under absolute paths: drop
# them, and root its own paths at `perf/`.
{
    grep 'use of deprecated' "$tmp/workspace.log"
    grep 'use of deprecated' "$tmp/perf.log" | grep -v '^/' | sed 's|^|perf/|'
} | awk -v tests="$tmp/tests" -v defs="$tmp/defs" -v uses="$tmp/uses" -v allowlist="$allowlist" '
    BEGIN {
        while ((getline line < tests) > 0) { split(line, f, " "); firsttest[f[1]] = f[2] }
        while ((getline line < uses) > 0) useline[line] = 1
        while ((getline line < defs) > 0) { split(line, f, " "); name[f[1]] = f[2] }
        while ((getline line < allowlist) > 0) {
            sub(/#.*/, "", line)
            if (split(line, f) >= 2) allowed[f[1] " " f[2]] = 1
        }
    }
    {
        split($0, site, ":")
        if (!match($0, /@[^@]*@/)) next
        def = substr($0, RSTART + 1, RLENGTH - 2)
        split(def, d, ":")
        if (site[1] == d[1]) next
        if (site[1] !~ /^(crates\/[^\/]+\/(src|benches)|src|perf\/src|examples)\//) next
        if ((site[1] in firsttest) && site[2] + 0 >= firsttest[site[1]] + 0) next
        if ((site[1] ":" site[2]) in useline) next
        called[def] = 1
    }
    END {
        for (def in name) {
            split(def, d, ":")
            key = d[1] " " name[def]
            if (def in called) continue
            uncalled[key] = 1
            if (!(key in allowed)) print key
        }
        for (key in allowed) if (!(key in uncalled)) print key "  (allowlisted, no uncalled pub fn of that name)"
    }' | LC_ALL=C sort -u
