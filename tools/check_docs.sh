#!/usr/bin/env bash
# Doc-consistency gate, both directions, for docs/ARCHITECTURE.md:
#
#   1. every source file under src/subseq/** must be mentioned (by stem)
#      in the doc, so the doc cannot silently fall behind the tree. A
#      stem match is enough — the doc may say `metric/partitioned_index.*`
#      or name the .h and .cc individually;
#   2. every source path the doc names in backticks (`<dir>/<stem>.h`,
#      `.cc` or `.*`) must exist, so a deleted or renamed file cannot
#      stay documented. The doc writes paths from different roots
#      (`src/subseq/metric/partitioned_index.*`, `simd/kernels.h`,
#      `tests/frame/matcher_test.cc`), so a path resolves by suffix: it
#      exists if some file under src/subseq, tests, bench or examples
#      ends with it, and `.*` matches any extension.
#
# CI calls this script; run it locally before sending a PR that adds,
# moves or deletes a file. Exits non-zero listing every finding.

set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
doc="$root/docs/ARCHITECTURE.md"
if [ ! -f "$doc" ]; then
  echo "check_docs: $doc not found" >&2
  exit 2
fi

missing=0
# find (not a hand-kept directory list) so new subdirectories are gated
# the day they appear.
while IFS= read -r f; do
  stem="$(basename "$f" | sed 's/\.[^.]*$//')"
  if ! grep -q "$stem" "$doc"; then
    echo "docs/ARCHITECTURE.md does not mention $stem (from ${f#"$root"/})"
    missing=1
  fi
done < <(find "$root/src/subseq" -type f \( -name '*.h' -o -name '*.cc' \) | sort)

files="$(cd "$root" && find src/subseq tests bench examples -type f \
  \( -name '*.h' -o -name '*.cc' \))"

# True if some file in $files ends with the doc path "$1".
resolves() {
  local path="$1" f
  while IFS= read -r f; do
    if [[ "$path" == *'.*' ]]; then
      [[ "/$f" == */"${path%'*'}"* && "/$f" != */"${path%'*'}"*/* ]] &&
        return 0
    elif [[ "/$f" == */"$path" ]]; then
      return 0
    fi
  done <<< "$files"
  return 1
}

stale=0
# Backticked spans over the whole doc (a span may wrap a line), kept
# when they look like a source path.
while IFS= read -r path; do
  if ! resolves "$path"; then
    echo "docs/ARCHITECTURE.md names \`$path\`, which does not exist"
    stale=1
  fi
done < <(tr '\n' ' ' < "$doc" | grep -o '`[^`]*`' | tr -d '`' |
           grep -E '^([A-Za-z0-9_]+/)+[A-Za-z0-9_]+\.(h|cc|\*)$' | sort -u)

if [ "$missing" -ne 0 ]; then
  echo "check_docs: FAIL — document the files above in docs/ARCHITECTURE.md"
fi
if [ "$stale" -ne 0 ]; then
  echo "check_docs: FAIL — fix or drop the stale paths above in docs/ARCHITECTURE.md"
fi
if [ "$missing" -ne 0 ] || [ "$stale" -ne 0 ]; then
  exit 1
fi
echo "check_docs: OK — every src/subseq/** stem is documented and every" \
  "documented path exists"
exit 0
