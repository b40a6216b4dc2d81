#!/usr/bin/env bash
# Byte identity against a base commit. Runs desk-loop.sh under one hash seed,
# once with the base tree's src/ and once with this tree's, then compares
# every file that both runs wrote.
#
# A change that means to alter an output adds a line "<file> <why>" to
# intended-output-changes.txt. The files named on the lines that this tree's
# list has and the base tree's list lacks must differ or be written by one
# run only; every other file must be written by both runs and match. Lines
# the base already has name changes made before, so they expire on their own
# once merged.
#
# Usage: compare-base-outputs.sh BASE_TREE WORK_DIR   (needs `ikge` on PATH)
set -euo pipefail
here="$(cd "$(dirname "$0")/.." && pwd)"
base="$(cd "$1" && pwd)"
work="$2"
export PYTHONHASHSEED=0
PYTHONPATH="$base/src" bash "$here/.github/desk-loop.sh" "$work/base"
PYTHONPATH="$here/src" bash "$here/.github/desk-loop.sh" "$work/head"

entries() { grep -v -e '^#' -e '^[[:space:]]*$' "$1/.github/intended-output-changes.txt" 2>/dev/null | sort -u || true; }
intended="$(comm -23 <(entries "$here") <(entries "$base") | awk '{print $1}' | sort -u)"

status=0
for f in $intended; do
  if [ ! -f "$work/base/$f" ] && [ ! -f "$work/head/$f" ]; then
    echo "named as changed, but written by neither run: $f"; status=1
  elif cmp -s "$work/base/$f" "$work/head/$f"; then  # fails if either is missing
    echo "named as changed, but identical: $f"; status=1
  else
    echo "changed, as named: $f"
  fi
done
same=0
while IFS= read -r f; do
  if grep -qxF "$f" <<<"$intended"; then
    continue
  elif [ ! -f "$work/base/$f" ] || [ ! -f "$work/head/$f" ]; then
    echo "written by one run only: $f"; status=1
  elif cmp "$work/base/$f" "$work/head/$f"; then
    same=$((same + 1))
  else
    status=1
  fi
done < <(cd "$work" && find base head -type f | cut -d/ -f2- | sort -u)
echo "identical to the base: $same files"
exit "$status"
