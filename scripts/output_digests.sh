#!/bin/sh
# Every file the lab writes, as one list of digests: the three `seqens
# reproduce` recipes into OUT/recipes and scripts/end_to_end.sh into OUT/e2e,
# then OUT/SHA256SUMS over every file, sorted by relative path. It runs the
# source of the checkout it sits in, not an installed seqens, so a change is
# checked against its parent by running a copy of this script in each
# checkout and comparing the two SHA256SUMS with `diff` (and again under
# `taskset -c 0`).
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT" >&2
  exit 1
fi
OUT="$1"
if [ -e "$OUT" ] && [ -n "$(ls -A "$OUT")" ]; then
  echo "error: $OUT is not empty" >&2
  exit 1
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT
cat > "$BIN/seqens" <<EOF
#!/bin/sh
PYTHONPATH="$ROOT/src" exec python3 -m seqens.cli "\$@"
EOF
chmod +x "$BIN/seqens"
PATH="$BIN:$PATH"
export PATH

mkdir -p "$OUT"
for recipe in seq_vs_sim ece_sweep diversity_init; do
  seqens reproduce --name "$recipe" --out "$OUT/recipes"
done
sh "$ROOT/scripts/end_to_end.sh" "$OUT/e2e"

cd "$OUT"
find recipes e2e -type f | LC_ALL=C sort | xargs sha256sum > SHA256SUMS
echo "digests of $(wc -l < SHA256SUMS) files written to $OUT/SHA256SUMS"
