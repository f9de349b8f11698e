#!/bin/bash
set -euo pipefail
repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
# run from a checkout when no veinprune is installed
if ! command -v veinprune >/dev/null; then
  veinprune() { PYTHONPATH="$repo/src" python3 -m veinprune.cli "$@"; }
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# grep -q for piped output, reading all of it first: grep -q alone may exit
# before the writer is done, and the writer then fails on a broken pipe
has() { local out; out=$(cat); grep -q -- "$1" <<<"$out"; }

veinprune gen Yp > yp.txt
veinprune gen boolean --size 3 > b3.txt
veinprune gen random --size 9 --seed 11 --edge-prob 0.4 > r9.txt
# a reader that stops early is no error (pipefail sees veinprune's code)
veinprune gen chain --size 20000 | head -n 1 | has "e00000 < e00001"

veinprune info yp.txt | has "elements: 4"
veinprune info b3.txt | has "maximal chains: 6"
# a fence is conditionally complete, and linear to check
veinprune gen fence --size 20000 | veinprune info - | has "conditionally complete: yes"
# so is a ladder of 1000 diamonds: each meet is a short walk down the covers
for i in $(seq 1000); do
  echo "b$((i-1)) < l$i"; echo "b$((i-1)) < r$i"
  echo "l$i < b$i"; echo "r$i < b$i"
done | veinprune info - | has "conditionally complete: yes"
veinprune veins yp.txt | has "strict veins (1):"
veinprune veins yp.txt | has "  a b"
# a bridge run from a join of two covers to a fork, and a run that is a
# whole component
printf 'x < a\ny < a\na < b\nb < c\nc < d\nd < e\nd < f\np < q\nq < r\n' \
  > broom.txt
veinprune veins broom.txt | has "strict veins (9):"
veinprune veins broom.txt | has "maximal veins (6):"
veinprune iterate broom.txt | has "fixpoint after 1 iteration"
# the definition-level route prints what the fast route prints
test "$(veinprune veins --mode oracle r9.txt)" = "$(veinprune veins r9.txt)"
test "$(veinprune prune --mode oracle r9.txt)" = "$(veinprune prune r9.txt)"

veinprune prune --format json --out yp_pruned.json yp.txt
veinprune info yp_pruned.json | has "cover pairs: 2"

veinprune iterate yp.txt | has "fixpoint after 1 iteration"
# one pass decides: a cap of 1 cannot show Yp's fixpoint, a cap of 2 can
rc=0; veinprune iterate --max 1 yp.txt >/dev/null 2>&1 || rc=$?
test "$rc" -eq 1
veinprune iterate --max 2 yp.txt | has "fixpoint after 1 iteration"
veinprune iterate r9.txt | has "fixpoint after"
test "$(veinprune iterate --mode oracle r9.txt)" = "$(veinprune iterate r9.txt)"
veinprune irr b3.txt | has "preserved under pruning: yes"
# preservation is a theorem: irr states it for complete posets, does not
# prune, and exits 0 on the rest too
printf 'a < c\na < d\nb < c\nb < d\n' > bowtie.txt
veinprune irr bowtie.txt | has "conditionally complete: no (preservation not evaluated)"

veinprune dot b3.txt > b3.dot
grep -q "digraph poset" b3.dot
test "$(veinprune dot b3.txt)" = "$(cat b3.dot)"

# piping: prune Yp, then ask for veins of the result (none are strict)
cat yp.txt | veinprune prune - | veinprune veins - | has "strict veins: none"

VEINPRUNE_SEED=7 veinprune check --count 50 --max-size 9 | has "checks passed (seed 7)"
# every check of the suite runs; irreducible_preservation runs on every
# poset of the corpus, complete or not
veinprune check --seed 3 --count 60 --max-size 8 | has "15 checks passed (seed 3)"

# error paths must exit 2
printf 'b < a\na < b\n' > bad.txt
if veinprune info bad.txt 2>/dev/null; then exit 1; fi
rc=0; veinprune info bad.txt 2>/dev/null || rc=$?
test "$rc" -eq 2
test "$(veinprune info bad.txt 2>&1 >/dev/null || true)" = \
  "error: relation contains a cycle: a < b < a"
rc=0; veinprune info /no/such/file 2>/dev/null || rc=$?
test "$rc" -eq 2
rc=0; veinprune gen chain --size 3 --edge-prob 0.5 >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2
rc=0; veinprune gen C3 --edge-prob 0.5 >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2
# an option the kind ignores is an input error
for opts in "C3 --size 7 --seed 3" "chain --size 3 --seed 99"; do
  rc=0; veinprune gen $opts >/dev/null 2>&1 || rc=$?
  test "$rc" -eq 2
done
# a name that would break its comment line cannot be written as text
printf '{"name": "x\\na < b", "elements": ["c"], "covers": []}' > named.json
rc=0; veinprune prune named.json >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2
printf 'a < \xe9\n' > latin1.txt
rc=0; veinprune info latin1.txt 2>/dev/null || rc=$?
test "$rc" -eq 2
rc=0; veinprune check --max-size 0 >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2

echo "E2E DRIVE OK"
