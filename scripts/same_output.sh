#!/bin/bash
# Compare the command line's behaviour at a revision with the working tree.
#
#   bash scripts/same_output.sh [REV]     (REV defaults to HEAD)
#
# REV's src/ is extracted with git archive. Every invocation below runs
# once against that tree and once against the working tree's src/, from
# the same directory, and stdout, stderr and the exit code are compared.
# Two last steps do the same for library results that no command prints:
# the witness chains and profiles, and the chain, interval, subposet,
# opposite and pruned views of the order.
# Every invocation runs, whatever differs. Prints SAME OUTPUT and exits
# 0, or lists every invocation that differs, ends with "N of M
# invocations differ" and exits 1.
set -euo pipefail
repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
rev=${1:-HEAD}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/rev" "$work/in"
git -C "$repo" archive "$rev" src | tar -x -C "$work/rev"
cd "$work/in"

# run TREE RESULT ARGS...: python3 ARGS on TREE, its streams and code
# under RESULT
run() {
  local tree=$1 result=$2 rc=0
  shift 2
  PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="$tree" python3 "$@" \
    >"$result.out" 2>"$result.err" || rc=$?
  echo "$rc" >"$result.rc"
}

differing=()
# differ WHAT: record WHAT, and show each part that differs, when REV's
# result and the working tree's differ
differ() {
  local part parts=""
  for part in out err rc; do
    if ! cmp -s "$work/rev.res.$part" "$work/new.res.$part"; then
      echo "DIFFERENT OUTPUT: $1 (.$part differs; - $rev, + working tree)"
      diff -u "$work/rev.res.$part" "$work/new.res.$part" | sed -n '3,22p' \
        || true
      parts+="${parts:+ }.$part"
    fi
  done
  if [ -n "$parts" ]; then
    differing+=("$1 ($parts)")
  fi
}

count=0
# same ARGS...: run at REV and in the working tree, and compare
same() {
  count=$((count + 1))
  run "$work/rev/src" "$work/rev.res" -m veinprune.cli "$@"
  run "$repo/src" "$work/new.res" -m veinprune.cli "$@"
  differ "veinprune $*"
}

# the generated inputs are themselves compared, then kept from REV's run
gen() {
  local file=$1
  shift
  same gen "$@"
  cp "$work/rev.res.out" "$file"
}
small=()
for fixture in C3 Yp Vee B3 A2; do
  gen "$fixture.txt" "$fixture"
  small+=("$fixture.txt")
done
gen r9.txt random --size 9 --seed 11 --edge-prob 0.4
gen chain5000.txt chain --size 5000
gen chain150.txt chain --size 150
# the benchmark's sparse_large shape
gen sparse4000.txt random --size 4000 --seed 7 --edge-prob 0.001
# gen itself: every kind with its defaults and with explicit options,
# sizes below 1 and past the caps, each option a kind rejects (the first
# of two rejected options is the one named), edge probabilities out of
# range, bad kinds and values, and the help
same gen --help
kinds=(chain antichain boolean fence random downset_lattice)
for kind in "${kinds[@]}"; do
  same gen "$kind"
  for size in -1 0 3 11; do
    same gen "$kind" --size "$size"
  done
done
same gen fence --size 6
# Boolean lattices of the sizes between those of B3, B4, B8 and B10
for size in 1 2 5 9; do
  same gen boolean --size "$size"
done
same gen random --size 7 --seed 5 --edge-prob 0.6
same gen random --seed 5
same gen random --edge-prob 0.6
same gen random --size 12 --edge-prob 1
same gen random --size 12 --edge-prob 0
# either side of 2**-8, the largest edge probability drawn in blocks, and
# 65,703 pairs, past the first block of 65,536 draws
for prob in 0.0039 0.00390625 0.004; do
  same gen random --size 300 --seed 3 --edge-prob "$prob"
done
same gen random --size 363 --seed 4 --edge-prob 0.001
same gen downset_lattice --size 3 --seed 5
same gen downset_lattice --seed 2
for kind in chain antichain boolean fence; do
  same gen "$kind" --seed 1
  same gen "$kind" --edge-prob 0.5
  same gen "$kind" --size 3 --edge-prob 0.5 --seed 1
done
same gen downset_lattice --edge-prob 0.5
same gen downset_lattice --size 0 --edge-prob 0.5
for fixture in C3 Yp Vee B3 A2; do
  same gen "$fixture" --size 1
  same gen "$fixture" --seed 0
  same gen "$fixture" --edge-prob 0.5
done
same gen C3 --edge-prob 0.5 --size 7 --seed 3
for prob in 1.5 nan -0.1 inf; do
  same gen random --size 5 --edge-prob "$prob"
done
same gen random --size 0 --edge-prob 1.5
same gen random --size -1 --edge-prob nan
same gen mystery
same gen named
same gen
same gen chain --size x
same gen random --edge-prob x
printf 'a < c\na < d\nb < c\nb < d\n' > bowtie.txt
# a bridge run a b c d from a join of two covers to a fork, and a run
# p q r that is a whole component
printf 'x < a\ny < a\na < b\nb < c\nc < d\nd < e\nd < f\np < q\nq < r\n' \
  > broom.txt
# the README's 7-element poset, whose pruning loses conditional completeness
printf 'e0 < e1\ne0 < e2\ne0 < e5\ne1 < e4\ne2 < e3\ne3 < e4\ne3 < e6\ne5 < e6\n' \
  > readme7.txt
for i in $(seq 1000); do
  echo "b$((i-1)) < l$i"; echo "b$((i-1)) < r$i"
  echo "l$i < b$i"; echo "r$i < b$i"
done > ladder1000.txt
: > empty.txt
printf 'b < a\na < b\n' > cyclic.txt
# relations out of order, repeated, and implied by others (a < d, a < c)
printf 'b < d\na < d\nc < e\na < b\nb < d\nb < c\na < c\na < b\n' \
  > repeated.txt
printf '{"elements": ["a", "b", "c", "d"], "covers": %s}\n' \
  '[["b", "d"], ["a", "d"], ["a", "b"], ["b", "d"], ["b", "c"]]' \
  > repeated.json
# labels and a name that JSON output must escape: a non-ASCII letter, a
# quote, a backslash and a tab (which the text format cannot write); a
# diamond ending in a bridge, so pruning changes the poset
cat > escapes.json <<'JSON'
{"name": "esc \"q\" \\ é\t", "elements": ["é", "\"", "\\", "a\tb", "z"],
 "covers": [["é", "\""], ["é", "\\"], ["\"", "a\tb"], ["\\", "a\tb"],
            ["a\tb", "z"]]}
JSON
# two bridge runs z m a and b y c whose labels do not sort in chain order,
# so the vein listing interleaves them
printf 'z < m\nm < a\nb < y\ny < c\n' > interleaved.txt
# labels with spaces, which only JSON can write, on a run cut by a fork
cat > spaces.json <<'JSON'
{"elements": ["b a", "a b", "z", "a  c", " d"],
 "covers": [["b a", "a b"], ["a b", "z"], ["z", "a  c"], ["z", " d"]]}
JSON
small+=(r9.txt bowtie.txt broom.txt readme7.txt empty.txt cyclic.txt
  repeated.txt repeated.json escapes.json interleaved.txt spaces.json)

for file in "${small[@]}" chain5000.txt ladder1000.txt sparse4000.txt; do
  same info "$file"
  if [ "$file" != chain5000.txt ]; then
    same veins "$file"
  fi
  for format in text json dot; do
    same prune --format "$format" "$file"
  done
  same iterate --max 1 "$file"
  same iterate --max 4 "$file"
  same irr "$file"
  same dot "$file"
done
# malformed documents, each to fail on its first fault with exit 2: every
# text ParseError (two '<', an empty side, inner whitespace in a relation
# and in an element, an NBSP inside a label, a U+2028 line end), a bad
# line after a cyclic pair, two bad lines, JSON with a malformed cover
# before an unknown label and the reverse, and duplicate elements
printf 'a < b\nb < c < d\n' > bad_double.txt
printf 'a < b\n\nc <  # note\n' > bad_side.txt
printf 'a b < c\n' > bad_relation.txt
printf '# x\nok\na b\n' > bad_element.txt
printf 'x\302\240y < z\n' > bad_nbsp.txt
printf 'a < b\342\200\250c d\n' > bad_u2028.txt
printf 'a < b\nb < a\nc d\n' > bad_after_cycle.txt
printf 'a <\nx y\n' > bad_twice.txt
printf '{"elements": ["a", "b"], "covers": [["a"], ["a", "z"]]}\n' \
  > bad_entry_first.json
printf '{"elements": ["a", "b"], "covers": [["a", "z"], ["a"]]}\n' \
  > bad_unknown_first.json
printf '{"elements": ["a", "b", "a"], "covers": [["a", "b"]]}\n' \
  > bad_duplicate.json
for file in bad_double.txt bad_side.txt bad_relation.txt bad_element.txt \
    bad_nbsp.txt bad_u2028.txt bad_after_cycle.txt bad_twice.txt \
    bad_entry_first.json bad_unknown_first.json bad_duplicate.json; do
  same info "$file"
  same prune "$file"
done
# the bytes of a document as it is read: CRLF and lone-CR line ends, a
# byte order mark, a Latin-1 byte (not UTF-8), a CRLF JSON document, and
# two malformed CRLF documents, whose errors name a line
printf 'a < b\r\nb < c\r\nb < d\r\n' > crlf.txt
printf 'a < b\rb < c\rb < d\r' > cr.txt
printf '\357\273\277a < b\nb < c\n' > bom.txt
printf 'a < \351\n' > latin1.txt
printf '{"elements": ["a", "b", "c"],\r\n "covers": %s}\r\n' \
  '[["a", "b"], ["b", "c"]]' > crlf.json
printf 'a < b\r\nb < c < d\r\n' > bad_crlf_double.txt
printf '# x\r\nok\r\na b\r\n' > bad_crlf_element.txt
for file in crlf.txt cr.txt bom.txt latin1.txt crlf.json \
    bad_crlf_double.txt bad_crlf_element.txt; do
  same info "$file"
  same prune "$file"
  same irr "$file"
done
# two separate cycles: the witness is the one the walk reaches first
printf 'c < d\nd < c\na < b\nb < a\n' > twocycles.txt
same info twocycles.txt
# 11,175 strict veins, every sub-run of one bridge run
same veins chain150.txt
# the completeness line of info and the footer of irr on lattices, a long
# fence, the complete bipartite poset K30,30 and a 5-crown (l_i < u_j for
# j != i); the last two are not conditionally complete
gen b8.txt boolean --size 8
gen b10.txt boolean --size 10
gen fence2000.txt fence --size 2000
gen lattice5.txt downset_lattice --size 5 --seed 3
for i in $(seq 30); do
  for j in $(seq 30); do
    printf 'l%d < u%d\n' "$i" "$j"
  done
done > k30.txt
for i in $(seq 5); do
  for j in $(seq 5); do
    if [ "$i" != "$j" ]; then
      printf 'l%d < u%d\n' "$i" "$j"
    fi
  done
done > crown5.txt
# shapes where many pairs share an upper bound, some tested for
# completeness from the opposite side: a star (500 elements under one
# top), the binary in-tree on 511 elements with its root on top, a fan
# (one top over 500 two-element chains), an hourglass (500 elements under
# one middle element under 500 more), K500,2, which is not conditionally
# complete, and the lattice M500 (500 elements between a bottom and a top)
for i in $(seq 500); do printf 'm%d < z\n' "$i"; done > star.txt
for c in $(seq 2 511); do printf 't%d < t%d\n' "$c" $((c / 2)); done \
  > intree.txt
for i in $(seq 500); do printf 'l%d < c%d\nc%d < z\n' "$i" "$i" "$i"; done \
  > fan.txt
for i in $(seq 500); do printf 'a%d < mid\nmid < z%d\n' "$i" "$i"; done \
  > hourglass.txt
for i in $(seq 500); do printf 'm%d < y\nm%d < z\n' "$i" "$i"; done \
  > twotops.txt
for i in $(seq 500); do printf 'a < m%d\nm%d < z\n' "$i" "$i"; done > m500.txt
# that in-tree beside the out-tree on 511 elements (root at the bottom),
# whose minimal elements lie on different sides
{
  for c in $(seq 2 511); do printf 'i%d < i%d\n' "$c" $((c / 2)); done
  for c in $(seq 2 511); do printf 'o%d < o%d\n' $((c / 2)) "$c"; done
} > twotrees.txt
# 500 parallel chains a < m_i < c_i < z, 500 forks a < m_i < c_i, d_i < z,
# and a fence a_i, a_i+1 < b_i < c_i with tops w0 > b1 and w1 > b2, whose
# maximal elements outnumber its minimal ones
for i in $(seq 500); do
  printf 'a < m%d\nm%d < c%d\nc%d < z\n' "$i" "$i" "$i" "$i"
done > parallel.txt
for i in $(seq 500); do
  printf 'a < m%d\nm%d < c%d\nm%d < d%d\nc%d < z\nd%d < z\n' \
    "$i" "$i" "$i" "$i" "$i" "$i" "$i"
done > branch.txt
{
  for i in $(seq 500); do
    printf 'a%d < b%d\na%d < b%d\nb%d < c%d\n' "$i" "$i" $((i + 1)) "$i" \
      "$i" "$i"
  done
  printf 'b1 < w0\nb2 < w1\n'
} > toppedfence.txt
for file in b8.txt b10.txt fence2000.txt lattice5.txt k30.txt crown5.txt \
    star.txt intree.txt fan.txt hourglass.txt twotops.txt m500.txt \
    twotrees.txt parallel.txt branch.txt toppedfence.txt; do
  same info "$file"
  same irr "$file"
done
# the definition-level route, on inputs of at most 12 elements
for file in "${small[@]}"; do
  same veins --mode oracle "$file"
  for format in text json dot; do
    same prune --mode oracle --format "$format" "$file"
  done
  same iterate --mode oracle --max 1 "$file"
  same iterate --mode oracle --max 4 "$file"
done
same check --seed 3 --count 60 --max-size 8
# the corpora the benchmark's check ops draw: the defaults (--count 100
# --max-size 10), whose posets above 8 elements skip the limit-8 checks,
# sparse_large's --count 30 and deep_shapes' --count 10 --max-size 6
for seed in 1 2 3; do
  same check --seed "$seed"
done
same check --count 30 --max-size 10
same check --count 10 --max-size 6


# library SCRIPT FILES...: a Python script run on input files at REV and
# in the working tree, its streams and code compared like an invocation
library() {
  count=$((count + 1))
  run "$work/rev/src" "$work/rev.res" "$@"
  run "$repo/src" "$work/new.res" "$@"
  differ "$(basename "$1") on ${*:2}"
}

# the library side of the benchmark's witness op, which no command prints:
# the pruning_witness chain (or -) of every strict pair, and profiles(),
# each hashed per input
cat > "$work/witnesses.py" <<'PY'
import hashlib
import sys

from veinprune.formats import load_document
from veinprune.irreducibles import profiles
from veinprune.pruning import pruning_witness

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        p = load_document(fh.read()).to_poset()
    chains, flags = hashlib.sha256(), hashlib.sha256()
    pairs = p.relations()
    for x, y in pairs:
        w = pruning_witness(p, x, y)
        chains.update(f"{x} {y} {' '.join(w.chain) if w else '-'}\n".encode())
    for e in profiles(p).values():
        flags.update(f"{e.element} {e.irreducible} {e.coirreducible} "
                     f"{e.doubly}\n".encode())
    print(path, len(pairs), "witnesses", chains.hexdigest())
    print(path, len(p), "profiles", flags.hexdigest())
PY
# the order views no command prints in full: maximal_chains(), the maximal
# chains of the interval of every strict pair, the subposets induced on
# seeded subsets, the covers and relations of opposite(), and of the two
# posets assembled from their parent's cover tables, each label's lower
# covers, the minimal elements and the heights of the pruned poset and of
# opposite(), and the covers of the opposite's pruning, hashed per input;
# the interval chains and induced subposets are looked up in the oracle,
# falling back to the Poset methods of older revisions
cat > "$work/orders.py" <<'PY'
import hashlib
import random
import sys

from veinprune import oracle
from veinprune.formats import load_document
from veinprune.pruning import prune


def moved(name):
    """The oracle function ``name``, or the Poset method it replaced."""
    return (getattr(oracle, name, None)
            or (lambda p, *args: getattr(p, name)(*args)))


in_interval = moved("maximal_chains_in_interval")
induced = moved("induced_subposet")
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        p = load_document(fh.read()).to_poset()
    digest = hashlib.sha256()

    def put(*parts):
        digest.update(repr(parts).encode() + b"\n")

    chains = p.maximal_chains()
    put("maximal", chains)
    pairs = p.relations()
    for x, y in pairs:
        put("interval", x, y, in_interval(p, x, y))
    rng = random.Random(f"induced:{path}")
    for _ in range(8):
        subset = [x for x in p.labels if rng.random() < 0.5] or [p.labels[0]]
        q = induced(p, subset)
        put("induced", subset, q.covers, q.relations())
    q = p.opposite()
    put("opposite", q.covers, q.relations())
    for name, q in (("pruned", prune(p).pruned), ("opposite", p.opposite())):
        put(name, [(x, q.lower_covers(x)) for x in q.labels],
            q.minimal_elements(), q.heights())
    put("opposite pruned", prune(p.opposite()).pruned.covers)
    print(path, len(chains), "chains", len(pairs), "pairs", digest.hexdigest())
PY
# a ladder of 40 diamonds ending in a bridge, as in the deep_shapes
# workload, and one of 8
for k in 40 8; do
  for i in $(seq "$k"); do
    echo "b$((i-1)) < l$i"; echo "b$((i-1)) < r$i"
    echo "l$i < b$i"; echo "r$i < b$i"
  done > "ladder$k.txt"
  echo "b$k < t" >> "ladder$k.txt"
done
library "$work/witnesses.py" sparse4000.txt ladder40.txt
gen b4.txt boolean --size 4
library "$work/orders.py" C3.txt Yp.txt Vee.txt B3.txt A2.txt ladder8.txt \
  b4.txt

echo "$count invocations compared with $rev"
if [ "${#differing[@]}" -gt 0 ]; then
  printf 'differs: %s\n' "${differing[@]}"
  echo "${#differing[@]} of $count invocations differ"
  exit 1
fi
echo "SAME OUTPUT"
