#!/usr/bin/env bash
# Check that this tree writes the same products as a parent tree.
#
#   .github/product_identity.sh PARENT_TREE
#
# PARENT_TREE is a checkout of the commit to compare with (in CI, a
# `git worktree` of the base or previous commit). The perfbench corpus is
# written once, at seeds 1-3 with 450 rows per profile, by this tree's
# perfbench/corpus.py. Each tree then runs, with PYTHONPATH=<tree>/src and
# the same output paths, preprocess -> embed -> cluster -> search -> sweep ->
# report -> review-export at the CLI defaults on each corpus, then a short
# patch-net search (4 trials of 50,000 tokens in batches of 256) in a copy
# of the seed-1 run, and `selftest --seed 3` at --jobs 2 and at --jobs 1
# (the selftest's default, the study's no-pool path). The outputs are
# compared with `diff -r`, after `wall_time_s` is dropped from every
# trials.jsonl record.
#
# A change that alters products on purpose lists them, relative to the
# output root (seed1/summary.json, selftest/weights.csv, ...), one a line,
# in .github/expected-product-changes.txt ('#' starts a comment). The list
# counts only when it differs from the parent's copy, so an earlier
# change's list never excuses a later one. Any other product that differs
# fails the check. Set PYTHON to choose the interpreter (default python3).
set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1/src/mixsearch" ]; then
    echo "usage: $0 PARENT_TREE (a checkout that holds src/mixsearch)" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
python=${PYTHON:-python3}
list=.github/expected-product-changes.txt
started=$SECONDS
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for seed in 1 2 3; do
    PYTHONPATH="$head/perfbench" "$python" -c \
        'import sys, corpus; corpus.write_corpus(sys.argv[1], int(sys.argv[2]), 450)' \
        "$work/corpus$seed" "$seed"
done

# run_tree TREE NAME: every run from TREE into $work/out, then moved to
# $work/NAME, so both trees see the same paths.
run_tree() {
    local tree=$1 seed stage
    for seed in 1 2 3; do
        for stage in preprocess embed cluster search sweep report review-export; do
            local extra=()
            if [ "$stage" = preprocess ]; then
                extra=(--data "$work/corpus$seed/profiles.csv"
                       --schema "$work/corpus$seed/schema.txt")
            fi
            PYTHONPATH="$tree/src" "$python" -m mixsearch.cli "$stage" "${extra[@]}" \
                --out "$work/out/seed$seed" --log-level warning
        done
    done
    cp -r "$work/out/seed1" "$work/out/seed1-patchnet"
    PYTHONPATH="$tree/src" "$python" -m mixsearch.cli search --trainer patch-net \
        --budget-tokens 50000 --batch-size 256 --trials 4 \
        --out "$work/out/seed1-patchnet" --log-level warning
    PYTHONPATH="$tree/src" "$python" -m mixsearch.cli selftest --seed 3 --jobs 2 \
        --out "$work/out/selftest" --log-level warning > /dev/null
    PYTHONPATH="$tree/src" "$python" -m mixsearch.cli selftest --seed 3 --jobs 1 \
        --out "$work/out/selftest-jobs1" --log-level warning > /dev/null
    "$python" - "$work/out" <<'EOF'
import json, pathlib, sys
for path in pathlib.Path(sys.argv[1]).rglob("trials.jsonl"):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({k: v for k, v in r.items() if k != "wall_time_s"})
                            + "\n" for r in records))
EOF
    mv "$work/out" "$work/$2"
}

run_tree "$parent" parent
run_tree "$head" head

expected=()
if [ -f "$head/$list" ] && ! cmp -s "$head/$list" "$parent/$list"; then
    mapfile -t expected < <(sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' "$head/$list")
fi

cd "$work"
mapfile -t differing < <({ diff -rq parent head || true; } | sed -E \
    -e 's#^Files parent/(.*) and head/.* differ$#\1#' \
    -e 's#^Only in (parent|head)/?([^:]*): (.*)$#\2/\3#' -e 's#^/##' | sort -u)
unexpected=()
for path in "${differing[@]}"; do
    if printf '%s\n' "${expected[@]}" | grep -qxF -- "$path"; then
        echo "differs, as $list lists: $path"
    else
        unexpected+=("$path")
    fi
done

echo "product identity: 6 pipeline runs, 2 patch-net searches and 4 selftests in $((SECONDS - started)) s"
if [ ${#unexpected[@]} -gt 0 ]; then
    echo "products that differ from the parent:" >&2
    printf '  %s\n' "${unexpected[@]}" >&2
    exit 1
fi
echo "every other product is byte-identical to the parent"
