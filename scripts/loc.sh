#!/usr/bin/env bash
# Non-test Go line counts, the figures the ROADMAP's line-count gates read:
# every .go file outside bench/ and testdata/ that is not a _test.go.
#
#   scripts/loc.sh          the working tree: the total, then each package
#   scripts/loc.sh <rev>    each package at <rev> and in the working tree,
#                           with the delta; <rev> is read with git ls-tree
#                           and git show, never checked out
#   make loc [BASE=<rev>]
set -euo pipefail

# keep filters a list of repository-relative paths down to the counted files.
keep() { grep '\.go$' | grep -v -e '_test\.go$' -e '^bench/' -e '/testdata/' -e '^testdata/' || true; }

# pkg prints the package directory of file $1 as "." or "./<dir>".
pkg() { case $1 in */*) echo "./${1%/*}" ;; *) echo . ;; esac; }

# tree prints "<package> <lines>" for each counted file of the working tree.
tree() {
	find . -name '*.go' -not -path './.git/*' | sed 's#^\./##' | keep | while read -r f; do
		echo "$(pkg "$f") $(wc -l <"$f")"
	done
}

# at prints "<package> <lines>" for each counted file of revision $1.
at() {
	git ls-tree -r --name-only "$1" | keep | while read -r f; do
		echo "$(pkg "$f") $(git show "$1:$f" | wc -l)"
	done
}

if [ $# -eq 0 ]; then
	counts=$(tree)
	echo "non-test Go lines outside bench/: $(awk '{ t += $2 } END { print t }' <<<"$counts")"
	awk '{ n[$1] += $2 } END { for (d in n) printf "%7d  %s\n", n[d], d }' <<<"$counts" | sort -k2
	exit 0
fi

base=$1
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || { echo "loc: unknown revision $base" >&2; exit 2; }
counts=$({ at "$base" | sed 's/^/base /'; tree | sed 's/^/tree /'; })
awk -v rev="$base" '{ t[$1] += $3 } END {
	printf "non-test Go lines outside bench/: %d at %s, %d in the working tree (%+d)\n", t["base"], rev, t["tree"], t["tree"] - t["base"]
	printf "%7s %7s %7s  %s\n", "base", "tree", "delta", "package"
}' <<<"$counts"
awk '{ n[$1, $2] += $3; d[$2] } END {
	for (k in d) printf "%7d %7d %+7d  %s\n", n["base", k], n["tree", k], n["tree", k] - n["base", k], k
}' <<<"$counts" | sort -k4
