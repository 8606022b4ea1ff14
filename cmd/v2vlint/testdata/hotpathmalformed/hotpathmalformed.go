// Package hotpathmalformed carries a v2v:hotpath directive with trailing
// words: it annotates nothing, so it is a finding.
package hotpathmalformed

// trailing would be covered by the escape check if its directive were
// written exactly.
//
//v2v:hotpath extra words
func trailing(n int) int { return n + 1 }
