package opt

import (
	"v2v/internal/plan"
	"v2v/internal/vql"
)

// Kernel fusion (the raw-speed item in ROADMAP.md): chains of per-pixel
// point operations — grade, crossfade, wipe, overlay — cost one full pass
// over the YUV planes per op when evaluated call by call. This pass,
// running after filter merging, rewrites each maximal chain of >= 2
// fusable ops into a single fused kernel node, which the executor applies
// in one row-wise pass (raster.ApplyFused) into a pooled destination.
// Single fusable ops stay as ordinary filter nodes: there is nothing to
// fuse and the plain path keeps plans and EXPLAIN output unchanged.
//
// The rewrite is purely physical: plan.Node.MergedExpr reconstructs the
// original expression from a fused node, and a fused stage's kernel comes
// from the same registry constructor the unfused call applies, so
// optimized output is unchanged.

// fusable reports whether the named transform has a point-op form
// (vql.Transform.PointOp). Each takes its chain input (the frame being
// transformed) as argument 0; crossfade/wipe/overlay carry a secondary
// frame at argument 1.
func fusable(name string) bool {
	tr, ok := vql.Lookup(name)
	return ok && tr.PointOp != nil
}

// fusePass rewrites every frame segment's tree, fusing point-op chains.
// It returns the number of point ops folded into fused kernel nodes.
func fusePass(p *plan.Plan) int {
	fused := 0
	for _, s := range p.Segments {
		if s.Kind != plan.SegFrames || s.Root == nil || s.Root.IsLeaf() || s.Root.Expr == nil {
			continue
		}
		if !containsChain(s.Root.Expr) {
			continue
		}
		root, n := fuseNode(s.Root.Expr)
		root.Materialize = s.Root.Materialize
		s.Root = root
		fused += n
	}
	return fused
}

// fuseNode builds the plan node for a frame expression, fusing the
// maximal chain of fusable calls along its Args[0] spine when the chain
// has >= 2 ops. Returns the node and the number of ops fused in the whole
// subtree.
func fuseNode(e vql.Expr) (*plan.Node, int) {
	var chain []vql.Call // outermost first
	cur := e
	for {
		c, ok := cur.(vql.Call)
		if !ok || !fusable(c.Name) || len(c.Args) == 0 {
			break
		}
		chain = append(chain, c)
		cur = c.Args[0]
	}
	if len(chain) >= 2 {
		n := &plan.Node{}
		base, sub := fuseNode(cur)
		n.Inputs = []*plan.Node{base}
		count := len(chain) + sub
		// Stages apply innermost-first, so walk the spine bottom-up.
		for i := len(chain) - 1; i >= 0; i-- {
			c := chain[i]
			args := make([]vql.Expr, len(c.Args))
			args[0] = plan.PortRef{Port: plan.ChainPort}
			for j := 1; j < len(c.Args); j++ {
				a := c.Args[j]
				if vql.IsFrameExpr(a) {
					child, subn := fuseNode(a)
					count += subn
					args[j] = plan.PortRef{Port: len(n.Inputs)}
					n.Inputs = append(n.Inputs, child)
					continue
				}
				args[j] = a
			}
			n.Fused = append(n.Fused, plan.FusedStage{Op: c.Name, Args: args})
		}
		return n, count
	}
	if v, ok := e.(vql.VideoRef); ok {
		return &plan.Node{Clip: &plan.Clip{Video: v.Name, Index: v.Index}}, 0
	}
	// Not a chain head: keep the expression inline, but hoist any frame
	// argument whose subtree contains a fusable chain into its own input
	// node so the chain still fuses.
	node := &plan.Node{}
	count := 0
	if c, ok := e.(vql.Call); ok {
		args := make([]vql.Expr, len(c.Args))
		for i, a := range c.Args {
			if vql.IsFrameExpr(a) && containsChain(a) {
				child, subn := fuseNode(a)
				count += subn
				args[i] = plan.PortRef{Port: len(node.Inputs)}
				node.Inputs = append(node.Inputs, child)
				continue
			}
			args[i] = a
		}
		node.Expr = vql.Call{Name: c.Name, Args: args}
		return node, count
	}
	node.Expr = e
	return node, 0
}

// containsChain reports whether e contains a fusable chain of >= 2 ops
// anywhere in its subtree.
func containsChain(e vql.Expr) bool {
	c, ok := e.(vql.Call)
	if !ok {
		return false
	}
	if fusable(c.Name) && len(c.Args) > 0 {
		if inner, ok := c.Args[0].(vql.Call); ok && fusable(inner.Name) {
			return true
		}
	}
	for _, a := range c.Args {
		if containsChain(a) {
			return true
		}
	}
	return false
}
