package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"

	"v2v/internal/check"
	"v2v/internal/data"
	"v2v/internal/vql"
)

// Fingerprinter derives canonical, collision-resistant cache keys for the
// synthesized output of render segments — the identity the cross-request
// result cache stores encoded packets under.
//
// A key covers everything that determines the segment's output bytes:
//
//   - the output stream format (codec, dimensions, fps, quality, GOP,
//     level — different formats encode different bytes);
//   - the segment's output times (start, end, step);
//   - the shard cuts (Segment.Bounds), which are where forced keyframes
//     fall and therefore change packet bytes;
//   - the concealment mode (it changes output on damaged sources);
//   - the operator tree, canonically serialized with every video name
//     replaced by the source file's *content identity* and every data
//     array replaced by a hash of its materialized entries.
//
// Substituting content for names is what makes the key correct and
// reusable: two specs binding different names to the same file produce
// the same key, while rewriting a file in place (same path, new content)
// produces a different one — stale entries are keyed out, never served.
//
// Fingerprinting is conservative: a segment whose identity cannot be
// pinned down (non-render kinds, unknown expression forms, missing
// content IDs) is reported not cacheable rather than risking a collision.
type Fingerprinter struct {
	sources map[string]string // video name -> container content ID
	arrays  map[string]string // data array name -> entries hash
	output  []byte            // canonical output format serialization
	conceal bool
}

// NewFingerprinter builds a fingerprinter for segments of plans over c.
// conceal must match the executor's concealment mode.
func NewFingerprinter(c *check.Checked, conceal bool) *Fingerprinter {
	f := &Fingerprinter{
		sources: make(map[string]string, len(c.Sources)),
		arrays:  make(map[string]string, len(c.Arrays)),
		conceal: conceal,
	}
	for name, src := range c.Sources {
		if src.Index != nil {
			f.sources[name] = src.ContentID()
		}
	}
	for name, arr := range c.Arrays {
		f.arrays[name] = hashArray(arr)
	}
	// StreamInfo marshals with a fixed field order, so the JSON form is a
	// stable canonical serialization of the output format.
	f.output, _ = json.Marshal(c.Output)
	return f
}

// hashArray hashes a data array's materialized entries, so a key over a
// sql- or file-declared array reflects the data actually read.
func hashArray(arr *data.Array) string {
	h := sha256.New()
	for _, e := range arr.Entries() {
		fmt.Fprintf(h, "%s=", e.T)
		v := e.V
		switch v.Type {
		case vql.TypeBool:
			fmt.Fprintf(h, "b%t;", v.Bool)
		case vql.TypeNum:
			fmt.Fprintf(h, "n%s;", v.Num)
		case vql.TypeStr:
			fmt.Fprintf(h, "s%q;", v.Str)
		case vql.TypeBoxes:
			io.WriteString(h, "x[")
			for _, b := range v.Boxes {
				fmt.Fprintf(h, "%d,%d,%d,%d,%q,%d;", b.X, b.Y, b.W, b.H, b.Class, b.Track)
			}
			io.WriteString(h, "];")
		default:
			io.WriteString(h, "_;")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Segment returns the result-cache key for s, or ok=false when the segment
// is not cacheable: only rendered segments are — a copy has nothing to
// memoize. The head of a smart cut is a rendered segment like any other. Its
// bytes do not depend on what the writer wrote before it: every shard is
// encoded by a fresh encoder, so it opens on a keyframe and counts its GOP
// from there, whatever precedes it in the stream.
func (f *Fingerprinter) Segment(s *Segment) (key string, ok bool) {
	if s.Kind != SegFrames || s.Root == nil {
		return "", false
	}
	h := sha256.New()
	io.WriteString(h, "v2v-result-v1\n")
	h.Write(f.output)
	fmt.Fprintf(h, "\nconceal=%t shards=%v times=%s,%s,%s\n",
		f.conceal, s.Bounds(), s.Times.Start, s.Times.End, s.Times.Step)
	if !f.writeNode(h, s.Root) {
		return "", false
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

func (f *Fingerprinter) writeNode(h hash.Hash, n *Node) bool {
	if n.IsLeaf() {
		id, found := f.sources[n.Clip.Video]
		if !found {
			return false
		}
		fmt.Fprintf(h, "clip(%s,", id)
		if !f.writeExpr(h, n.Clip.Index) {
			return false
		}
		io.WriteString(h, ")")
		return true
	}
	if n.Expr == nil {
		return false
	}
	fmt.Fprintf(h, "op(mat=%t,", n.Materialize)
	if !f.writeExpr(h, n.Expr) {
		return false
	}
	for _, in := range n.Inputs {
		io.WriteString(h, ";")
		if !f.writeNode(h, in) {
			return false
		}
	}
	io.WriteString(h, ")")
	return true
}

// writeExpr serializes an expression canonically. Every production emits
// an unambiguous framed form, and unknown expression types make the whole
// segment uncacheable — forward compatibility errs toward re-rendering.
func (f *Fingerprinter) writeExpr(h hash.Hash, e vql.Expr) bool {
	switch x := e.(type) {
	case vql.TimeVar:
		io.WriteString(h, "t")
	case vql.NumLit:
		fmt.Fprintf(h, "#%s", x.V)
	case vql.StrLit:
		fmt.Fprintf(h, "%q", x.V)
	case vql.BoolLit:
		fmt.Fprintf(h, "%t", x.V)
	case vql.NullLit:
		io.WriteString(h, "null")
	case vql.Neg:
		io.WriteString(h, "neg(")
		if !f.writeExpr(h, x.E) {
			return false
		}
		io.WriteString(h, ")")
	case vql.Not:
		io.WriteString(h, "not(")
		if !f.writeExpr(h, x.E) {
			return false
		}
		io.WriteString(h, ")")
	case vql.BinOp:
		fmt.Fprintf(h, "bin%d(", x.Op)
		if !f.writeExpr(h, x.L) {
			return false
		}
		io.WriteString(h, ",")
		if !f.writeExpr(h, x.R) {
			return false
		}
		io.WriteString(h, ")")
	case vql.VideoRef:
		id, found := f.sources[x.Name]
		if !found {
			return false
		}
		fmt.Fprintf(h, "vid(%s)[", id)
		if !f.writeExpr(h, x.Index) {
			return false
		}
		io.WriteString(h, "]")
	case vql.DataRef:
		id, found := f.arrays[x.Name]
		if !found {
			return false
		}
		fmt.Fprintf(h, "data(%s)[", id)
		if !f.writeExpr(h, x.Index) {
			return false
		}
		io.WriteString(h, "]")
	case vql.Call:
		fmt.Fprintf(h, "call:%s(", x.Name)
		for i, a := range x.Args {
			if i > 0 {
				io.WriteString(h, ",")
			}
			if !f.writeExpr(h, a) {
				return false
			}
		}
		io.WriteString(h, ")")
	case PortRef:
		fmt.Fprintf(h, "$%d", x.Port)
	default:
		return false
	}
	return true
}
