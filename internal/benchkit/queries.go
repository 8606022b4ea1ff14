package benchkit

import (
	"fmt"
	"strings"

	"v2v/internal/rational"
)

// Query is one benchmark task from the paper's §V: Q1–Q5 use short
// (5-second) input segments, Q6–Q10 long (1-minute) ones.
type Query struct {
	ID   string
	Desc string
	// Long selects the 1-minute variant.
	Long bool
	// JoinsData marks the queries compared against the baseline in Fig. 5.
	JoinsData bool
	kind      queryKind
}

type queryKind uint8

const (
	qClip queryKind = iota
	qSplice
	qGrid
	qBlur
	qBoxes
)

// Queries returns the paper's ten benchmark queries in order.
func Queries() []Query {
	base := []struct {
		kind queryKind
		desc string
		data bool
	}{
		{qClip, "clip a segment of video", false},
		{qSplice, "clip 4 segments and splice them together", false},
		{qGrid, "clip 4 segments into a 2x2 grid", false},
		{qBlur, "clip a segment and apply a Gaussian blur", false},
		{qBoxes, "clip a segment and draw object bounding boxes", true},
	}
	var out []Query
	for i, b := range base {
		out = append(out, Query{
			ID: fmt.Sprintf("Q%d", i+1), Desc: b.desc + " (5 s input)",
			kind: b.kind, JoinsData: b.data,
		})
	}
	for i, b := range base {
		out = append(out, Query{
			ID: fmt.Sprintf("Q%d", i+6), Desc: b.desc + " (1 min input)",
			Long: true, kind: b.kind, JoinsData: b.data,
		})
	}
	return out
}

// QueryByID finds a query by its identifier ("Q1".."Q10").
func QueryByID(id string) (Query, bool) {
	for _, q := range Queries() {
		if strings.EqualFold(q.ID, id) {
			return q, true
		}
	}
	return Query{}, false
}

// segmentSeconds returns the query's input segment length under sc.
func (q Query) segmentSeconds(sc Scale) int64 {
	if q.Long {
		return sc.Long
	}
	return sc.Short
}

// clipStart returns the first clip's source start time: 2 seconds plus 7
// frames, deliberately off the keyframe grid so smart cuts (not plain
// copies) are exercised, matching arbitrary user-selected clip positions.
func clipStart(ds *Dataset) rational.Rat {
	return rational.FromInt(2).Add(rational.New(7, 1).Div(ds.Profile.FPS))
}

// sourceFor returns the video used for segment k: ToS draws every segment
// from the single film at staggered offsets; KABR draws segment k from
// video k.
func (ds *Dataset) sourceFor(k int, segSeconds int64) (video string, offset rational.Rat) {
	start := clipStart(ds)
	if len(ds.Videos) > 1 {
		return fmt.Sprintf("vid%d", k), start
	}
	// Single-film dataset: stagger segments by L + gap seconds.
	gap := (ds.Seconds - 3 - 4*segSeconds) / 3
	if gap > 5 {
		gap = 5
	}
	if gap < 0 {
		gap = 0
	}
	off := start.Add(rational.FromInt(int64(k) * (segSeconds + gap)))
	return "vid0", off
}

// BuildSpecSource renders the query as a textual V2V spec over ds.
func (q Query) BuildSpecSource(ds *Dataset, sc Scale) string {
	L := q.segmentSeconds(sc)
	step := rational.One.Div(ds.Profile.FPS)
	var sb strings.Builder

	declare := func(needAnn bool, segs int) {
		sb.WriteString("videos {\n")
		if len(ds.Videos) > 1 {
			for i := 0; i < segs; i++ {
				fmt.Fprintf(&sb, "  vid%d: %q;\n", i, ds.Videos[i])
			}
		} else {
			fmt.Fprintf(&sb, "  vid0: %q;\n", ds.Videos[0])
		}
		sb.WriteString("}\n")
		if needAnn {
			fmt.Fprintf(&sb, "data {\n  bb0: %q;\n}\n", ds.Anns[0])
		}
	}

	switch q.kind {
	case qClip:
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", L, step)
		declare(false, 1)
		v, off := ds.sourceFor(0, L)
		fmt.Fprintf(&sb, "render(t) = %s[t + %s];\n", v, off)
	case qSplice:
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", 4*L, step)
		declare(false, 4)
		sb.WriteString("render(t) = match t {\n")
		for k := 0; k < 4; k++ {
			v, off := ds.sourceFor(k, L)
			lo, hi := int64(k)*L, int64(k+1)*L
			// Source time = (t - lo) + off.
			shift := off.Sub(rational.FromInt(lo))
			fmt.Fprintf(&sb, "  t in range(%d, %d, %s) => %s[t + %s],\n", lo, hi, step, v, shift)
		}
		sb.WriteString("};\n")
	case qGrid:
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", L, step)
		declare(false, 4)
		var args []string
		for k := 0; k < 4; k++ {
			v, off := ds.sourceFor(k, L)
			args = append(args, fmt.Sprintf("%s[t + %s]", v, off))
		}
		fmt.Fprintf(&sb, "render(t) = grid(%s);\n", strings.Join(args, ", "))
	case qBlur:
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", L, step)
		declare(false, 1)
		v, off := ds.sourceFor(0, L)
		fmt.Fprintf(&sb, "render(t) = blur(%s[t + %s], 1.5);\n", v, off)
	case qBoxes:
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", L, step)
		declare(true, 1)
		v, off := ds.sourceFor(0, L)
		fmt.Fprintf(&sb, "render(t) = boxes(%s[t + %s], bb0[t + %s]);\n", v, off, off)
	}
	return sb.String()
}
