package exec

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v2v/internal/check"
	"v2v/internal/container"
	"v2v/internal/faults"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/rewrite"
	"v2v/internal/vql"
)

// kabrSpliceSpec is the KABR-like four-arm splice: two seconds from each
// of four one-second-GOP videos, every arm starting seven frames into a
// GOP — four smart cuts with 17-frame heads and 31-packet tails.
func kabrSpliceSpec() string {
	vids := []string{fxVid, fxMore[0], fxMore[1], fxMore[2]}
	var sb strings.Builder
	sb.WriteString("timedomain range(0, 8, 1/24);\nvideos {\n")
	for k, v := range vids {
		fmt.Fprintf(&sb, "  v%d: %q;\n", k, v)
	}
	sb.WriteString("}\nrender(t) = match t {\n")
	for k := range vids {
		fmt.Fprintf(&sb, "  t in range(%d, %d, 1/24) => v%d[t + %d/24],\n", 2*k, 2*k+2, k, 7-48*k)
	}
	sb.WriteString("};\n")
	return sb.String()
}

// boxesSpec draws fxBoxesAnn's boxes over fxBoxes. The data rewrite drops
// the boxes call wherever the annotations are empty, and those stretches
// start mid-GOP: two render arms, two smart cuts with 8-frame heads.
func boxesSpec() string {
	return fmt.Sprintf(`
		timedomain range(0, 4, 1/24);
		videos { v: %q; }
		data { bb: %q; }
		render(t) = boxes(v[t], bb[t]);`, fxBoxes, fxBoxesAnn)
}

// tosClipSpec is a ten-second clip starting 75 frames into fxSparse's first
// 240-frame GOP: one smart cut whose 165-frame head is long enough to shard.
func tosClipSpec() string {
	return fmt.Sprintf(`
		timedomain range(0, 10, 1/24);
		videos { s: %q; }
		render(t) = s[t + 75/24];`, fxSparse)
}

// buildPlanFull is the whole front end at a fixed parallelism — check, data
// rewrite, plan, every optimizer pass — the plan core.Plan builds.
func buildPlanFull(t *testing.T, src string, par int) *plan.Plan {
	t.Helper()
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := check.Check(s, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rewritten, _, err := rewrite.Rewrite(c)
	if err != nil {
		t.Fatal(err)
	}
	if rewritten != c.Spec {
		c2 := *c
		c2.Spec = rewritten
		c = &c2
	}
	p, err := plan.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.Default()
	o.Parallelism = par
	if _, err := opt.Optimize(p, o); err != nil {
		t.Fatal(err)
	}
	return p
}

var updateSmartCut = flag.Bool("update-smartcut", false,
	"rewrite testdata/smartcut_*.sha256 from the current engine (only for a deliberate change of output bytes)")

// TestSmartCutBytesMatchParent pins the output bytes of plans made of
// smart cuts to digests generated at the commit before the optimizer split
// a smart cut into a render head and a copy: a head the shard pass leaves
// whole is encoded by a fresh encoder into exactly the packets the sink's
// encoder produced for it. The digests were regenerated once since, when
// GV1 began writing its own DEFLATE: packet bytes changed, pixels did not.
func TestSmartCutBytesMatchParent(t *testing.T) {
	for name, src := range map[string]string{"splice": kabrSpliceSpec(), "boxes": boxesSpec()} {
		var lines []string
		for _, par := range []int{1, 2} {
			pkts, _ := filePackets(t, buildPlanFull(t, src, par), Options{Parallelism: par})
			lines = append(lines, fmt.Sprintf("par=%d packets=%d %s", par, len(pkts), byteDigest(pkts)))
		}
		got := strings.Join(lines, "\n") + "\n"
		path := filepath.Join("testdata", "smartcut_"+name+".sha256")
		if *updateSmartCut {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: output bytes changed\n got:\n%s want:\n%s", name, got, want)
		}
	}
}

// TestSmartCutEstimateMatchesDecodes is the cost a smart cut is admitted
// at: with the GOP cache off, what the plan estimates for the head (its
// frames, and the roll-forward from the keyframe before the cut) and for
// the copy is what the run does, segment by segment and in total.
func TestSmartCutEstimateMatchesDecodes(t *testing.T) {
	for name, src := range map[string]string{"KABR splice": kabrSpliceSpec(), "ToS clip": tosClipSpec()} {
		t.Run(name, func(t *testing.T) {
			p := buildPlanFull(t, src, 2)
			_, m := streamPackets(t, p, Options{Parallelism: 2})
			for i, s := range p.Segments {
				act, est := m.Segments[i], s.EstCost
				if est.DecodeFrames != act.FramesDecoded || est.EncodeFrames != act.FramesEncoded || est.CopyPackets != act.PacketsCopied {
					t.Errorf("segment %d (%s): estimated %s, run decoded=%d encoded=%d copied=%d",
						i, s.Kind, est, act.FramesDecoded, act.FramesEncoded, act.PacketsCopied)
				}
			}
			if est := p.EstimatedCost(); est.DecodeFrames != m.TotalDecodes() || est.EncodeFrames != m.TotalEncodes() ||
				est.CopyPackets != m.Output.PacketsCopied {
				t.Errorf("plan estimated %s, run decoded=%d encoded=%d copied=%d",
					est, m.TotalDecodes(), m.TotalEncodes(), m.Output.PacketsCopied)
			}
			if !strings.Contains(p.Explain(), "est: "+p.Segments[0].EstCost.String()) {
				t.Errorf("EXPLAIN does not print the head's estimate:\n%s", p.Explain())
			}
		})
	}
}

// meetingFile holds the packet reads of two files until both have been
// asked for: a run gets past it only if it reads the two at once. Reads
// outside the packets, [lo, hi), are the open's and pass.
type meetingFile struct {
	container.File
	m      *meeting
	side   int
	lo, hi int64
}

func (f *meetingFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= f.lo && off < f.hi {
		f.m.arrive(f.side) // if the other never comes, the assertions report it
	}
	return f.File.ReadAt(p, off)
}

// TestSmartCutHeadsOverlap runs the four-arm splice at Parallelism 2 with
// the first two arms' sources readable only together: the heads of
// different cuts render on the shard workers at the same time, and the
// trace shows their spans overlapping.
func TestSmartCutHeadsOverlap(t *testing.T) {
	p := buildPlanFull(t, kabrSpliceSpec(), 2)
	m := &meeting{both: make(chan struct{})}
	container.SetFileWrapper(func(path string, f container.File) container.File {
		for side, name := range []string{"v0", "v1"} {
			if src := p.Checked.Sources[name]; src.Path == path {
				recs := src.Records()
				last := recs[len(recs)-1]
				return &meetingFile{File: f, m: m, side: side, lo: recs[0].Offset, hi: last.Offset + int64(last.Size)}
			}
		}
		return f
	})
	defer container.SetFileWrapper(nil)
	tr := obs.NewTrace("test")
	pkts, _ := streamPackets(t, p, Options{Parallelism: 2, Trace: tr})
	if len(pkts) != 192 {
		t.Fatalf("%d packets, want 192", len(pkts))
	}
	if spans := shardSpans(t, tr); len(spans) != 4 || maxOverlap(spans) != 2 {
		t.Errorf("shard spans %v: want one per head, two at a time", spans)
	}
}

// TestSmartCutWarmRepeatDoesNoWork repeats a splice of smart cuts with
// both caches warm: every head is a result-cache hit, so the run decodes
// and encodes nothing and writes the bytes of the first run — which are
// the bytes of a run with no cache at all.
func TestSmartCutWarmRepeatDoesNoWork(t *testing.T) {
	off, _ := streamBytes(t, buildPlanFull(t, kabrSpliceSpec(), 2), Options{Parallelism: 2})
	o := Options{Parallelism: 2, Cache: media.NewCache(0, 0, 2)}
	cold, mc := streamBytes(t, buildPlanFull(t, kabrSpliceSpec(), 2), o)
	warm, mw := streamBytes(t, buildPlanFull(t, kabrSpliceSpec(), 2), o)
	if mc.ResultCacheMisses != 4 || mc.TotalEncodes() != 4*17 {
		t.Errorf("cold run: %d misses, %d encodes; want 4 heads of 17 frames", mc.ResultCacheMisses, mc.TotalEncodes())
	}
	if mw.TotalDecodes() != 0 || mw.TotalEncodes() != 0 || mw.ResultCacheHits != 4 || mw.ResultCacheMisses != 0 {
		t.Errorf("warm run: decodes=%d encodes=%d hits=%d misses=%d, want four hits and no work",
			mw.TotalDecodes(), mw.TotalEncodes(), mw.ResultCacheHits, mw.ResultCacheMisses)
	}
	if string(cold) != string(off) || string(warm) != string(off) {
		t.Error("output bytes differ between the cache-off, cold and warm runs")
	}
}

// TestSmartCutHeadConceals damages a packet inside a smart cut's head. In
// concealment mode the head holds the last good frame, counts it in its
// actuals and is cached under the concealing key only: a strict run
// sharing the cache renders it again and fails on the packet.
func TestSmartCutHeadConceals(t *testing.T) {
	vid := copyFixture(t)
	off, size := packetRegion(t, vid, 10)
	if size < 4 {
		t.Fatalf("packet 10 only %d bytes", size)
	}
	if err := faults.CorruptRange(vid, off+2, 2, 42); err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		render(t) = v[t + 7/24];`, vid)
	rc := media.NewCache(-1, 0, 1)
	for _, warm := range []bool{false, true} {
		p := buildPlanFull(t, src, 1)
		if len(p.Segments) != 2 || p.Segments[0].FrameCount() != 17 {
			t.Fatalf("plan is not a 17-frame head and a copy:\n%s", p.Explain())
		}
		pkts, m := streamPackets(t, p, Options{Parallelism: 1, Conceal: true, Cache: rc})
		// Cold, the head renders: one concealed frame, one fill. Warm, it is
		// spliced from the cache.
		hits, misses, concealed := int64(0), int64(1), int64(1)
		if warm {
			hits, misses, concealed = 1, 0, 0
		}
		if head := m.Segments[0]; len(pkts) != 48 || head.ResultCacheHits != hits ||
			head.ResultCacheMisses != misses || head.Concealed != concealed {
			t.Errorf("concealing run, warm=%t: %d packets, head %+v", warm, len(pkts), head)
		}
	}
	_, _, err := streamRun(buildPlanFull(t, src, 1), Options{Parallelism: 1, Cache: rc})
	if err == nil || !media.Concealable(err) {
		t.Errorf("strict run over the damaged head: err = %v, want the corruption error", err)
	}
}
