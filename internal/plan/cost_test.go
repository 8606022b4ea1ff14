package plan

import (
	"strings"
	"testing"
)

func TestEstimateCostBareClip(t *testing.T) {
	p, err := Build(checked(t, `render(t) = v[t];`))
	if err != nil {
		t.Fatal(err)
	}
	s := p.Segments[0]
	if s.EstCost.IsZero() {
		t.Fatal("Build did not estimate costs")
	}
	frames := int64(s.FrameCount())
	// One clip leaf, no interior operators: one decode per frame plus the
	// output encode, nothing copied.
	if s.EstCost.DecodeFrames != frames {
		t.Errorf("DecodeFrames = %d, want %d", s.EstCost.DecodeFrames, frames)
	}
	if s.EstCost.EncodeFrames != frames {
		t.Errorf("EncodeFrames = %d, want %d", s.EstCost.EncodeFrames, frames)
	}
	if s.EstCost.CopyPackets != 0 || s.EstCost.CopyBytes != 0 {
		t.Errorf("copy cost = %d/%dB, want zero", s.EstCost.CopyPackets, s.EstCost.CopyBytes)
	}
	if s.EstCost.Units() <= 0 {
		t.Errorf("Units = %v, want > 0", s.EstCost.Units())
	}
}

func TestEstimateCostMaterializedBoundaries(t *testing.T) {
	// sharpen(overlay(v, w)) builds a 3-level tree with materialized
	// interior boundaries; each boundary adds an encode/decode pair per
	// frame.
	p, err := Build(checked(t, `render(t) = sharpen(overlay(v[t], w[t], 0, 0, 1));`))
	if err != nil {
		t.Fatal(err)
	}
	s := p.Segments[0]
	frames := int64(s.FrameCount())
	boundaries := int64(0)
	s.Root.Walk(func(n *Node) {
		if n.Materialize {
			boundaries++
		}
	})
	if boundaries == 0 {
		t.Fatal("expected materialized interior boundaries in the unoptimized tree")
	}
	taps := int64(len(s.Taps()))
	if taps != 2 {
		t.Fatalf("taps = %d, want 2", taps)
	}
	wantDec := frames * (taps + boundaries)
	wantEnc := frames * (1 + boundaries)
	if s.EstCost.DecodeFrames != wantDec || s.EstCost.EncodeFrames != wantEnc {
		t.Errorf("cost = dec %d enc %d, want dec %d enc %d",
			s.EstCost.DecodeFrames, s.EstCost.EncodeFrames, wantDec, wantEnc)
	}
}

func TestEstimateCostCopy(t *testing.T) {
	p, err := Build(checked(t, `render(t) = v[t];`))
	if err != nil {
		t.Fatal(err)
	}
	s := p.Segments[0]

	s.Kind = SegCopy
	s.Video, s.From, s.To = "v", 0, 48
	s.Root = nil
	EstimateCosts(p)
	if s.EstCost.CopyPackets != 48 {
		t.Errorf("copy CopyPackets = %d, want 48", s.EstCost.CopyPackets)
	}
	if s.EstCost.CopyBytes <= 0 {
		t.Errorf("copy CopyBytes = %d, want > 0", s.EstCost.CopyBytes)
	}
	if s.EstCost.DecodeFrames != 0 || s.EstCost.EncodeFrames != 0 {
		t.Errorf("copy decode/encode = %d/%d, want 0/0", s.EstCost.DecodeFrames, s.EstCost.EncodeFrames)
	}
}

func TestCostUnitsOrdering(t *testing.T) {
	// Encoding a frame must cost more than decoding one, and copying a
	// packet must be cheapest — the ordering the admission weight relies on.
	dec := Cost{DecodeFrames: 100}
	enc := Cost{EncodeFrames: 100}
	cp := Cost{CopyPackets: 100, CopyBytes: 100 * 1 << 10}
	if !(enc.Units() > dec.Units() && dec.Units() > cp.Units()) {
		t.Errorf("ordering violated: enc=%v dec=%v copy=%v", enc.Units(), dec.Units(), cp.Units())
	}
	if cp.Units() <= 0 {
		t.Errorf("copy units = %v, want > 0", cp.Units())
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{DecodeFrames: 1, EncodeFrames: 2, CopyPackets: 3, CopyBytes: 4}
	b := Cost{DecodeFrames: 10, EncodeFrames: 20, CopyPackets: 30, CopyBytes: 40}
	got := a.Add(b)
	want := Cost{DecodeFrames: 11, EncodeFrames: 22, CopyPackets: 33, CopyBytes: 44}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
}

func TestExplainShowsEstimate(t *testing.T) {
	p, err := Build(checked(t, `render(t) = v[t];`))
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	if !strings.Contains(out, "estimated cost:") {
		t.Errorf("Explain missing plan-level estimate:\n%s", out)
	}
	if !strings.Contains(out, "[est: dec=") {
		t.Errorf("Explain missing per-segment estimate:\n%s", out)
	}
}
