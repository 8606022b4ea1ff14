package benchkit

import (
	"strings"
	"testing"
	"time"
)

func TestOverloadRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("overload sweep in -short mode")
	}
	sc := testScale()
	rows, err := OverloadRun(kabrDS, Config{Scale: sc, OutDir: t.TempDir(), Parallelism: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(overloadLoads) {
		t.Fatalf("rows = %d, want %d", len(rows), len(overloadLoads))
	}
	for _, r := range rows {
		if r.Offered != overloadRequests {
			t.Errorf("load %gx: offered %d, want %d", r.Load, r.Offered, overloadRequests)
		}
		if r.Failed != 0 {
			t.Errorf("load %gx: %d request(s) broke the shed contract", r.Load, r.Failed)
		}
		if r.Completed+r.Shed != r.Offered {
			t.Errorf("load %gx: completed %d + shed %d != offered %d", r.Load, r.Completed, r.Shed, r.Offered)
		}
		if r.Completed == 0 {
			t.Errorf("load %gx: nothing completed (goodput collapsed to zero)", r.Load)
		}
		if r.ShedRecorded != r.Shed {
			t.Errorf("load %gx: %d of %d sheds have no shed record at /debug/requests?shed=1", r.Load, r.Shed-r.ShedRecorded, r.Shed)
		}
	}
	// The table renders without panicking and names each load point.
	table := FormatOverload("overload", rows)
	for _, want := range []string{"1x", "4x", "16x", "goodput"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestOverloadBurstDeterministic(t *testing.T) {
	a := OverloadBurst(42, 50, 10*time.Millisecond, 16)
	b := OverloadBurst(42, 50, 10*time.Millisecond, 16)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := OverloadBurst(43, 50, 10*time.Millisecond, 16)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical bursts")
	}
}

func TestOverloadBurstShape(t *testing.T) {
	base := 10 * time.Millisecond
	offs := OverloadBurst(1, 200, base, 4)
	prev := time.Duration(0)
	for i, o := range offs {
		if o < prev {
			t.Fatalf("offset %d not monotone: %v after %v", i, o, prev)
		}
		prev = o
	}
	// 200 arrivals at 4x the service rate should span roughly 200 × 2.5ms;
	// the cap on individual gaps keeps the tail bounded.
	mean := offs[len(offs)-1] / 200
	want := base / 4
	if mean < want/3 || mean > want*3 {
		t.Errorf("mean inter-arrival %v, want within 3x of %v", mean, want)
	}
	if OverloadBurst(1, 0, base, 4) != nil {
		t.Error("n=0 should return nil")
	}
}
