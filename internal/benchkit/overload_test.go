package benchkit

import (
	"strings"
	"testing"
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

func TestChaosOverloadRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos overload in -short mode")
	}
	sc := testScale()
	res, err := ChaosOverloadRun(kabrDS, Config{Scale: sc, OutDir: t.TempDir(), Parallelism: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Row.Failed != 0 {
		t.Errorf("%d request(s) broke the shed contract", res.Row.Failed)
	}
	if res.CriticalFactor != 0.25 || res.FinalFactor != 1 {
		t.Errorf("pressure factors critical=%v final=%v, want 0.25 and 1", res.CriticalFactor, res.FinalFactor)
	}
	if res.PostCacheBytes <= 0 {
		t.Errorf("cache bytes did not recover after the episode: post=%d", res.PostCacheBytes)
	}
	out := FormatChaosOverload("chaos overload", res)
	if !strings.Contains(out, "cache bytes") {
		t.Errorf("format missing cache-bytes line:\n%s", out)
	}
}
