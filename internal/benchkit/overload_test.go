package benchkit

import (
	"encoding/json"
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

func TestDeltaOverloadSection(t *testing.T) {
	load := func(raw string) *ReportFile {
		var r ReportFile
		if err := json.Unmarshal([]byte(raw), &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	old := load(`{"overload":[{"dataset":"kabr-sim","load":16,"p99_seconds":0.5}]}`)
	cur := load(`{"overload":[{"dataset":"kabr-sim","load":16,"p99_seconds":1.0},
	              {"dataset":"kabr-sim","load":4,"p99_seconds":0.2}]}`)
	rows := Delta(old, cur)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v, want exactly the overlapping 16x point", rows)
	}
	r := rows[0]
	if r.Section != "overload" || r.Query != "16x" || r.Metric != "p99_seconds" {
		t.Errorf("row = %+v, want overload/16x/p99_seconds", r)
	}
	if r.Ratio != 2 {
		t.Errorf("ratio = %v, want 2", r.Ratio)
	}
	if !r.Regressed() {
		t.Error("a 2x p99 slowdown should be flagged as a regression")
	}
}
