package benchkit

import (
	"os"
	"strings"
	"testing"
	"time"

	"v2v/internal/core"
	"v2v/internal/vql"
)

// Tiny scale keeps unit tests fast; real figures run through cmd/v2vbench
// and the root bench suite.
func testScale() Scale {
	return Scale{ToSSeconds: 30, KABRSeconds: 8, Short: 1, Long: 4}
}

var (
	tosDS  *Dataset
	kabrDS *Dataset
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "v2v-benchkit-")
	if err != nil {
		panic(err)
	}
	sc := testScale()
	tosDS, err = ProvisionToS(dir, sc)
	if err != nil {
		panic(err)
	}
	kabrDS, err = ProvisionKABR(dir, sc)
	if err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestProvisionShapes(t *testing.T) {
	if len(tosDS.Videos) != 1 || len(kabrDS.Videos) != 4 {
		t.Fatalf("videos: tos=%d kabr=%d", len(tosDS.Videos), len(kabrDS.Videos))
	}
	for _, p := range append(append([]string{}, tosDS.Videos...), kabrDS.Videos...) {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing %s", p)
		}
	}
	// Re-provisioning hits the cache (no error, same paths).
	again, err := ProvisionToS(DefaultDirOf(tosDS), testScale())
	_ = again
	_ = err
}

// DefaultDirOf recovers the cache dir used in TestMain for re-provision
// testing (the parent of the dataset subdirectory).
func DefaultDirOf(ds *Dataset) string {
	p := ds.Videos[0]
	// .../<cache>/<subdir>/<file>
	i := strings.LastIndexByte(p, '/')
	j := strings.LastIndexByte(p[:i], '/')
	return p[:j]
}

func TestQueriesEnumeration(t *testing.T) {
	qs := Queries()
	if len(qs) != 10 {
		t.Fatalf("queries = %d", len(qs))
	}
	if qs[0].ID != "Q1" || qs[9].ID != "Q10" {
		t.Error("IDs wrong")
	}
	if qs[4].Long || !qs[5].Long {
		t.Error("long flags wrong")
	}
	if !qs[4].JoinsData || !qs[9].JoinsData || qs[0].JoinsData {
		t.Error("data flags wrong")
	}
	if q, ok := QueryByID("q7"); !ok || q.ID != "Q7" {
		t.Error("QueryByID case-insensitive lookup failed")
	}
	if _, ok := QueryByID("Q11"); ok {
		t.Error("Q11 should not exist")
	}
}

func TestAllQuerySpecsParseAndCheck(t *testing.T) {
	sc := testScale()
	for _, ds := range []*Dataset{tosDS, kabrDS} {
		for _, q := range Queries() {
			src := q.BuildSpecSource(ds, sc)
			spec, err := vql.Parse(src)
			if err != nil {
				t.Fatalf("%s/%s parse: %v\n%s", ds.Name, q.ID, err, src)
			}
			// Plan both ways to validate check+optimize paths.
			if _, _, _, err := core.Plan(spec, core.Options{}); err != nil {
				t.Fatalf("%s/%s check: %v\n%s", ds.Name, q.ID, err, src)
			}
			if _, _, _, err := core.Plan(spec, core.DefaultOptions()); err != nil {
				t.Fatalf("%s/%s optimize: %v", ds.Name, q.ID, err)
			}
		}
	}
}

func TestRunOnceAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := testScale()
	outDir := t.TempDir()
	q, _ := QueryByID("Q5") // boxes: exercises data join in all engines
	for _, mode := range []Mode{ModeUnopt, ModeOpt, ModeBaseline} {
		m, err := RunOnce(kabrDS, q, mode, Config{Scale: sc, OutDir: outDir, Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if m.Wall <= 0 || m.OutFrames == 0 {
			t.Errorf("%s: measurement = %+v", mode, m)
		}
	}
}

func TestCompareRunShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := testScale()
	rows, err := CompareRun(kabrDS, Config{Scale: sc, OutDir: t.TempDir(), Parallelism: 2, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Unopt <= 0 || r.Opt <= 0 || r.Speedup <= 0 {
			t.Errorf("row %s = %+v", r.Query, r)
		}
	}
	table := FormatCompare("Fig 4 (KABR-sim)", rows)
	if !strings.Contains(table, "Q10") || !strings.Contains(table, "average") {
		t.Errorf("table:\n%s", table)
	}
	if AverageSpeedup(rows) <= 0 {
		t.Error("average speedup")
	}
}

func TestDataJoinRunShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := testScale()
	rows, err := DataJoinRun(kabrDS, Config{Scale: sc, OutDir: t.TempDir(), Parallelism: 2, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	table := FormatDataJoin("Fig 5 (KABR-sim)", rows)
	if !strings.Contains(table, "Py+OpenCV") {
		t.Errorf("table:\n%s", table)
	}
}

func TestFmtDur(t *testing.T) {
	if fmtDur(1500*time.Millisecond) != "1.50s" {
		t.Error(fmtDur(1500 * time.Millisecond))
	}
	if fmtDur(2500*time.Microsecond) != "2.5ms" {
		t.Error(fmtDur(2500 * time.Microsecond))
	}
	if fmtDur(900*time.Nanosecond) != "0µs" {
		t.Error(fmtDur(900 * time.Nanosecond))
	}
}

func TestAblationRunShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := testScale()
	rows, err := AblationRun(kabrDS, "Q2", Config{Scale: sc, OutDir: t.TempDir(), Parallelism: 2, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationConfigs()) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		if r.Wall <= 0 {
			t.Errorf("%s: wall = %v", r.Config, r.Wall)
		}
		byName[r.Config] = r
	}
	// The none config copies nothing; the all config copies something
	// (Q2 splices keyframe-dense KABR clips).
	if byName["none"].Copies != 0 {
		t.Error("none config should not copy")
	}
	if byName["all"].Copies == 0 {
		t.Error("all config should copy")
	}
	if byName["all"].Encodes >= byName["none"].Encodes {
		t.Error("all config should encode less than none")
	}
	table := FormatAblation("ablation", rows)
	if !strings.Contains(table, "smartcut-only") || !strings.Contains(table, "Speedup") {
		t.Errorf("table:\n%s", table)
	}
	if _, err := AblationRun(kabrDS, "Q99", Config{Scale: sc, OutDir: t.TempDir(), Repeats: 1}); err == nil {
		t.Error("unknown query should fail")
	}
}

func TestStreamingRunShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := testScale()
	rows, err := StreamingRun(kabrDS, "Q2", Config{Scale: sc, OutDir: t.TempDir(), Parallelism: 2, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(streamingConcurrency) {
		t.Fatalf("rows = %d, want %d", len(rows), len(streamingConcurrency))
	}
	for i, r := range rows {
		if r.Streams != streamingConcurrency[i] {
			t.Errorf("row %d streams = %d, want %d", i, r.Streams, streamingConcurrency[i])
		}
		if r.Segments < 2 {
			t.Errorf("row %d segments = %d; the splice query should keep multiple segments", i, r.Segments)
		}
		if r.Wall <= 0 || r.TTFF <= 0 || r.TTFFMax < r.TTFF {
			t.Errorf("row %d timings: wall=%v ttff=%v ttffmax=%v", i, r.Wall, r.TTFF, r.TTFFMax)
		}
		// The tentpole's headline: playback can start well before the
		// whole splice is synthesized.
		if r.TTFF >= r.Wall {
			t.Errorf("row %d TTFF %v >= wall %v; streaming delivered nothing early", i, r.TTFF, r.Wall)
		}
		if !r.ByteIdentical {
			t.Errorf("row %d: streamed packets differ from the file-sink reference", i)
		}
	}
	table := FormatStreaming("streaming", rows)
	if !strings.Contains(table, "TTFF") || !strings.Contains(table, "MaxGap") {
		t.Errorf("table:\n%s", table)
	}
	if _, err := StreamingRun(kabrDS, "Q99", Config{Scale: sc, OutDir: t.TempDir(), Repeats: 1}); err == nil {
		t.Error("unknown query should fail")
	}
}

func TestDeltaStreamingSection(t *testing.T) {
	old := &ReportFile{}
	old.Streaming = append(old.Streaming, struct {
		Dataset       string  `json:"dataset"`
		Query         string  `json:"query"`
		Streams       int     `json:"streams"`
		WallSeconds   float64 `json:"wall_seconds"`
		TTFFSeconds   float64 `json:"ttff_seconds"`
		MaxGapSeconds float64 `json:"max_gap_seconds"`
	}{"kabr-sim", "Q7", 4, 2.0, 0.1, 0.5})
	cur := &ReportFile{}
	cur.Streaming = append(cur.Streaming, struct {
		Dataset       string  `json:"dataset"`
		Query         string  `json:"query"`
		Streams       int     `json:"streams"`
		WallSeconds   float64 `json:"wall_seconds"`
		TTFFSeconds   float64 `json:"ttff_seconds"`
		MaxGapSeconds float64 `json:"max_gap_seconds"`
	}{"kabr-sim", "Q7", 4, 2.1, 0.3, 0.6})
	rows := Delta(old, cur)
	var ttff *DeltaRow
	for i := range rows {
		if rows[i].Metric == "ttff_seconds" {
			ttff = &rows[i]
		}
	}
	if ttff == nil {
		t.Fatal("no ttff_seconds delta row")
	}
	if ttff.Query != "Q7@4" {
		t.Errorf("ttff row query = %q, want Q7@4", ttff.Query)
	}
	if !ttff.Regressed() {
		t.Errorf("3x TTFF slowdown not flagged (ratio %.2f)", ttff.Ratio)
	}
	if got := len(rows); got != 3 {
		t.Errorf("delta rows = %d, want 3 (ttff, wall, max_gap)", got)
	}
}
