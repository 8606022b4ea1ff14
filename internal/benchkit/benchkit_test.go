package benchkit

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"v2v/internal/core"
	"v2v/internal/vql"
)

// Tiny scale keeps unit tests fast; real figures run through cmd/v2vbench.
func testScale() Scale {
	return Scale{ToSSeconds: 30, KABRSeconds: 8, Short: 1, Long: 4}
}

var (
	// dataDir is the dataset cache TestMain provisions into.
	dataDir string
	tosDS   *Dataset
	kabrDS  *Dataset
)

func TestMain(m *testing.M) {
	var err error
	dataDir, err = os.MkdirTemp("", "v2v-benchkit-")
	if err != nil {
		panic(err)
	}
	sc := testScale()
	tosDS, err = ProvisionToS(dataDir, sc)
	if err != nil {
		panic(err)
	}
	kabrDS, err = ProvisionKABR(dataDir, sc)
	if err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dataDir)
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
	// Re-provisioning reuses the cached files: no error, the same paths,
	// and nothing regenerated.
	before, err := os.Stat(tosDS.Videos[0])
	if err != nil {
		t.Fatal(err)
	}
	again, err := ProvisionToS(dataDir, testScale())
	if err != nil {
		t.Fatalf("re-provision: %v", err)
	}
	if !slices.Equal(again.Videos, tosDS.Videos) || !slices.Equal(again.Anns, tosDS.Anns) {
		t.Errorf("re-provision paths = %v %v, want %v %v", again.Videos, again.Anns, tosDS.Videos, tosDS.Anns)
	}
	after, err := os.Stat(again.Videos[0])
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Errorf("re-provision regenerated %s (mtime %v -> %v)", again.Videos[0], before.ModTime(), after.ModTime())
	}
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
