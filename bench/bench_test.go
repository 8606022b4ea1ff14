package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"v2v/internal/vql"
)

// fakeDatasets describes the datasets without generating them: the
// generator only needs paths and shapes to write spec text.
func fakeDatasets() *datasets {
	ds := &datasets{ToS: source{Video: "/d/tos.vmf", Ann: "/d/tos.boxes.json", FPS: 24, GOP: 240, Frames: tosSeconds * 24}}
	for i := range ds.KABR {
		ds.KABR[i] = source{Video: "/d/kabr.vmf", Ann: "/d/kabr.boxes.json", FPS: 30, GOP: 30, Frames: kabrSeconds * 30}
	}
	return ds
}

func scheduleKeys(w *workload, seed int64, n int) []string {
	s := newSchedule(w, seed, fakeDatasets())
	keys := make([]string, n)
	for i := range keys {
		op := s.op(i)
		keys[i] = op.Key + "|" + op.Text
	}
	return keys
}

func TestScheduleIsDeterministicPerSeedAndDiffersAcrossSeeds(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := scheduleKeys(w, 1, 150), scheduleKeys(w, 1, 150), scheduleKeys(w, 2, 150)
		same, differ := true, false
		for i := range a {
			same = same && a[i] == b[i]
			differ = differ || a[i] != c[i]
		}
		if !same {
			t.Errorf("%s: two schedules of seed 1 differ", w.Name)
		}
		if !differ {
			t.Errorf("%s: seeds 1 and 2 give the same schedule", w.Name)
		}
	}
}

func TestEveryRoundHoldsTheSameMix(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		s := newSchedule(w, 7, fakeDatasets())
		mix := func(round int) map[string]int {
			m := map[string]int{}
			for i := 0; i < s.roundLen; i++ {
				op := s.op(round*s.roundLen + i)
				m[op.Class.String()+map[bool]string{true: " hot", false: ""}[op.Hot]]++
			}
			return m
		}
		first := mix(0)
		for r := 1; r < 4; r++ {
			got := mix(r)
			if len(got) != len(first) {
				t.Fatalf("%s: round %d has %d classes, round 0 has %d", w.Name, r, len(got), len(first))
			}
			for c, n := range first {
				if got[c] != n {
					t.Errorf("%s: round %d has %d of %s, round 0 has %d", w.Name, r, got[c], c, n)
				}
			}
		}
	}
}

func TestGeneratedSpecsParseAndCutMidGOP(t *testing.T) {
	g := newGenerator(3, fakeDatasets())
	for _, c := range allClasses() {
		for i := 0; i < 20; i++ {
			op := g.draw(c, true)
			spec, err := vql.Parse(op.Text)
			if err != nil {
				t.Fatalf("%s does not parse: %v\n%s", op.Key, err, op.Text)
			}
			if n := spec.TimeDomain.Count(); n != op.Frames {
				t.Errorf("%s: time domain has %d samples, Frames says %d", op.Key, n, op.Frames)
			}
			var vid, start int
			key := strings.TrimPrefix(op.Key, c.String())
			if _, err := fmt.Sscanf(key, "@v%d+%d", &vid, &start); err != nil {
				t.Fatalf("key %q: %v", op.Key, err)
			}
			src := g.ds.ToS
			if c.DS == "kabr" {
				src = g.ds.KABR[vid]
			}
			if start%src.GOP == 0 {
				t.Errorf("%s starts on a keyframe", op.Key)
			}
		}
	}
}

func TestUniqueDrawsDoNotRepeat(t *testing.T) {
	w := workloadByName("serve_cold_unique")
	s := newSchedule(w, 5, fakeDatasets())
	seen := map[string]bool{}
	for i := 0; i < 20*s.roundLen; i++ {
		k := s.op(i).Key
		if seen[k] {
			t.Fatalf("op %d repeats %s", i, k)
		}
		seen[k] = true
	}
}

func TestPixelCheckSampleIsATenth(t *testing.T) {
	for i := range workloads {
		s := newSchedule(&workloads[i], 9, fakeDatasets())
		checked := 0
		for i := 0; i < 200; i++ {
			if s.op(i).Check {
				checked++
			}
		}
		if checked != 20 {
			t.Errorf("%s: %d of 200 ops are pixel-checked, want 20", workloads[i].Name, checked)
		}
	}
}

func TestZipfShares(t *testing.T) {
	got := zipfShares(hotDraws, 20)
	total := 0
	for i, n := range got {
		total += n
		if n < 1 {
			t.Errorf("rank %d gets no draw: the hot pool would not be exercised", i+1)
		}
		if i > 0 && n > got[i-1] {
			t.Errorf("rank %d gets %d draws, more than rank %d's %d", i+1, n, i, got[i-1])
		}
	}
	if total != hotDraws {
		t.Errorf("shares add up to %d, want %d", total, hotDraws)
	}
	if share := float64(hotDraws) / float64(hotDraws+20); math.Abs(share-0.7) > 0.01 {
		t.Errorf("hot share of a round is %.3f, want 0.70", share)
	}
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles([...], n=4) for these inputs.
	cases := []struct {
		in         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{10, 2, 7}, 2, 7, 10, 8.0 / 7},
		{[]float64{3, 1}, 0.5, 2, 3.5, 1.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
		if s := spread(c.in); math.Abs(s-c.wantSpread) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.in, s, c.wantSpread)
		}
	}
}

func TestPercentileAveragesTheBand(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	// The band [45%, 55%] of 1..100 covers the samples 46..55.
	if got := percentile(v, 50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("p50 of 1..100 = %v, want 50.5", got)
	}
	if got := percentile(v, 90); math.Abs(got-90.5) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.5", got)
	}
	// Two clusters split exactly at the median: the estimate is the same
	// for any number of whole rounds, which a single order statistic is
	// not.
	for _, rounds := range []int{1, 3, 7} {
		var c []float64
		for i := 0; i < 3*rounds; i++ {
			c = append(c, 10)
		}
		for i := 0; i < 3*rounds; i++ {
			c = append(c, 40)
		}
		if got := percentile(c, 50); math.Abs(got-25) > 1e-9 {
			t.Errorf("%d rounds: p50 of two equal clusters = %v, want 25", rounds, got)
		}
	}
	if got := percentile([]float64{7}, 90); math.Abs(got-7) > 1e-9 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
}

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Parent: 0, Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Start: ms(20), End: ms(50)},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: ms(90), End: ms(120)}, // clipped to the parent's end
		{ID: 5, Parent: 3, Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestSpanRecorderNilIsANoOp(t *testing.T) {
	var r *spanRecorder
	sp := r.start(1, 0, "op")
	sp.arg("k", 1)
	if sp.id() != 0 || sp.end() != 0 || r.add(1, 0, "x", time.Now(), time.Now()) != 0 || r.snapshot() != nil {
		t.Error("a nil recorder recorded something")
	}
	rec := newSpanRecorder()
	root := rec.start(1, 0, "op")
	child := rec.start(1, root.id(), "exec")
	child.end()
	root.end()
	got := rec.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Name != "exec" || got[0].dur() < got[1].dur() {
		t.Errorf("unexpected spans: %+v", got)
	}
}

var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameGrammar.MatchString(name) {
			t.Errorf("%s name %q is outside the name grammar", kind, name)
		}
		if unit != "" && !unitGrammar.MatchString(unit) {
			t.Errorf("%s %s: unit %q is outside the unit grammar", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.Name, "")
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the code %q / %q", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		check("end-to-end", d.Name, d.Unit)
		m := bf.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json says %v, the code %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is not an end-to-end metric")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		check("per-layer", d.Name, d.Unit)
		m := bf.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json says %v, the code %v", i, m, d)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("per-layer %s: better is %q", d.Name, d.Better)
		}
	}
	check("end-to-end", failShare, "ratio")
}

// sampleResult builds a one-workload result whose end-to-end metrics all
// have the given value.
func sampleResult(v float64) *resultFile {
	w := &workloadResult{Name: "batch_copy", EndToEnd: map[string]metricValue{failShare: single(0, "ratio")}}
	for _, d := range endToEnd {
		w.EndToEnd[d.Name] = single(v, d.Unit)
	}
	return &resultFile{Workloads: map[string]*workloadResult{w.Name: w}}
}

func TestAgreeChecksBoundsBothWays(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if !agree(&out, sampleResult(100), sampleResult(101), bf) {
		t.Errorf("a 1%% difference is out of bound:\n%s", out.String())
	}
	for _, b := range []float64{140, 60} {
		out.Reset()
		if agree(&out, sampleResult(100), sampleResult(b), bf) || !strings.Contains(out.String(), "OUT OF BOUND") {
			t.Errorf("100 against %v agrees:\n%s", b, out.String())
		}
	}
	failing := sampleResult(100)
	failing.Workloads["batch_copy"].EndToEnd[failShare] = single(0.01, "ratio")
	if agree(&out, sampleResult(100), failing, bf) {
		t.Error("a result with failed ops agrees")
	}
}

func TestDriverLineCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	w := sampleResult(3.25).Workloads["batch_copy"]
	w.Attempted, w.Failed = 10, 0
	w.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		w.PerLayer[d.Name] = single(1.5, d.Unit)
	}
	for _, trace := range []bool{false, true} {
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(driverLine(w, trace)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if line.Correct == nil || !*line.Correct || *line.Attempted != 10 || *line.Failed != 0 || len(line.Metrics) != len(defs) {
			t.Fatalf("trace=%v: unexpected line %+v", trace, line)
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or wrong: %+v", trace, d.Name, m)
			}
		}
	}
	w.Failures = []string{"x"}
	if !strings.Contains(driverLine(w, false), `"correct":false`) {
		t.Error("a run with failures reports correct")
	}
}

func TestEndToEndMetricsCountFailuresAsMissing(t *testing.T) {
	ok := func(ms int) *opResult {
		d := time.Duration(ms) * time.Millisecond
		return &opResult{Wall: d, TTFF: d / 2, Frames: 100}
	}
	results := []*opResult{ok(10), ok(20), ok(30), {Err: "shed", Wall: time.Hour}}
	m := endToEndMetrics(results, 2, 0.5, []float64{1, 3, 2})
	if got := m[failShare].Value; got != 0.25 {
		t.Errorf("fail_share = %v, want 0.25", got)
	}
	if got := m["wall_p50_ms"]; got.N != 3 || math.Abs(got.Value-20) > 1e-9 {
		t.Errorf("wall_p50_ms = %+v, want 20 over 3 samples", got)
	}
	if got := m["ttff_p50_ms"].Value; math.Abs(got-10) > 1e-9 {
		t.Errorf("ttff_p50_ms = %v, want 10", got)
	}
	if got := m["frames_per_s"].Value; got != 150 {
		t.Errorf("frames_per_s = %v, want 150", got)
	}
	if got := m["cpu_s_per_kframe"].Value; math.Abs(got-0.5/0.3) > 1e-12 {
		t.Errorf("cpu_s_per_kframe = %v, want %v", got, 0.5/0.3)
	}
	if got := m["setup_s"].Value; got != 2 {
		t.Errorf("setup_s = %v, want the median 2", got)
	}
}
