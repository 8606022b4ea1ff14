package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"v2v/internal/admit"
	"v2v/internal/container"
	"v2v/internal/dataset"
	"v2v/internal/faults"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// genSource writes a 3 s tiny-profile source (72 frames, GOP 24) into dir.
func genSource(t *testing.T, dir string) string {
	t.Helper()
	vid := filepath.Join(dir, "cam.vmf")
	if _, err := dataset.Generate(vid, "", dataset.TinyProfile(), rational.FromInt(3)); err != nil {
		t.Fatal(err)
	}
	return vid
}

// startServer serves New(cfg) on a test listener.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// testServer serves a one-second copy spec, both by POST and as
// demo.v2v in the spec directory, with the caches off.
func testServer(t *testing.T) (*httptest.Server, string, string) {
	t.Helper()
	dir := t.TempDir()
	vid := genSource(t, dir)
	specText := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { cam: %q; }
		render(t) = cam[t + 1];`, vid)
	if err := os.WriteFile(filepath.Join(dir, "demo.v2v"), []byte(specText), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{SpecDir: dir, Parallel: 2, GOPCacheMB: -1, ResultCacheMB: -1})
	return ts, specText, "demo.v2v"
}

func readStream(t *testing.T, body io.Reader) []uint32 {
	t.Helper()
	sr, err := media.NewStreamReader(body)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	for {
		fr, err := sr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if id, ok := frame.ReadStamp(fr); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestPostSpecStreams posts the spec in both formats, text and JSON.
func TestPostSpecStreams(t *testing.T) {
	ts, specText, _ := testServer(t)
	spec, err := vql.Parse(specText)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := vql.MarshalSpecJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{specText, string(specJSON)} {
		resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("status = %s", resp.Status)
		}
		ids := readStream(t, resp.Body)
		resp.Body.Close()
		if len(ids) != 24 {
			t.Fatalf("frames = %d", len(ids))
		}
		for i, id := range ids {
			if id != uint32(24+i) {
				t.Fatalf("frame %d stamp = %d", i, id)
			}
		}
	}
}

// TestOversizedBodyRejected posts a valid spec padded past the 1 MiB body
// limit by one byte: it must be refused whole, not parsed truncated.
func TestOversizedBodyRejected(t *testing.T) {
	ts, specText, _ := testServer(t)
	body := specText + strings.Repeat(" ", maxSpecBytes+1-len(specText))
	resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %s, want 413", resp.Status)
	}
	errored := getFlight(t, ts.URL+"/debug/requests?errored=1")
	if len(errored.Requests) != 1 || !strings.Contains(errored.Requests[0].Error, "too large") {
		t.Errorf("errored records = %+v, want one naming the body limit", errored.Requests)
	}
}

func TestGetSpecByName(t *testing.T) {
	ts, _, name := testServer(t)
	resp, err := http.Get(ts.URL + "/synthesize?spec=" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if got := len(readStream(t, resp.Body)); got != 24 {
		t.Fatalf("frames = %d", got)
	}
}

// TestBadRequests checks each malformed request's status, and that no
// response names the server's spec directory.
func TestBadRequests(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "sub.v2v"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{SpecDir: dir, Parallel: 1, GOPCacheMB: -1, ResultCacheMB: -1})
	cases := []struct {
		method, url, body string
		status            int
	}{
		{"GET", "/synthesize", "", http.StatusBadRequest},                       // missing spec
		{"GET", "/synthesize?spec=../etc/passwd", "", http.StatusBadRequest},    // traversal
		{"GET", "/synthesize?spec=nope.v2v", "", http.StatusNotFound},           // missing file
		{"GET", "/synthesize?spec=sub.v2v", "", http.StatusInternalServerError}, // unreadable: a directory
		{"POST", "/synthesize", "not a spec", http.StatusBadRequest},            // parse error
		{"POST", "/synthesize", "{not json", http.StatusBadRequest},             // JSON parse error
		{"POST", "/synthesize", "", http.StatusBadRequest},                      // empty
		{"PUT", "/synthesize", "", http.StatusMethodNotAllowed},                 // bad method
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.url, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d", c.method, c.url, resp.StatusCode, c.status)
		}
		if strings.Contains(string(body), dir) {
			t.Errorf("%s %s: body %q names the spec directory", c.method, c.url, body)
		}
	}
	if got := getFlight(t, ts.URL+"/debug/requests?errored=1"); strings.Contains(fmt.Sprint(got), dir) {
		t.Errorf("flight records name the spec directory: %+v", got)
	}
}

func TestValidSpecName(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"demo.v2v", true},
		{"sub/dir/demo.v2v", true},
		{"a..b.v2v", true}, // dots inside a component are fine
		{"", false},
		{"..", false},
		{"../etc/passwd", false},
		{"sub/../../etc/passwd", false},
		{"/etc/passwd", false},
		{`..\etc\passwd`, false},
		{"./", false},
	}
	for _, c := range cases {
		if got := validSpecName(c.name); got != c.want {
			t.Errorf("validSpecName(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts, specText, _ := testServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %s %q", resp.Status, body)
	}

	// The registry is process-wide, so compare against a scrape taken
	// before one successful synthesis and one 4xx.
	counted := []string{
		`v2v_http_errors_total{class="4xx"}`,
		"v2v_synthesis_total",
		"v2v_synthesis_wall_seconds_count",
		"v2v_stream_ttff_seconds_count",
	}
	before := map[string]float64{}
	for _, name := range counted {
		before[name] = metricValue(t, ts, name)
	}
	resp, err = http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/synthesize?spec=../escape")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal spec status = %s", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	exposition, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"v2v_http_requests_total ", "v2v_synthesis_wall_seconds_bucket{le="} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("metrics missing %q:\n%s", want, exposition)
		}
	}
	for _, name := range counted {
		if got := sampleValue(t, string(exposition), name); got != before[name]+1 {
			t.Errorf("%s = %g, want %g", name, got, before[name]+1)
		}
	}
}

func TestPprofMounted(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %s", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index looks wrong:\n%.200s", body)
	}
}

// holdGate is what servetest_hold waits on. The transform registry is
// process-wide, so the transform reads the gate of the test now running.
var holdGate atomic.Pointer[chan struct{}]

// registerHoldUDF registers servetest_hold: a pass-through transform that
// returns only once the current holdGate channel is closed, so a test
// decides when a render may make progress instead of racing it.
func registerHoldUDF() {
	if _, ok := vql.Lookup("servetest_hold"); ok {
		return
	}
	vql.Register(&vql.Transform{
		Name:   "servetest_hold",
		Params: []vql.Type{vql.TypeFrame},
		Result: vql.TypeFrame,
		Eval: func(_ vql.Alloc, args []vql.Val) (vql.Val, error) {
			select {
			case <-*holdGate.Load():
				return args[0], nil
			case <-time.After(10 * time.Second):
				return vql.Val{}, errors.New("servetest_hold: gate never opened")
			}
		},
	})
}

// TestClientDisconnectCancelsSynthesis drops the client mid-stream and
// asserts the server stops the synthesis cooperatively, counting it in
// v2v_synthesis_canceled_total rather than as a failure. The render is
// held until the server has seen the disconnect, so it cannot finish
// first: one worker, three output GOPs, and a context check at each GOP
// boundary after the gate opens.
func TestClientDisconnectCancelsSynthesis(t *testing.T) {
	registerHoldUDF()
	dir := t.TempDir()
	vid := genSource(t, dir)
	specText := fmt.Sprintf(`
		timedomain range(0, 3, 1/24);
		videos { cam: %q; }
		render(t) = servetest_hold(cam[t]);`, vid)

	srv, err := New(Config{SpecDir: dir, Parallel: 1, GOPCacheMB: -1, ResultCacheMB: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	handler := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The gate is this request's own cancellation.
		gate := make(chan struct{})
		holdGate.Store(&gate)
		go func() {
			<-r.Context().Done()
			close(gate)
		}()
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()

	canceledBefore, failBefore := synthCanceled.Value(), synthFail.Value()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/synthesize?stream=1", strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The stream header proves the synthesis is in flight; then hang up.
	if _, err := media.NewStreamReader(resp.Body); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for synthCanceled.Value() == canceledBefore {
		if time.Now().After(deadline) {
			t.Fatalf("synthCanceled +%d, synthFail +%d; server never counted the disconnect",
				synthCanceled.Value()-canceledBefore, synthFail.Value()-failBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := synthFail.Value() - failBefore; n != 0 {
		t.Errorf("client disconnect counted as failure (synthFail +%d)", n)
	}
}

// renderServer is testServer with a spec whose expression cannot be
// stream-copied, so the request actually decodes, filters, and encodes —
// the stage accounting the debug tests assert on. cfg supplies everything
// but the spec directory and parallelism.
func renderServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string, string) {
	t.Helper()
	dir := t.TempDir()
	vid := genSource(t, dir)
	specText := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { cam: %q; }
		render(t) = grade(cam[t], 5, 1.0, 1.0);`, vid)
	cfg.SpecDir, cfg.Parallel = dir, 2
	srv, ts := startServer(t, cfg)
	return srv, ts, specText, vid
}

// flightResponse mirrors the /debug/requests JSON shape the tests assert.
type flightResponse struct {
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
	Requests        []struct {
		ID         uint64  `json:"id"`
		TraceID    string  `json:"trace_id"`
		Query      string  `json:"query"`
		Plan       string  `json:"plan"`
		Active     bool    `json:"active"`
		Outcome    string  `json:"outcome"`
		Error      string  `json:"error"`
		ShedReason string  `json:"shed_reason"`
		Tenant     string  `json:"tenant"`
		CostUnits  float64 `json:"cost_units"`
		Segments   []struct {
			Kind          string `json:"kind"`
			WallNS        int64  `json:"wall_ns"`
			FramesEncoded int64  `json:"frames_encoded"`
			EncodeWallNS  int64  `json:"encode_wall_ns"`
			EncodeBytes   int64  `json:"encode_bytes"`
			DecodeWallNS  int64  `json:"decode_wall_ns"`
			DecodeBytes   int64  `json:"decode_bytes"`
		} `json:"segments"`
		Stages map[string]struct {
			Frames int64 `json:"frames"`
			Bytes  int64 `json:"bytes"`
			WallNS int64 `json:"wall_ns"`
		} `json:"stages"`
		GOPCacheHits   int64 `json:"gop_cache_hits"`
		GOPCacheMisses int64 `json:"gop_cache_misses"`
	} `json:"requests"`
}

func getFlight(t *testing.T, url string) flightResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status = %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("%s content type = %q", url, ct)
	}
	var fr flightResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestDebugRequestsRecordsSynthesis drives one request end to end and
// asserts the flight record carries the per-segment decisions, per-stage
// accounting, and the same trace ID the response header advertised.
func TestDebugRequestsRecordsSynthesis(t *testing.T) {
	_, ts, specText, _ := renderServer(t, Config{GOPCacheMB: -1, ResultCacheMB: -1})
	resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if traceID == "" {
		t.Fatal("no X-Trace-Id header on the synthesis response")
	}

	fr := getFlight(t, ts.URL+"/debug/requests")
	if len(fr.Requests) != 1 {
		t.Fatalf("requests = %d, want 1", len(fr.Requests))
	}
	rec := fr.Requests[0]
	if rec.TraceID != traceID {
		t.Errorf("record trace_id = %q, header = %q", rec.TraceID, traceID)
	}
	if rec.Outcome != "ok" || rec.Active {
		t.Errorf("outcome = %q active = %v", rec.Outcome, rec.Active)
	}
	if !strings.Contains(rec.Query, "render(t)") {
		t.Errorf("query text not recorded: %q", rec.Query)
	}
	if !strings.Contains(rec.Plan, "concat") {
		t.Errorf("plan summary not recorded: %q", rec.Plan)
	}
	if len(rec.Segments) == 0 {
		t.Fatal("no segment records")
	}
	seg := rec.Segments[0]
	if seg.Kind != "render" {
		t.Errorf("segment kind = %q", seg.Kind)
	}
	if seg.FramesEncoded == 0 || seg.EncodeWallNS == 0 || seg.EncodeBytes == 0 {
		t.Errorf("segment stage accounting empty: %+v", seg)
	}
	if st, ok := rec.Stages["encode"]; !ok || st.Frames == 0 || st.Bytes == 0 {
		t.Errorf("encode stage totals missing: %+v", rec.Stages)
	}
	if st, ok := rec.Stages["decode"]; !ok || st.Frames == 0 {
		t.Errorf("decode stage totals missing: %+v", rec.Stages)
	}

	// The span trace is exported under the same ID, with the parse inside
	// it.
	resp, err = http.Get(ts.URL + "/debug/requests?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	traceJSON, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace export status = %s", resp.Status)
	}
	for _, want := range []string{"traceEvents", traceID, "synthesize", `"parse"`} {
		if !strings.Contains(string(traceJSON), want) {
			t.Errorf("trace export missing %q", want)
		}
	}

	// What the repository benchmark reads from a served request: the
	// record's walls and work, and one X event per front-end stage and for
	// the execution, with the optimizer's and rewriter's counts as numeric
	// args. A renamed event or key would make it read zeros.
	var dump struct {
		Requests []obs.RequestRecord `json:"requests"`
	}
	resp, err = http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil || len(dump.Requests) != 1 {
		t.Fatalf("decode records: %v (%d records)", err, len(dump.Requests))
	}
	full := dump.Requests[0]
	if full.Wall <= 0 || full.QueuedWall <= 0 {
		t.Errorf("wall_ns = %v, queued_wall_ns = %v", full.Wall, full.QueuedWall)
	}
	for _, stage := range []string{"decode", "filter", "encode"} {
		if full.Stages[stage].Wall <= 0 {
			t.Errorf("stages.%s.wall_ns = %v", stage, full.Stages[stage].Wall)
		}
	}
	if _, ok := full.Stages["copy"]; !ok {
		t.Error("stages.copy missing")
	}
	for i, s := range full.Segments {
		if s.FramesDecoded <= 0 {
			t.Errorf("segments[%d].frames_decoded = %d", i, s.FramesDecoded)
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON, &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	events := map[string]int{}
	args := map[string]map[string]any{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" {
			events[e.Name]++
			args[e.Name] = e.Args
		}
	}
	for _, name := range []string{"check", "rewrite", "plan", "optimize", "execute"} {
		if events[name] != 1 {
			t.Errorf("%d %q X events, want 1", events[name], name)
		}
	}
	for _, k := range []string{"copies", "smart_cuts", "sharded_segments"} {
		if _, ok := args["optimize"][k].(float64); !ok {
			t.Errorf("optimize arg %s = %v, want a number", k, args["optimize"][k])
		}
	}
	for k, v := range args["rewrite"] {
		if _, ok := v.(float64); strings.HasPrefix(k, "applied.") && !ok {
			t.Errorf("rewrite arg %s = %v, want a number", k, v)
		}
	}

	// HTML rendering works and mentions the trace ID.
	resp, err = http.Get(ts.URL + "/debug/requests?format=html")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "<table") || !strings.Contains(string(page), traceID) {
		t.Errorf("html view missing table or trace id:\n%.300s", page)
	}
}

// TestDebugRequestsAccountsWallTime renders 20 requests and checks each
// record's time attribution: the handler's six parts, run one after
// another, and a residual that is the record's wall minus their sum. The
// median residual must stay under 5 % of wall: the parts cover the
// request.
func TestDebugRequestsAccountsWallTime(t *testing.T) {
	_, ts, specText, _ := renderServer(t, Config{GOPCacheMB: -1, ResultCacheMB: -1})
	const n = 20
	for range n {
		resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var dump struct {
		Requests []obs.RequestRecord `json:"requests"`
	}
	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil || len(dump.Requests) != n {
		t.Fatalf("decode records: %v (%d records, want %d)", err, len(dump.Requests), n)
	}
	shares := make([]float64, 0, n)
	for _, rec := range dump.Requests {
		if rec.Outcome != "ok" {
			t.Fatalf("request %s: outcome %q", rec.TraceID, rec.Outcome)
		}
		var sum time.Duration
		for _, name := range []string{"read", "parse", "frontend", "admission", "execute", "drain"} {
			if _, ok := rec.Parts[name]; !ok {
				t.Errorf("request %s: no %s part in %v", rec.TraceID, name, rec.Parts)
			}
		}
		for _, d := range rec.Parts {
			sum += d
		}
		if diff := rec.Residual - (rec.Wall - sum); diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("request %s: residual %v, wall %v minus parts %v = %v", rec.TraceID, rec.Residual, rec.Wall, sum, rec.Wall-sum)
		}
		shares = append(shares, float64(rec.Residual)/float64(rec.Wall))
	}
	sort.Float64s(shares)
	t.Logf("residual / wall: median %.4f, max %.4f", shares[n/2], shares[n-1])
	if median := shares[n/2]; median > 0.05 {
		t.Errorf("median residual is %.3f of wall, want at most 0.05 (shares %v)", median, shares)
	}
}

// TestDebugRequestsFilters exercises the errored= and slow= filters.
func TestDebugRequestsFilters(t *testing.T) {
	ts, specText, _ := testServer(t)

	// One parse failure, one success.
	resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader("not a spec"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if all := getFlight(t, ts.URL+"/debug/requests"); len(all.Requests) != 2 {
		t.Fatalf("unfiltered requests = %d, want 2", len(all.Requests))
	}
	errored := getFlight(t, ts.URL+"/debug/requests?errored=1")
	if len(errored.Requests) != 1 || errored.Requests[0].Outcome != "error" {
		t.Fatalf("errored filter = %+v", errored.Requests)
	}
	if errored.Requests[0].Error == "" {
		t.Error("errored record has no error text")
	}

	// With no slow threshold configured the slow filter matches nothing.
	if slow := getFlight(t, ts.URL+"/debug/requests?slow=1"); len(slow.Requests) != 0 {
		t.Errorf("slow filter without threshold = %d records", len(slow.Requests))
	}
}

// TestFailedRequestRecordsItsWork serves, strictly and with the GOP cache
// on, a spec over a source whose second GOP is corrupt: the request fills
// the first GOP and then fails mid-stream. Its flight record must still
// show the work it did — the decodes and the cache lookups — since both
// come from the request's recorder, whatever the outcome.
func TestFailedRequestRecordsItsWork(t *testing.T) {
	dir := t.TempDir()
	vid := genSource(t, dir)
	cr, err := container.Open(vid)
	if err != nil {
		t.Fatal(err)
	}
	second := cr.Record(24) // the second GOP's keyframe
	cr.Close()
	if err := faults.CorruptRange(vid, second.Offset+int64(second.Size)/2, 4, 7); err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{SpecDir: dir, Parallel: 1, Strict: true, GOPCacheMB: 64, ResultCacheMB: -1})
	specText := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { cam: %q; }
		render(t) = grade(cam[t], 5, 1.0, 1.0);`, vid)
	resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The handler finishes the record after the last byte is out.
	deadline := time.Now().Add(5 * time.Second)
	fr := getFlight(t, ts.URL+"/debug/requests?errored=1")
	for len(fr.Requests) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		fr = getFlight(t, ts.URL+"/debug/requests?errored=1")
	}
	if len(fr.Requests) != 1 || fr.Requests[0].Outcome != "error" {
		t.Fatalf("errored records = %+v, want the one failed request", fr.Requests)
	}
	r := fr.Requests[0]
	if r.GOPCacheMisses < 1 {
		t.Errorf("failed request records %d GOP-cache misses, want at least the first GOP's fill", r.GOPCacheMisses)
	}
	if r.Stages["decode"].Frames == 0 {
		t.Errorf("failed request records no decodes: stages %+v", r.Stages)
	}
}

// TestDebugRequestsSlowThreshold runs a server with a 1 ms slow threshold
// and a request held past it, so the request qualifies as slow.
func TestDebugRequestsSlowThreshold(t *testing.T) {
	registerHoldUDF()
	dir := t.TempDir()
	vid := genSource(t, dir)
	specText := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { cam: %q; }
		render(t) = servetest_hold(cam[t]);`, vid)
	_, ts := startServer(t, Config{SpecDir: dir, Parallel: 1, SlowQueryMS: 1, GOPCacheMB: -1, ResultCacheMB: -1})
	gate := make(chan struct{})
	holdGate.Store(&gate)
	time.AfterFunc(5*time.Millisecond, func() { close(gate) })

	resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	fr := getFlight(t, ts.URL+"/debug/requests?slow=1")
	if len(fr.Requests) != 1 {
		t.Fatalf("slow requests = %d, want 1", len(fr.Requests))
	}
	if fr.SlowThresholdNS != int64(time.Millisecond) {
		t.Errorf("slow_threshold_ns = %d", fr.SlowThresholdNS)
	}
}

// TestDebugCaches builds a server caching every kind, runs two syntheses
// over one annotation file, and asserts the cache dump reports stats,
// resident entries, and the budget split.
func TestDebugCaches(t *testing.T) {
	_, ts, _, vid := renderServer(t, Config{GOPCacheMB: 64, ResultCacheMB: 64})
	ann := filepath.Join(filepath.Dir(vid), "cam.boxes.json")
	var rows []string
	for i := range 24 {
		rows = append(rows, fmt.Sprintf(`{"t":[%d,24],"value":[{"x":%d,"y":2,"w":8,"h":8,"class":"cat"}]}`, i, i))
	}
	annJSON := []byte("[" + strings.Join(rows, ",") + "]")
	if err := os.WriteFile(ann, annJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	specText := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { cam: %q; }
		data { bb: %q; }
		render(t) = boxes(grade(cam[t], 5, 1.0, 1.0), bb[t]);`, vid, ann)

	for range 2 {
		resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/debug/caches")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The sections and their fields are what bench/ and the docs read:
	// the data section is added beside them, and they keep their shape.
	var shape map[string]map[string]json.RawMessage
	if err := json.Unmarshal(body, &shape); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	for section, want := range map[string]string{
		"gop": "entries stats", "result": "entries stats", "data": "entries stats",
		"arbiter": "client denied pressure_factor total used",
	} {
		if got := keys(shape[section]); got != want {
			t.Errorf("section %q has fields %q, want %q", section, got, want)
		}
	}
	if len(shape) != 4 {
		t.Errorf("sections = %d, want gop, result, data and arbiter", len(shape))
	}
	var dump struct {
		GOP *struct {
			Stats struct {
				Misses int64 `json:"misses"`
				Bytes  int64 `json:"bytes"`
			} `json:"stats"`
			Entries []struct {
				Key    string `json:"key"`
				Frames int    `json:"frames"`
				Bytes  int64  `json:"bytes"`
			} `json:"entries"`
		} `json:"gop"`
		Result *struct {
			Stats   map[string]any `json:"stats"`
			Entries []any          `json:"entries"`
		} `json:"result"`
		Data *struct {
			Stats   media.CacheStats   `json:"stats"`
			Entries []media.CacheEntry `json:"entries"`
		} `json:"data"`
		Arbiter *struct {
			Total  int64            `json:"total"`
			Used   int64            `json:"used"`
			Client map[string]int64 `json:"client"`
		} `json:"arbiter"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.GOP == nil || dump.Result == nil || dump.Data == nil || dump.Arbiter == nil {
		t.Fatalf("missing sections: gop=%v result=%v data=%v arbiter=%v",
			dump.GOP != nil, dump.Result != nil, dump.Data != nil, dump.Arbiter != nil)
	}
	for _, name := range []string{"hits", "misses", "evictions", "entries", "bytes", "budget"} {
		if _, ok := dump.Result.Stats[name]; !ok {
			t.Errorf("result stats lack %q: %v", name, dump.Result.Stats)
		}
	}
	// Two requests over one annotation file parse it once, and its entry
	// is keyed by the file's content hash.
	sum := sha256.Sum256(annJSON)
	if st := dump.Data.Stats; st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("data stats = %+v, want one miss, one hit, one entry", st)
	}
	if len(dump.Data.Entries) != 1 || dump.Data.Entries[0].Key != hex.EncodeToString(sum[:]) || dump.Data.Entries[0].Bytes <= 0 {
		t.Errorf("data entries = %+v, want one keyed %x with its bytes", dump.Data.Entries, sum)
	}
	if dump.GOP.Stats.Misses == 0 || len(dump.GOP.Entries) == 0 {
		t.Fatalf("gop cache saw no fills: stats=%+v entries=%d", dump.GOP.Stats, len(dump.GOP.Entries))
	}
	src, err := container.Open(vid)
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	if dump.GOP.Entries[0].Key != src.ContentID() || dump.GOP.Entries[0].Frames == 0 {
		t.Errorf("gop entry = %+v, want the source's content ID %s as key", dump.GOP.Entries[0], src.ContentID())
	}
	if dump.Arbiter.Used == 0 || dump.Arbiter.Client["gop"] == 0 {
		t.Errorf("budget split = %+v", dump.Arbiter)
	}
	if want := int64(128 << 20); dump.Arbiter.Total != want {
		t.Errorf("budget total = %d, want the %d sum of the shares", dump.Arbiter.Total, want)
	}

	// A cache-less server omits the sections instead of panicking.
	_, bts := startServer(t, Config{SpecDir: t.TempDir(), GOPCacheMB: -1, ResultCacheMB: -1})
	resp, err = http.Get(bts.URL + "/debug/caches")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "gop") || strings.Contains(string(body), "data") || strings.Contains(string(body), "arbiter") {
		t.Errorf("bare server dump should omit cache sections: %s", body)
	}
}

// admissionServer is testServer with admission configured by cfg,
// returning the server so tests can reach the admission controller.
func admissionServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	vid := genSource(t, dir)
	specText := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { cam: %q; }
		render(t) = cam[t + 1];`, vid)
	cfg.SpecDir, cfg.GOPCacheMB, cfg.ResultCacheMB = dir, -1, -1
	srv, ts := startServer(t, cfg)
	return srv, ts, specText
}

func TestPressureShedReturns503WithRetryAfter(t *testing.T) {
	srv, ts, specText := admissionServer(t, Config{})
	// Critical memory pressure with factor 0 closes admission entirely.
	srv.admit.SetPressureFactor(0)
	resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %s, want 503; body %q", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}

	// The shed request is queryable at /debug/requests?shed=1, with its
	// tenant, cost estimate, and shed reason recorded.
	dump := getFlight(t, ts.URL+"/debug/requests?shed=1")
	if len(dump.Requests) != 1 {
		t.Fatalf("shed filter returned %d records, want 1", len(dump.Requests))
	}
	rec := dump.Requests[0]
	if rec.Outcome != "shed" || rec.ShedReason != "pressure" {
		t.Errorf("shed record outcome=%q reason=%q", rec.Outcome, rec.ShedReason)
	}
	if rec.Tenant != "default" || rec.CostUnits <= 0 {
		t.Errorf("shed record tenant=%q cost=%v; want default tenant with a positive cost estimate", rec.Tenant, rec.CostUnits)
	}

	// Pressure clears: the same request is admitted and completes.
	srv.admit.SetPressureFactor(1)
	resp2, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status after recovery = %s, want 200", resp2.Status)
	}
	if got := len(readStream(t, resp2.Body)); got != 24 {
		t.Fatalf("frames after recovery = %d", got)
	}
}

// TestMonitorDrivesPressure steps an injected monitor to critical and
// back: admission and the cache budget follow its factor, and /debug/admit
// reports the monitor's level. The cache shares are small enough that one
// warm request fills more than a quarter of the budget, so critical
// pressure must evict; requests served at critical and after recovery
// end with a clean trailer.
func TestMonitorDrivesPressure(t *testing.T) {
	var used atomic.Uint64
	mon := admit.NewMonitor(time.Hour)
	mon.SetSampler(func() admit.MemSample { return admit.MemSample{Used: used.Load(), Limit: 100} })
	dir := t.TempDir()
	vid := genSource(t, dir)
	// Two seconds of a rendered source: two decoded GOPs of 540 KiB each
	// plus the encoded result, in a 2 MiB budget.
	specText := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { cam: %q; }
		render(t) = grade(cam[t], 5, 1.0, 1.0);`, vid)
	srv, ts := startServer(t, Config{SpecDir: dir, GOPCacheMB: 1, ResultCacheMB: 1, Monitor: mon})

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	budget := func() media.BudgetStats {
		t.Helper()
		var dump struct {
			Budget media.BudgetStats `json:"arbiter"`
		}
		getJSON("/debug/caches", &dump)
		return dump.Budget
	}
	synthesize := func(when string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status = %s, want 200; body %q", when, resp.Status, body)
		}
		sr, err := media.NewStreamReader(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for err == nil {
			_, _, err = sr.NextPacket()
		}
		if tr, ok := sr.Trailer(); !errors.Is(err, io.EOF) || !ok || tr.Status != "ok" {
			t.Fatalf("%s: stream ended with %v, trailer %+v (present %v); want a clean trailer", when, err, tr, ok)
		}
	}

	synthesize("warm request")
	pre := budget()
	if pre.Used <= pre.Total/4 {
		t.Fatalf("warm request left %d of %d cache bytes resident; the test needs more than a quarter", pre.Used, pre.Total)
	}

	var dump struct {
		Admission admit.Stats `json:"admission"`
		Pressure  *struct {
			Level string `json:"level"`
		} `json:"pressure"`
		Arbiter *struct {
			PressureFactor float64 `json:"pressure_factor"`
		} `json:"arbiter"`
	}
	for _, step := range []struct {
		used   uint64
		level  string
		factor float64
	}{{99, "critical", 0.25}, {0, "none", 1}} {
		used.Store(step.used)
		mon.Poll()
		getJSON("/debug/admit", &dump)
		if dump.Pressure == nil || dump.Pressure.Level != step.level {
			t.Errorf("used %d: pressure section = %+v, want level %s", step.used, dump.Pressure, step.level)
		}
		if dump.Admission.PressureFactor != step.factor || dump.Arbiter == nil || dump.Arbiter.PressureFactor != step.factor {
			t.Errorf("used %d: admission factor %v, cache budget %+v; want %v", step.used, dump.Admission.PressureFactor, dump.Arbiter, step.factor)
		}
		if step.level == "critical" {
			if st := budget(); st.Used > st.Total || st.Used >= pre.Used {
				t.Errorf("at critical: %d cache bytes resident of a %d budget, %d before; want within the budget and below before", st.Used, st.Total, pre.Used)
			}
			synthesize("request at critical")
		}
	}
	if got := srv.admit.Stats().PressureFactor; got != 1 {
		t.Errorf("controller factor after recovery = %v", got)
	}
	synthesize("repeat request after recovery")
}

func TestQueueFullShedsWith429(t *testing.T) {
	// Two slots (twice Parallel), one queue seat: two held slots plus one
	// queued request make the next arrival overflow.
	srv, ts, specText := admissionServer(t, Config{Parallel: 1, MaxQueue: 1, AdmitTimeout: 30 * time.Second})
	var holders []*admit.Ticket
	for i := 0; i < 2; i++ {
		tk, err := srv.admit.Acquire(context.Background(), admit.Request{Cost: 1})
		if err != nil {
			t.Fatal(err)
		}
		holders = append(holders, tk)
	}

	queued := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
		if err != nil {
			queued <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			queued <- fmt.Errorf("queued request status = %s, want 200", resp.Status)
			return
		}
		queued <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.admit.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %s, want 429; body %q", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}

	// Releasing the held slots lets the queued request run to completion.
	for _, tk := range holders {
		tk.Release(nil)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
}

func TestDebugAdmitEndpoint(t *testing.T) {
	srv, ts, specText := admissionServer(t, Config{})
	req, _ := http.NewRequest("POST", ts.URL+"/synthesize", strings.NewReader(specText))
	req.Header.Set("X-Tenant", "gold")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesis status = %s", resp.Status)
	}

	dresp, err := http.Get(ts.URL + "/debug/admit")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var dump struct {
		Admission admit.Stats     `json:"admission"`
		Pressure  json.RawMessage `json:"pressure"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Admission.MaxQueue <= 0 || dump.Admission.SlotCap <= 0 {
		t.Errorf("admission config not populated: %+v", dump.Admission)
	}
	if dump.Pressure != nil {
		t.Errorf("pressure section without a monitor: %s", dump.Pressure)
	}
	gold, ok := dump.Admission.Tenants["gold"]
	if !ok || gold.Admitted < 1 {
		t.Errorf("tenant gold not accounted: %+v", dump.Admission.Tenants)
	}
	if srv.admit.Stats().Inflight != 0 {
		t.Errorf("inflight = %d after request completed", srv.admit.Stats().Inflight)
	}
}

func TestInvalidDeadlineHeaderRejected(t *testing.T) {
	_, ts, specText := admissionServer(t, Config{})
	for _, bad := range []string{"abc", "-5", "0"} {
		req, _ := http.NewRequest("POST", ts.URL+"/synthesize", strings.NewReader(specText))
		req.Header.Set("X-Deadline-Ms", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("X-Deadline-Ms %q: status = %s, want 400", bad, resp.Status)
		}
	}

	// A generous deadline streams normally, surrounding spaces and all.
	req, _ := http.NewRequest("POST", ts.URL+"/synthesize", strings.NewReader(specText))
	req.Header.Set("X-Deadline-Ms", " 60000 ")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s, want 200", resp.Status)
	}
	if got := len(readStream(t, resp.Body)); got != 24 {
		t.Fatalf("frames = %d", got)
	}
}

func TestRequestTenant(t *testing.T) {
	for _, tc := range []struct {
		tenant, apiKey, want string
	}{
		{"", "", "default"},
		{"gold", "", "gold"},
		{"", "key123", "key123"},
		{"gold", "key123", "gold"},
		{"  ", "", "default"},
	} {
		r := httptest.NewRequest("POST", "/synthesize", nil)
		if tc.tenant != "" {
			r.Header.Set("X-Tenant", tc.tenant)
		}
		if tc.apiKey != "" {
			r.Header.Set("X-API-Key", tc.apiKey)
		}
		if got := requestTenant(r); got != tc.want {
			t.Errorf("requestTenant(X-Tenant=%q, X-API-Key=%q) = %q, want %q",
				tc.tenant, tc.apiKey, got, tc.want)
		}
	}
}

// streamingServer builds a server over a 3s source with a multi-segment
// splice spec (one copyable arm, one rendered arm).
func streamingServer(t *testing.T, bufKB int) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	vid := genSource(t, dir)
	specText := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { cam: %q; }
		render(t) = match t {
			t in range(0, 1, 1/24) => cam[t],
			t in range(1, 2, 1/24) => grade(cam[t], 5, 1.0, 1.0),
		};`, vid)
	_, ts := startServer(t, Config{SpecDir: dir, Parallel: 2, StreamBufferKB: bufKB, GOPCacheMB: -1, ResultCacheMB: -1})
	return ts, specText
}

// sampleValue returns the value of the named sample in a Prometheus text
// exposition.
func sampleValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parse %s sample %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// metricValue scrapes /metrics and returns the value of the named sample.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return sampleValue(t, string(body), name)
}

// waitMetric polls /metrics until the named sample reaches want. A handler
// records its histograms after the last byte is on the wire, so a client
// that has read the whole response can scrape before they move.
func waitMetric(t *testing.T, ts *httptest.Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := metricValue(t, ts, name)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %g, want %g", name, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flushRecorder is a ResponseWriter that records the body length at each
// Flush.
type flushRecorder struct {
	*httptest.ResponseRecorder
	marks []int
}

func (f *flushRecorder) Flush() {
	f.marks = append(f.marks, f.Body.Len())
	f.ResponseRecorder.Flush()
}

// deliver serves a POST of spec to target in-process and returns the body
// and the body length at each flush. The handler returns only once its
// delivery goroutine has, so both are complete.
func deliver(t *testing.T, ts *httptest.Server, target, spec string, header http.Header) ([]byte, []int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(spec))
	for k, v := range header {
		req.Header[k] = v
	}
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	ts.Config.Handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes(), rec.marks
}

// checkFlushedDelivery asserts body is streamingServer's 48-frame spec
// with a clean trailer, delivered by the flushes the executor's flush
// points ask for — after the header, whenever delivery has written every
// packet that has landed, after each of its two segments — and a last one
// after the trailer: at most one per packet besides the header's and the
// trailer's. Flush points that reach the flushing sink's drain together
// share one flush, which carries everything queued by then, so the count
// and the offsets between header and trailer depend on scheduling.
func checkFlushedDelivery(t *testing.T, body []byte, marks []int) {
	t.Helper()
	br := bytes.NewReader(body)
	sr, err := media.NewStreamReader(br)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{len(body) - br.Len()} // ends[k]: header and k packets
	for {
		if _, _, err := sr.NextPacket(); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		ends = append(ends, len(body)-br.Len())
	}
	if len(ends) != 49 {
		t.Fatalf("streamed frames = %d, want 48", len(ends)-1)
	}
	if tr, ok := sr.Trailer(); !ok || tr.Status != "ok" {
		t.Errorf("trailer = %+v,%v; want clean ok trailer", tr, ok)
	}
	if len(marks) == 0 || len(marks) > len(ends)+1 || marks[0] < ends[0] || marks[len(marks)-1] != len(body) {
		t.Fatalf("flushed at body offsets %v; want 1 to %d flushes (header, packets, trailer), "+
			"the first after the header's %d bytes, the last at the end, %d", marks, len(ends)+1, ends[0], len(body))
	}
	for i := 1; i < len(marks); i++ {
		if marks[i] < marks[i-1] {
			t.Fatalf("flush offsets %v go backwards", marks)
		}
	}
}

// TestStreamOptInDeliversIdenticalBytes asserts ?stream=1 changes
// nothing: every response streams, so a plain request and an opted-in one
// get the same bytes, flushed only at the flush points checkFlushedDelivery
// allows, and each records its TTFF.
func TestStreamOptInDeliversIdenticalBytes(t *testing.T) {
	ts, specText := streamingServer(t, 0)
	ttffBefore := metricValue(t, ts, "v2v_stream_ttff_seconds_count")
	truncBefore := truncated.Value()

	plain, plainMarks := deliver(t, ts, "/synthesize", specText, nil)
	streamed, marks := deliver(t, ts, "/synthesize?stream=1", specText, nil)
	if !bytes.Equal(plain, streamed) {
		t.Fatalf("?stream=1 bytes differ from a plain request's: %d vs %d", len(streamed), len(plain))
	}
	checkFlushedDelivery(t, plain, plainMarks)
	checkFlushedDelivery(t, streamed, marks)

	waitMetric(t, ts, "v2v_stream_ttff_seconds_count", ttffBefore+2)
	if n := truncated.Value() - truncBefore; n != 0 {
		t.Errorf("truncated streams +%d, want 0", n)
	}
}

// TestStreamAcceptHeaderOptsIn asserts the Accept header naming the stream
// media type, like ?stream=1, changes nothing.
func TestStreamAcceptHeaderOptsIn(t *testing.T) {
	ts, specText := streamingServer(t, 0)
	plain, plainMarks := deliver(t, ts, "/synthesize", specText, nil)
	accepted, marks := deliver(t, ts, "/synthesize", specText,
		http.Header{"Accept": {"application/x-v2v-stream"}})
	if !bytes.Equal(plain, accepted) {
		t.Fatalf("Accept request bytes differ from a plain request's: %d vs %d", len(accepted), len(plain))
	}
	checkFlushedDelivery(t, plain, plainMarks)
	checkFlushedDelivery(t, accepted, marks)
}

// TestStreamFailureWritesTypedTrailer injects a panicking transform into
// the second segment: the response starts (header out), then fails. The
// client must see the typed error trailer — not a silently cut stream —
// and the server counts the truncation.
func TestStreamFailureWritesTypedTrailer(t *testing.T) {
	registerServePanicUDF()
	ts, _ := streamingServer(t, 0)
	vid := genSource(t, t.TempDir())
	specText := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { cam: %q; }
		render(t) = match t {
			t in range(0, 1, 1/24) => grade(cam[t], 5, 1.0, 1.0),
			t in range(1, 2, 1/24) => servetest_panic(cam[t]),
		};`, vid)
	failBefore, canceledBefore, truncBefore := synthFail.Value(), synthCanceled.Value(), truncated.Value()

	for i, url := range []string{ts.URL + "/synthesize?stream=1", ts.URL + "/synthesize"} {
		resp, err := http.Post(url, "text/plain", strings.NewReader(specText))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := media.NewStreamReader(resp.Body)
		if err != nil {
			resp.Body.Close()
			t.Fatal(err)
		}
		var last error
		for {
			if _, _, last = sr.NextPacket(); last != nil {
				break
			}
		}
		resp.Body.Close()
		if !errors.Is(last, media.ErrStreamFailed) {
			t.Fatalf("request %d: stream ended with %v, want ErrStreamFailed", i, last)
		}
		if tr, ok := sr.Trailer(); !ok || tr.Status != "error" || tr.Error == "" {
			t.Errorf("request %d: trailer = %+v,%v; want typed error trailer", i, tr, ok)
		}
	}
	// The handlers count after their last byte is out, which the client
	// has already read; and a client that hangs up on reading the trailer
	// must not turn the failure into a cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for synthFail.Value()-failBefore+synthCanceled.Value()-canceledBefore < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := synthFail.Value() - failBefore; n != 2 {
		t.Errorf("synthesis failures +%d (canceled +%d), want 2", n, synthCanceled.Value()-canceledBefore)
	}
	if n := truncated.Value() - truncBefore; n != 2 {
		t.Errorf("truncated streams +%d, want 2", n)
	}
}

// TestStreamSlowClientDoesNotBlockOthers stalls a streaming client right
// after the stream header and, while it reads nothing, runs a second
// request of the same spec to completion: the stalled client's
// backpressure holds up only its own request. The render arm is held
// until the slow client has the header, so its first flush provably
// precedes the end of its synthesis — TTFF below wall — and the stream
// still arrives complete once the client resumes.
func TestStreamSlowClientDoesNotBlockOthers(t *testing.T) {
	registerHoldUDF()
	ts, _ := streamingServer(t, 4)
	vid := genSource(t, t.TempDir())
	specText := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { cam: %q; }
		render(t) = match t {
			t in range(0, 1, 1/24) => cam[t],
			t in range(1, 2, 1/24) => servetest_hold(cam[t]),
		};`, vid)
	gate := make(chan struct{})
	holdGate.Store(&gate)
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // never leave a render held if the test fails early
	client := &http.Client{Timeout: 30 * time.Second}
	wallCount := metricValue(t, ts, "v2v_synthesis_wall_seconds_count")
	ttffCount := metricValue(t, ts, "v2v_stream_ttff_seconds_count")
	wallSum := metricValue(t, ts, "v2v_synthesis_wall_seconds_sum")
	ttffSum := metricValue(t, ts, "v2v_stream_ttff_seconds_sum")
	truncBefore := truncated.Value()

	type done struct {
		frames int
		err    error
	}
	headerRead := make(chan struct{})
	fastDone := make(chan struct{})
	slowCh := make(chan done, 1)
	go func() {
		frames, err := func() (int, error) {
			resp, err := client.Post(ts.URL+"/synthesize?stream=1", "text/plain", strings.NewReader(specText))
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			sr, err := media.NewStreamReader(resp.Body)
			if err != nil {
				return 0, err
			}
			close(headerRead)
			<-fastDone // read nothing while the other request runs
			for frames := 0; ; frames++ {
				if _, err := sr.NextFrame(); err == io.EOF {
					return frames, nil
				} else if err != nil {
					return frames, err
				}
			}
		}()
		slowCh <- done{frames, err}
	}()

	select {
	case <-headerRead:
	case d := <-slowCh:
		t.Fatalf("slow client failed before the stream header: %v", d.err)
	}
	openGate()
	resp, err := client.Post(ts.URL+"/synthesize", "text/plain", strings.NewReader(specText))
	if err != nil {
		t.Fatalf("concurrent request while a client is stalled: %v", err)
	}
	got := len(readStream(t, resp.Body))
	resp.Body.Close()
	if got != 48 {
		t.Fatalf("concurrent request frames = %d, want 48", got)
	}
	close(fastDone)

	slow := <-slowCh
	if slow.err != nil {
		t.Fatal(slow.err)
	}
	if slow.frames != 48 {
		t.Fatalf("slow client frames = %d, want 48", slow.frames)
	}

	// Honest TTFF: each request's first flush (for the slow one, the
	// header the client read before any held frame could render) came
	// before its synthesis ended.
	waitMetric(t, ts, "v2v_synthesis_wall_seconds_count", wallCount+2)
	waitMetric(t, ts, "v2v_stream_ttff_seconds_count", ttffCount+2)
	ttff := metricValue(t, ts, "v2v_stream_ttff_seconds_sum") - ttffSum
	wall := metricValue(t, ts, "v2v_synthesis_wall_seconds_sum") - wallSum
	if ttff <= 0 || ttff >= wall {
		t.Errorf("ttff sum = %gs vs wall sum = %gs; TTFF should be below wall", ttff, wall)
	}
	if n := truncated.Value() - truncBefore; n != 0 {
		t.Errorf("truncated streams +%d, want 0", n)
	}
}

// registerServePanicUDF registers a panicking transform for the
// mid-stream failure tests, skipping re-registration across -count runs.
func registerServePanicUDF() {
	if _, ok := vql.Lookup("servetest_panic"); ok {
		return
	}
	vql.Register(&vql.Transform{
		Name:   "servetest_panic",
		Params: []vql.Type{vql.TypeFrame},
		Result: vql.TypeFrame,
		Eval: func(vql.Alloc, []vql.Val) (vql.Val, error) {
			panic("boom")
		},
	})
}
