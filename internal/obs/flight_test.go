package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func TestRecorderStageObserve(t *testing.T) {
	r := NewRecorder()
	r.StageObserve(StageDecode, 3, 300, 30*time.Millisecond)
	r.StageObserve(StageDecode, 2, 200, 20*time.Millisecond)
	r.StageObserve(StageEncode, 1, 100, 10*time.Millisecond)

	dec := r.Stage(StageDecode)
	if dec.Frames != 5 || dec.Bytes != 500 || dec.Wall != 50*time.Millisecond {
		t.Errorf("decode stats = %+v", dec)
	}
	st := r.Stages()
	if st["encode"].Frames != 1 || st["filter"].Frames != 0 {
		t.Errorf("stages = %+v", st)
	}

	// Nil recorders and out-of-range stages must not panic.
	var nilRec *Recorder
	nilRec.StageObserve(StageEncode, 1, 1, time.Millisecond)
	if got := nilRec.Stage(StageEncode); got.Frames != 0 {
		t.Errorf("nil recorder stage = %+v", got)
	}
	r.StageObserve(Stage(99), 1, 1, time.Millisecond)
	r.StageObserve(Stage(-1), 1, 1, time.Millisecond)
}

// TestRecorderEvents checks that event counts reach every ancestor of the
// recorder that saw them, that concealments also feed the process-wide
// counter, and that Work leaves the materialized boundaries' encodes out
// of the output encodes.
func TestRecorderEvents(t *testing.T) {
	root := NewRecorder()
	seg := root.Child("segment")
	shard := seg.Track("shard")
	concealed := eventTotals[EventConcealed].Value()
	shard.Inc(EventConcealed)
	shard.Inc(EventMaterialized)
	shard.StageObserve(StageDecode, 5, 500, time.Millisecond)
	shard.StageObserve(StageEncode, 3, 30, time.Millisecond)
	seg.Inc(EventResultMiss)
	root.Inc(EventGOPHit)

	w := root.Work()
	if w.Concealed != 1 || w.Materialized != 1 || w.ResultCacheMisses != 1 || w.GOPCacheHits != 1 || w.GOPCacheMisses != 0 {
		t.Errorf("root work = %+v", w)
	}
	if w.FramesDecoded != 5 || w.FramesEncoded != 2 || w.DecodeBytes != 500 || w.EncodeBytes != 30 {
		t.Errorf("root work = %+v, want 5 decodes and 2 output encodes", w)
	}
	if got := seg.Work(); got.Concealed != 1 || got.ResultCacheMisses != 1 || got.GOPCacheHits != 0 {
		t.Errorf("segment work = %+v", got)
	}
	if got := eventTotals[EventConcealed].Value() - concealed; got != 1 {
		t.Errorf("v2v_frames_concealed_total moved by %d, want 1", got)
	}

	// Nil recorders must not panic.
	var nilRec *Recorder
	nilRec.Inc(EventGOPHit)
	nilRec.Child("x").Inc(EventGOPMiss)
	if got := nilRec.Work(); got != (Work{}) {
		t.Errorf("nil recorder work = %+v", got)
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace id lengths = %d, %d", len(a), len(b))
	}
	if a == b {
		t.Errorf("trace ids collide: %s", a)
	}
	for _, c := range a {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Errorf("non-hex trace id %q", a)
		}
	}
}

func TestFlightRecorderLifecycle(t *testing.T) {
	f := NewFlightRecorder(8)
	q := f.Start("trace1", "render(t) = cam[t]")
	q.Recorder().StageObserve(StageEncode, 7, 700, time.Millisecond)
	q.SetPlan("concat (1 segments)")
	q.SetSegments([]SegmentActuals{{Kind: "render", Work: Work{FramesEncoded: 7}}})
	for e, n := range map[Event]int{EventGOPHit: 4, EventGOPMiss: 2, EventResultHit: 1} {
		for range n {
			q.Recorder().Child("lookup").Inc(e)
		}
	}

	// While active the snapshot reports it live.
	recs := f.Snapshot(Filter{})
	if len(recs) != 1 || !recs[0].Active || recs[0].Outcome != "" {
		t.Fatalf("active snapshot = %+v", recs)
	}
	if recs[0].GOPCacheHits != 4 || recs[0].Stages["encode"].Frames != 7 {
		t.Errorf("active record's work = %+v", recs[0])
	}

	q.Finish("ok", nil)
	q.Finish("error", errors.New("ignored")) // idempotent: first outcome wins

	recs = f.Snapshot(Filter{})
	if len(recs) != 1 {
		t.Fatalf("snapshot = %d records", len(recs))
	}
	r := recs[0]
	if r.TraceID != "trace1" || r.Active || r.Outcome != "ok" || r.Error != "" {
		t.Errorf("finished record = %+v", r)
	}
	if r.Plan != "concat (1 segments)" || len(r.Segments) != 1 || r.Segments[0].FramesEncoded != 7 {
		t.Errorf("plan/segments = %q %+v", r.Plan, r.Segments)
	}
	if r.GOPCacheHits != 4 || r.GOPCacheMisses != 2 || r.ResCacheHits != 1 {
		t.Errorf("cache counts = %+v", r)
	}
	if r.Stages["encode"].Frames != 7 || r.Stages["encode"].Bytes != 700 {
		t.Errorf("stages = %+v", r.Stages)
	}
	if r.Wall <= 0 {
		t.Errorf("wall = %v", r.Wall)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	q := f.Start("id", "query")
	if q != nil {
		t.Fatalf("nil recorder Start = %v", q)
	}
	// All handle methods tolerate the nil request.
	q.SetPlan("p")
	q.SetSegments(nil)
	q.SetQuery("q")
	q.Finish("ok", nil)
	if q.Recorder() != nil {
		t.Error("nil request leaked state")
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 0; i < 10; i++ {
		q := f.Start(fmt.Sprintf("t%d", i), fmt.Sprintf("q%d", i))
		q.Finish("ok", nil)
	}
	recs := f.Snapshot(Filter{})
	if len(recs) != 3 {
		t.Fatalf("ring kept %d records, want 3", len(recs))
	}
	// Newest first, oldest evicted.
	for i, want := range []string{"q9", "q8", "q7"} {
		if recs[i].Query != want {
			t.Errorf("recs[%d].Query = %q, want %q", i, recs[i].Query, want)
		}
	}
}

func TestFlightRecorderQueryTruncation(t *testing.T) {
	f := NewFlightRecorder(2)
	long := strings.Repeat("x", 3*maxRecordedText)
	q := f.Start("t", long)
	q.SetPlan(long)
	q.Finish("ok", nil)
	r := f.Snapshot(Filter{})[0]
	if len(r.Query) > maxRecordedText+8 || len(r.Plan) > maxRecordedText+8 {
		t.Errorf("texts not truncated: query=%d plan=%d", len(r.Query), len(r.Plan))
	}

	// A multibyte label straddling the limit is cut before the rune, not
	// inside it.
	label := strings.Repeat("x", maxRecordedText-1) + "é" + strings.Repeat("y", 100)
	f.Start("u", label).Finish("ok", nil)
	r = f.Snapshot(Filter{})[0]
	if !utf8.ValidString(r.Query) || !strings.HasSuffix(r.Query, "…") {
		t.Errorf("truncated query is not valid UTF-8 ending in …: %q", r.Query[len(r.Query)-8:])
	}
}

func TestFlightRecorderFilters(t *testing.T) {
	f := NewFlightRecorder(16)
	ok := f.Start("t-ok", "ok query")
	ok.Finish("ok", nil)
	bad := f.Start("t-bad", "bad query")
	bad.Finish("error", errors.New("boom"))
	canceled := f.Start("t-can", "canceled query")
	canceled.Finish("canceled", errors.New("ctx"))
	live := f.Start("t-live", "live query")
	defer live.Finish("ok", nil)

	if got := len(f.Snapshot(Filter{})); got != 4 {
		t.Fatalf("unfiltered = %d", got)
	}
	// Active requests sort first, then completed newest-first.
	all := f.Snapshot(Filter{})
	if !all[0].Active || all[0].Query != "live query" {
		t.Errorf("snapshot head = %+v", all[0])
	}

	errored := f.Snapshot(Filter{Errored: true})
	if len(errored) != 2 {
		t.Fatalf("errored = %+v", errored)
	}
	for _, r := range errored {
		if r.Outcome == "ok" || r.Active {
			t.Errorf("errored filter let through %+v", r)
		}
	}
	if bad := f.Snapshot(Filter{Errored: true})[1]; bad.Error != "boom" {
		t.Errorf("error text = %q", bad.Error)
	}

	active := f.Snapshot(Filter{Active: true})
	if len(active) != 1 || active[0].Query != "live query" {
		t.Errorf("active = %+v", active)
	}

	// Slow matches nothing without a threshold, everything past one.
	if got := f.Snapshot(Filter{Slow: true}); len(got) != 0 {
		t.Errorf("slow without threshold = %d", len(got))
	}
	f.SetSlowThreshold(time.Nanosecond)
	if got := f.Snapshot(Filter{Slow: true}); len(got) == 0 {
		t.Error("slow with 1ns threshold matched nothing")
	}
	// Conjunctive: slow AND errored.
	se := f.Snapshot(Filter{Slow: true, Errored: true})
	if len(se) != 2 {
		t.Errorf("slow+errored = %+v", se)
	}
}

func TestFlightRecorderSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))

	f := NewFlightRecorder(4)
	f.SetSlowThreshold(time.Nanosecond)
	f.SetLogger(logger)

	q := f.Start("slow-trace", "slow query text")
	time.Sleep(time.Millisecond)
	q.Finish("ok", nil)

	fast := NewFlightRecorder(4) // no threshold: no log line
	fast.SetLogger(logger)
	fq := fast.Start("fast-trace", "fast query")
	fq.Finish("ok", nil)

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "slow-trace") {
		t.Errorf("slow query log missing:\n%s", out)
	}
	if strings.Contains(out, "fast-trace") {
		t.Errorf("unthresholded recorder logged:\n%s", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestFlightRecorderTraceLookup(t *testing.T) {
	f := NewFlightRecorder(4)
	q := f.Start("trace-a", "query")
	q.Recorder().Child("work").End()
	q.Finish("ok", nil)

	got := f.Trace("trace-a")
	if got == nil {
		t.Fatal("recorded trace not found")
	}
	var buf bytes.Buffer
	if err := got.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace-a", `"work"`, `"synthesize"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace export missing %s:\n%s", want, buf.String())
		}
	}
	if f.Trace("unknown") != nil {
		t.Error("unknown trace id returned a trace")
	}

	// A live request's trace is reachable too.
	live := f.Start("trace-b", "live")
	if f.Trace("trace-b") == nil {
		t.Error("live trace not found")
	}
	live.Finish("ok", nil)
}

func TestFlightHandler(t *testing.T) {
	f := NewFlightRecorder(4)
	q := f.Start("handler-trace", "handler query <script>")
	q.Finish("error", errors.New("synthetic"))

	get := func(target string) (*httptest.ResponseRecorder, string) {
		t.Helper()
		rr := httptest.NewRecorder()
		f.Handler().ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
		return rr, rr.Body.String()
	}

	rr, body := get("/debug/requests")
	if rr.Code != 200 || !strings.HasPrefix(rr.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("json view: %d %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	var parsed struct {
		Requests []RequestRecord `json:"requests"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(parsed.Requests) != 1 || parsed.Requests[0].TraceID != "handler-trace" {
		t.Errorf("parsed = %+v", parsed)
	}

	if _, body := get("/debug/requests?errored=1"); !strings.Contains(body, "synthetic") {
		t.Errorf("errored filter missing record:\n%s", body)
	}
	if _, body := get("/debug/requests?active=1"); strings.Contains(body, "handler-trace") {
		t.Errorf("active filter returned completed record:\n%s", body)
	}

	rr, body = get("/debug/requests?format=html")
	if !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/html") ||
		!strings.Contains(body, "&lt;script&gt;") {
		t.Errorf("html view unescaped or wrong type:\n%.300s", body)
	}

	rr, body = get("/debug/requests?trace=handler-trace")
	if rr.Code != 200 || !strings.Contains(body, "traceEvents") {
		t.Errorf("trace export: %d\n%.200s", rr.Code, body)
	}
	if rr, _ := get("/debug/requests?trace=missing"); rr.Code != 404 {
		t.Errorf("missing trace status = %d", rr.Code)
	}
}

// TestFlightRecorderConcurrent hammers one recorder from many goroutines
// (run under -race in CI): writers start/annotate/finish requests while
// readers snapshot and serve HTTP.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(16)
	f.SetSlowThreshold(time.Nanosecond)
	f.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := f.Start(fmt.Sprintf("t%d-%d", w, i), "concurrent query")
				q.Recorder().StageObserve(StageDecode, 1, 100, time.Microsecond)
				q.SetSegments([]SegmentActuals{{Kind: "render"}})
				q.Recorder().Inc(EventGOPHit)
				q.Recorder().Inc(EventGOPMiss)
				if i%3 == 0 {
					q.Finish("error", errors.New("x"))
				} else {
					q.Finish("ok", nil)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f.Snapshot(Filter{Errored: i%2 == 0})
				rr := httptest.NewRecorder()
				f.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests", nil))
			}
		}()
	}
	wg.Wait()
	if got := len(f.Snapshot(Filter{})); got != 16 {
		t.Errorf("final ring = %d records, want 16", got)
	}
}

func TestFlightRecorderShedFilterAndAdmission(t *testing.T) {
	fr := NewFlightRecorder(8)

	ok := fr.Start("aaaaaaaaaaaaaaaa", "q ok")
	ok.SetAdmission("tenant-a", 42.5, 3*time.Millisecond, "")
	ok.Finish("ok", nil)

	shed := fr.Start("bbbbbbbbbbbbbbbb", "q shed")
	shed.SetAdmission("tenant-b", 900, 0, "queue_full")
	shed.Finish("shed", errors.New("admit: overloaded"))

	all := fr.Snapshot(Filter{})
	if len(all) != 2 {
		t.Fatalf("snapshot = %d records, want 2", len(all))
	}
	got := fr.Snapshot(Filter{Shed: true})
	if len(got) != 1 || got[0].TraceID != "bbbbbbbbbbbbbbbb" {
		t.Fatalf("shed filter = %+v, want only the shed record", got)
	}
	if got[0].Tenant != "tenant-b" || got[0].ShedReason != "queue_full" || got[0].CostUnits != 900 {
		t.Errorf("shed record admission fields = %+v", got[0])
	}

	// The errored filter also matches shed records (outcome != ok), while
	// the shed filter does not match plain errors.
	errRec := fr.Start("cccccccccccccccc", "q err")
	errRec.Finish("error", errors.New("boom"))
	if n := len(fr.Snapshot(Filter{Errored: true})); n != 2 {
		t.Errorf("errored filter = %d records, want 2 (shed + error)", n)
	}
	if n := len(fr.Snapshot(Filter{Shed: true})); n != 1 {
		t.Errorf("shed filter = %d records, want 1", n)
	}

	// Handler: ?shed=1 restricts the JSON body.
	srv := httptest.NewServer(fr.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?shed=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Requests []RequestRecord `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Requests) != 1 || body.Requests[0].ShedReason != "queue_full" {
		t.Errorf("?shed=1 body = %+v, want the one shed record", body.Requests)
	}
	if body.Requests[0].QueuedWall != 0 || body.Requests[0].Tenant != "tenant-b" {
		t.Errorf("admission fields did not round-trip: %+v", body.Requests[0])
	}
}
