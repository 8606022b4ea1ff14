package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func decodeTrace(t *testing.T, tr *Trace) []map[string]any {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	return doc.TraceEvents
}

func TestTraceChromeEventShape(t *testing.T) {
	tr := NewTrace("v2v test")
	root := NewRecorder().Bind(tr)
	exec := root.Child("execute")
	seg := exec.Child("segment")
	seg.SetAttr("kind", "render")
	seg.SetAttr("frames", 48)
	seg.End()
	exec.End()

	events := decodeTrace(t, tr)
	// process_name metadata + 2 complete events: the unended root writes
	// none.
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0]["ph"] != "M" || events[0]["name"] != "process_name" {
		t.Errorf("missing process_name metadata: %v", events[0])
	}
	byName := map[string]map[string]any{}
	for _, e := range events[1:] {
		if e["ph"] != "X" {
			t.Errorf("phase = %v, want X", e["ph"])
		}
		for _, k := range []string{"ts", "dur", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Errorf("event %v missing %s", e["name"], k)
			}
		}
		byName[e["name"].(string)] = e
	}
	segEv := byName["segment"]
	if segEv == nil {
		t.Fatal("no segment event")
	}
	args := segEv["args"].(map[string]any)
	if args["kind"] != "render" || args["frames"] != float64(48) {
		t.Errorf("segment args = %v", args)
	}
}

// TestTraceNilSafety checks that nil recorders and an unbound tree record
// no events, and that a nil trace still exports a valid document.
func TestTraceNilSafety(t *testing.T) {
	var rec *Recorder
	rec.SetAttr("k", 1)
	rec.End()
	if rec.Bind(NewTrace("x")) != nil || rec.Trace() != nil || rec.Wall() != 0 {
		t.Error("nil recorder carries state")
	}
	unbound := NewRecorder().Child("y")
	unbound.SetAttr("k", 1)
	unbound.Track("z").End()
	unbound.End()
	if unbound.Trace() != nil || unbound.attrs != nil {
		t.Error("unbound node keeps trace state")
	}
	var tr *Trace
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Errorf("nil trace JSON = %q", sb.String())
	}
}

func TestTraceConcurrentShardSpans(t *testing.T) {
	tr := NewTrace("shards")
	root := NewRecorder().Bind(tr).Child("execute")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			sp := root.Track("shard")
			sp.SetAttr("worker", i)
			sp.End()
		}(i)
		go func() { // a live flight-record snapshot reads the tree meanwhile
			defer wg.Done()
			root.Parts()
		}()
	}
	wg.Wait()
	root.End()
	events := decodeTrace(t, tr)
	tids := map[float64]bool{}
	shardCount := 0
	for _, e := range events {
		if e["name"] == "shard" {
			shardCount++
			tids[e["tid"].(float64)] = true
		}
	}
	if shardCount != 8 {
		t.Errorf("shard events = %d", shardCount)
	}
	if len(tids) != 8 {
		t.Errorf("shard tids = %d, want 8 distinct threads", len(tids))
	}
	if parts, _ := root.Parts(); len(parts) != 1 {
		t.Errorf("parts = %v, want the shards under one name", parts)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace("x")
	node := NewRecorder().Bind(tr).Child("once")
	node.End()
	wall := node.Wall()
	node.End()
	if got := len(decodeTrace(t, tr)) - 1; got != 1 || node.Wall() != wall {
		t.Errorf("events = %d, want 1; wall moved %v -> %v", got, wall, node.Wall())
	}
}

// TestRecorderParts checks a node's parts: its children's walls by name,
// summed over repeats, and a residual that is exactly what they leave of
// the node's wall.
func TestRecorderParts(t *testing.T) {
	root := NewRecorder()
	for _, name := range []string{"read", "parse", "read"} {
		c := root.Child(name)
		time.Sleep(time.Millisecond)
		c.End()
	}
	root.End()
	parts, sum := root.Parts()
	if len(parts) != 2 || parts["read"] < 2*time.Millisecond || parts["parse"] < time.Millisecond {
		t.Errorf("parts = %v", parts)
	}
	if sum != parts["read"]+parts["parse"] || sum > root.Wall() {
		t.Errorf("sum %v of parts %v, wall %v", sum, parts, root.Wall())
	}
}
