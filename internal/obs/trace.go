// Package obs is V2V's zero-dependency observability layer: the per-request
// Recorder tree that times and counts a synthesis, the Chrome trace_event
// export its nodes write into, the flight recorder of recent requests, and
// a concurrency-safe metrics registry exposed in Prometheus text format.
//
// Recorder methods are nil-tolerant, and a Recorder that is not bound to a
// Trace writes no events, so the pipeline opens its nodes unconditionally
// and pays only for counters and timestamps when tracing is off.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// mainThread is the tid of the pipeline's primary track. Shard workers'
// nodes take fresh tids (Recorder.Track) so a trace viewer lays them out as
// parallel rows.
const mainThread = 1

// Trace is the Chrome trace_event export of one traced activity (a
// synthesis run, a request): every node of a Recorder bound to it
// (Recorder.Bind) adds one complete event when it ends. Safe for
// concurrent use.
type Trace struct {
	name  string
	start time.Time

	mu      sync.Mutex
	id      string
	events  []traceEvent
	nextTID int64
}

type traceEvent struct {
	name string
	tid  int64
	ts   time.Duration // offset from trace start
	dur  time.Duration
	args map[string]any
}

// NewTrace starts an empty trace named name (shown as the process name in
// trace viewers).
func NewTrace(name string) *Trace {
	return &Trace{name: name, start: time.Now(), nextTID: mainThread}
}

// SetID attaches the trace/request identifier shared with the flight
// recorder and log lines; it is emitted in the exported trace's process
// metadata so a Chrome trace joins back to its request. Nil-safe.
func (t *Trace) SetID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.id = id
}

func (t *Trace) newTID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTID++
	return t.nextTID
}

func (t *Trace) record(e traceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, e)
}

// jsonEvent is one Chrome trace_event entry.
type jsonEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"` // microseconds
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int64          `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteJSON renders the trace in the Chrome trace_event format, loadable
// in chrome://tracing or https://ui.perfetto.dev. Nil-safe (writes an
// empty trace).
func (t *Trace) WriteJSON(w io.Writer) error {
	var events []jsonEvent
	if t != nil {
		t.mu.Lock()
		events = make([]jsonEvent, 0, len(t.events)+1)
		meta := map[string]any{"name": t.name}
		if t.id != "" {
			meta["trace_id"] = t.id
		}
		events = append(events, jsonEvent{
			Name: "process_name", Phase: "M", PID: 1, TID: mainThread,
			Args: meta,
		})
		for _, e := range t.events {
			events = append(events, jsonEvent{
				Name:  e.name,
				Phase: "X",
				Ts:    e.ts.Microseconds(),
				Dur:   max(e.dur.Microseconds(), 1),
				PID:   1,
				TID:   e.tid,
				Args:  e.args,
			})
		}
		t.mu.Unlock()
	}
	doc := struct {
		DisplayTimeUnit string      `json:"displayTimeUnit"`
		TraceEvents     []jsonEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: events}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteJSONFile writes the trace to path.
func (t *Trace) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	return f.Close()
}
