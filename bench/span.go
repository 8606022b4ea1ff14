package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one operation share Op; Parent is the ID of the span
// that caused this one (0 for an operation's root).
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Args   map[string]any
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced passes run.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// openSpan is a started span; end closes and stores it.
type openSpan struct {
	rec *spanRecorder
	s   span
}

// start opens a span. On a nil recorder it returns a nil handle whose
// methods do nothing.
func (r *spanRecorder) start(op, parent int, name string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{}) // reserve the ID; filled by end
	r.mu.Unlock()
	return &openSpan{rec: r, s: span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(r.epoch)}}
}

func (o *openSpan) id() int {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) arg(key string, v any) {
	if o == nil {
		return
	}
	if o.s.Args == nil {
		o.s.Args = map[string]any{}
	}
	o.s.Args[key] = v
}

// end closes the span and returns its duration (0 on a nil handle).
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = time.Since(o.rec.epoch)
	o.rec.mu.Lock()
	o.rec.spans[o.s.ID-1] = o.s
	o.rec.mu.Unlock()
	return o.s.dur()
}

// add stores a span whose interval was measured elsewhere (the client
// phases of an HTTP request are stamped inline and recorded afterwards).
func (r *spanRecorder) add(op, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// annotate adds args to a stored span (the server's view of a request,
// joined after the pass).
func (r *spanRecorder) annotate(id int, args map[string]any) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Args = args
}

func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children (parallel
// work) are counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeTrace writes spans in the Chrome trace_event format (load it in
// chrome://tracing or ui.perfetto.dev). One process row per workload, one
// thread row per operation; args carry the span and parent IDs and the
// span's self time so a script can rebuild the tree.
func writeTrace(path string, byWorkload map[string][]span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	names := make([]string, 0, len(byWorkload))
	for name := range byWorkload {
		names = append(names, name)
	}
	sort.Strings(names)
	for pid, name := range names {
		spans := byWorkload[name]
		self := selfTimes(spans)
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid + 1,
			Args: map[string]any{"name": name}})
		for _, s := range spans {
			args := map[string]any{"id": s.ID, "parent": s.Parent, "self_us": self[s.ID].Microseconds()}
			for k, v := range s.Args {
				args[k] = v
			}
			events = append(events, event{Name: s.Name, Ph: "X", Ts: s.Start.Microseconds(),
				Dur: s.dur().Microseconds(), PID: pid + 1, TID: s.Op, Args: args})
		}
	}
	doc := struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []event `json:"traceEvents"`
	}{"ms", events}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
