package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// DefaultFlightRecorderSize is the completed-request ring capacity used
// when a FlightRecorder is built with size <= 0.
const DefaultFlightRecorderSize = 256

// maxRecordedText bounds the query and plan text stored per record so the
// ring's memory footprint stays proportional to its capacity.
const maxRecordedText = 2048

// SegmentActuals records what executing one plan segment actually cost —
// the measured counterpart to the plan's static shape, filled in by the
// executor for EXPLAIN ANALYZE and kept per request in the flight record
// (a smart cut is two segments, its render head and its copy).
type SegmentActuals struct {
	// Kind is the segment's copy/render decision: "copy" or "render".
	Kind string `json:"kind"`
	// Wall is the segment's measured wall time.
	Wall time.Duration `json:"wall_ns"`
	// FramesRendered counts output frames produced by the operator tree.
	FramesRendered int64 `json:"frames_rendered,omitempty"`
	// Work is what the segment's recorder counted.
	Work
	// Shards is the number of shards the segment was rendered in (the
	// plan's cuts plus one; 0 for copies), and ShardDecodes
	// each shard's measured decodes, in presentation order — beside the
	// roll-forward EXPLAIN estimates for it. Both describe the plan on a
	// result-cache hit, where no shard ran: ShardDecodes is then all zero.
	Shards       int     `json:"shards,omitempty"`
	ShardDecodes []int64 `json:"shard_decodes,omitempty"`
}

// String renders the actuals as the annotation appended to explain lines.
func (a SegmentActuals) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("wall=%s", a.Wall.Round(time.Microsecond)))
	if a.FramesRendered > 0 {
		parts = append(parts, fmt.Sprintf("rendered=%d", a.FramesRendered))
	}
	if a.FramesDecoded > 0 {
		parts = append(parts, fmt.Sprintf("decoded=%d", a.FramesDecoded))
	}
	if a.FramesEncoded > 0 {
		parts = append(parts, fmt.Sprintf("encoded=%d", a.FramesEncoded))
	}
	if a.PacketsCopied > 0 {
		parts = append(parts, fmt.Sprintf("copied=%d (%dB)", a.PacketsCopied, a.BytesCopied))
	}
	if a.Concealed > 0 {
		parts = append(parts, fmt.Sprintf("concealed=%d", a.Concealed))
	}
	if a.GOPCacheHits > 0 || a.GOPCacheMisses > 0 {
		parts = append(parts, fmt.Sprintf("gopcache=%dhit/%dmiss", a.GOPCacheHits, a.GOPCacheMisses))
	}
	if a.ResultCacheHits > 0 || a.ResultCacheMisses > 0 {
		parts = append(parts, fmt.Sprintf("rescache=%dhit/%dmiss", a.ResultCacheHits, a.ResultCacheMisses))
	}
	if a.Shards > 1 {
		parts = append(parts, fmt.Sprintf("shards=%d decoded/shard=%v", a.Shards, a.ShardDecodes))
	}
	if a.DecodeWall > 0 || a.FilterWall > 0 || a.EncodeWall > 0 {
		parts = append(parts, fmt.Sprintf("stages=dec:%s/%dB flt:%s/%dB enc:%s/%dB",
			a.DecodeWall.Round(time.Microsecond), a.DecodeBytes,
			a.FilterWall.Round(time.Microsecond), a.FilterBytes,
			a.EncodeWall.Round(time.Microsecond), a.EncodeBytes))
	}
	return "actual: " + strings.Join(parts, " ")
}

// RequestRecord is one request's flight-recorder entry: identity (trace
// ID, query text, plan summary), per-segment decisions, per-stage work,
// cache effectiveness, and the outcome. Snapshot returns copies, so a
// record is safe to hold after the ring evicts it.
type RequestRecord struct {
	ID      uint64    `json:"id"`
	TraceID string    `json:"trace_id"`
	Query   string    `json:"query"`
	Plan    string    `json:"plan,omitempty"`
	Start   time.Time `json:"start"`
	// Wall is the request's elapsed time; still running if Active.
	Wall    time.Duration `json:"wall_ns"`
	Active  bool          `json:"active"`
	Outcome string        `json:"outcome,omitempty"` // ok | error | canceled | shed
	Error   string        `json:"error,omitempty"`

	// Admission fields, set by SetAdmission: the tenant bucket, the
	// plan's estimated cost in plan.Cost units, the wall time spent queued
	// before admission, and — for shed requests — the typed reason.
	Tenant     string        `json:"tenant,omitempty"`
	CostUnits  float64       `json:"cost_units,omitempty"`
	QueuedWall time.Duration `json:"queued_wall_ns,omitempty"`
	ShedReason string        `json:"shed_reason,omitempty"`

	// TTFF, set by SetTTFF, is the honest time-to-first-frame: the wall
	// time until the first bytes were flushed to the client, not merely
	// handed to the kernel buffers.
	TTFF time.Duration `json:"ttff_ns,omitempty"`

	Segments []SegmentActuals      `json:"segments,omitempty"`
	Stages   map[string]StageStats `json:"stages,omitempty"`

	// Parts is the wall time of each child of the request's root recorder
	// (read, parse, frontend, admission, execute, drain: the handler runs
	// them one after another), and Residual the request's wall time none
	// of them covers: Wall minus their sum.
	Parts    map[string]time.Duration `json:"parts_ns,omitempty"`
	Residual time.Duration            `json:"residual_ns"`

	// Cache lookups, like Stages, come from the request's recorder: live
	// while the request runs, and kept whatever its outcome.
	GOPCacheHits   int64 `json:"gop_cache_hits"`
	GOPCacheMisses int64 `json:"gop_cache_misses"`
	ResCacheHits   int64 `json:"result_cache_hits"`
	ResCacheMisses int64 `json:"result_cache_misses"`
}

// Request is the mutable handle for an in-flight request record. All
// methods are nil-safe so callers thread it unconditionally.
type Request struct {
	fr *FlightRecorder
	// rec is the request's root recorder, bound to the request's trace.
	rec *Recorder

	mu   sync.Mutex
	data RequestRecord
	done bool
}

// Recorder returns the request's root recorder, opened by Start and bound
// to the request's trace: the handler opens the request's parts under it.
// Nil-safe (returns a nil recorder, which still feeds process-wide stage
// metrics).
func (q *Request) Recorder() *Recorder {
	if q == nil {
		return nil
	}
	return q.rec
}

// update applies set to the record under its lock. Nil-safe.
func (q *Request) update(set func(*RequestRecord)) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	set(&q.data)
}

// SetQuery records the query text (truncated to a bounded length), for a
// request whose text is known only after Start.
func (q *Request) SetQuery(query string) {
	q.update(func(d *RequestRecord) { d.Query = truncate(query, maxRecordedText) })
}

// SetPlan records the plan summary (truncated to a bounded length).
func (q *Request) SetPlan(plan string) {
	q.update(func(d *RequestRecord) { d.Plan = truncate(plan, maxRecordedText) })
}

// SetSegments records the per-segment execution decisions and costs.
func (q *Request) SetSegments(segs []SegmentActuals) {
	q.update(func(d *RequestRecord) { d.Segments = append([]SegmentActuals(nil), segs...) })
}

// SetAdmission records the request's admission outcome: its tenant
// bucket, estimated cost, and time spent queued. shedReason is empty for
// admitted requests and one of the admit package's Reason* values for
// shed ones (the record's Outcome is then "shed", set via Finish).
func (q *Request) SetAdmission(tenant string, costUnits float64, queuedWall time.Duration, shedReason string) {
	q.update(func(d *RequestRecord) {
		d.Tenant, d.CostUnits, d.QueuedWall, d.ShedReason = tenant, costUnits, queuedWall, shedReason
	})
}

// SetTTFF records the response's measured time-to-first-flush (the
// client-observable TTFF).
func (q *Request) SetTTFF(ttff time.Duration) {
	q.update(func(d *RequestRecord) { d.TTFF = ttff })
}

// Finish completes the record with an outcome ("ok", "error", or
// "canceled"), moves it from the active set into the ring, and emits the
// slow-query log line when the request exceeded the recorder's threshold.
// Idempotent and nil-safe.
func (q *Request) Finish(outcome string, err error) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if q.done {
		q.mu.Unlock()
		return
	}
	q.done = true
	q.rec.End()
	q.data.Active = false
	q.data.Outcome = outcome
	if err != nil {
		q.data.Error = err.Error()
	}
	q.data.stampWork(q.rec)
	data := q.data
	q.mu.Unlock()
	q.fr.finish(data, q.rec.Trace())
}

// snapshot returns a deep copy of the record's current state, stamping
// live wall time, parts, stage stats and cache counts for in-flight
// requests.
func (q *Request) snapshot() RequestRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	data := q.data
	if data.Active {
		data.stampWork(q.rec)
	}
	data.Segments = append([]SegmentActuals(nil), data.Segments...)
	return data
}

// stampWork copies the root recorder's wall time, parts, stages and cache
// counts into the record.
func (d *RequestRecord) stampWork(rec *Recorder) {
	var serial time.Duration
	d.Wall = rec.Wall()
	d.Parts, serial = rec.Parts()
	d.Residual = d.Wall - serial
	w := rec.Work()
	d.Stages = rec.Stages()
	d.GOPCacheHits, d.GOPCacheMisses = w.GOPCacheHits, w.GOPCacheMisses
	d.ResCacheHits, d.ResCacheMisses = w.ResultCacheHits, w.ResultCacheMisses
}

// flightEntry pairs a completed record with its trace.
type flightEntry struct {
	data  RequestRecord
	trace *Trace
}

// FlightRecorder keeps a fixed-size ring of recently completed request
// records plus the set of in-flight ones — the always-on "what is this
// server doing right now / what did it just do" view. Per-request stage
// counters are lock-free atomics; only ring bookkeeping takes the mutex.
type FlightRecorder struct {
	mu     sync.Mutex
	size   int
	ring   []flightEntry // oldest first
	active map[uint64]*Request
	seq    uint64
	slow   time.Duration
	logger *slog.Logger
}

// NewFlightRecorder returns a recorder keeping the last size completed
// requests (DefaultFlightRecorderSize when size <= 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	return &FlightRecorder{size: size, active: map[uint64]*Request{}}
}

// SetSlowThreshold sets the slow-query log threshold; a completed request
// whose wall time reaches d is logged at Warn level. d <= 0 disables slow
// logging.
func (f *FlightRecorder) SetSlowThreshold(d time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slow = d
}

// SlowThreshold returns the current slow-query threshold.
func (f *FlightRecorder) SlowThreshold() time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slow
}

// SetLogger sets the logger used for slow-query lines (slog.Default when
// unset).
func (f *FlightRecorder) SetLogger(l *slog.Logger) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.logger = l
}

// Start opens a new in-flight request record and its root recorder, a
// node named "synthesize" bound to a new trace of that name, exported at
// ?trace=<traceID>. The record's wall time is the root's. Nil-safe: a nil
// recorder returns a nil *Request whose methods no-op.
func (f *FlightRecorder) Start(traceID, query string) *Request {
	if f == nil {
		return nil
	}
	tr := NewTrace("synthesize")
	tr.SetID(traceID)
	q := &Request{fr: f, rec: (&Recorder{name: "synthesize", start: time.Now()}).Bind(tr)}
	f.mu.Lock()
	f.seq++
	q.data = RequestRecord{
		ID:      f.seq,
		TraceID: traceID,
		Query:   truncate(query, maxRecordedText),
		Start:   q.rec.start,
		Active:  true,
	}
	f.active[q.data.ID] = q
	f.mu.Unlock()
	return q
}

func (f *FlightRecorder) finish(data RequestRecord, trace *Trace) {
	f.mu.Lock()
	delete(f.active, data.ID)
	f.ring = append(f.ring, flightEntry{data: data, trace: trace})
	if over := len(f.ring) - f.size; over > 0 {
		f.ring = append(f.ring[:0:0], f.ring[over:]...)
	}
	slow, logger := f.slow, f.logger
	f.mu.Unlock()
	if slow > 0 && data.Wall >= slow {
		if logger == nil {
			logger = slog.Default()
		}
		logger.Warn("slow query",
			"trace_id", data.TraceID,
			"wall", data.Wall,
			"threshold", slow,
			"outcome", data.Outcome,
			"query", data.Query)
	}
}

// Filter restricts Snapshot output; set fields are conjunctive. Slow
// matches completed or in-flight requests at or past the slow threshold,
// Errored matches completed requests whose outcome is not "ok", Active
// matches in-flight requests, Shed matches requests the admission
// controller turned away (outcome "shed").
type Filter struct {
	Slow    bool
	Errored bool
	Active  bool
	Shed    bool
}

func (ft Filter) match(r RequestRecord, slow time.Duration) bool {
	if ft.Slow && (slow <= 0 || r.Wall < slow) {
		return false
	}
	if ft.Errored && (r.Active || r.Outcome == "ok") {
		return false
	}
	if ft.Active && !r.Active {
		return false
	}
	if ft.Shed && r.Outcome != "shed" {
		return false
	}
	return true
}

// Snapshot returns copies of matching records, newest first, in-flight
// requests ahead of completed ones.
func (f *FlightRecorder) Snapshot(ft Filter) []RequestRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	slow := f.slow
	live := make([]*Request, 0, len(f.active))
	for _, q := range f.active {
		live = append(live, q)
	}
	done := make([]RequestRecord, 0, len(f.ring))
	for i := len(f.ring) - 1; i >= 0; i-- {
		done = append(done, f.ring[i].data)
	}
	f.mu.Unlock()

	out := make([]RequestRecord, 0, len(live)+len(done))
	for _, q := range live {
		out = append(out, q.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	out = append(out, done...)

	kept := out[:0]
	for _, r := range out {
		if ft.match(r, slow) {
			kept = append(kept, r)
		}
	}
	return kept
}

// Trace returns the trace recorded for traceID (in-flight or in the ring),
// or nil.
func (f *FlightRecorder) Trace(traceID string) *Trace {
	if f == nil || traceID == "" {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, q := range f.active {
		if q.data.TraceID == traceID { // set at Start, never written again
			return q.rec.Trace()
		}
	}
	for i := len(f.ring) - 1; i >= 0; i-- {
		if f.ring[i].data.TraceID == traceID {
			return f.ring[i].trace
		}
	}
	return nil
}

// Handler serves the flight recorder — mount it at /debug/requests.
//
//	GET /debug/requests                 JSON, newest first
//	GET /debug/requests?active=1        in-flight only
//	GET /debug/requests?errored=1       completed non-ok only
//	GET /debug/requests?slow=1          at/past the slow threshold only
//	GET /debug/requests?shed=1          shed by admission control only
//	GET /debug/requests?format=html     minimal HTML table (also via Accept)
//	GET /debug/requests?trace=<id>      one request's Chrome trace JSON
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		qp := r.URL.Query()
		if id := qp.Get("trace"); id != "" {
			tr := f.Trace(id)
			if tr == nil {
				http.Error(w, "no trace recorded for "+id, http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			tr.WriteJSON(w)
			return
		}
		ft := Filter{
			Slow:    isSet(qp.Get("slow")),
			Errored: isSet(qp.Get("errored")),
			Active:  isSet(qp.Get("active")),
			Shed:    isSet(qp.Get("shed")),
		}
		recs := f.Snapshot(ft)
		wantHTML := qp.Get("format") == "html" ||
			(qp.Get("format") == "" && strings.Contains(r.Header.Get("Accept"), "text/html"))
		if wantHTML {
			writeFlightHTML(w, recs, f.SlowThreshold())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(struct {
			SlowThresholdNS time.Duration   `json:"slow_threshold_ns"`
			Requests        []RequestRecord `json:"requests"`
		}{f.SlowThreshold(), recs})
	})
}

func isSet(v string) bool {
	return v != "" && v != "0" && v != "false"
}

func writeFlightHTML(w http.ResponseWriter, recs []RequestRecord, slow time.Duration) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var sb strings.Builder
	sb.WriteString("<!doctype html><title>v2v flight recorder</title>")
	sb.WriteString("<style>table{border-collapse:collapse;font:13px monospace}td,th{border:1px solid #999;padding:2px 6px;text-align:left}</style>")
	fmt.Fprintf(&sb, "<h1>flight recorder</h1><p>%d requests; slow threshold %s</p>", len(recs), slow)
	sb.WriteString("<table><tr><th>id</th><th>trace</th><th>tenant</th><th>start</th><th>wall</th><th>queued</th><th>cost</th><th>outcome</th><th>segments</th><th>decoded</th><th>encoded</th><th>copied</th><th>gop hit/miss</th><th>query</th></tr>")
	for _, r := range recs {
		outcome := r.Outcome
		if r.Active {
			outcome = "active"
		}
		if r.Outcome == "shed" && r.ShedReason != "" {
			outcome = "shed:" + r.ShedReason
		}
		dec := r.Stages["decode"]
		enc := r.Stages["encode"]
		cp := r.Stages["copy"]
		fmt.Fprintf(&sb, "<tr><td>%d</td><td><a href=\"?trace=%s\">%s</a></td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%.1f</td><td>%s</td><td>%d</td><td>%dfr</td><td>%dfr</td><td>%dpkt</td><td>%d/%d</td><td>%s</td></tr>",
			r.ID, html.EscapeString(r.TraceID), html.EscapeString(r.TraceID),
			html.EscapeString(r.Tenant),
			r.Start.Format(time.RFC3339), r.Wall.Round(time.Microsecond),
			r.QueuedWall.Round(time.Microsecond), r.CostUnits,
			html.EscapeString(outcome), len(r.Segments),
			dec.Frames, enc.Frames, cp.Frames,
			r.GOPCacheHits, r.GOPCacheMisses,
			html.EscapeString(truncate(r.Query, 120)))
	}
	sb.WriteString("</table>")
	fmt.Fprint(w, sb.String())
}

// truncate cuts s to at most n bytes, backing off to a rune boundary, and
// marks the cut with an ellipsis.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}
