package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"v2v/internal/admit"
	"v2v/internal/core"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/vql"
)

// maxSpecBytes bounds a POSTed spec; a longer body is refused with 413
// rather than parsed truncated, which could read as a different spec.
const maxSpecBytes = 1 << 20

// validSpecName reports whether a GET ?spec= name may be joined under the
// spec directory: relative, no traversal out of it, no absolute or rooted
// forms. Forward-slash subdirectory names are allowed.
func validSpecName(name string) bool {
	if name == "" || filepath.IsAbs(name) || strings.ContainsRune(name, '\\') {
		return false
	}
	clean := path.Clean(name)
	if clean == "." || clean == ".." ||
		strings.HasPrefix(clean, "/") || strings.HasPrefix(clean, "../") {
		return false
	}
	return true
}

// segmentRecords converts an executed run's per-segment actuals (plus the
// plan's copy/render decisions) into flight-recorder segment
// records.
func segmentRecords(res *core.Result) []obs.SegmentRecord {
	acts := res.Metrics.Segments
	out := make([]obs.SegmentRecord, 0, len(acts))
	for i, a := range acts {
		kind := "render"
		if res.Plan != nil && i < len(res.Plan.Segments) {
			kind = res.Plan.Segments[i].Kind.String()
		}
		out = append(out, obs.SegmentRecord{
			Kind:           kind,
			Wall:           a.Wall,
			FramesRendered: a.FramesRendered,
			FramesDecoded:  a.FramesDecoded,
			FramesEncoded:  a.FramesEncoded,
			PacketsCopied:  a.PacketsCopied,
			BytesCopied:    a.BytesCopied,
			Concealed:      a.Concealed,
			GOPCacheHits:   a.GOPCacheHits,
			GOPCacheMisses: a.GOPCacheMisses,
			ResCacheHits:   a.ResultCacheHits,
			ResCacheMisses: a.ResultCacheMisses,
			Shards:         a.Shards,
			DecodeWall:     a.DecodeWall,
			FilterWall:     a.FilterWall,
			EncodeWall:     a.EncodeWall,
			DecodeBytes:    a.DecodeBytes,
			FilterFrames:   a.FilterFrames,
			FilterBytes:    a.FilterBytes,
			EncodeBytes:    a.EncodeBytes,
		})
	}
	return out
}

func (s *Server) synthesize(w http.ResponseWriter, r *http.Request) {
	var raw []byte
	var query string
	var err error
	switch r.Method {
	case http.MethodPost:
		raw, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		query = string(raw)
	case http.MethodGet:
		name := r.URL.Query().Get("spec")
		if !validSpecName(name) {
			http.Error(w, "missing or invalid ?spec=", http.StatusBadRequest)
			return
		}
		query = "spec=" + name
		raw, err = os.ReadFile(filepath.Join(s.cfg.SpecDir, name))
	default:
		http.Error(w, "POST a spec or GET ?spec=", http.StatusMethodNotAllowed)
		return
	}

	// The flight record starts as soon as there is query text, so read and
	// parse failures show up at /debug/requests?errored=1 too.
	traceID, _ := r.Context().Value(traceIDKey).(string)
	req := s.flight.Start(traceID, query)
	if err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		req.Finish("error", err)
		http.Error(w, err.Error(), status)
		return
	}

	// Every request gets its own span trace and stage recorder, joined to
	// the flight record and the log lines by the shared trace ID.
	tr := obs.NewTrace("synthesize")
	tr.SetID(traceID)
	sp := tr.StartSpan("parse")
	spec, err := vql.ParseAny(raw)
	sp.End()
	if err != nil {
		req.Finish("error", err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	opts := core.Options{}
	if !s.cfg.NoOpt {
		opts = core.DefaultOptions()
	}
	opts.Conceal = !s.cfg.Strict
	opts.GOPCache = s.gopCache
	opts.ResultCache = s.resultCache
	opts.Parallelism = s.parallelism
	opts.Trace = tr
	opts.Recorder = req.Recorder()

	// Plan before admission: the plan's static cost estimate is the
	// admission weight, and shed requests still leave their plan in the
	// flight record for postmortems.
	pr, err := core.Prepare(spec, opts)
	if err != nil {
		req.Finish("error", err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.SetPlan(pr.Plan.Explain())
	cost := pr.EstimatedCost().Units()
	tenant := requestTenant(r)

	// The request context cancels the synthesis when the client goes away;
	// shard workers stop within one GOP of work instead of rendering a
	// stream nobody is reading.
	ctx := r.Context()
	if s.cfg.SynthTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SynthTimeout)
		defer cancel()
	}
	// An X-Deadline-Ms header is the client's latency budget: admission
	// sheds early when it cannot plausibly be met, and the synthesis
	// itself is bounded by it.
	var deadline time.Time
	if ms := r.Header.Get("X-Deadline-Ms"); ms != "" {
		n, perr := strconv.Atoi(strings.TrimSpace(ms))
		if perr != nil || n <= 0 {
			err := fmt.Errorf("invalid X-Deadline-Ms %q", ms)
			req.Finish("error", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		deadline = time.Now().Add(time.Duration(n) * time.Millisecond)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	admitStart := time.Now()
	ticket, aerr := s.admit.Acquire(ctx, admit.Request{Tenant: tenant, Cost: cost, Deadline: deadline})
	queuedWall := time.Since(admitStart)
	if aerr != nil {
		if shed := (*admit.ShedError)(nil); errors.As(aerr, &shed) {
			// Typed load shed: tell the client it is retryable and when.
			// (Shed counts and queue-wait histograms live in the admit
			// package's v2v_admit_* instruments.)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(shed.RetryAfter)))
			req.SetAdmission(tenant, cost, queuedWall, shed.Reason)
			req.Finish("shed", aerr)
			http.Error(w, aerr.Error(), admit.HTTPStatus(aerr))
			s.cfg.Logger.Warn("request shed",
				"tenant", tenant, "reason", shed.Reason, "cost_units", cost,
				"queued", queuedWall.Round(time.Millisecond), "trace_id", traceID)
			return
		}
		// The client went away (or its deadline passed) while queued.
		synthCanceled.Inc()
		req.SetAdmission(tenant, cost, queuedWall, "")
		req.Finish("canceled", aerr)
		http.Error(w, aerr.Error(), http.StatusServiceUnavailable)
		return
	}
	req.SetAdmission(tenant, cost, queuedWall, "")
	// Release feeds the measured work back into the controller's
	// throughput estimate, whether the synthesis succeeds or not.
	defer ticket.Release(opts.Recorder)

	// Streaming delivery is opt-in per request: ?stream=1 or an Accept
	// header naming the stream media type. The engine delivers every
	// response in presentation order; an opted-in one goes through a
	// FlushingSink — bytes are flushed to the client at the container
	// header and every segment boundary (coalesced by FlushInterval), and
	// a client draining slower than synthesis blocks only this request's
	// delivery goroutine once the StreamBufferKB queue fills.
	streaming := r.URL.Query().Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "application/x-v2v-stream")

	w.Header().Set("Content-Type", "application/x-v2v-stream")
	start := time.Now()
	var dst io.Writer = w
	var fs *media.FlushingSink
	if streaming {
		fs = media.NewFlushingSink(w, media.FlushConfig{
			BufferBytes:   s.cfg.StreamBufferKB << 10,
			FlushInterval: s.cfg.FlushInterval,
		})
		dst = fs
		opts.OnSegmentDone = func(int) { fs.Barrier() }
	}
	res, err := pr.SynthesizeStreamContext(ctx, dst, opts)
	// Classify a failure now, before the final flush: once the error
	// trailer is on the wire the client may hang up, and that must not
	// turn a reported failure into a cancellation.
	canceled := err != nil && ctx.Err() != nil
	if fs != nil {
		// Drain the queue before the handler returns: the typed trailer a
		// failed synthesis wrote via the sink must reach the client before
		// the connection closes. A downstream (client) write error
		// surfaces here if the synthesis itself didn't observe it.
		if cerr := fs.CloseFlush(); cerr != nil && err == nil {
			err, canceled = cerr, ctx.Err() != nil
		}
	}
	req.SetTrace(tr)
	if err != nil {
		// The executor wrote a typed error trailer through the sink, so
		// clients distinguish a reported failure from raw truncation.
		// Either way the stream did not end with a clean EOS trailer —
		// count it.
		truncated.Inc()
		if canceled {
			synthCanceled.Inc()
			req.Finish("canceled", err)
			s.cfg.Logger.Warn("synthesis canceled",
				"wall", time.Since(start), "error", err, "trace_id", traceID)
			return
		}
		synthFail.Inc()
		req.Finish("error", err)
		s.cfg.Logger.Error("synthesis failed",
			"wall", time.Since(start), "error", err, "trace_id", traceID)
		return
	}
	synthOK.Inc()
	if fs != nil {
		// Honest TTFF: for streaming consumers, first output means "first
		// bytes flushed to the client", not "first packet handed to Go's
		// response buffers" (the executor's stamp). Override the metric
		// with the flushing sink's measurement; file consumers and
		// responses that did not opt in keep the executor semantics.
		if first, ok := fs.FirstFlush(); ok {
			ttff := first.Sub(start)
			res.Metrics.FirstOutput = ttff
			ttffHist.Observe(ttff.Seconds())
			req.SetStreaming(ttff)
		}
	}
	wallHist.Observe(res.Metrics.Wall.Seconds())
	firstHist.Observe(res.Metrics.FirstOutput.Seconds())
	req.SetPlan(res.Plan.Explain())
	req.SetSegments(segmentRecords(res))
	req.SetCaches(res.Metrics.Source.GOPCacheHits, res.Metrics.Source.GOPCacheMisses,
		res.Metrics.ResultCacheHits, res.Metrics.ResultCacheMisses)
	req.Finish("ok", nil)
	s.cfg.Logger.Info("synthesis complete",
		"packets", res.Metrics.Output.PacketsCopied+res.Metrics.Output.FramesEncoded,
		"copied", res.Metrics.Output.PacketsCopied,
		"wall", res.Metrics.Wall,
		"first_output", res.Metrics.FirstOutput,
		"trace_id", traceID)
}

// requestTenant maps a request to its admission fairness bucket: the
// X-Tenant header, else the X-API-Key header, else the shared default
// bucket.
func requestTenant(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	if k := strings.TrimSpace(r.Header.Get("X-API-Key")); k != "" {
		return k
	}
	return admit.DefaultTenant
}

// retryAfterSeconds renders a shed's retry hint as the whole seconds the
// Retry-After header requires, rounding up so clients never retry early.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
