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

func (s *Server) synthesize(w http.ResponseWriter, r *http.Request) {
	var raw []byte
	var query, name string
	var err error
	switch r.Method {
	case http.MethodPost:
		raw, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		query = string(raw)
	case http.MethodGet:
		name = r.URL.Query().Get("spec")
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
		status, msg := http.StatusBadRequest, err.Error()
		switch tooBig := (*http.MaxBytesError)(nil); {
		case errors.As(err, &tooBig):
			status = http.StatusRequestEntityTooLarge
		case errors.Is(err, os.ErrNotExist):
			status, msg = http.StatusNotFound, fmt.Sprintf("spec %q not found", name)
		case r.Method == http.MethodGet:
			// The error names the server's path: log it, never send it.
			s.cfg.Logger.Error("reading spec failed", "error", err, "trace_id", traceID)
			status, msg = http.StatusInternalServerError, fmt.Sprintf("spec %q could not be read", name)
		}
		req.Finish("error", errors.New(msg))
		http.Error(w, msg, status)
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
	opts.Cache = s.cache
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

	// Every response streams: the executor flushes after the container
	// header and after each segment, and the FlushingSink pushes those
	// bytes to the client; a client draining
	// slower than synthesis blocks only this request's delivery goroutine
	// once the StreamBufferKB queue fills. A ?stream=1 query or an Accept
	// header naming the stream media type is accepted and changes nothing.
	w.Header().Set("Content-Type", "application/x-v2v-stream")
	start := time.Now()
	fs := media.NewFlushingSink(w, s.cfg.StreamBufferKB<<10)
	res, err := pr.SynthesizeStreamContext(ctx, fs, opts)
	// Classify a failure by its error, not by ctx: the executor returns
	// ctx's error whenever cancellation stopped it, before it writes the
	// error trailer. Once the trailer is on the wire the client may hang
	// up, even before this line, and that must not turn a reported failure
	// into a cancellation.
	canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	// Drain the queue before the handler returns: the typed trailer a
	// failed synthesis wrote via the sink must reach the client before the
	// connection closes. A downstream (client) write error surfaces here if
	// the synthesis itself didn't observe it.
	if cerr := fs.CloseFlush(); cerr != nil && err == nil {
		err, canceled = cerr, ctx.Err() != nil
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
	// Honest TTFF: first output means "first bytes flushed to the client",
	// not "first packet handed to Go's response buffers" (the executor's
	// stamp).
	if first, ok := fs.FirstFlush(); ok {
		res.Metrics.FirstOutput = first.Sub(start)
		ttffHist.Observe(res.Metrics.FirstOutput.Seconds())
		req.SetTTFF(res.Metrics.FirstOutput)
	}
	wallHist.Observe(res.Metrics.Wall.Seconds())
	req.SetSegments(res.Metrics.Segments)
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
