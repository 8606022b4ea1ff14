// Command v2vserve is the on-demand synthesis server the paper envisions
// a VDBMS embedding: clients POST a spec and receive the result video as a
// progressive VMS stream — playback-ready packets start flowing while
// later segments are still rendering.
//
// Serve:
//
//	v2vserve -listen :8370 -specs ./specs
//
// Endpoints:
//
//	POST /synthesize          spec text in the body -> VMS stream
//	GET  /synthesize?spec=X   loads <specs>/X -> VMS stream
//	GET  /healthz             liveness probe
//	GET  /metrics             Prometheus text exposition
//	GET  /debug/requests      flight recorder: recent + in-flight requests
//	GET  /debug/caches        GOP/result cache contents and budget split
//	GET  /debug/admit         admission controller + memory-pressure state
//	GET  /debug/pprof/        net/http/pprof profiles
//
// Every response carries an X-Trace-Id header; the same ID appears in the
// request's structured log lines, its /debug/requests record, and its
// span trace (/debug/requests?trace=<id> exports Chrome trace JSON).
//
// Every synthesis passes cost-based admission control before executing
// (docs/ADMISSION.md): X-Tenant (or X-API-Key) selects the fairness
// bucket, X-Deadline-Ms sets a deadline the scheduler honors, and a
// request the server cannot serve in time is refused with 429/503 plus
// Retry-After instead of failing mid-stream.
//
// SIGINT/SIGTERM drain in-flight streams (up to -drain) before exiting.
//
// Fetch (client mode): retrieve a stream and save it as a seekable VMF
// file:
//
//	v2vserve -fetch http://host:8370/synthesize?spec=demo.v2v -out result.vmf
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"v2v"
	"v2v/internal/admit"
	"v2v/internal/cliutil"
	"v2v/internal/media"
	"v2v/internal/obs"
)

// validateServeFlags rejects nonsensical flag values before any server
// state is built, so a typo'd unit (bytes instead of MiB, negative
// durations) fails fast with a clear message.
func validateServeFlags(drain, synthTO, admitTO, flushInterval time.Duration, cacheMB, resMB, budgetMB, slowMS, flightSize, parallel, maxQueue, streamBufKB int, tenantWeight, logFormat string) error {
	_, werr := cliutil.ParseTenantWeights("-tenant-weight", tenantWeight)
	return errors.Join(
		cliutil.ValidateTimeout("-drain", drain),
		cliutil.ValidateTimeout("-synth-timeout", synthTO),
		cliutil.ValidateTimeout("-admit-timeout", admitTO),
		cliutil.ValidateTimeout("-flush-interval", flushInterval),
		cliutil.ValidateCacheMB("-gop-cache-mb", cacheMB),
		cliutil.ValidateCacheMB("-result-cache-mb", resMB),
		cliutil.ValidateBudgetMB("-cache-budget-mb", budgetMB),
		cliutil.ValidateMillis("-slow-query-ms", slowMS),
		cliutil.ValidateRingSize("-flight-recorder-size", flightSize),
		cliutil.ValidateParallel("-parallel", parallel),
		cliutil.ValidateQueueDepth("-max-queue", maxQueue),
		cliutil.ValidateBufferKB("-stream-buffer-kb", streamBufKB),
		werr,
		cliutil.ValidateLogFormat("-log-format", logFormat),
	)
}

// newLogger builds the process logger; "json" selects JSON lines for log
// shippers, anything else the human-readable text handler.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func main() {
	var (
		listen     = flag.String("listen", ":8370", "serve address")
		specs      = flag.String("specs", ".", "directory for GET ?spec= lookups")
		noOpt      = flag.Bool("no-opt", false, "disable the optimizer (for demos)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout for in-flight streams")
		synthTO    = flag.Duration("synth-timeout", 0, "per-request synthesis timeout (0 = no limit)")
		strict     = flag.Bool("strict", false, "fail requests on corrupt or undecodable source packets instead of concealing them")
		cacheMB    = flag.Int("gop-cache-mb", 0, "decoded-GOP cache budget in MiB shared across all requests (0 = auto-size from the sources, -1 = disable)")
		resMB      = flag.Int("result-cache-mb", 0, "encoded-result cache budget in MiB shared across all requests (0 = 256 MiB default, -1 = disable)")
		budgetMB   = flag.Int("cache-budget-mb", 0, "unified byte budget in MiB shared by the GOP and result caches via an arbiter (0 = sum of the per-cache budgets; ignored unless both caches are enabled)")
		slowMS     = flag.Int("slow-query-ms", 0, "log a warning for requests slower than this many milliseconds, and let /debug/requests?slow=1 filter on it (0 = disabled)")
		flightSize = flag.Int("flight-recorder-size", 0, "completed requests kept in the /debug/requests ring (0 = default)")
		parallel   = flag.Int("parallel", 0, "shard parallelism per synthesis (0 = GOMAXPROCS)")
		maxQueue   = flag.Int("max-queue", 0, "admission queue depth across all tenants (0 = default 64)")
		admitTO    = flag.Duration("admit-timeout", 0, "max time a request may wait in the admission queue before being shed (0 = default 10s)")
		tenantW    = flag.String("tenant-weight", "", `per-tenant admission fairness weights as "name=w,name=w" (e.g. "gold=3,free=1"); unlisted tenants get weight 1`)
		flushIvl   = flag.Duration("flush-interval", 0, "minimum spacing between segment-boundary flushes on streaming (?stream=1) responses; the header and final flush are never delayed (0 = flush at every segment boundary)")
		streamKB   = flag.Int("stream-buffer-kb", 0, "per-stream delivery queue cap in KiB for ?stream=1 responses; a client draining slower than synthesis blocks only its own request once the queue is full (0 = 256 KiB default)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		fetchURL   = flag.String("fetch", "", "client mode: fetch this URL instead of serving")
		out        = flag.String("out", "", "client mode: output VMF path")
	)
	flag.Parse()

	logger := newLogger(*logFormat)
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	if err := validateServeFlags(*drain, *synthTO, *admitTO, *flushIvl, *cacheMB, *resMB, *budgetMB, *slowMS, *flightSize, *parallel, *maxQueue, *streamKB, *tenantW, *logFormat); err != nil {
		fatal("invalid flags", err)
	}

	if *fetchURL != "" {
		if *out == "" {
			fatal("client mode", errors.New("-fetch requires -out"))
		}
		if err := fetch(*fetchURL, *out); err != nil {
			fatal("fetch failed", err)
		}
		return
	}

	srv := newServer(*specs, !*noOpt, obs.Default())
	srv.logger = logger
	srv.synthTimeout = *synthTO
	srv.strict = *strict
	if *flightSize > 0 {
		srv.flight = v2v.NewFlightRecorder(*flightSize)
	}
	srv.flight.SetSlowThreshold(time.Duration(*slowMS) * time.Millisecond)
	srv.flight.SetLogger(logger)
	if *cacheMB >= 0 {
		// One process-wide cache: concurrent requests touching the same
		// sources share decodes, and a hot GOP survives across requests.
		srv.gopCache = v2v.NewGOPCache(int64(*cacheMB) << 20)
	}
	if *resMB >= 0 {
		// One process-wide result cache: a repeated or overlapping query
		// splices previously encoded segments instead of re-rendering.
		srv.resultCache = v2v.NewResultCache(int64(*resMB) << 20)
	}
	if srv.gopCache != nil && srv.resultCache != nil {
		// Both caches enabled: arbitrate one shared byte budget between
		// them instead of enforcing two independent hard caps.
		srv.arbiter = v2v.NewCacheArbiter(int64(*budgetMB) << 20)
		srv.gopCache.AttachArbiter(srv.arbiter)
		srv.resultCache.AttachArbiter(srv.arbiter)
	}
	// Resolved once for the process; admission's slot cap is sized from it.
	srv.parallelism = *parallel
	if srv.parallelism < 1 {
		srv.parallelism = runtime.GOMAXPROCS(0)
	}
	srv.flushInterval = *flushIvl
	srv.streamBufBytes = *streamKB << 10
	weights, _ := cliutil.ParseTenantWeights("-tenant-weight", *tenantW)
	srv.admit = admit.NewController(admit.Config{
		MaxQueue: *maxQueue,
		MaxWait:  *admitTO,
		Weights:  weights,
		SlotCap:  2 * srv.parallelism,
	})
	hs := &http.Server{Addr: *listen, Handler: srv.routes()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The memory-pressure monitor drives both back-pressure paths: the
	// cache arbiter sheds resident bytes, the admission controller
	// tightens its concurrency and cost capacity.
	srv.monitor = admit.NewMonitor(0)
	srv.monitor.OnChange(func(l admit.PressureLevel) {
		f := l.Factor()
		srv.admit.SetPressureFactor(f)
		if srv.arbiter != nil {
			srv.arbiter.SetPressureFactor(f)
		}
		logger.Info("memory pressure level", "level", l.String(), "factor", f)
	})
	srv.monitor.Run(ctx)

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("listening", "addr", *listen, "specs", *specs)

	select {
	case err := <-errc:
		fatal("server failed", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		logger.Info("shutdown signal, draining in-flight streams", "drain", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			logger.Warn("drain incomplete", "error", err)
		}
		srv.admit.Close()
		srv.monitor.Wait()
		logger.Info("stopped")
	}
}

// server holds the request handlers and their metric instruments (looked
// up once; updates on the hot path are lock-free).
type server struct {
	specDir  string
	optimize bool
	// synthTimeout bounds each request's synthesis (0 = unlimited); the
	// request context is honored either way, so a disconnected client
	// cancels its own synthesis.
	synthTimeout time.Duration
	// strict fails requests on corrupt source packets instead of concealing.
	strict bool
	// gopCache, when non-nil, is the process-wide decoded-GOP cache shared
	// by every request's shard workers (nil = caching disabled).
	gopCache *v2v.GOPCache
	// resultCache, when non-nil, memoizes rendered segments' encoded
	// output across requests (nil = result caching disabled).
	resultCache *v2v.ResultCache
	// arbiter, when non-nil, coordinates one byte budget across both
	// caches; retained for /debug/caches introspection.
	arbiter *v2v.CacheArbiter
	// flight records recent and in-flight synthesis requests, served at
	// /debug/requests.
	flight *v2v.FlightRecorder
	// admit is the overload front door: every synthesis passes Acquire
	// before executing, weighted by its plan's estimated cost.
	admit *admit.Controller
	// monitor drives the pressure factor into admit and arbiter (nil in
	// tests that construct the server directly).
	monitor *admit.Monitor
	// parallelism caps each synthesis's shard fan-out (0 = GOMAXPROCS).
	parallelism int
	// flushInterval bounds how often a streaming response flushes at
	// segment boundaries (0 = every boundary); see -flush-interval.
	flushInterval time.Duration
	// streamBufBytes caps each streaming response's delivery queue — the
	// per-request backpressure point (0 = media default); -stream-buffer-kb.
	streamBufBytes int
	logger         *slog.Logger
	reg            *obs.Registry

	requests      *obs.Counter
	errs4xx       *obs.Counter
	errs5xx       *obs.Counter
	synthOK       *obs.Counter
	synthFail     *obs.Counter
	synthCanceled *obs.Counter
	truncated     *obs.Counter
	inflight      *obs.Gauge
	wallHist      *obs.Histogram
	firstHist     *obs.Histogram
	ttffHist      *obs.Histogram
}

func newServer(specDir string, optimize bool, reg *obs.Registry) *server {
	return &server{
		specDir:  specDir,
		optimize: optimize,
		flight:   v2v.NewFlightRecorder(0),
		// A default-config controller: effectively permissive (capacity is
		// unbounded until throughput is measured) yet still protective
		// under real overload. main replaces it with the flag-configured
		// one.
		admit:    admit.NewController(admit.Config{}),
		logger:   slog.Default(),
		reg:      reg,
		requests: reg.Counter("v2v_http_requests_total", "HTTP requests served."),
		errs4xx: reg.Counter(`v2v_http_errors_total{class="4xx"}`,
			"HTTP error responses by status class."),
		errs5xx: reg.Counter(`v2v_http_errors_total{class="5xx"}`,
			"HTTP error responses by status class."),
		synthOK: reg.Counter("v2v_synthesis_total", "Completed syntheses."),
		synthFail: reg.Counter("v2v_synthesis_failures_total",
			"Syntheses that failed mid-stream, after headers were sent."),
		synthCanceled: reg.Counter("v2v_synthesis_canceled_total",
			"Syntheses stopped by client disconnect or the per-request timeout."),
		truncated: reg.Counter("v2v_streams_truncated_total",
			"Response streams that ended after the header without a clean end-of-stream trailer (failed or canceled mid-stream)."),
		inflight: reg.Gauge("v2v_inflight_requests", "Requests currently being served."),
		wallHist: reg.Histogram("v2v_synthesis_wall_seconds",
			"End-to-end synthesis wall time.", obs.LatencyBuckets()),
		firstHist: reg.Histogram("v2v_synthesis_first_output_seconds",
			"Latency until the first output packet (the paper's interactivity measure).",
			obs.LatencyBuckets()),
		ttffHist: reg.Histogram("v2v_stream_ttff_seconds",
			"Time until the first bytes were flushed to a streaming (?stream=1) client — the honest time-to-first-frame.",
			obs.LatencyBuckets()),
	}
}

// routes assembles the mux behind the logging/metrics middleware.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/synthesize", s.synthesize)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/requests", s.flight.Handler())
	mux.HandleFunc("/debug/caches", s.caches)
	mux.HandleFunc("/debug/admit", s.admitDebug)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.observed(mux)
}

// statusWriter captures the response status and bytes written for logging
// and error counting, passing flushes through so streaming stays
// progressive.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceIDKey carries the request's trace ID through the context from the
// middleware to the synthesize handler, so the flight record, the span
// trace, and every log line share one ID.
type traceIDKeyType struct{}

var traceIDKey traceIDKeyType

// requestTraceID returns the trace ID the middleware assigned, minting
// one for handlers invoked outside the middleware (direct tests).
func requestTraceID(r *http.Request) string {
	if id, ok := r.Context().Value(traceIDKey).(string); ok && id != "" {
		return id
	}
	return obs.NewTraceID()
}

// observed is the request middleware: it assigns the trace ID (echoed in
// the X-Trace-Id response header), logs a structured request line, and
// feeds the request/error counters.
func (s *server) observed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		traceID := obs.NewTraceID()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		w.Header().Set("X-Trace-Id", traceID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r = r.WithContext(context.WithValue(r.Context(), traceIDKey, traceID))
		next.ServeHTTP(sw, r)
		s.requests.Inc()
		switch {
		case sw.status >= 500:
			s.errs5xx.Inc()
		case sw.status >= 400:
			s.errs4xx.Inc()
		}
		target := r.URL.Path
		if name := r.URL.Query().Get("spec"); name != "" {
			target += "?spec=" + name
		}
		s.logger.Info("request",
			"method", r.Method,
			"target", target,
			"status", sw.status,
			"bytes", sw.bytes,
			"wall", time.Since(start).Round(time.Millisecond),
			"trace_id", traceID)
	})
}

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
func segmentRecords(res *v2v.Result) []obs.SegmentRecord {
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

func (s *server) synthesize(w http.ResponseWriter, r *http.Request) {
	var spec *v2v.Spec
	var query string
	var err error
	switch r.Method {
	case http.MethodPost:
		body, rerr := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if rerr != nil {
			http.Error(w, rerr.Error(), http.StatusBadRequest)
			return
		}
		query = string(body)
		spec, err = parseAny(body)
	case http.MethodGet:
		name := r.URL.Query().Get("spec")
		if !validSpecName(name) {
			http.Error(w, "missing or invalid ?spec=", http.StatusBadRequest)
			return
		}
		query = "spec=" + name
		spec, err = v2v.LoadSpec(filepath.Join(s.specDir, name))
	default:
		http.Error(w, "POST a spec or GET ?spec=", http.StatusMethodNotAllowed)
		return
	}

	// The flight record starts as soon as there is query text, so parse
	// failures show up at /debug/requests?errored=1 too.
	traceID := requestTraceID(r)
	req := s.flight.Start(traceID, query)
	if err != nil {
		req.Finish("error", err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	opts := v2v.Options{}
	if s.optimize {
		opts = v2v.DefaultOptions()
	}
	opts.Conceal = !s.strict
	opts.GOPCache = s.gopCache
	opts.ResultCache = s.resultCache
	opts.Parallelism = s.parallelism
	// Every request gets its own span trace and stage recorder, joined to
	// the flight record and the log lines by the shared trace ID.
	tr := v2v.NewTrace("synthesize")
	tr.SetID(traceID)
	opts.Trace = tr
	opts.Recorder = req.Recorder()

	// Plan before admission: the plan's static cost estimate is the
	// admission weight, and shed requests still leave their plan in the
	// flight record for postmortems.
	pr, err := v2v.Prepare(spec, opts)
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
	if s.synthTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.synthTimeout)
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
			s.logger.Warn("request shed",
				"tenant", tenant, "reason", shed.Reason, "cost_units", cost,
				"queued", queuedWall.Round(time.Millisecond), "trace_id", traceID)
			return
		}
		// The client went away (or its deadline passed) while queued.
		s.synthCanceled.Inc()
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
	// header and every segment boundary (coalesced by -flush-interval),
	// and a client draining slower than synthesis blocks only this
	// request's delivery goroutine once the -stream-buffer-kb queue fills.
	streaming := r.URL.Query().Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "application/x-v2v-stream")

	w.Header().Set("Content-Type", "application/x-v2v-stream")
	start := time.Now()
	var dst io.Writer = w
	var fs *media.FlushingSink
	if streaming {
		fs = media.NewFlushingSink(w, media.FlushConfig{
			BufferBytes:   s.streamBufBytes,
			FlushInterval: s.flushInterval,
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
		// Post-header failures no longer just drop the connection: the
		// executor wrote a typed error trailer through the sink (satellite
		// of the streaming contract), so clients distinguish a reported
		// failure from raw truncation. Either way the stream did not end
		// with a clean EOS trailer — count it.
		s.truncated.Inc()
		if canceled {
			s.synthCanceled.Inc()
			req.Finish("canceled", err)
			s.logger.Warn("synthesis canceled",
				"wall", time.Since(start), "error", err, "trace_id", traceID)
			return
		}
		s.synthFail.Inc()
		req.Finish("error", err)
		s.logger.Error("synthesis failed",
			"wall", time.Since(start), "error", err, "trace_id", traceID)
		return
	}
	s.synthOK.Inc()
	if fs != nil {
		// Honest TTFF: for streaming consumers, first output means "first
		// bytes flushed to the client", not "first packet handed to Go's
		// response buffers" (the executor's stamp). Override the metric
		// with the flushing sink's measurement; file consumers and
		// responses that did not opt in keep the executor semantics.
		if first, ok := fs.FirstFlush(); ok {
			ttff := first.Sub(start)
			res.Metrics.FirstOutput = ttff
			s.ttffHist.Observe(ttff.Seconds())
			req.SetStreaming(ttff)
		}
	}
	s.wallHist.Observe(res.Metrics.Wall.Seconds())
	s.firstHist.Observe(res.Metrics.FirstOutput.Seconds())
	req.SetPlan(res.Plan.Explain())
	req.SetSegments(segmentRecords(res))
	req.SetCaches(res.Metrics.Source.GOPCacheHits, res.Metrics.Source.GOPCacheMisses,
		res.Metrics.ResultCacheHits, res.Metrics.ResultCacheMisses)
	req.Finish("ok", nil)
	s.logger.Info("synthesis complete",
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

// admitDebug serves GET /debug/admit: the admission controller's queue
// depths and per-tenant shares, the memory-pressure state, and the cache
// arbiter's budget split.
func (s *server) admitDebug(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		Admission admit.Stats            `json:"admission"`
		Pressure  *pressureDump          `json:"pressure,omitempty"`
		Arbiter   *v2v.CacheArbiterStats `json:"arbiter,omitempty"`
	}{Admission: s.admit.Stats()}
	if s.monitor != nil {
		samp := s.monitor.LastSample()
		resp.Pressure = &pressureDump{
			Level:       s.monitor.Level().String(),
			UsedBytes:   samp.Used,
			LimitBytes:  samp.Limit,
			Utilization: samp.Utilization(),
		}
	}
	if s.arbiter != nil {
		st := s.arbiter.Stats()
		resp.Arbiter = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		s.logger.Warn("admit dump failed", "error", err)
	}
}

// pressureDump is /debug/admit's memory-pressure section.
type pressureDump struct {
	Level       string  `json:"level"`
	UsedBytes   uint64  `json:"used_bytes"`
	LimitBytes  uint64  `json:"limit_bytes"`
	Utilization float64 `json:"utilization"`
}

// cacheDump is one cache's /debug/caches section: its counters plus the
// resident entries, most recently used first.
type cacheDump struct {
	Stats   any `json:"stats"`
	Entries any `json:"entries"`
}

// caches serves /debug/caches: resident GOP/result cache entries, the
// arbiter's budget split, and doorkeeper denials. Sections for disabled
// caches are omitted.
func (s *server) caches(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		GOP     *cacheDump             `json:"gop,omitempty"`
		Result  *cacheDump             `json:"result,omitempty"`
		Arbiter *v2v.CacheArbiterStats `json:"arbiter,omitempty"`
	}{}
	if s.gopCache != nil {
		resp.GOP = &cacheDump{Stats: s.gopCache.Stats(), Entries: s.gopCache.Entries()}
	}
	if s.resultCache != nil {
		resp.Result = &cacheDump{Stats: s.resultCache.Stats(), Entries: s.resultCache.Entries()}
	}
	if s.arbiter != nil {
		st := s.arbiter.Stats()
		resp.Arbiter = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		s.logger.Warn("cache dump failed", "error", err)
	}
}

func parseAny(raw []byte) (*v2v.Spec, error) {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return v2v.ParseSpecJSON(raw)
		default:
			return v2v.ParseSpec(string(raw))
		}
	}
	return nil, fmt.Errorf("empty spec")
}

// fetch retrieves a VMS stream and re-muxes it into a seekable VMF file,
// decoding nothing (pure packet copy).
func fetch(url, outPath string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	sr, err := media.NewStreamReader(resp.Body)
	if err != nil {
		return err
	}
	w, err := media.CreateWriter(outPath, sr.Info())
	if err != nil {
		return err
	}
	n := 0
	for {
		key, data, err := sr.NextPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			w.Abort()
			// The typed trailer distinguishes a failure the server reported
			// from a connection that was simply cut mid-stream.
			switch {
			case errors.Is(err, media.ErrStreamFailed):
				return fmt.Errorf("fetch: server reported failure mid-stream: %w", err)
			case errors.Is(err, media.ErrTruncatedStream):
				return fmt.Errorf("fetch: connection cut before end-of-stream trailer: %w", err)
			}
			return err
		}
		if err := w.WriteRawPacket(key, data); err != nil {
			w.Abort()
			return err
		}
		n++
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("fetched %d packets into %s\n", n, outPath)
	return nil
}
