package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // timed window of the untraced pass, per workload
	trace   bool    // also run the traced pass and the probes
	smoke   bool    // one set-up, part of a round per pass, no warm-up round
	// parallel is P, the engine parallelism passed to every synthesis;
	// clients is C, the closed-loop client count of the serve workloads.
	// Both are min(nproc, 4): the load never exceeds the cores present.
	parallel, clients int
	golden            map[string]string
}

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median, so one slow build or a cold page cache does not move it.
const setupRepeats = 3

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Name        string                 `json:"-"`
	Why         string                 `json:"why"`
	ServerFlags []string               `json:"server_flags,omitempty"`
	Ops         int                    `json:"ops"`
	Rounds      int                    `json:"rounds"`
	WindowS     float64                `json:"window_s"`
	TracedOps   int                    `json:"traced_ops"`
	WarmupS     float64                `json:"warmup_s"`
	VerifyS     float64                `json:"verify_s"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	PixelChecks int                    `json:"pixel_checks"`
	Golden      int                    `json:"golden_checks"`
	Failures    []string               `json:"failures,omitempty"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`

	spans []span
	// refs are the reference pixel digests of the checked ops, by key;
	// -write-golden commits them.
	refs map[string]string
}

// env is one set-up: generated datasets, and for a serve workload the
// built and started server.
type env struct {
	dir string
	ds  *datasets
	srv *server
}

func (e *env) close() error {
	var err error
	if e.srv != nil {
		err = e.srv.stop()
		e.srv = nil
	}
	os.RemoveAll(e.dir)
	return err
}

// setUp generates the datasets into a fresh directory under bench/out
// and, for a serve workload, builds cmd/v2vserve from source and starts
// it. It is everything that happens before the first request can be sent.
func setUp(ctx context.Context, w *workload, cfg config) (*env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	if e.ds, err = generateDatasets(dir, cfg.parallel); err != nil {
		e.close()
		return nil, err
	}
	if w.Serve {
		bin, err := buildServer(ctx, dir)
		if err != nil {
			e.close()
			return nil, err
		}
		flags := append(commonServerFlags(cfg.parallel), w.ServerFlags...)
		logPath := filepath.Join(outDir, w.Name+".server.log")
		if e.srv, err = startServer(ctx, bin, logPath, flags); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// limit bounds a pass: ops operations when ops is set (the smoke run's
// part rounds), else whole rounds within dur.
type limit struct {
	dur time.Duration
	ops int
}

// doOp executes op i of the schedule on one of the clients.
type doOp func(worker, i int, op opSpec) opResult

// pass runs ops of sched from index *next on, on clients concurrent
// closed-loop callers, in whole rounds: it always runs one round, and
// starts another while the time used plus half a round still fits in
// lim.dur. Whole rounds keep the mix of op classes identical between any
// two runs, so their percentiles compare. It returns the results in
// schedule order and the window from the first op's start to the last op's
// end.
func pass(ctx context.Context, sched *schedule, next *int, lim limit, clients int, do doOp) ([]*opResult, time.Duration) {
	var mu sync.Mutex
	from, stopped := *next, false
	results := map[int]*opResult{}
	start := time.Now()
	var end time.Time
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := *next
				if done := i - from; lim.ops > 0 {
					stopped = done >= lim.ops
				} else if done > 0 && done%sched.roundLen == 0 && !stopped {
					elapsed := time.Since(start)
					perRound := elapsed / time.Duration(done/sched.roundLen)
					stopped = elapsed+perRound/2 > lim.dur
				}
				if stopped || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				op := sched.op(i)
				*next = i + 1
				mu.Unlock()

				r := do(worker, i, op)

				mu.Lock()
				results[i] = &r
				end = time.Now()
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out := make([]*opResult, 0, len(results))
	for i := from; i < *next; i++ {
		if r := results[i]; r != nil {
			out = append(out, r)
		}
	}
	return out, end.Sub(start)
}

// warmHotPool requests every hot-pool spec twice and returns the results.
// Twice, because the server's cache arbiter admits a result only on its
// second sighting. A ToS spec goes first and alone, because the server
// sizes its GOP cache from the first plan it executes and the ToS film has
// the larger GOPs: every seed then runs against the same cache budget. The
// rest go out on all clients at once.
func warmHotPool(hot []opSpec, clients int, do doOp) []*opResult {
	ops := append([]opSpec(nil), hot...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Class.DS == "tos" && ops[j].Class.DS != "tos" })
	ops = append(ops, ops...)
	results := make([]*opResult, len(ops))
	run := func(worker, i int) {
		op := ops[i]
		op.Check = true
		r := do(worker, -1-i, op)
		results[i] = &r
	}
	run(0, 0)
	forEach(clients, len(ops)-1, func(worker, i int) { run(worker, i+1) })
	return results
}

// runner holds what the passes of one workload's run share.
type runner struct {
	ctx   context.Context
	w     *workload
	cfg   config
	e     *env
	sched *schedule
	next  int // index of the schedule's next unused op
	// clients is the number of concurrent callers: C for a serve
	// workload, one in process. enginePID is the process whose CPU and
	// memory are the engine's: the server, or the benchmark itself.
	clients   int
	enginePID int
	batch     *batchExec
	conns     []*serveClient
}

func (rn *runner) untraced(worker, i int, op opSpec) opResult {
	if rn.w.Serve {
		return rn.conns[worker].run(rn.ctx, nil, i, op)
	}
	return rn.batch.run(rn.ctx, i, op)
}

// tracedPass runs a pass with the benchmark's spans on (and, in process,
// the engine's own Trace and Recorder set) and reduces it to the per-layer
// metrics that come from a workload's ops and counters.
func (rn *runner) tracedPass(lim limit) ([]*opResult, map[string]metricValue, []span, error) {
	rec := newSpanRecorder()
	serve := rn.w.Serve
	var before, after serverCounters
	var mem0, mem1 runtime.MemStats
	var err error
	if serve {
		if before, err = readServerCounters(rn.e.srv.base); err != nil {
			return nil, nil, nil, err
		}
	} else {
		runtime.ReadMemStats(&mem0)
	}
	traced, _ := pass(rn.ctx, rn.sched, &rn.next, lim, rn.clients, func(worker, i int, op opSpec) opResult {
		if serve {
			return rn.conns[worker].run(rn.ctx, rec, i, op)
		}
		return rn.batch.runTraced(rn.ctx, rec, i, op)
	})
	var waits []float64
	if serve {
		// Join each op to the server's record of it, then read the
		// counters again.
		if waits, err = joinServerRecords(rn.e.srv.base, rec, traced, rn.cfg.parallel); err != nil {
			return nil, nil, nil, err
		}
		if after, err = readServerCounters(rn.e.srv.base); err != nil {
			return nil, nil, nil, err
		}
	} else {
		runtime.ReadMemStats(&mem1)
	}

	layers := reduceLayers(traced)
	set := func(name string, v float64) { layers[name] = single(v, layerUnit(name)) }
	var frames, refFrames, decoded float64
	for _, r := range traced {
		frames += float64(r.Frames)
		refFrames += float64(r.Op.RefFrames)
		decoded += r.layer["exec.frames_decoded"]
	}
	ops := float64(len(traced))
	set("exec.decode_waste_ratio", ratio(decoded, refFrames))
	set("proc.peak_rss_mb", procPeakRSSMB(rn.enginePID))
	if !serve {
		set("proc.alloc_mb_per_op", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20), ops))
		set("proc.allocs_per_frame", ratio(float64(mem1.Mallocs-mem0.Mallocs), frames))
		return traced, layers, rec.snapshot(), nil
	}
	sw := sortedCopy(waits)
	layers["admit.queue_wait_p50_ms"] = reduced(percentile(sw, 50), "ms", waits)
	layers["admit.queue_wait_p90_ms"] = reduced(percentile(sw, 90), "ms", waits)
	set("admit.shed", float64(after.Shed))
	gopHits, gopMisses := float64(after.GOP.Hits-before.GOP.Hits), float64(after.GOP.Misses-before.GOP.Misses)
	resHits, resMisses := float64(after.Result.Hits-before.Result.Hits), float64(after.Result.Misses-before.Result.Misses)
	set("media.gopcache_hit_ratio", ratio(gopHits, gopHits+gopMisses))
	set("media.gopcache_evictions", float64(after.GOP.Evictions-before.GOP.Evictions))
	set("media.gopcache_resident_mb", float64(after.GOP.Bytes)/(1<<20))
	set("media.rescache_hit_ratio", ratio(resHits, resHits+resMisses))
	set("media.rescache_evictions", float64(after.Result.Evictions-before.Result.Evictions))
	set("media.rescache_resident_mb", float64(after.Result.Bytes)/(1<<20))
	set("media.arbiter_denied", float64(after.Denied-before.Denied))
	set("proc.alloc_mb_per_op", ratio(after.AllocMB-before.AllocMB, ops))
	set("proc.allocs_per_frame", ratio(after.Mallocs-before.Mallocs, frames))
	return traced, layers, rec.snapshot(), nil
}

// runWorkload sets up, warms up, runs the untraced timed pass, optionally
// the traced pass and the probes, tears down, verifies every output, and
// reduces the metrics.
func runWorkload(ctx context.Context, w *workload, cfg config) (*workloadResult, error) {
	res := &workloadResult{Name: w.Name, Why: w.Why}
	if w.Serve {
		res.ServerFlags = append(commonServerFlags(cfg.parallel), w.ServerFlags...)
	}

	// Set-up, several times; the last one is kept and used.
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 1
	}
	var e *env
	var setups []float64
	for i := 0; i < repeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if e, err = setUp(ctx, w, cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	rn := &runner{ctx: ctx, w: w, cfg: cfg, e: e, sched: newSchedule(w, cfg.seed, e.ds),
		clients: 1, enginePID: os.Getpid(),
		batch: &batchExec{dir: e.dir, parallel: cfg.parallel, explained: map[class]bool{}}}
	if w.Serve {
		rn.clients, rn.enginePID = cfg.clients, e.srv.pid()
		for i := 0; i < rn.clients; i++ {
			rn.conns = append(rn.conns, newServeClient(e.srv.base))
		}
	}
	var all []*opResult // every op of every pass, for verification

	// Warm-up, untimed, so caches, pools and lazy set-up are in their
	// steady state when timing starts: one round, or for serve_mixed the
	// hot pool, every spec pixel-checked.
	warmStart := time.Now()
	if hot := rn.sched.hotPool(); hot != nil {
		all = append(all, warmHotPool(hot, rn.clients, rn.untraced)...)
	} else if !cfg.smoke {
		rs, _ := pass(ctx, rn.sched, &rn.next, limit{}, rn.clients, rn.untraced)
		all = append(all, rs...)
	}
	res.WarmupS = time.Since(warmStart).Seconds()

	// The timed pass, tracing off. The traced pass gets a quarter of its
	// window; a smoke run does half a round and a quarter of a round.
	lim := limit{dur: time.Duration(cfg.seconds * float64(time.Second))}
	tracedLim := limit{dur: lim.dur / 4}
	if cfg.smoke {
		lim, tracedLim = limit{ops: (rn.sched.roundLen + 1) / 2}, limit{ops: (rn.sched.roundLen + 3) / 4}
	}
	cpu0, err := procCPU(rn.enginePID)
	if err != nil {
		return nil, err
	}
	timed, window := pass(ctx, rn.sched, &rn.next, lim, rn.clients, rn.untraced)
	cpu1, err := procCPU(rn.enginePID)
	if err != nil {
		return nil, err
	}
	all = append(all, timed...)
	res.Ops, res.Rounds, res.WindowS = len(timed), len(timed)/rn.sched.roundLen, window.Seconds()

	var traced []*opResult
	var layers map[string]metricValue
	if cfg.trace {
		if traced, layers, res.spans, err = rn.tracedPass(tracedLim); err != nil {
			return nil, err
		}
		all = append(all, traced...)
		res.TracedOps = len(traced)
	}

	// Tear down before probing and verifying: the server must drain and
	// exit cleanly, and neither probes nor reference renders should share
	// the machine with it.
	if e.srv != nil {
		if err := e.srv.stop(); err != nil {
			res.Failures = append(res.Failures, err.Error())
		}
		e.srv = nil
	}
	if cfg.trace {
		calls := 200
		if cfg.smoke {
			calls = 20
		}
		probes, err := runProbes(ctx, e.ds, calls)
		if err != nil {
			return nil, err
		}
		for name, p := range probes {
			layers[name] = p
		}
	}

	verifyStart := time.Now()
	checkRepeats(all)
	v := &verifier{dir: e.dir, parallel: cfg.parallel, golden: cfg.golden, refs: map[string]string{}}
	for _, r := range all {
		if r.kept != nil {
			res.PixelChecks++
		}
	}
	v.checkPixels(ctx, all)
	res.Golden, res.refs = v.goldenChecked, v.refs
	res.VerifyS = time.Since(verifyStart).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// A warm-up failure is a correctness failure too, though it is not an
	// attempted op of the timed passes.
	for _, r := range all {
		if r.Err != "" {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %s", r.Op.Key, r.Err))
		}
	}
	res.Attempted = len(timed) + len(traced)
	for _, rs := range [][]*opResult{timed, traced} {
		for _, r := range rs {
			if r.Err != "" {
				res.Failed++
			}
		}
	}
	res.EndToEnd = endToEndMetrics(timed, window.Seconds(), cpu1-cpu0, setups)
	if cfg.trace {
		base := res.EndToEnd["wall_p50_ms"].Value
		tracedP50 := endToEndMetrics(traced, 1, 0, nil)["wall_p50_ms"].Value
		layers["obs.trace_overhead_share"] = single(ratio(tracedP50-base, base), "ratio")
		// A metric a workload cannot have (server layers in process, the
		// parser's span on the server) reports 0 with no samples.
		for _, d := range perLayer {
			if _, ok := layers[d.Name]; !ok {
				layers[d.Name] = metricValue{Unit: d.Unit}
			}
		}
		res.PerLayer = layers
	}
	return res, nil
}
