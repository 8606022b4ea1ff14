package main

// agg says how a per-layer metric is reduced from per-op samples.
type agg int

const (
	// aggMedian reports the median of the per-op samples (timings, and
	// shares taken per op).
	aggMedian agg = iota
	// aggMean reports the mean per op (counts and busy times, so that
	// layers add up to totals).
	aggMean
	// aggPass marks a metric computed once per pass from counters read at
	// its start and end (cache ratios, allocations, peak memory).
	aggPass
	// aggProbe marks a metric measured by direct timed calls outside any
	// workload; every workload's traced run reports the same probe.
	aggProbe
)

// metricDef names one metric. BENCHMARK.json repeats Name, Unit and Better
// (and, for end-to-end metrics, the bound); metrics_test.go keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Agg    agg
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. fail_share is the eighth: it is 0 on a correct program, so
// the driver's line carries it as failed/attempted and BENCHMARK.json,
// whose metrics must never be 0, leaves it out.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wall_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ttff_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ttff_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_s_per_kframe", Unit: "s", Better: "lower"},
}

const failShare = "fail_share"

// perLayer are the single-layer metrics of the traced pass, by module.
var perLayer = []metricDef{
	// Front end: one span per module call.
	{"vql.parse_us", "us", "lower", aggMedian},
	{"check.check_us", "us", "lower", aggMedian},
	{"rewrite.rewrite_us", "us", "lower", aggMedian},
	{"rewrite.rewrites_applied", "count", "higher", aggMean},
	{"plan.build_us", "us", "lower", aggMedian},
	{"opt.optimize_us", "us", "lower", aggMedian},
	{"opt.copies", "count", "higher", aggMean},
	{"opt.smart_cuts", "count", "higher", aggMean},
	{"opt.sharded_segments", "count", "higher", aggMean},
	{"data.load_ms", "ms", "lower", aggProbe},

	// Executor: its span, the stage recorder's busy times, its counters.
	{"exec.execute_ms", "ms", "lower", aggMedian},
	{"exec.share_of_wall", "ratio", "lower", aggMedian},
	{"core.unaccounted_share", "ratio", "lower", aggMedian},
	{"exec.decode_busy_ms", "ms", "lower", aggMean},
	{"exec.filter_busy_ms", "ms", "lower", aggMean},
	{"exec.encode_busy_ms", "ms", "lower", aggMean},
	{"exec.copy_busy_ms", "ms", "lower", aggMean},
	{"exec.busy_over_wall", "ratio", "higher", aggMedian},
	{"exec.frames_decoded", "count", "lower", aggMean},
	{"exec.frames_encoded", "count", "lower", aggMean},
	{"exec.packets_copied", "count", "higher", aggMean},
	{"exec.frames_rendered", "count", "lower", aggMean},
	{"exec.decode_waste_ratio", "ratio", "lower", aggPass},
	{"exec.ttff_over_wall", "ratio", "lower", aggMedian},

	// Caches: counters the server serves at /debug/caches.
	{"media.gopcache_hit_ratio", "ratio", "higher", aggPass},
	{"media.gopcache_evictions", "count", "lower", aggPass},
	{"media.gopcache_resident_mb", "MiB", "lower", aggPass},
	{"media.rescache_hit_ratio", "ratio", "higher", aggPass},
	{"media.rescache_evictions", "count", "lower", aggPass},
	{"media.rescache_resident_mb", "MiB", "lower", aggPass},
	{"media.arbiter_denied", "count", "lower", aggPass},

	// Server and admission: client spans joined to flight records.
	{"serve.header_ms", "ms", "lower", aggMedian},
	{"serve.body_ms", "ms", "lower", aggMedian},
	{"serve.overhead_ms", "ms", "lower", aggMedian},
	{"admit.queue_wait_p50_ms", "ms", "lower", aggPass},
	{"admit.queue_wait_p90_ms", "ms", "lower", aggPass},
	{"admit.shed", "count", "lower", aggPass},

	// Engine process.
	{"proc.peak_rss_mb", "MiB", "lower", aggPass},
	{"proc.alloc_mb_per_op", "MiB", "lower", aggPass},
	{"proc.allocs_per_frame", "count", "lower", aggPass},
	{"obs.trace_overhead_share", "ratio", "lower", aggPass},

	// Probes: direct timed calls on frames and packets of the datasets.
	{"codec.decode_us_per_frame", "us", "lower", aggProbe},
	{"codec.encode_us_per_frame", "us", "lower", aggProbe},
	{"codec.bytes_per_frame", "count", "lower", aggProbe},
	{"raster.blur_us_per_frame", "us", "lower", aggProbe},
	{"raster.grid_us_per_frame", "us", "lower", aggProbe},
	{"raster.boxes_us_per_frame", "us", "lower", aggProbe},
	{"raster.scale_us_per_frame", "us", "lower", aggProbe},
	{"frame.pool_get_ns", "ns", "lower", aggProbe},
	{"container.open_us", "us", "lower", aggProbe},
	{"container.read_mb_per_s", "MiB/s", "higher", aggProbe},
	{"media.copyrange_us_per_packet", "us", "lower", aggProbe},
	{"media.smartcut_ms", "ms", "lower", aggProbe},
	{"media.frameat_cold_us", "us", "lower", aggProbe},
	{"media.frameat_warm_us", "us", "lower", aggProbe},
	{"admit.acquire_release_us", "us", "lower", aggProbe},
}

// layerUnit returns the unit of a per-layer metric.
func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("unknown per-layer metric " + name)
}

// metricValue is one reported metric: the value, and the samples behind
// it (their count, median and quartiles) where it was reduced from
// per-op samples.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// single reports a value that is one measurement, not a reduction.
func single(v float64, unit string) metricValue {
	return metricValue{Value: v, Unit: unit, N: 1, Q1: v, Median: v, Q3: v}
}

// reduced reports value as the reduction of samples.
func reduced(value float64, unit string, samples []float64) metricValue {
	q1, med, q3 := quartiles(samples)
	return metricValue{Value: value, Unit: unit, N: len(samples), Q1: q1, Median: med, Q3: q3}
}

// endToEndMetrics reduces the untraced timed pass to the end-to-end
// metrics. A failed op has no latency: it counts in fail_share only, as
// missing every percentile.
func endToEndMetrics(results []*opResult, window, cpuSeconds float64, setups []float64) map[string]metricValue {
	var wall, ttff []float64
	var frames, failed float64
	for _, r := range results {
		if r.Err != "" {
			failed++
			continue
		}
		wall = append(wall, millis(r.Wall))
		ttff = append(ttff, millis(r.TTFF))
		frames += float64(r.Frames)
	}
	sw, st := sortedCopy(wall), sortedCopy(ttff)
	return map[string]metricValue{
		"setup_s":          reduced(median(setups), "s", setups),
		"wall_p50_ms":      reduced(percentile(sw, 50), "ms", wall),
		"wall_p90_ms":      reduced(percentile(sw, 90), "ms", wall),
		"ttff_p50_ms":      reduced(percentile(st, 50), "ms", ttff),
		"ttff_p90_ms":      reduced(percentile(st, 90), "ms", ttff),
		"frames_per_s":     single(ratio(frames, window), "1/s"),
		"cpu_s_per_kframe": single(ratio(cpuSeconds*1000, frames), "s"),
		failShare:          single(ratio(failed, float64(len(results))), "ratio"),
	}
}

// reduceLayers reduces the per-op samples of a traced pass by each
// metric's aggregation. Pass-level and probe metrics are filled in by the
// caller.
func reduceLayers(results []*opResult) map[string]metricValue {
	samples := map[string][]float64{}
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		for name, v := range r.layer {
			samples[name] = append(samples[name], v)
		}
	}
	out := map[string]metricValue{}
	for _, d := range perLayer {
		s := samples[d.Name]
		switch d.Agg {
		case aggMedian:
			out[d.Name] = reduced(median(s), d.Unit, s)
		case aggMean:
			out[d.Name] = reduced(mean(s), d.Unit, s)
		}
	}
	return out
}
