package benchkit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"v2v/internal/baseline"
	"v2v/internal/core"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/vql"
)

// Config carries the measurement knobs shared by every benchmark runner.
type Config struct {
	// Scale selects quick or paper-shaped dataset durations.
	Scale Scale
	// OutDir receives (and has removed) the synthesized output files.
	OutDir string
	// Parallelism caps shard fan-out (0 = GOMAXPROCS).
	Parallelism int
	// Repeats is the number of measured runs per configuration (after one
	// discarded warm-up); values < 1 mean 1.
	Repeats int
	// GOPCache, when non-nil, routes source decodes through a shared
	// decoded-GOP cache (see media.GOPCache). CacheRun manages its own
	// caches; leave nil for the standard figures.
	GOPCache *media.GOPCache
	// ResultCache, when non-nil, memoizes rendered segments' encoded
	// output across runs (see media.ResultCache). CacheRun manages its
	// own caches; leave nil for the standard figures.
	ResultCache *media.ResultCache
	// Trace, when set, records one span per run (wrapping the pipeline's
	// own stage spans) for the whole sweep.
	Trace *obs.Trace
	// Flight, when set, records each chaos attempt as a flight-recorder
	// request (query, mode, outcome, error, stage totals) so a failing
	// chaos job can dump what it was doing — the same record shape
	// v2vserve serves at /debug/requests.
	Flight *obs.FlightRecorder
}

// Mode selects the engine configuration for one measurement.
type Mode string

const (
	// ModeUnopt runs the unoptimized V2V plan (Figs. 3 and 4 left bars).
	ModeUnopt Mode = "unopt"
	// ModeOpt runs the fully optimized V2V pipeline (right bars).
	ModeOpt Mode = "opt"
	// ModeBaseline runs the Python+OpenCV-equivalent engine (Fig. 5).
	ModeBaseline Mode = "baseline"
	// ModeCacheOff/Cold/Warm are the optimized pipeline without a GOP
	// cache, with a fresh cache, and with an already-populated cache.
	ModeCacheOff  Mode = "cache-off"
	ModeCacheCold Mode = "cache-cold"
	ModeCacheWarm Mode = "cache-warm"
	// ModeResultCold/Warm add the encoded-result cache on top of the GOP
	// cache (sharing one arbitrated byte budget): cold is a first run with
	// fresh caches, warm repeats the identical query — render segments are
	// spliced from the result cache with zero decodes and zero encodes.
	ModeResultCold Mode = "result-cold"
	ModeResultWarm Mode = "result-warm"
)

// Measurement is one timed run.
type Measurement struct {
	Dataset string
	Query   string
	Mode    Mode
	Wall    time.Duration
	// FirstOutput is the latency until the first output packet — the
	// paper's interactivity measure (zero for the baseline engine, which
	// has no streaming path).
	FirstOutput time.Duration
	// Work counters (copies/encodes/decodes across the run).
	Encodes int64
	Decodes int64
	Copies  int64
	// OutFrames is the output frame count (sanity check between modes).
	OutFrames int64
	// CacheHits/CacheMisses are the run's GOP-cache lookup deltas (zero
	// when Config.GOPCache is nil).
	CacheHits   int64
	CacheMisses int64
	// ResHits/ResMisses are the run's result-cache lookup deltas (zero
	// when Config.ResultCache is nil).
	ResHits   int64
	ResMisses int64
	// OutputSHA256 fingerprints the output file so cache-on and cache-off
	// runs can be proven byte-identical.
	OutputSHA256 string
}

// RunOnce synthesizes the query once in the given mode and returns the
// measurement. The output file is written under cfg.OutDir and removed
// afterwards.
func RunOnce(ds *Dataset, q Query, mode Mode, cfg Config) (Measurement, error) {
	src := q.BuildSpecSource(ds, cfg.Scale)
	spec, err := vql.Parse(src)
	if err != nil {
		return Measurement{}, fmt.Errorf("benchkit: %s/%s: %w", ds.Name, q.ID, err)
	}
	out := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-%s-%s.vmf", ds.Name, q.ID, mode))
	defer os.Remove(out)

	m := Measurement{Dataset: ds.Name, Query: q.ID, Mode: mode}
	sp := cfg.Trace.StartSpan(fmt.Sprintf("%s/%s/%s", ds.Name, q.ID, mode))
	defer sp.End()
	start := time.Now()
	switch mode {
	case ModeBaseline:
		bm, err := baseline.Run(spec, out, nil)
		if err != nil {
			return m, err
		}
		m.Wall = time.Since(start)
		m.Encodes = bm.Output.FramesEncoded
		m.Decodes = bm.Source.FramesDecoded
		m.OutFrames = bm.FramesRendered
	default:
		o := core.Options{Parallelism: cfg.Parallelism, GOPCache: cfg.GOPCache,
			ResultCache: cfg.ResultCache, Trace: cfg.Trace}
		if mode == ModeUnopt {
			// The paper's unoptimized bars are the sequential
			// operator-at-a-time plan: one worker, no overlap of segments.
			o.Parallelism = 1
		} else {
			o.Optimize = true
			o.DataRewrite = true
		}
		var cacheBefore media.GOPCacheStats
		if cfg.GOPCache != nil {
			cacheBefore = cfg.GOPCache.Stats()
		}
		var resBefore media.ResultCacheStats
		if cfg.ResultCache != nil {
			resBefore = cfg.ResultCache.Stats()
		}
		res, err := core.Synthesize(spec, out, o)
		if err != nil {
			return m, err
		}
		m.Wall = time.Since(start)
		m.FirstOutput = res.Metrics.FirstOutput
		m.Encodes = res.Metrics.TotalEncodes()
		m.Decodes = res.Metrics.TotalDecodes()
		m.Copies = res.Metrics.Output.PacketsCopied
		m.OutFrames = m.Copies + res.Metrics.Output.FramesEncoded
		if cfg.GOPCache != nil {
			after := cfg.GOPCache.Stats()
			m.CacheHits = after.Hits - cacheBefore.Hits
			m.CacheMisses = after.Misses - cacheBefore.Misses
		}
		if cfg.ResultCache != nil {
			after := cfg.ResultCache.Stats()
			m.ResHits = after.Hits - resBefore.Hits
			m.ResMisses = after.Misses - resBefore.Misses
		}
	}
	if h, err := fileSHA256(out); err == nil {
		m.OutputSHA256 = h
	}
	sp.SetAttr("wall_us", m.Wall.Microseconds())
	sp.SetAttr("first_output_us", m.FirstOutput.Microseconds())
	sp.SetAttr("encodes", m.Encodes)
	sp.SetAttr("decodes", m.Decodes)
	sp.SetAttr("copies", m.Copies)
	return m, nil
}

// Repeat runs RunOnce cfg.Repeats times (after one discarded warm-up,
// like the paper's methodology) and returns the measurement with the
// average wall time.
func Repeat(ds *Dataset, q Query, mode Mode, cfg Config) (Measurement, error) {
	n := cfg.Repeats
	if n < 1 {
		n = 1
	}
	if _, err := RunOnce(ds, q, mode, cfg); err != nil {
		return Measurement{}, err // warm-up
	}
	var acc Measurement
	for i := 0; i < n; i++ {
		m, err := RunOnce(ds, q, mode, cfg)
		if err != nil {
			return Measurement{}, err
		}
		if i == 0 {
			acc = m
		}
		if i > 0 {
			acc.Wall += m.Wall
			acc.FirstOutput += m.FirstOutput
		}
	}
	acc.Wall /= time.Duration(n)
	acc.FirstOutput /= time.Duration(n)
	return acc, nil
}

// Row is one line of a Fig. 3/4 table.
type Row struct {
	Query   string
	Unopt   time.Duration
	Opt     time.Duration
	Speedup float64
	// OptFirstOutput is the optimized run's time to first output packet —
	// tracked as a first-class metric so interactivity regressions are
	// flagged alongside wall-time ones.
	OptFirstOutput time.Duration
}

// CompareRun produces the unopt-vs-opt rows for every query on ds — the
// data behind Fig. 3 (ToS) and Fig. 4 (KABR).
func CompareRun(ds *Dataset, cfg Config) ([]Row, error) {
	var rows []Row
	for _, q := range Queries() {
		u, err := Repeat(ds, q, ModeUnopt, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s unopt: %w", ds.Name, q.ID, err)
		}
		o, err := Repeat(ds, q, ModeOpt, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s opt: %w", ds.Name, q.ID, err)
		}
		if u.OutFrames != o.OutFrames {
			return nil, fmt.Errorf("benchkit: %s %s output frame mismatch: %d vs %d",
				ds.Name, q.ID, u.OutFrames, o.OutFrames)
		}
		rows = append(rows, Row{
			Query: q.ID, Unopt: u.Wall, Opt: o.Wall,
			Speedup:        seconds(u.Wall) / seconds(o.Wall),
			OptFirstOutput: o.FirstOutput,
		})
	}
	return rows, nil
}

// DataJoinRow is one line of the Fig. 5 table.
type DataJoinRow struct {
	Dataset  string
	Query    string
	Baseline time.Duration
	V2V      time.Duration
	Speedup  float64
}

// DataJoinRun measures the data-joining queries (Q5, Q10) against the
// baseline engine on ds — the data behind Fig. 5.
func DataJoinRun(ds *Dataset, cfg Config) ([]DataJoinRow, error) {
	var rows []DataJoinRow
	for _, q := range Queries() {
		if !q.JoinsData {
			continue
		}
		b, err := Repeat(ds, q, ModeBaseline, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s baseline: %w", ds.Name, q.ID, err)
		}
		o, err := Repeat(ds, q, ModeOpt, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s v2v: %w", ds.Name, q.ID, err)
		}
		rows = append(rows, DataJoinRow{
			Dataset: ds.Name, Query: q.ID, Baseline: b.Wall, V2V: o.Wall,
			Speedup: seconds(b.Wall) / seconds(o.Wall),
		})
	}
	return rows, nil
}

// CacheRow is one line of the cache benchmark table: the same optimized
// query with no cache, a cold/warm GOP cache, and a cold/warm GOP+result
// cache stack (sharing one arbitrated budget). Output identity is verified
// by SHA-256 within each encoder-compatible group: {off, gop-cold,
// gop-warm} are byte-identical, and {result-cold, result-warm} are
// byte-identical (cached segments are encoded by fresh per-segment
// encoders so they can splice anywhere, which legitimately changes the
// bitstream — not the frames — versus the uncached single-encoder path).
type CacheRow struct {
	Query string
	Off   time.Duration
	Cold  time.Duration
	Warm  time.Duration
	// Decode counts per configuration; DecodeReduction = OffDecodes /
	// ColdDecodes (how much decoding the cache removed within one run).
	OffDecodes      int64
	ColdDecodes     int64
	WarmDecodes     int64
	DecodeReduction float64
	// Hit/miss deltas for the cold and warm runs.
	ColdHits, ColdMisses int64
	WarmHits, WarmMisses int64
	// Result-cache stack measurements (GOP + result caches, shared budget).
	ResultCold time.Duration
	ResultWarm time.Duration
	// Work counters for the result modes: a warm repeat of a pure render
	// query does zero decodes and zero encodes.
	ResultColdDecodes, ResultColdEncodes int64
	ResultWarmDecodes, ResultWarmEncodes int64
	// Result-cache hit/miss deltas.
	ResultColdHits, ResultColdMisses int64
	ResultWarmHits, ResultWarmMisses int64
	// ResultWarmFirstOutput is the warm repeat's time to first output —
	// the interactivity win the result cache buys.
	ResultWarmFirstOutput time.Duration
}

// CacheRun measures every query in the optimized pipeline under five cache
// configurations: off, cold/warm GOP cache, and cold/warm GOP+result cache
// stack sharing one arbitrated byte budget. It verifies byte-identical
// outputs and equal output frame counts across all five, and that a warm
// result-cache repeat of a pure render query (no copied packets in its
// cold run) performs zero source decodes and zero frame encodes. Uses
// single runs (not Repeat) because a warm-up run would pre-populate the
// cold caches.
func CacheRun(ds *Dataset, cfg Config) ([]CacheRow, error) {
	var rows []CacheRow
	for _, q := range Queries() {
		offCfg := cfg
		offCfg.GOPCache = nil
		offCfg.ResultCache = nil
		off, err := RunOnce(ds, q, ModeCacheOff, offCfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s cache-off: %w", ds.Name, q.ID, err)
		}
		onCfg := offCfg
		onCfg.GOPCache = media.NewGOPCache(0)
		cold, err := RunOnce(ds, q, ModeCacheCold, onCfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s cache-cold: %w", ds.Name, q.ID, err)
		}
		warm, err := RunOnce(ds, q, ModeCacheWarm, onCfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s cache-warm: %w", ds.Name, q.ID, err)
		}
		resCfg := offCfg
		resCfg.GOPCache = media.NewGOPCache(0)
		resCfg.ResultCache = media.NewResultCache(0)
		arb := media.NewArbiter(0)
		resCfg.GOPCache.AttachArbiter(arb)
		resCfg.ResultCache.AttachArbiter(arb)
		resCold, err := RunOnce(ds, q, ModeResultCold, resCfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s result-cold: %w", ds.Name, q.ID, err)
		}
		resWarm, err := RunOnce(ds, q, ModeResultWarm, resCfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s result-warm: %w", ds.Name, q.ID, err)
		}
		// Every render shard uses a fresh encoder, cached or not, so no
		// cache state changes a byte of the output.
		for _, m := range []Measurement{cold, warm, resCold, resWarm} {
			if m.OutputSHA256 != off.OutputSHA256 {
				return nil, fmt.Errorf("benchkit: %s %s: %s output %s differs from cache-off %s",
					ds.Name, q.ID, m.Mode, m.OutputSHA256, off.OutputSHA256)
			}
			if m.OutFrames != off.OutFrames {
				return nil, fmt.Errorf("benchkit: %s %s: %s output frame count %d differs from cache-off %d",
					ds.Name, q.ID, m.Mode, m.OutFrames, off.OutFrames)
			}
		}
		// A pure render plan (nothing stream-copied when cold) is fully
		// memoizable: its warm repeat must be all splice — zero decodes,
		// zero encodes.
		if resCold.Copies == 0 && (resWarm.Decodes != 0 || resWarm.Encodes != 0) {
			return nil, fmt.Errorf("benchkit: %s %s: warm result-cache repeat did work: %d decodes, %d encodes",
				ds.Name, q.ID, resWarm.Decodes, resWarm.Encodes)
		}
		row := CacheRow{
			Query: q.ID, Off: off.Wall, Cold: cold.Wall, Warm: warm.Wall,
			OffDecodes: off.Decodes, ColdDecodes: cold.Decodes, WarmDecodes: warm.Decodes,
			ColdHits: cold.CacheHits, ColdMisses: cold.CacheMisses,
			WarmHits: warm.CacheHits, WarmMisses: warm.CacheMisses,
			ResultCold: resCold.Wall, ResultWarm: resWarm.Wall,
			ResultColdDecodes: resCold.Decodes, ResultColdEncodes: resCold.Encodes,
			ResultWarmDecodes: resWarm.Decodes, ResultWarmEncodes: resWarm.Encodes,
			ResultColdHits: resCold.ResHits, ResultColdMisses: resCold.ResMisses,
			ResultWarmHits: resWarm.ResHits, ResultWarmMisses: resWarm.ResMisses,
			ResultWarmFirstOutput: resWarm.FirstOutput,
		}
		if cold.Decodes > 0 {
			row.DecodeReduction = float64(off.Decodes) / float64(cold.Decodes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// NewGOPCache builds a decoded-GOP cache for Config.GOPCache; budgetBytes
// <= 0 defers sizing to the executor.
func NewGOPCache(budgetBytes int64) *media.GOPCache { return media.NewGOPCache(budgetBytes) }

// NewResultCache builds an encoded-result cache for Config.ResultCache;
// budgetBytes <= 0 uses the media package default.
func NewResultCache(budgetBytes int64) *media.ResultCache { return media.NewResultCache(budgetBytes) }

// fileSHA256 fingerprints a file's contents.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
