package main

import (
	"math/rand"
	"sort"
)

// workload is one set of inputs the benchmark runs. The table below is
// the single list of workloads; BENCHMARK.json repeats the names and the
// reasons, and a test keeps the two in step.
type workload struct {
	Name string
	Why  string
	// Serve workloads drive the built v2vserve binary over HTTP with C
	// closed-loop clients; the others call the engine in process from one
	// caller.
	Serve bool
	// ServerFlags are the cache flags the server starts with, on top of
	// the flags every server gets (see commonServerFlags).
	ServerFlags []string
	// round generates the next round of the schedule: the unit a pass
	// repeats. Every round of a workload holds the same mix of op classes;
	// the seed moves the clips and shuffles the order.
	round func(g *generator, st *schedState) []opSpec
}

// schedState is what a workload's schedule keeps between rounds.
type schedState struct {
	hot []opSpec // serve_mixed's hot pool, most popular first
}

const (
	// hotDraws and the 20 fresh specs of a serve_mixed round make 70% of
	// its requests repeats of the hot pool.
	hotDraws = 47
	// hotRankingSeed fixes which class is most popular, for every seed:
	// the seed moves the clips, not the shape of the traffic, so runs of
	// different seeds measure the same mix.
	hotRankingSeed = 20
)

var workloads = []workload{
	{
		Name: "batch_render",
		Why:  "in-process render-bound paper queries (grid, blur, boxes): decode, filter, encode and shard scheduling do the work; copy path, caches and server do none",
		// The ToS blur, the dearest query, runs twice per round: the 90th
		// percentile then lies among its runs instead of on the gap between
		// it and the KABR blur, and the median inside one class.
		round: func(g *generator, _ *schedState) []opSpec {
			cs := append(classes("tos", 3, 4, 5, 8, 9, 9, 10), classes("kabr", 3, 4, 8, 9)...)
			return drawRound(g, cs, false)
		},
	},
	{
		Name: "batch_copy",
		Why:  "in-process copy, smart-cut and data-rewrite-led queries on KABR: front end, container open, packet copy and the re-encoded head of each cut do the work; the filter kernels barely run",
		// The single-cut queries run twice per round: two thirds of the ops
		// are then cheap and alike, so the median lies among them instead
		// of on the gap between them and the four-cut queries.
		round: func(g *generator, _ *schedState) []opSpec {
			return drawRound(g, classes("kabr", 1, 1, 5, 5, 6, 6, 2, 7, 10), false)
		},
	},
	{
		Name:  "serve_mixed",
		Why:   "v2vserve with default caches: 70% Zipf(1) repeats of a warmed 20-spec hot pool, 30% fresh overlapping specs; the working set fits, so result-cache reads and GOP reuse are used",
		Serve: true,
		// A round is the expected mix made exact: every class once as a
		// fresh spec, and hotDraws repeats of the hot pool shared out over
		// its ranks in Zipf(1) proportion.
		round: func(g *generator, st *schedState) []opSpec {
			cs := allClasses()
			if st.hot == nil {
				st.hot = make([]opSpec, len(cs))
				for i, j := range rand.New(rand.NewSource(hotRankingSeed)).Perm(len(cs)) {
					st.hot[i] = g.draw(cs[j], true)
					st.hot[i].Hot = true
				}
			}
			var ops []opSpec
			for rank, n := range zipfShares(hotDraws, len(st.hot)) {
				for ; n > 0; n-- {
					ops = append(ops, st.hot[rank])
				}
			}
			for _, c := range cs {
				ops = append(ops, g.draw(c, true))
			}
			g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			return ops
		},
	},
	{
		Name:        "serve_cold_unique",
		Why:         "v2vserve with 96 MiB GOP and 16 MiB result caches, every spec unique, long render-bound queries over all five sources, 3.6x the GOP cache: fills, evictions and result inserts with no hits",
		Serve:       true,
		ServerFlags: []string{"-gop-cache-mb", "96", "-result-cache-mb", "16"},
		// Blur three times on each dataset, boxes twice on each: six ops in
		// ten are long blurs, so the median lies among the KABR blurs and
		// the 90th percentile among the ToS ones. A blur outlasts several
		// neighbours on the other connection, which evens out what it
		// loses to them; a boxes query is over within one neighbour, and
		// its latency swings by 2x with what that neighbour is, so the
		// percentiles are kept off it. The seeded shuffle and the seeded
		// KABR video keep consecutive requests on different sources most
		// of the time. The grids are left out: the four taps of the ToS
		// one pin 95 MiB of decoded GOPs, which no budget below the whole
		// working set holds next to a second request.
		round: func(g *generator, _ *schedState) []opSpec {
			cs := append(classes("kabr", 9, 9, 9, 10, 10), classes("tos", 9, 9, 9, 10, 10)...)
			return drawRound(g, cs, true)
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// drawRound draws one op per class in a seeded order.
func drawRound(g *generator, cs []class, unique bool) []opSpec {
	ops := make([]opSpec, len(cs))
	for i, j := range g.rng.Perm(len(cs)) {
		ops[i] = g.draw(cs[j], unique)
	}
	return ops
}

// zipfShares splits total draws over ranks 1..n in proportion to 1/rank,
// by largest remainder, so the counts are whole and add up to total.
func zipfShares(total, n int) []int {
	var h float64
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	counts := make([]int, n)
	frac := make([]float64, n)
	order := make([]int, n)
	left := total
	for k := range counts {
		exact := float64(total) / (float64(k+1) * h)
		counts[k] = int(exact)
		frac[k] = exact - float64(counts[k])
		order[k] = k
		left -= counts[k]
	}
	sort.SliceStable(order, func(i, j int) bool { return frac[order[i]] > frac[order[j]] })
	for _, k := range order[:left] {
		counts[k]++
	}
	return counts
}

// schedule is a workload's op sequence for one seed: rounds are generated
// on demand, in order, so a longer run extends a shorter one and two runs
// of one seed see the same ops.
type schedule struct {
	w   *workload
	g   *generator
	st  schedState
	ops []opSpec
	// roundLen is the length of every round (fixed per workload).
	roundLen int
	// checkPhase selects the pixel-check sample: every op whose index is
	// checkPhase modulo checkEvery, a seeded tenth of any run of ops.
	checkPhase int
}

// checkEvery is the stride of the pixel-check sample: one op in ten is
// compared with an independent reference render.
const checkEvery = 10

func newSchedule(w *workload, seed int64, ds *datasets) *schedule {
	s := &schedule{w: w, g: newGenerator(seed, ds)}
	s.checkPhase = s.g.rng.Intn(checkEvery)
	s.op(0)
	s.roundLen = len(s.ops)
	return s
}

// op returns the i-th operation, generating rounds as needed. Not safe
// for concurrent use; the pass loop calls it under its own lock.
func (s *schedule) op(i int) opSpec {
	for i >= len(s.ops) {
		for _, op := range s.w.round(s.g, &s.st) {
			op.Check = len(s.ops)%checkEvery == s.checkPhase
			s.ops = append(s.ops, op)
		}
	}
	return s.ops[i]
}

// hotPool returns serve_mixed's hot pool (nil for other workloads); the
// warm-up requests each of its specs.
func (s *schedule) hotPool() []opSpec { return s.st.hot }
