package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"

	"v2v/internal/dataset"
	"v2v/internal/rational"
)

// Dataset and query shapes, fixed for every run and recorded in the env
// block. ToS-sim is one 50 s film with 10 s GOPs and boxes on every
// frame; KABR-sim is four 15 s drone videos with 1 s GOPs and sparse
// boxes. Q1–Q5 read short segments, Q6–Q10 long ones (the paper's 5 s and
// 1 min, scaled).
const (
	tosSeconds   = 50
	kabrSeconds  = 15
	kabrVideos   = 4
	shortSeconds = 2
	longSeconds  = 10
)

// source is one generated video with its annotation file.
type source struct {
	Video, Ann string
	FPS        int
	GOP        int // keyframe interval in frames
	Frames     int
}

// datasets are the inputs every workload reads, generated in set-up.
type datasets struct {
	ToS  source
	KABR [kabrVideos]source
}

// generateDatasets writes both datasets under dir, on up to workers
// goroutines, with the profiles' fixed content seeds: every run of every
// seed reads identical sources.
func generateDatasets(dir string, workers int) (*datasets, error) {
	var ds datasets
	type job struct {
		dst     *source
		name    string
		profile dataset.Profile
		seconds int64
	}
	jobs := []job{{&ds.ToS, "tos", dataset.ToSProfile(), tosSeconds}}
	for i := range ds.KABR {
		p := dataset.KABRProfile()
		p.Seed += int64(i) * 991
		jobs = append(jobs, job{&ds.KABR[i], fmt.Sprintf("kabr%d", i), p, kabrSeconds})
	}
	errs := make([]error, len(jobs))
	forEach(workers, len(jobs), func(_, i int) {
		j := jobs[i]
		*j.dst = source{
			Video: filepath.Join(dir, j.name+".vmf"),
			Ann:   filepath.Join(dir, j.name+".boxes.json"),
			FPS:   int(j.profile.FPS.Floor()),
			GOP:   j.profile.GOPFrames(),
		}
		if j.dst.Frames, errs[i] = dataset.Generate(j.dst.Video, j.dst.Ann, j.profile, rational.FromInt(j.seconds)); errs[i] != nil {
			errs[i] = fmt.Errorf("generate %s: %w", j.name, errs[i])
		}
	})
	return &ds, errors.Join(errs...)
}

// class is one paper query on one dataset: DS is "tos" or "kabr", Q is
// 1..10 (Q1/Q6 clip, Q2/Q7 splice of 4, Q3/Q8 2x2 grid, Q4/Q9 blur, Q5/Q10
// bounding boxes; Q6–Q10 are the long variants).
type class struct {
	DS string
	Q  int
}

func (c class) String() string { return fmt.Sprintf("%s/Q%d", c.DS, c.Q) }

type queryKind int

const (
	qClip queryKind = iota
	qSplice
	qGrid
	qBlur
	qBoxes
)

func (c class) kind() queryKind { return queryKind((c.Q - 1) % 5) }

func (c class) seconds() int {
	if c.Q > 5 {
		return longSeconds
	}
	return shortSeconds
}

func classes(ds string, qs ...int) []class {
	out := make([]class, len(qs))
	for i, q := range qs {
		out[i] = class{ds, q}
	}
	return out
}

// allClasses is the 5 kinds × 2 datasets × short/long pool serve_mixed
// draws from.
func allClasses() []class {
	all := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	return append(classes("tos", all...), classes("kabr", all...)...)
}

// opSpec is one generated operation: the spec text the program receives,
// plus what the benchmark needs to check its output.
type opSpec struct {
	// Key names the operation without its file paths (class, source video,
	// start frame): equal keys mean equal spec text in every run, so it
	// keys repeat detection and the golden file.
	Key   string
	Class class
	Text  string
	// Frames is the output frame count the spec's time domain demands.
	Frames int
	// RefFrames is the number of source frames the output references.
	RefFrames int
	// Hot marks a draw from serve_mixed's hot pool.
	Hot bool
	// Check marks the seeded sample whose pixels are compared with an
	// independent reference render.
	Check bool
}

// generator turns seeded draws into spec text. It is the only consumer of
// the seed: the program under test sees the text alone.
type generator struct {
	rng  *rand.Rand
	ds   *datasets
	used map[string]bool
}

func newGenerator(seed int64, ds *datasets) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), ds: ds, used: map[string]bool{}}
}

// tosStagger is the distance between the four segments the 4-input
// queries cut from the single ToS film: the segment plus a gap, so the
// segments stay separate clips instead of merging into one.
func tosStagger(seconds int) int {
	if seconds == longSeconds {
		return seconds + 2
	}
	return seconds + 5
}

// draw generates one operation of class c at a seeded start frame, on the
// frame grid and off the keyframe grid (so cuts land mid-GOP, as a user's
// would). With unique set, a start already used by this generator is
// never drawn again.
func (g *generator) draw(c class, unique bool) opSpec {
	// 4-input queries read KABR videos 0..3 or the one ToS film; the
	// others read one seeded KABR video.
	four := c.kind() == qSplice || c.kind() == qGrid
	src, vid := g.ds.ToS, 0
	if c.DS == "kabr" {
		if !four {
			vid = g.rng.Intn(kabrVideos)
		}
		src = g.ds.KABR[vid]
	}
	span := c.seconds() * src.FPS
	if four && c.DS == "tos" {
		span += 3 * tosStagger(c.seconds()) * src.FPS
	}
	// A start is a whole number of GOPs plus a phase from the middle
	// quarter of the GOP. The phase sets how many frames a cut decodes and
	// re-encodes before its first keyframe; keeping it in a narrow window
	// keeps the cost of one class close from seed to seed, while the seed
	// still picks the GOP, the phase and the video.
	lo, width := src.GOP/4, max(src.GOP/8, 15)
	gops := (src.Frames - span - lo - width) / src.GOP
	for tries := 0; ; tries++ {
		start := g.rng.Intn(gops+1)*src.GOP + lo + g.rng.Intn(width)
		key := fmt.Sprintf("%s@v%d+%d", c, vid, start)
		// After many collisions the class has run out of unused starts
		// (only runs far longer than run_seconds reach that); repeat one
		// rather than spin.
		if unique && g.used[key] && tries < 1000 {
			continue
		}
		g.used[key] = true
		op := g.build(c, vid, start)
		op.Key = key
		return op
	}
}

// build renders the spec text for class c reading source video vid from
// frame start.
func (g *generator) build(c class, vid, start int) opSpec {
	src := g.ds.ToS
	if c.DS == "kabr" {
		src = g.ds.KABR[vid]
	}
	L := c.seconds()
	fps := int64(src.FPS)
	step := rational.New(1, fps)
	// seg returns the video name and source start time of segment k.
	seg := func(k int) (string, rational.Rat) {
		if c.DS == "kabr" {
			return fmt.Sprintf("vid%d", k), rational.New(int64(start), fps)
		}
		return "vid0", rational.New(int64(start+k*tosStagger(L)*src.FPS), fps)
	}
	var sb strings.Builder
	declare := func(videos []source, ann string) {
		sb.WriteString("videos {\n")
		for i, v := range videos {
			fmt.Fprintf(&sb, "  vid%d: %q;\n", i, v.Video)
		}
		sb.WriteString("}\n")
		if ann != "" {
			fmt.Fprintf(&sb, "data {\n  bb0: %q;\n}\n", ann)
		}
	}
	one := []source{src}
	four := one
	if c.DS == "kabr" {
		four = g.ds.KABR[:]
	}
	off := rational.New(int64(start), fps)
	op := opSpec{Class: c, Frames: L * src.FPS, RefFrames: L * src.FPS}
	switch c.kind() {
	case qClip:
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", L, step)
		declare(one, "")
		fmt.Fprintf(&sb, "render(t) = vid0[t + %s];\n", off)
	case qSplice:
		op.Frames, op.RefFrames = 4*op.Frames, 4*op.RefFrames
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", 4*L, step)
		declare(four, "")
		sb.WriteString("render(t) = match t {\n")
		for k := 0; k < 4; k++ {
			v, at := seg(k)
			lo := int64(k * L)
			fmt.Fprintf(&sb, "  t in range(%d, %d, %s) => %s[t + %s],\n",
				lo, lo+int64(L), step, v, at.Sub(rational.FromInt(lo)))
		}
		sb.WriteString("};\n")
	case qGrid:
		op.RefFrames *= 4
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", L, step)
		declare(four, "")
		var taps []string
		for k := 0; k < 4; k++ {
			v, at := seg(k)
			taps = append(taps, fmt.Sprintf("%s[t + %s]", v, at))
		}
		fmt.Fprintf(&sb, "render(t) = grid(%s);\n", strings.Join(taps, ", "))
	case qBlur:
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", L, step)
		declare(one, "")
		fmt.Fprintf(&sb, "render(t) = blur(vid0[t + %s], 1.5);\n", off)
	case qBoxes:
		fmt.Fprintf(&sb, "timedomain range(0, %d, %s);\n", L, step)
		declare(one, src.Ann)
		fmt.Fprintf(&sb, "render(t) = boxes(vid0[t + %s], bb0[t + %s]);\n", off, off)
	}
	op.Text = sb.String()
	return op
}
