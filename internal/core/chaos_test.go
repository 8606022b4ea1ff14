package core

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"v2v/internal/faults"
	"v2v/internal/media"
)

// chaosSeed is the base seed of the seeded fault streams: V2V_CHAOS_SEED,
// default 1. A failure message names the seed, spec and mode, so
// `V2V_CHAOS_SEED=<seed> go test -run TestSeededReadFaultsFailCleanly`
// replays it.
func chaosSeed(t *testing.T) int64 {
	s := os.Getenv("V2V_CHAOS_SEED")
	if s == "" {
		return 1
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("V2V_CHAOS_SEED=%q: %v", s, err)
	}
	return seed
}

// TestSeededReadFaultsFailCleanly synthesizes every query shape — copy,
// smart cut, splice, grid, blur, boxes, and a source without keyframes in
// range — in strict and concealment mode while a seeded injector corrupts
// source reads with bit flips, short reads, transient errors and latency.
// Fault-induced failures are expected; the invariants are that a failed
// run leaves nothing at the output path, no file and no temp, and that a
// completed run's output opens and every frame decodes.
func TestSeededReadFaultsFailCleanly(t *testing.T) {
	seed := chaosSeed(t)
	t.Cleanup(faults.Deactivate)
	specs := []struct{ name, body string }{
		{"copy", `render(t) = v[t + 1];`},
		{"smartcut", `render(t) = v[t + 31/24];`},
		{"splice", `render(t) = match t {
			t in range(0, 1/2, 1/24) => v[t + 1],
			t in range(1/2, 1, 1/24) => w[t - 1/2],
			t in range(1, 3/2, 1/24) => v[t + 2],
			t in range(3/2, 2, 1/24) => w[t + 1/2],
		};`},
		{"grid", `render(t) = grid(v[t], w[t], v[t + 1], w[t + 1]);`},
		{"blur", `render(t) = blur(v[t], 1.2);`},
		{"boxes", `render(t) = boxes(v[t], bb[t]);`},
		{"sparse", `render(t) = s[t + 1/24];`},
	}
	var reads int64
	for si, sp := range specs {
		for mi, mode := range []string{"strict", "conceal"} {
			// A distinct fault stream per (spec, mode), reproducible per seed.
			runSeed := seed + int64(si)*2 + int64(mi)
			where := "seed " + strconv.FormatInt(seed, 10) + " " + sp.name + "/" + mode
			inj := faults.New(faults.Config{
				Seed:        runSeed,
				BitFlip:     0.02,
				Truncate:    0.005,
				Transient:   0.01,
				Latency:     200 * time.Microsecond,
				LatencyProb: 0.01,
			})
			o := DefaultOptions()
			o.Conceal = mode == "conceal"
			out := filepath.Join(t.TempDir(), "out.vmf")
			inj.Activate()
			_, err := SynthesizeSource(specSrc(sp.body), out, o)
			faults.Deactivate()
			reads += inj.Stats().Reads
			if err != nil {
				for _, p := range []string{out, out + ".tmp"} {
					if _, serr := os.Stat(p); !errors.Is(serr, os.ErrNotExist) {
						t.Errorf("%s: failed run (%v) left %s behind", where, err, filepath.Base(p))
					}
				}
				continue
			}
			if err := decodeAll(out); err != nil {
				t.Errorf("%s: completed run wrote unreadable output: %v", where, err)
			}
		}
	}
	if reads == 0 {
		t.Fatal("the injector saw no reads: source files were not opened through it")
	}
}

// decodeAll opens a VMF file and decodes every frame.
func decodeAll(path string) error {
	r, err := media.OpenReader(path)
	if err != nil {
		return err
	}
	defer r.Close()
	for i := 0; i < r.NumFrames(); i++ {
		if _, err := r.FrameAtIndex(i); err != nil {
			return err
		}
	}
	return nil
}
