package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"v2v"
	"v2v/internal/codec"
	"v2v/internal/container"
)

// goldenPath holds pixel digests of checked operations, committed from a
// seed-1 run. The reference render catches an optimized plan that
// disagrees with the unoptimized one; the golden file catches a change
// that alters the pixels of both.
const goldenPath = "bench/golden/seed1.json"

type goldenFile struct {
	// Digests maps an op key (class, source video, start frame) to the
	// SHA-256 of its decoded output planes.
	Digests map[string]string `json:"digests"`
}

func loadGolden() (map[string]string, error) {
	raw, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	if g.Digests == nil {
		g.Digests = map[string]string{}
	}
	return g.Digests, nil
}

func writeGolden(d map[string]string) error {
	raw, err := json.MarshalIndent(goldenFile{Digests: d}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(raw, '\n'), 0o644)
}

// pixelDigest decodes n packets of a stream and hashes every plane of
// every frame, in order. The codec is lossless at the datasets' quality
// setting, so any correct plan of one spec yields the same digest.
func pixelDigest(info container.StreamInfo, n int, packet func(i int) ([]byte, error)) (string, error) {
	dec, err := codec.NewDecoder(codec.Config{
		Width: info.Width, Height: info.Height,
		Quality: info.Quality, GOP: info.GOP, Level: info.Level,
	})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		data, err := packet(i)
		if err != nil {
			return "", fmt.Errorf("packet %d: %w", i, err)
		}
		fr, err := dec.Decode(data)
		if err != nil {
			return "", fmt.Errorf("decode packet %d: %w", i, err)
		}
		for _, pl := range fr.Planes() {
			h.Write(pl)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func fileDigest(path string) (string, error) {
	c, err := container.Open(path)
	if err != nil {
		return "", err
	}
	defer c.Close()
	return pixelDigest(c.Info(), c.NumPackets(), c.ReadPacket)
}

func (k *keptOutput) digest() (string, error) {
	if k.path != "" {
		return fileDigest(k.path)
	}
	return pixelDigest(k.info, len(k.packets), func(i int) ([]byte, error) { return k.packets[i], nil })
}

func (k *keptOutput) discard() {
	if k.path != "" {
		os.Remove(k.path)
	}
}

// verifier checks operation outputs after the timed window has closed.
type verifier struct {
	dir      string // scratch directory for reference renders
	parallel int
	golden   map[string]string
	// refs holds the reference digest of every key checked so far.
	refs map[string]string
	// goldenChecked counts the checked keys the golden file held.
	goldenChecked int
}

// checkRepeats fails every op whose bytes differ from the first output
// seen for the same spec: the engine is deterministic, so a repeat that
// differs is a defect in some plan or cache path.
func checkRepeats(results []*opResult) {
	first := map[string]string{}
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		if b, ok := first[r.Op.Key]; !ok {
			first[r.Op.Key] = r.Bytes
		} else if b != r.Bytes {
			r.fail("repeat of %s is not byte-identical to its first output", r.Op.Key)
		}
	}
}

// checkPixels compares every kept output with an independent reference:
// the same spec rendered through the unoptimized plan (no optimizer, no
// data rewrite, one worker, no caches), decoded and hashed plane by plane.
// References are rendered once per key, on v.parallel workers.
func (v *verifier) checkPixels(ctx context.Context, results []*opResult) {
	// One kept output per key is decoded: checkRepeats has already failed
	// any repeat whose bytes differ from the first.
	var todo []*opResult
	seen := map[string]bool{}
	for _, r := range results {
		if r.kept == nil {
			continue
		}
		if seen[r.Op.Key] || r.Err != "" {
			r.kept.discard()
			r.kept = nil
			continue
		}
		seen[r.Op.Key] = true
		todo = append(todo, r)
	}
	// Render the references for keys not seen before.
	var keys []string
	texts := map[string]string{}
	for _, r := range todo {
		if _, ok := v.refs[r.Op.Key]; !ok && texts[r.Op.Key] == "" {
			texts[r.Op.Key] = r.Op.Text
			keys = append(keys, r.Op.Key)
		}
	}
	sort.Strings(keys)
	type ref struct{ digest, err string }
	rendered := make([]ref, len(keys))
	forEach(v.parallel, len(keys), func(_, i int) {
		if ctx.Err() != nil {
			rendered[i].err = ctx.Err().Error()
			return
		}
		path := filepath.Join(v.dir, fmt.Sprintf("ref%d.vmf", i))
		defer os.Remove(path)
		if _, err := v2v.SynthesizeSourceContext(ctx, texts[keys[i]], path, v2v.Options{Parallelism: 1}); err != nil {
			rendered[i].err = err.Error()
			return
		}
		d, err := fileDigest(path)
		if err != nil {
			rendered[i].err = err.Error()
		}
		rendered[i].digest = d
	})
	refErr := map[string]string{}
	for i, k := range keys {
		if rendered[i].err != "" {
			refErr[k] = rendered[i].err
			continue
		}
		v.refs[k] = rendered[i].digest
		if want, ok := v.golden[k]; ok {
			v.goldenChecked++
			if want != rendered[i].digest {
				refErr[k] = fmt.Sprintf("reference render digest %s differs from golden %s", rendered[i].digest, want)
			}
		}
	}
	// Decode the kept outputs and compare.
	forEach(v.parallel, len(todo), func(_, i int) {
		r := todo[i]
		defer func() {
			r.kept.discard()
			r.kept = nil
		}()
		if e := refErr[r.Op.Key]; e != "" {
			r.fail("reference for %s: %s", r.Op.Key, e)
			return
		}
		got, err := r.kept.digest()
		if err != nil {
			r.fail("decode output: %v", err)
		} else if got != v.refs[r.Op.Key] {
			r.fail("pixel digest %s differs from the unoptimized reference %s", got, v.refs[r.Op.Key])
		}
	})
}

// forEach runs f(worker, i) for i in 0..n-1 on up to workers goroutines,
// handing out the indexes in order, and waits for them.
func forEach(workers, n int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				f(worker, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
