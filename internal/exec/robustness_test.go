package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"v2v/internal/check"
	"v2v/internal/container"
	"v2v/internal/dataset"
	"v2v/internal/faults"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/plan"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// copyFixture clones the shared test video so corruption tests can damage
// their own copy.
func copyFixture(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(fxVid)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "damaged.vmf")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildPlanFor is buildPlan over an arbitrary video path.
func buildPlanFor(t *testing.T, vid, body string, optimize bool) (*plan.Plan, error) {
	t.Helper()
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		%s`, vid, body)
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := check.Check(s, check.Options{})
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(c)
	if err != nil {
		return nil, err
	}
	if optimize {
		// Minimal hand-optimization for the copy path: the relevant plan
		// shapes are produced in the table test directly.
		_ = optimize
	}
	return p, nil
}

// packetRegion locates packet i's byte range in a pristine VMF file.
func packetRegion(t *testing.T, path string, i int) (off, size int64) {
	t.Helper()
	r, err := container.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Record(i)
	return rec.Offset, int64(rec.Size)
}

// indexOffset reads the footer's index offset.
func indexOffset(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var foot [16]byte
	if _, err := f.ReadAt(foot[:], st.Size()-16); err != nil {
		t.Fatal(err)
	}
	return int64(binary.LittleEndian.Uint64(foot[:8]))
}

// TestCorruptRegions flips bytes in every structural region of a VMF file
// and checks the promised behavior: header and index damage fail cleanly
// in both modes (structural corruption is never concealed); packet payload
// damage fails fast in strict mode but synthesizes a full-length result in
// concealment mode, with the concealed frames counted and visible in
// EXPLAIN ANALYZE.
func TestCorruptRegions(t *testing.T) {
	const seed = 42
	bodies := map[string]string{
		"render": `render(t) = grade(v[t], 5, 1.0, 1.0);`,
		"copy":   `render(t) = v[t];`,
	}
	for _, region := range []string{"header", "index", "payload"} {
		for shape, body := range bodies {
			t.Run(region+"/"+shape, func(t *testing.T) {
				vid := copyFixture(t)
				switch region {
				case "header":
					// Inside the JSON stream header, after magic + length.
					if err := faults.CorruptRange(vid, 9, 4, seed); err != nil {
						t.Fatal(err)
					}
				case "index":
					// The offset field of the first index record.
					if err := faults.CorruptRange(vid, indexOffset(t, vid)+8, 8, seed); err != nil {
						t.Fatal(err)
					}
				case "payload":
					off, size := packetRegion(t, vid, 10)
					if size < 4 {
						t.Fatalf("packet 10 only %d bytes", size)
					}
					if err := faults.CorruptRange(vid, off+2, 2, seed); err != nil {
						t.Fatal(err)
					}
				}

				if region != "payload" {
					// Structural damage: the container must refuse to open, so
					// plan construction already fails — identically with and
					// without concealment, which never masks structural errors.
					if _, err := buildPlanFor(t, vid, body, false); err == nil {
						t.Fatalf("corrupt %s region: plan over damaged file should fail", region)
					}
					return
				}

				p, err := buildPlanFor(t, vid, body, false)
				if err != nil {
					t.Fatalf("payload damage must not break open/plan: %v", err)
				}
				if shape == "copy" {
					// Force the stream-copy path over the damaged packet.
					p.Segments[0].Kind = plan.SegCopy
					p.Segments[0].Video = "v"
					p.Segments[0].From = 0
					p.Segments[0].To = 48
				}

				// Strict: fail fast with the typed corruption error.
				out := filepath.Join(t.TempDir(), "strict.vmf")
				_, err = Execute(context.Background(), p, out, Options{})
				if err == nil {
					t.Fatal("strict mode should fail on a corrupt packet")
				}
				if !errors.Is(err, container.ErrCorruptPacket) && !media.Concealable(err) {
					t.Fatalf("strict error not in the corruption class: %v", err)
				}
				if _, serr := os.Stat(out); !errors.Is(serr, os.ErrNotExist) {
					t.Fatalf("failed run left output at %s", out)
				}
				if _, serr := os.Stat(out + ".tmp"); !errors.Is(serr, os.ErrNotExist) {
					t.Fatalf("failed run left temp file at %s.tmp", out)
				}

				// Concealment: full-length output, concealed frames counted.
				out2 := filepath.Join(t.TempDir(), "conceal.vmf")
				m, err := Execute(context.Background(), p, out2, Options{Conceal: true})
				if err != nil {
					t.Fatalf("concealment mode failed: %v", err)
				}
				if m.TotalConcealed() == 0 {
					t.Error("concealment reported zero concealed frames")
				}
				r, err := media.OpenReader(out2)
				if err != nil {
					t.Fatalf("concealed output unreadable: %v", err)
				}
				defer r.Close()
				if r.NumFrames() != 48 {
					t.Errorf("concealed output has %d frames, want 48", r.NumFrames())
				}
				for i := 0; i < r.NumFrames(); i++ {
					if _, err := r.FrameAtIndex(i); err != nil {
						t.Fatalf("concealed output frame %d undecodable: %v", i, err)
					}
				}
				if len(m.Segments) == 0 || m.Segments[0].Concealed == 0 {
					t.Errorf("segment actuals missing concealed count: %+v", m.Segments)
				}
				if s := p.ExplainAnalyze(m.Segments); !strings.Contains(s, "concealed=") {
					t.Errorf("EXPLAIN ANALYZE missing concealed annotation:\n%s", s)
				}
			})
		}
	}
}

// cancelAfter is a context whose Err() flips to Canceled after n checks —
// deterministic mid-synthesis cancellation without racing a timer.
type cancelAfter struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}

func TestCancelMidSynthesisLeavesNoOutput(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
	dir := t.TempDir()
	out := filepath.Join(dir, "o.vmf")
	// Survive the pre-segment check and the first GOP-boundary check, then
	// cancel at the second GOP boundary — mid-segment by construction.
	ctx := &cancelAfter{Context: context.Background(), n: 2}
	m, err := Execute(ctx, p, out, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Errorf("canceled run returned metrics %+v", m)
	}
	ents, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("canceled run left files behind: %v", names)
	}
}

func TestCancelAlreadyExpiredFailsBeforeWork(t *testing.T) {
	p := buildPlan(t, `render(t) = v[t];`, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	out := filepath.Join(dir, "o.vmf")
	m, err := Execute(ctx, p, out, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Errorf("metrics = %+v, want nil", m)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("expired-context run created files: %v", ents)
	}
}

func TestCancelShardedSynthesis(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
	p.Segments[0].Kind = plan.SegFrames
	setShards(p, 2)
	dir := t.TempDir()
	out := filepath.Join(dir, "o.vmf")
	ctx := &cancelAfter{Context: context.Background(), n: 2}
	_, err := Execute(ctx, p, out, Options{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("canceled sharded run left files: %v", ents)
	}
}

func TestShardPanicRecoveredCountsMetric(t *testing.T) {
	registerPanicUDF("testexec_panic2")
	p := buildPlan(t, `render(t) = testexec_panic2(v[t]);`, false)
	setShards(p, 2)
	before := panicsRecovered.Value()
	_, err := Execute(context.Background(), p, filepath.Join(t.TempDir(), "o.vmf"), Options{Parallelism: 2})
	if err == nil {
		t.Fatal("panicking shard should fail the run")
	}
	// renderAt's own recover converts transform panics, so the error
	// mentions the panic either way; the worker backstop metric only fires
	// for panics outside renderAt. Assert the error, and that the metric
	// never went backwards.
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("error does not mention panic: %v", err)
	}
	if panicsRecovered.Value() < before {
		t.Error("panicsRecovered went backwards")
	}
}

// TestShardWorkerPanicBackstop panics outside renderAt (in the encoder
// config path) by corrupting the plan's output dimensions, proving the
// worker-level recover converts it into an error instead of crashing the
// process.
func TestShardWorkerPanicBackstop(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
	setShards(p, 2)
	// A nil root makes newSegmentRunner panic inside the worker goroutine,
	// before renderAt's recover is in scope.
	p.Segments[0].Root = nil
	before := panicsRecovered.Value()
	_, err := Execute(context.Background(), p, filepath.Join(t.TempDir(), "o.vmf"), Options{Parallelism: 2})
	if err == nil {
		t.Fatal("worker panic should surface as an error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error = %v, want shard panic message", err)
	}
	if got := panicsRecovered.Value(); got <= before {
		t.Errorf("panicsRecovered = %d, want > %d", got, before)
	}
}

// transientOnceFile fails the third ReadAt (the first packet read — open
// itself uses ReadAt twice, for footer and index) with a retryable error,
// exactly once per file.
type transientOnceFile struct {
	container.File
	mu      sync.Mutex
	readAts int
	fired   bool
}

type errTransientTest struct{}

func (errTransientTest) Error() string   { return "test: transient read (injected)" }
func (errTransientTest) Transient() bool { return true }

func (f *transientOnceFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.readAts++
	fire := !f.fired && f.readAts >= 3
	if fire {
		f.fired = true
	}
	f.mu.Unlock()
	if fire {
		return 0, errTransientTest{}
	}
	return f.File.ReadAt(p, off)
}

// TestTransientReadsRetried proves the container's bounded retry absorbs a
// single EAGAIN-class fault: the synthesis succeeds and the retry counter
// moves.
func TestTransientReadsRetried(t *testing.T) {
	container.SetFileWrapper(func(_ string, f container.File) container.File {
		return &transientOnceFile{File: f}
	})
	defer container.SetFileWrapper(nil)
	p := buildPlan(t, `render(t) = v[t];`, false)
	before := transientRetries.Value()
	out := filepath.Join(t.TempDir(), "o.vmf")
	if _, err := Execute(context.Background(), p, out, Options{}); err != nil {
		t.Fatalf("one transient fault should be retried away, got: %v", err)
	}
	if got := transientRetries.Value(); got <= before {
		t.Errorf("transientRetries = %d, want > %d", got, before)
	}
}

// TestStreamSinkCancelOmitsEOS checks the streaming contract: a canceled
// stream ends without the end-of-stream marker so the consumer sees
// truncation, not a clean end.
func TestStreamSinkCancelOmitsEOS(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
	var buf strings.Builder
	sink, err := media.NewStreamWriter(&nopWriter{&buf}, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), n: 2}
	if _, err := ExecuteTo(ctx, p, sink, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sr, err := media.NewStreamReader(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, err := sr.NextPacket()
		if err == io.EOF {
			t.Fatal("canceled stream ended with a clean EOS marker")
		}
		if err != nil {
			break // truncation error: the correct signal
		}
	}
}

type nopWriter struct{ b *strings.Builder }

func (w *nopWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

// killChildEnv, when set, makes the test binary the child of
// TestKillMidWriteLeavesNoOutput instead of running the tests: TestMain
// hands its value, a directory, to killMidWriteChild.
const killChildEnv = "V2V_EXEC_KILL_CHILD"

// killMidWriteChild executes a two-shard render plan into dir/out.vmf
// through a transform that never returns for the second shard's frames,
// so the process stays mid-write, the first shard's packets in
// dir/out.vmf.tmp, until its parent kills it. It returns only on failure.
func killMidWriteChild(dir string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "kill-mid-write child:", err)
		return 3
	}
	src := filepath.Join(dir, "src.vmf")
	if _, err := dataset.Generate(src, "", dataset.TinyProfile(), rational.FromInt(2)); err != nil {
		return fail(err)
	}
	vql.Register(&vql.Transform{
		Name:   "testexec_stall",
		Params: []vql.Type{vql.TypeFrame},
		Result: vql.TypeFrame,
		Eval: func(_ vql.Alloc, args []vql.Val) (vql.Val, error) {
			if id, ok := frame.ReadStamp(args[0].Frame); ok && id >= 24 {
				for {
					time.Sleep(time.Hour) // sleeping, not blocked: the runtime must not end the process as deadlocked
				}
			}
			return args[0], nil
		},
	})
	s, err := vql.Parse(fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		render(t) = testexec_stall(v[t]);`, src))
	if err != nil {
		return fail(err)
	}
	c, err := check.Check(s, check.Options{})
	if err != nil {
		return fail(err)
	}
	p, err := plan.Build(c)
	if err != nil {
		return fail(err)
	}
	_, err = Execute(context.Background(), setShards(p, 2), filepath.Join(dir, "out.vmf"), Options{Parallelism: 1})
	return fail(fmt.Errorf("Execute returned: %v", err))
}

// TestKillMidWriteLeavesNoOutput SIGKILLs a process in the middle of
// Execute, once the first shard's packets are in out.tmp: nothing may
// exist at out, and the torn temp file must not open as a VMF.
func TestKillMidWriteLeavesNoOutput(t *testing.T) {
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		t.Skip("needs a Unix child process to SIGKILL")
	}
	dir := t.TempDir()
	child := osexec.Command(os.Args[0], "-test.run=^$")
	child.Env = append(os.Environ(), killChildEnv+"="+dir)
	var stderr bytes.Buffer
	child.Stderr = &stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- child.Wait() }()
	t.Cleanup(func() { child.Process.Kill() }) // the child sleeps forever: never let it outlive the test
	out := filepath.Join(dir, "out.vmf")
	for deadline := time.Now().Add(30 * time.Second); !holdsPackets(out + ".tmp"); time.Sleep(5 * time.Millisecond) {
		select {
		case err := <-exited:
			t.Fatalf("child exited before the kill (%v):\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			child.Process.Kill()
			<-exited
			t.Fatalf("no packet reached %s.tmp in 30 s:\n%s", out, stderr.String())
		}
	}
	if err := child.Process.Kill(); err != nil { // SIGKILL on Unix
		t.Fatal(err)
	}
	<-exited
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("killed run left %s (stat: %v)", out, err)
	}
	if r, err := container.Open(out + ".tmp"); err == nil {
		r.Close()
		t.Errorf("the killed run's torn %s.tmp opens as a VMF", out)
	}
}

// holdsPackets reports whether the VMF being written at path has bytes
// past its header: magic, header length, header.
func holdsPackets(path string) bool {
	b, err := os.ReadFile(path)
	if err != nil || len(b) < 8 {
		return false
	}
	return len(b) > 8+int(binary.LittleEndian.Uint32(b[4:8]))
}
