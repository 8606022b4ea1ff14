package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"v2v"
	"v2v/internal/check"
	"v2v/internal/container"
	"v2v/internal/core"
	"v2v/internal/exec"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/rewrite"
	"v2v/internal/vql"
)

// opResult is what one executed operation leaves behind.
type opResult struct {
	Op   opSpec
	Wall time.Duration
	// TTFF is request sent → first data packet fully read on the serve
	// workloads; on the batch workloads the output appears atomically, so
	// it equals Wall.
	TTFF   time.Duration
	Frames int
	// Bytes is the SHA-256 of the output (the file, or every packet of
	// the stream): repeats of one spec must produce the same value.
	Bytes string
	// Err is why the op failed; empty means it succeeded so far (the
	// verification phase can still fail it).
	Err string
	// kept holds the output of a pixel-check sample until verification.
	kept *keptOutput
	// layer holds the per-op layer samples of a traced op, by metric name.
	layer map[string]float64
	// traceID joins a serve op to the server's flight record; rootSpan is
	// the op's http.request span, annotated with that record.
	traceID  string
	rootSpan int
}

// keptOutput is an encoded result awaiting the pixel check: a VMF file on
// the batch workloads, the packets of the stream on the serve workloads.
type keptOutput struct {
	path    string
	info    container.StreamInfo
	packets [][]byte
}

func (r *opResult) fail(format string, args ...any) {
	if r.Err == "" {
		r.Err = fmt.Sprintf(format, args...)
	}
}

// batchExec runs operations in process, the way cmd/v2v and an embedding
// VDBMS do: optimizer and data rewrite on, caches off, output to a file.
type batchExec struct {
	dir      string // output directory
	parallel int
	// explained remembers the classes whose mirrored plan was compared
	// with core.Plan's in this pass.
	explained map[class]bool
}

func (b *batchExec) options() v2v.Options {
	o := v2v.DefaultOptions()
	o.Parallelism = b.parallel
	return o
}

// run executes one op untraced through the public API and checks the
// output file's frame count and bytes.
func (b *batchExec) run(ctx context.Context, i int, op opSpec) opResult {
	r := opResult{Op: op}
	out := filepath.Join(b.dir, fmt.Sprintf("op%d.vmf", i))
	start := time.Now()
	_, err := v2v.SynthesizeSourceContext(ctx, op.Text, out, b.options())
	r.Wall = time.Since(start)
	r.TTFF = r.Wall
	if err != nil {
		r.fail("synthesize: %v", err)
		return r
	}
	b.inspect(&r, out)
	return r
}

// inspect checks the output file's frame count, hashes its bytes, and
// either keeps it for the pixel check or removes it.
func (b *batchExec) inspect(r *opResult, out string) {
	c, err := container.Open(out)
	if err != nil {
		r.fail("open output: %v", err)
		return
	}
	r.Frames = c.NumPackets()
	info := c.Info()
	c.Close()
	if r.Frames != r.Op.Frames {
		r.fail("output has %d frames, spec demands %d", r.Frames, r.Op.Frames)
	}
	f, err := os.Open(out)
	if err != nil {
		r.fail("open output: %v", err)
		return
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		r.fail("read output: %v", err)
		return
	}
	r.Bytes = hex.EncodeToString(h.Sum(nil))
	if r.Op.Check && r.Err == "" {
		r.kept = &keptOutput{path: out, info: info}
		return
	}
	os.Remove(out)
}

// runTraced executes one op with tracing on: it calls each front-end
// module and the executor in the order core.Plan and core.Synthesize do,
// inside benchmark spans, with the engine's own Trace and Recorder set.
// The spans and the counters the modules return become the op's layer
// samples.
func (b *batchExec) runTraced(ctx context.Context, rec *spanRecorder, i int, op opSpec) opResult {
	r := opResult{Op: op, layer: map[string]float64{}}
	out := filepath.Join(b.dir, fmt.Sprintf("op%d.vmf", i))
	tr := obs.NewTrace("bench")
	stages := obs.NewRecorder()

	root := rec.start(i, 0, "op")
	root.arg("class", op.Class.String())
	var children time.Duration
	step := func(name, metric string, f func() error) error {
		sp := rec.start(i, root.id(), name)
		err := f()
		d := sp.end()
		children += d
		if metric != "" {
			r.layer[metric] = micros(d)
		}
		return err
	}

	var spec *vql.Spec
	var checked *check.Checked
	var p *plan.Plan
	var rstats rewrite.Stats
	var ostats opt.Stats
	var m *exec.Metrics
	var execWall time.Duration
	err := step("vql.parse", "vql.parse_us", func() (err error) {
		spec, err = vql.Parse(op.Text)
		return err
	})
	if err == nil {
		err = step("check", "check.check_us", func() (err error) {
			checked, err = check.Check(spec, check.Options{})
			return err
		})
	}
	if err == nil {
		err = step("rewrite", "rewrite.rewrite_us", func() error {
			rewritten, st, err := rewrite.Rewrite(checked)
			if err != nil {
				return err
			}
			rstats = st
			if rewritten != checked.Spec {
				c2 := *checked
				c2.Spec = rewritten
				checked = &c2
			}
			return nil
		})
	}
	if err == nil {
		err = step("plan.build", "plan.build_us", func() (err error) {
			p, err = plan.Build(checked)
			return err
		})
	}
	if err == nil {
		err = step("opt", "opt.optimize_us", func() (err error) {
			passes := opt.Default()
			passes.Parallelism = b.parallel
			passes.Trace = tr
			ostats, err = opt.Optimize(p, passes)
			return err
		})
	}
	if err == nil {
		err = step("exec", "", func() (err error) {
			start := time.Now()
			m, err = exec.Execute(ctx, p, out, exec.Options{
				Parallelism: b.parallel, Trace: tr, Recorder: stages,
			})
			execWall = time.Since(start)
			return err
		})
	}
	r.Wall = root.end()
	r.TTFF = r.Wall
	if err != nil {
		r.fail("traced synthesize: %v", err)
		return r
	}

	wall := float64(r.Wall)
	r.layer["rewrite.rewrites_applied"] = 0
	for _, n := range rstats.Applied {
		r.layer["rewrite.rewrites_applied"] += float64(n)
	}
	r.layer["opt.copies"] = float64(ostats.Copies)
	r.layer["opt.smart_cuts"] = float64(ostats.SmartCuts)
	r.layer["opt.sharded_segments"] = float64(ostats.ShardedSegs)
	r.layer["exec.execute_ms"] = millis(execWall)
	r.layer["exec.share_of_wall"] = float64(execWall) / wall
	r.layer["core.unaccounted_share"] = (wall - float64(children)) / wall
	var busy time.Duration
	for _, st := range []struct {
		s    obs.Stage
		name string
	}{
		{obs.StageDecode, "exec.decode_busy_ms"}, {obs.StageFilter, "exec.filter_busy_ms"},
		{obs.StageEncode, "exec.encode_busy_ms"}, {obs.StageCopy, "exec.copy_busy_ms"},
	} {
		w := stages.Stage(st.s).Wall
		busy += w
		r.layer[st.name] = millis(w)
	}
	r.layer["exec.busy_over_wall"] = float64(busy) / (float64(execWall) * float64(b.parallel))
	r.layer["exec.frames_decoded"] = float64(m.TotalDecodes())
	r.layer["exec.frames_encoded"] = float64(m.TotalEncodes())
	r.layer["exec.packets_copied"] = float64(m.Output.PacketsCopied)
	r.layer["exec.frames_rendered"] = float64(m.FramesRendered)
	r.layer["exec.ttff_over_wall"] = float64(m.FirstOutput) / float64(execWall)

	if !b.explained[op.Class] {
		// The mirror above must build the plan core.Plan builds, or the
		// traced pass measures a different program than the untraced one.
		b.explained[op.Class] = true
		ref, _, _, err := core.Plan(spec, b.options())
		if err != nil {
			r.fail("core.Plan: %v", err)
		} else if ref.Explain() != p.Explain() {
			r.fail("mirrored pipeline drifted from core.Plan:\n%s\nvs\n%s", p.Explain(), ref.Explain())
		}
	}
	b.inspect(&r, out)
	return r
}

// serveClient is one closed-loop client of the server: it owns one
// keep-alive connection and sends its next request only after the
// previous reply is complete.
type serveClient struct {
	base string
	http *http.Client
}

func newServeClient(base string) *serveClient {
	return &serveClient{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// run POSTs one spec with ?stream=1 and reads the VMS stream through
// media.StreamReader to its trailer, stamping the client-visible phases.
// With a recorder it also records them as spans.
func (c *serveClient) run(ctx context.Context, rec *spanRecorder, i int, op opSpec) opResult {
	r := opResult{Op: op}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/synthesize?stream=1", strings.NewReader(op.Text))
	if err != nil {
		r.fail("request: %v", err)
		return r
	}
	sent := time.Now()
	resp, err := c.http.Do(req)
	header := time.Now()
	if err != nil {
		r.Wall = time.Since(sent)
		r.fail("request: %v", err)
		return r
	}
	defer resp.Body.Close()
	r.traceID = resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		r.Wall = time.Since(sent)
		r.fail("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return r
	}
	sr, err := media.NewStreamReader(resp.Body)
	if err != nil {
		r.Wall = time.Since(sent)
		r.fail("stream header: %v", err)
		return r
	}
	h := sha256.New()
	var first time.Time
	var packets [][]byte
	for {
		key, data, err := sr.NextPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			r.Wall = time.Since(sent)
			r.fail("stream: %v", err)
			return r
		}
		if r.Frames == 0 {
			first = time.Now()
		}
		r.Frames++
		if key {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		h.Write(data)
		if op.Check {
			packets = append(packets, data)
		}
	}
	end := time.Now()
	r.Wall = end.Sub(sent)
	r.TTFF = first.Sub(sent)
	r.Bytes = hex.EncodeToString(h.Sum(nil))
	if tr, ok := sr.Trailer(); !ok || tr.Packets != int64(r.Frames) {
		r.fail("stream trailer reports %d packets (present=%v), read %d", tr.Packets, ok, r.Frames)
	}
	if r.Frames != op.Frames {
		r.fail("stream has %d frames, spec demands %d", r.Frames, op.Frames)
	}
	if op.Check && r.Err == "" {
		r.kept = &keptOutput{info: sr.Info(), packets: packets}
	}
	if rec != nil {
		r.rootSpan = rec.add(i, 0, "http.request", sent, end)
		rec.add(i, r.rootSpan, "header", sent, header)
		rec.add(i, r.rootSpan, "first_packet", header, first)
		rec.add(i, r.rootSpan, "body", first, end)
		r.layer = map[string]float64{
			"serve.header_ms": millis(header.Sub(sent)),
			"serve.body_ms":   millis(end.Sub(first)),
		}
	}
	return r
}
