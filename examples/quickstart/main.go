// Quickstart: generate a small synthetic video, write a declarative spec
// that zooms into one second of it, synthesize the result, and verify the
// output frame-exactly.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"v2v"
	"v2v/internal/dataset"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/rational"
)

func main() {
	dir, err := os.MkdirTemp("", "v2v-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. A source video: 10 seconds of synthetic footage (every frame
	// carries a machine-readable frame number).
	source := filepath.Join(dir, "footage.vmf")
	if _, err := dataset.Generate(source, "", dataset.TinyProfile(), rational.FromInt(10)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated", source)

	// 2. A declarative spec: a 3-second result; the first 2 seconds clip
	// footage starting at t=4s, the last second zooms in 2x.
	src := fmt.Sprintf(`
		timedomain range(0, 3, 1/24);
		videos { cam: %q; }
		render(t) = match t {
			t in range(0, 2, 1/24) => cam[t + 4],
			t in range(2, 3, 1/24) => zoom(cam[t + 4], 2),
		};
	`, source)
	spec, err := v2v.ParseSpec(src)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Look at the optimized plan before running it.
	explain, err := v2v.Explain(spec, v2v.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplan:")
	fmt.Print(explain)

	// 4. Synthesize.
	out := filepath.Join(dir, "result.vmf")
	res, err := v2v.Synthesize(spec, out, v2v.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynthesized %s in %v\n", out, res.Metrics.Wall)
	fmt.Printf("  packets copied  %d (the 2-second clip)\n", res.Metrics.Output.PacketsCopied)
	fmt.Printf("  frames encoded  %d (the zoomed second)\n", res.Metrics.Output.FramesEncoded)

	// 5. Verify frame-exactness via the embedded stamps: output frame i
	// must come from source frame 96+i (t=4s at 24 fps).
	r, err := media.OpenReader(out)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 48; i++ { // the copied clip is verifiable exactly
		fr, err := r.FrameAtIndex(i)
		if err != nil {
			log.Fatal(err)
		}
		id, ok := frame.ReadStamp(fr)
		fr.Release() // frames from a Reader are pooled; hand each back when done
		if !ok || id != uint32(96+i) {
			log.Fatalf("frame %d: stamp=%d ok=%v, want %d", i, id, ok, 96+i)
		}
	}
	fmt.Println("verified: output frames are exactly source frames 96..143 plus the zoomed second")
}
