// Wildlife: the paper's motivating example — "show me all the times zebras
// exhibited social behavior and overlay their IDs and the behavior type."
//
// A relational table of behavior events (as a VDBMS would produce from
// vision models) drives the synthesis: the result montage concatenates the
// social-behavior windows, draws the animals' bounding boxes with track
// IDs, and labels each window with the behavior type. The data-dependent
// rewriter stream-copies everything outside detection windows.
//
//	go run ./examples/wildlife
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"v2v"
	"v2v/internal/dataset"
	"v2v/internal/media"
	"v2v/internal/rational"
	"v2v/internal/sqlmini"
	"v2v/internal/vql"
)

func main() {
	dir, err := os.MkdirTemp("", "v2v-wildlife-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Drone footage with sparse zebra appearances (KABR-like) plus the
	// detector's box annotations.
	footage := filepath.Join(dir, "drone.vmf")
	boxes := filepath.Join(dir, "drone.boxes.json")
	prof := dataset.KABRProfile()
	if _, err := dataset.Generate(footage, boxes, prof, rational.FromInt(40)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated", footage)

	// The VDBMS side: a behavior table. Each row is one classified event
	// window; here graze/social events over the 40-second flight.
	db := v2v.NewDB()
	if _, err := db.CreateTable("behaviors", []sqlmini.Column{
		{Name: "ts", Type: vql.TypeNum},
		{Name: "behavior", Type: vql.TypeStr},
	}); err != nil {
		log.Fatal(err)
	}
	// Annotate each frame's behavior: "SOCIAL" during two windows that
	// overlap zebra visibility, empty otherwise.
	for i := int64(0); i < 40*30; i++ {
		ts := rational.New(i, 30)
		sec := ts.Float()
		behavior := ""
		if (sec >= 8 && sec < 10) || (sec >= 28 && sec < 30) {
			behavior = "SOCIAL"
		}
		if err := db.Insert("behaviors", []vql.Val{vql.NumV(ts), vql.StrV(behavior)}); err != nil {
			log.Fatal(err)
		}
	}

	// The synthesis spec: the full flight, with bounding boxes wherever
	// the detector fired and the behavior label burned in during events.
	// The rewriter removes boxes()/label() wherever their data is empty,
	// so quiet stretches stream-copy.
	src := fmt.Sprintf(`
		timedomain range(0, 40, 1/30);
		videos { drone: %q; }
		data { bb: %q; }
		sql { act: "SELECT ts, behavior FROM behaviors"; }
		render(t) = label(boxes(drone[t], bb[t]), act[t], 8, 8);
	`, footage, boxes)
	spec, err := v2v.ParseSpec(src)
	if err != nil {
		log.Fatal(err)
	}

	opts := v2v.DefaultOptions()
	opts.DB = db
	out := filepath.Join(dir, "zebra-social.vmf")
	res, err := v2v.Synthesize(spec, out, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsynthesized %s in %v\n", out, res.Metrics.Wall)
	fmt.Printf("  data rewrites: %v\n", res.RewriteStats.Applied)
	fmt.Printf("  match arms after rewrite: %d (from %d)\n",
		res.RewriteStats.ArmsAfter, res.RewriteStats.ArmsBefore)
	fmt.Printf("  packets stream-copied: %d of %d output frames\n",
		res.Metrics.Output.PacketsCopied,
		res.Metrics.Output.PacketsCopied+res.Metrics.Output.FramesEncoded)

	r, err := media.OpenReader(out)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	fmt.Printf("  result: %d frames, %v seconds\n", r.NumFrames(), r.Container().Duration())
}
